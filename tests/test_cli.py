"""Configuration ingestion (defaults, strict rejection, unit conversion) and
the command-line surface: subcommands, exit codes, outputs, manifests."""

import csv
import itertools
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from microlcoe.cli import main, parse_design
from microlcoe.config import (
    _FINANCIAL_KEYS,
    ConfigError,
    StudyConfig,
    config_hash,
    load_config,
    parse_config,
    resolved_dict,
)
from microlcoe.costs import DEFAULT_COSTS, LB_U3O8_PER_KG_U, bounds_arrays, compile_lcoe
from microlcoe.fuelcycle import burnup_residual
from microlcoe.uncertainty import (
    STOCK_UNCERTAINTY,
    UncertainParameter,
    default_uncertain_parameters,
    generate_study,
    stock_parameter,
)

LIGHT_SOLVERS = {
    "ga": {"population": 30, "generations": 40, "stall_generations": 20, "restarts": 2},
    "sa": {"steps": 40, "moves_per_step": 10, "restarts": 2},
}


TINY_GA = {"ga": {"population": 8, "generations": 3, "elite_count": 2, "restarts": 1}}

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "config.sample.json"

DESIGN = "p=19.13,xp=5,xt=0.2913,t=6.24,db=30"

OVERFLOWED_TERM = "numerical error: lcoe component decommissioning is not finite"


def every_key_changed():
    """A valid config file that sets every key to a value other than its default."""
    uncertainty = {}
    for name, spec in resolved_dict(StudyConfig())["uncertainty"].items():
        low, high = 0.9 * spec["min"], 1.1 * spec["max"]
        nominal = 0.4 * low + 0.6 * high
        triangular = spec["pdf"] == "uniform"
        uncertainty[name] = {
            "pdf": "triangular" if triangular else "uniform",
            "min": low, "max": high, "nominal": nominal,
            "mode": 0.5 * (low + high) if triangular else None,
            "grid_points": 50,
        }
    return {
        "financial": {
            "discount_rate": 0.06, "inflation_rate": 0.03, "lifetime_years": 25.0,
            "capacity_factor": 0.9, "efficiency": 0.33, "ptc_rate": 20.0, "ptc_years": 8.0,
            "feed_assay": 0.72, "conversion_loss": 0.01, "downtime_years": 0.4,
            "downtime_model": False, "inflation_mode": "escalated",
        },
        "costs": {
            "occ": 3300.0, "n_fte": 6.0, "s_fte": 160_000.0, "fom": 550_000.0, "vom": 2.2,
            "c_yc": 110.0, "c_conv": 7.0, "c_swu": 170.0, "c_fab": 550.0, "c_spent": 1.5,
            "c_dec": 8000.0,
        },
        "uncertainty": uncertainty,
        "ga": {
            "population": 40, "generations": 30, "crossover_rate": 0.7, "mutation_rate": 0.2,
            "mutation_scale": 0.05, "elite_count": 4, "stall_generations": 10, "restarts": 3,
        },
        "sa": {
            "initial_temp": 5.0, "cooling_rate": 0.9, "steps": 30, "moves_per_step": 10,
            "step_scale": 0.2, "restarts": 2,
        },
        "benchmarks": [{"name": "some tech", "lcoe": 70.0}],
        "penalty_weight": 0.1,
        "seed": 5,
        "threads": 2,
        "output_dir": "elsewhere",
        "notes": "every key changed",
    }


# One rejected value per rule of CostInputs, GaConfig, SaConfig and
# UncertainParameter: (section, key, value, the keys its rejection names).
RULE_REJECTIONS = [
    *[("costs", name, -1.0, [name]) for name in DEFAULT_COSTS.__dataclass_fields__],
    ("costs", "c_yc_per_lb", -1.0, ["c_yc_per_lb"]),
    ("ga", "population", 3, ["population"]),
    ("ga", "crossover_rate", 1.5, ["crossover_rate"]),
    ("ga", "mutation_rate", -0.1, ["mutation_rate"]),
    ("ga", "mutation_scale", 1e308, ["mutation_scale"]),
    ("ga", "elite_count", -1, ["elite_count", "population"]),
    ("ga", "generations", -1, ["generations"]),
    ("ga", "stall_generations", 0, ["stall_generations"]),
    ("ga", "restarts", 0, ["restarts"]),
    ("sa", "initial_temp", 0.0, ["initial_temp"]),
    ("sa", "cooling_rate", 1.0, ["cooling_rate"]),
    ("sa", "steps", -1, ["steps"]),
    ("sa", "moves_per_step", 0, ["moves_per_step"]),
    ("sa", "step_scale", 0.0, ["step_scale"]),
    ("sa", "restarts", 0, ["restarts"]),
    ("uncertainty.occ", "pdf", "normal", ["pdf"]),
    ("uncertainty.occ", "min", 5000.0, ["min", "max"]),
    ("uncertainty.occ", "max", 2000.0, ["min", "max"]),
    ("uncertainty.occ", "mode", 3000.0, ["mode"]),
    ("uncertainty.c_yc", "mode", 200.0, ["mode", "min", "max"]),
    ("uncertainty.occ", "nominal", 5000.0, ["nominal", "min", "max"]),
    ("uncertainty.occ", "grid_points", 1, ["grid_points"]),
]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDefaults:
    def test_stock_costs(self):
        resolved = resolved_dict(StudyConfig())
        assert resolved["costs"] == {
            "occ": 3000.0,
            "n_fte": 5.0,
            "s_fte": 150_000.0,
            "fom": 500_000.0,
            "vom": 2.07,
            "c_yc": 104.0,
            "c_conv": 6.0,
            "c_swu": 160.0,
            "c_fab": 500.0,
            "c_spent": 1.0,
            "c_dec": 7500.0,
        }

    def test_stock_financial(self):
        fin = resolved_dict(StudyConfig())["financial"]
        assert fin["discount_rate"] == 0.05
        assert fin["inflation_rate"] == 0.02
        assert fin["lifetime_years"] == 20.0
        assert fin["capacity_factor"] == 0.93
        assert fin["efficiency"] == 0.35
        assert fin["ptc_rate"] == 25.0
        assert fin["ptc_years"] == 10.0
        assert fin["feed_assay"] == 0.711
        assert fin["downtime_years"] == 0.5
        assert fin["downtime_model"] is True
        assert fin["inflation_mode"] == "real"

    def test_stock_uncertainty_table(self):
        table = resolved_dict(StudyConfig())["uncertainty"]
        assert table["occ"] == {
            "pdf": "uniform", "min": 2500.0, "max": 4000.0,
            "mode": None, "nominal": 3000.0, "grid_points": 100,
        }
        assert table["c_yc"]["pdf"] == "triangular"
        assert (table["c_yc"]["min"], table["c_yc"]["max"]) == (84.0, 156.0)
        assert table["c_yc"]["mode"] == 104.0
        assert table["c_fab"]["pdf"] == "triangular"
        assert (table["c_fab"]["min"], table["c_fab"]["max"]) == (400.0, 750.0)
        assert (table["n_fte"]["min"], table["n_fte"]["max"]) == (3.0, 10.0)
        assert (table["s_fte"]["min"], table["s_fte"]["max"]) == (120_000.0, 225_000.0)
        assert (table["fom"]["min"], table["fom"]["max"]) == (400_000.0, 750_000.0)
        assert (table["vom"]["min"], table["vom"]["max"]) == (2.0, 2.5)
        assert (table["c_conv"]["min"], table["c_conv"]["max"]) == (4.0, 10.0)
        assert (table["c_swu"]["min"], table["c_swu"]["max"]) == (125.0, 240.0)

    def test_empty_object_equals_defaults(self):
        assert resolved_dict(parse_config({})) == resolved_dict(StudyConfig())

    def test_missing_path_equals_defaults(self):
        assert resolved_dict(load_config(None)) == resolved_dict(StudyConfig())

    def test_every_key_changed_payload_differs_everywhere(self):
        default = resolved_dict(StudyConfig())
        image = resolved_dict(parse_config(every_key_changed()))
        assert image.keys() == default.keys()
        for key in image:
            assert image[key] != default[key], key
        for section in ("financial", "costs", "uncertainty", "ga", "sa"):
            assert image[section].keys() == default[section].keys()
            for key in image[section]:
                assert image[section][key] != default[section][key], f"{section}.{key}"

    @pytest.mark.parametrize(
        "make",
        [StudyConfig, lambda: load_config(str(SAMPLE_CONFIG)),
         lambda: parse_config(every_key_changed())],
        ids=["default", "sample", "every-key"],
    )
    def test_resolved_image_reads_back(self, make):
        image = resolved_dict(make())
        assert resolved_dict(parse_config(json.loads(json.dumps(image)))) == image

    def test_sample_spells_out_every_default(self):
        sample = json.loads(SAMPLE_CONFIG.read_text())
        default = resolved_dict(StudyConfig())
        assert sample.keys() == default.keys()
        for section in ("financial", "costs", "uncertainty", "ga", "sa"):
            assert sample[section].keys() == default[section].keys(), section
        image = resolved_dict(load_config(str(SAMPLE_CONFIG)))
        for key in ("notes", "benchmarks"):
            del image[key], default[key]
        assert image == default


def typed_keys():
    """Every typed key of financial, costs, ga, sa and the top level, as
    pytest params of (dotted path, default value)."""
    image = resolved_dict(StudyConfig())
    keys = [("costs.c_yc_per_lb", 40.0)]
    for section in ("financial", "costs", "ga", "sa"):
        keys += [(f"{section}.{key}", value) for key, value in image[section].items()]
    keys += [(key, image[key]) for key in ("penalty_weight", "seed", "threads", "output_dir", "notes")]
    return [pytest.param(path, default, id=path) for path, default in keys]


# One wrongly typed value per field kind, as JSON text.
WRONG_TYPE = {float: '"x"', int: "1.5", bool: "1", str: "1"}


class TestStrictParsing:
    @pytest.mark.parametrize("literal", [False, True], ids=["wrong-type", "nan"])
    @pytest.mark.parametrize("path,default", typed_keys())
    def test_wrongly_typed_value_rejected_with_path(self, tmp_path, path, default, literal):
        text = "NaN" if literal else WRONG_TYPE[type(default)]
        for key in reversed(path.split(".")):
            text = f'{{"{key}": {text}}}'
        config = tmp_path / "config.json"
        config.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(str(config))
        assert str(info.value).startswith(f"{path} must be ")

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"capacity": 20}, "capacity"),
            ({"financial": {"rate": 0.05}}, "financial.rate"),
            ({"costs": {"c_uranium": 10}}, "costs.c_uranium"),
            ({"uncertainty": {"occ": {"midpoint": 1}}}, "uncertainty.occ.midpoint"),
            ({"ga": {"pop": 5}}, "ga.pop"),
            ({"sa": {"temp": 5}}, "sa.temp"),
            ({"benchmarks": [{"name": "x", "lcoe": 1, "year": 2020}]}, "benchmarks[0].year"),
        ],
    )
    def test_unknown_keys_rejected_with_path(self, payload, fragment):
        with pytest.raises(ConfigError, match=fragment.replace("[", "\\[").replace("]", "\\]")):
            parse_config(payload)

    def test_uranium_unit_exclusivity(self):
        with pytest.raises(ConfigError, match="c_yc"):
            parse_config({"costs": {"c_yc": 104.0, "c_yc_per_lb": 40.0}})

    def test_uranium_per_pound_conversion(self):
        config = parse_config({"costs": {"c_yc_per_lb": 40.0}})
        assert config.costs.c_yc == pytest.approx(40.0 * LB_U3O8_PER_KG_U, rel=1e-12)

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError):
            parse_config({"costs": {"occ": True}})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            parse_config({"seed": 1.5})
        with pytest.raises(ConfigError):
            parse_config({"financial": {"downtime_model": "yes"}})
        with pytest.raises(ConfigError):
            parse_config({"output_dir": 3})

    @pytest.mark.parametrize("key", list(_FINANCIAL_KEYS))
    def test_financial_rejection_names_the_config_key(self, key):
        # One rejected value per key, and the keys each rejection names.
        bad, named = {
            "discount_rate": (-0.01, ["discount_rate"]),
            "inflation_rate": (-0.01, ["inflation_rate"]),
            "lifetime_years": (5.0, ["ptc_years", "lifetime_years"]),
            "capacity_factor": (1.5, ["capacity_factor"]),
            "efficiency": (1.5, ["efficiency"]),
            "ptc_rate": (-1.0, ["ptc_rate"]),
            "ptc_years": (25.0, ["ptc_years", "lifetime_years"]),
            "feed_assay": (0.3, ["feed_assay"]),
            "conversion_loss": (1.0, ["conversion_loss"]),
            "downtime_years": (-0.1, ["downtime_years"]),
            "downtime_model": ("yes", ["downtime_model"]),
            "inflation_mode": ("nominal", ["inflation_mode"]),
        }[key]
        with pytest.raises(ConfigError) as info:
            parse_config({"financial": {key: bad}})
        prefix = " / ".join(f"financial.{k}" for k in named)
        assert str(info.value).startswith((f"{prefix}: ", f"{prefix} must be "))

    def test_invalid_values_reported_with_section(self):
        with pytest.raises(ConfigError, match="financial"):
            parse_config({"financial": {"efficiency": 1.5}})
        with pytest.raises(ConfigError, match="uncertainty.occ"):
            parse_config({"uncertainty": {"occ": {"min": 5000.0}}})

    def test_uncertain_nominals_follow_costs(self):
        config = parse_config({"costs": {"occ": 3100.0}})
        occ = next(p for p in config.uncertain if p.name == "occ")
        assert occ.nominal == 3100.0

    def test_range_override_must_keep_nominal_inside(self):
        # shrinking a range away from the nominal needs an explicit nominal
        with pytest.raises(ConfigError, match="uncertainty.occ"):
            parse_config({"uncertainty": {"occ": {"min": 3500.0}}})
        config = parse_config(
            {"uncertainty": {"occ": {"min": 3500.0, "nominal": 3600.0}}}
        )
        occ = next(p for p in config.uncertain if p.name == "occ")
        assert (occ.min, occ.nominal) == (3500.0, 3600.0)

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"notes": "\xff"}')
        with pytest.raises(ConfigError, match="utf-8"):
            load_config(str(config))
        code = main(["lcoe", "--config", str(config), "--design", DESIGN,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"seed": 1, "ga": {"restarts": 2}, "seed": 7}', "seed"),
            ('{"ga": {"restarts": 2, "population": 30, "restarts": 1}}', "restarts"),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys, text, key):
        config = tmp_path / "config.json"
        config.write_text(text)
        with pytest.raises(ConfigError, match=f"'{key}' is given more than once"):
            load_config(str(config))
        code = main(["lcoe", "--config", str(config), "--design", DESIGN,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_malformed_json_mentions_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text,path",
        [
            ('{"financial": {"downtime_years": NaN}}', "financial.downtime_years"),
            ('{"financial": {"lifetime_years": Infinity}}', "financial.lifetime_years"),
            ('{"costs": {"occ": -Infinity}}', "costs.occ"),
            ('{"uncertainty": {"occ": {"max": Infinity}}}', "uncertainty.occ.max"),
            ('{"ga": {"mutation_scale": NaN}}', "ga.mutation_scale"),
            ('{"penalty_weight": NaN}', "penalty_weight"),
            ('{"benchmarks": [{"name": "x", "lcoe": NaN}]}', "benchmarks[0].lcoe"),
            ('{"notes": NaN}', "notes"),
        ],
    )
    def test_non_finite_literals_rejected_with_path(self, tmp_path, text, path):
        config = tmp_path / "config.json"
        config.write_text(text)
        with pytest.raises(ConfigError, match=path.replace("[", "\\[").replace("]", "\\]")):
            load_config(str(config))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected_with_path(self, value):
        with pytest.raises(ConfigError, match="financial.downtime_years"):
            parse_config({"financial": {"downtime_years": value}})
        with pytest.raises(ConfigError, match="costs.c_swu"):
            parse_config({"costs": {"c_swu": value}})

    def test_nan_penalty_weight_rejected(self):
        with pytest.raises(ConfigError, match="penalty_weight"):
            StudyConfig(penalty_weight=float("nan"))

    @pytest.mark.parametrize(
        ("financial", "ulps"),
        [({}, 0), ({"capacity_factor": 0.8}, 0), ({"downtime_years": 1.0}, 0),
         # with the downtime model off the residual does not depend on
         # t_refuel, so corners that differ only in it tie up to rounding:
         # at stock settings t_refuel = 10 gives a maximum 4 ULPs above t = 2's
         ({"downtime_model": False}, 8)],
        ids=["stock", "cf-0.8", "t-down-1", "downtime-off"],
    )
    def test_residual_check_corners_are_the_box_extremes(self, monkeypatch, financial, ulps):
        # the overflow check costs the residual at two corners only, which
        # rests on those being its minimum and maximum over the whole box
        seen = []

        def recording(*args):
            seen.append(burnup_residual(*args))
            return seen[-1]

        monkeypatch.setattr("microlcoe.config.burnup_residual", recording)
        config = parse_config({"financial": financial})
        corners = np.array(list(itertools.product(*zip(*bounds_arrays()))))
        chain = compile_lcoe(config.costs, config.fin)(*corners.T)[8]
        assert len(corners) == 32 and len(seen) == 2
        extremes = np.array([chain.min(), chain.max()])
        assert np.all(np.abs(np.sort(seen) - extremes) <= ulps * np.spacing(np.abs(extremes)))

    @pytest.mark.parametrize(
        ("make", "digest"),
        [(StudyConfig, "3b362cd7fdbf0e96ee68d3e289a8d2123b2ede44cbcbbae156c9d78a37b7cc2d"),
         (lambda: load_config(str(SAMPLE_CONFIG)),
          "f198820b63d68542e5071efb088285f7d621b1a8b8cc24f1812682d515f3d14b")],
        ids=["default", "sample"],
    )
    def test_config_hash_is_pinned(self, make, digest):
        # a manifest's config_sha256 must not move under a refactor of the image
        assert config_hash(make()) == digest

    def test_config_hash_tracks_content(self):
        assert config_hash(parse_config({})) == config_hash(StudyConfig())
        assert config_hash(parse_config({"seed": 9})) != config_hash(StudyConfig())
        # fields that change no result leave the hash alone
        for field in ({"threads": 2}, {"output_dir": "elsewhere"}, {"notes": "rerun"}):
            assert config_hash(parse_config(field)) == config_hash(StudyConfig())


class TestUncertaintySpec:
    @pytest.mark.parametrize(
        "costs",
        [DEFAULT_COSTS, replace(DEFAULT_COSTS, occ=3500.0, n_fte=8.0, c_yc=150.0, c_fab=400.0)],
        ids=["stock", "repriced"],
    )
    def test_default_table_is_the_library_default(self, costs):
        assert StudyConfig(costs=costs).uncertain == tuple(default_uncertain_parameters(costs))

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("occ", "pdf", "triangular"),
            ("c_yc", "pdf", "uniform"),
            ("occ", "min", 2000.0),
            ("c_fab", "max", 900.0),
            ("c_yc", "mode", 120.0),
            ("occ", "mode", None),
            ("c_yc", "nominal", 100.0),
            ("c_swu", "grid_points", 50),
        ],
    )
    def test_override_read_from_file_is_the_builder(self, tmp_path, name, key, value):
        payload = {"costs": {"occ": 3200.0, "c_yc": 110.0}, "uncertainty": {name: {key: value}}}
        config = load_config(write_config(tmp_path, payload))
        param = next(p for p in config.uncertain if p.name == name)
        assert param == stock_parameter(name, config.costs, **{key: value})

    def test_spec_keys_are_the_parameter_fields(self):
        image = resolved_dict(StudyConfig())["uncertainty"]["occ"]
        assert list(image) == [f.name for f in fields(UncertainParameter)][1:]

    @pytest.mark.parametrize(
        "spec,message",
        [({"pdf": "normal"}, "pdf: pdf kind must be one of"),
         ({"mode": 3000.0}, "mode: uniform pdf takes no mode")],
        ids=["bad-kind", "uniform-mode"],
    )
    def test_bad_pdf_exits_2_naming_the_spec(self, tmp_path, capsys, spec, message):
        path = write_config(tmp_path, {"uncertainty": {"occ": spec}})
        code = main(["lcoe", "--config", path, "--design", DESIGN, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: uncertainty.occ.{message}" in capsys.readouterr().err


class TestParseDesign:
    def test_round_trip(self):
        design = parse_design("p=19.13,xp=5,xt=0.2913,t=6.24,db=30")
        assert design.p_elec == 19.13
        assert design.x_p == 5.0
        assert design.x_t == 0.2913
        assert design.t_refuel == 6.24
        assert design.db == 30.0

    @pytest.mark.parametrize(
        "text",
        [
            "p=19.13", "p=19,xp=5,xt=0.25,t=6,db=thirty", "power=19,xp=5,xt=0.25,t=6,db=30",
            "p=5,p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
        ],
    )
    def test_malformed_design(self, text):
        with pytest.raises(ConfigError):
            parse_design(text)

    def test_out_of_bounds_design(self):
        with pytest.raises(ConfigError):
            parse_design("p=25,xp=5,xt=0.25,t=6,db=30")


class TestCliCommands:
    def test_lcoe_breakdown_output(self, tmp_path, capsys):
        code = main(
            [
                "lcoe", "--design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
                "--downtime", "off", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "66.72" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "lcoe"
        assert manifest["config"]["financial"]["downtime_model"] is False

    @pytest.mark.parametrize("payload", [{}, every_key_changed()], ids=["default", "every-key"])
    def test_manifest_config_reruns_to_the_same_hash(self, tmp_path, payload):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["lcoe", "--design", DESIGN, "--config", write_config(tmp_path, payload)]
        assert main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        rerun = write_config(tmp_path, manifest["config"], name="rerun.json")
        assert main(["lcoe", "--design", DESIGN, "--config", rerun, "--out", str(second)]) == 0
        again = json.loads((second / "manifest.json").read_text())
        assert again["config_sha256"] == manifest["config_sha256"]
        assert again["config"] == {**manifest["config"], "output_dir": str(second)}

    def test_lcoe_bad_design_exits_2(self, tmp_path, capsys):
        code = main(["lcoe", "--design", "p=19.13", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("payload", "message"),
        [({"surprise": 1}, "unknown key surprise"),
         ({"financial": 0.05}, "financial must be an object"),
         ({"uncertainty": {"occ": []}}, "uncertainty.occ must be an object"),
         ({"benchmarks": {"name": "x", "lcoe": 1.0}}, "benchmarks must be a list"),
         ({"benchmarks": [{"name": "x"}]}, "benchmarks[0] needs both name and lcoe"),
         ({"benchmarks": [{"name": "x", "lcoe": 1.0}, {"name": "x", "lcoe": 2.0}]},
          "benchmarks: benchmark names must be unique"),
         (None, "cannot read config")],  # the config file does not exist
        ids=["unknown-key", "section-not-object", "spec-not-object", "benchmarks-not-list",
             "benchmark-without-lcoe", "duplicate-benchmark", "unreadable-file"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, payload, message):
        path = str(tmp_path / "missing.json") if payload is None else write_config(tmp_path, payload)
        code = main(
            ["lcoe", "--config", path, "--design", "p=19,xp=5,xt=0.25,t=6,db=30",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_non_finite_config_exits_2_with_path(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"financial": {"downtime_years": NaN}}')
        code = main(["optimize", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "financial.downtime_years" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [1, 100_001])
    def test_grid_points_out_of_range_exits_2_with_path(self, tmp_path, capsys, points):
        path = write_config(tmp_path, {"uncertainty": {"c_swu": {"grid_points": points}}})
        code = main(["study", "--mode", "all", "--config", path, "--n", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "uncertainty.c_swu.grid_points" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(STOCK_UNCERTAINTY))
    def test_cost_below_its_stock_range_exits_2_naming_it(self, tmp_path, capsys, name):
        _, low, _ = STOCK_UNCERTAINTY[name]
        path = write_config(tmp_path, {"costs": {name: 0.5 * low}})
        code = main(["lcoe", "--config", path, "--design", DESIGN, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: costs.{name}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,bad,named",
        [pytest.param(*case, id=f"{case[0]}.{case[1]}") for case in RULE_REJECTIONS],
    )
    def test_rejection_names_the_config_key(self, tmp_path, capsys, section, key, bad, named):
        payload = {key: bad}
        for part in reversed(section.split(".")):
            payload = {part: payload}
        path = write_config(tmp_path, payload)
        code = main(["lcoe", "--config", path, "--design", DESIGN, "--out", str(tmp_path / "o")])
        assert code == 2
        prefix = " / ".join(f"{section}.{k}" for k in named)
        assert capsys.readouterr().err.startswith(f"config error: {prefix}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "payload,named",
        [({"costs": {"c_yc_per_lb": 10.0}}, "costs.c_yc_per_lb: "),
         ({"costs": {"c_yc_per_lb": 1e308}}, "costs.c_yc_per_lb must be a finite number"),
         ({"uncertainty": {"occ": {"min": 3500.0}}},
          "costs.occ / uncertainty.occ.min / uncertainty.occ.max: ")],
        ids=["per-lb-below-range", "per-lb-overflows", "nominal-from-costs"],
    )
    def test_cost_outside_its_range_names_the_key_it_came_from(self, tmp_path, capsys, payload,
                                                                named):
        path = write_config(tmp_path, payload)
        code = main(["lcoe", "--config", path, "--design", DESIGN, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    @pytest.mark.parametrize(
        "payload,message",
        [({"costs": {"c_yc": 40.0}}, "costs.c_yc: nominal of c_yc must lie within [min, max]"),
         ({"uncertainty": {"occ": {"min": -1000.0, "max": 4000.0}}},
          "uncertainty.occ.min: min of occ must be >= 0"),
         ({"costs": {"c_fab": 1e200}, "uncertainty": {"c_fab": {"min": 0.0, "max": 2e200}}},
          "uncertainty.c_fab.min / uncertainty.c_fab.max: pdf density on the value grid")],
        ids=["nominal-before-mode", "negative-min", "density-overflows"],
    )
    def test_spec_sampling_cannot_draw_from_exits_2_before_any_search(
        self, tmp_path, capsys, monkeypatch, payload, message
    ):
        def no_search(*args, **kwargs):
            pytest.fail("the uncertainty spec is checked before any search")

        monkeypatch.setattr("microlcoe.cli.optimize_design", no_search)
        monkeypatch.setattr("microlcoe.analysis.optimize_design", no_search)
        path = write_config(tmp_path, payload)
        argv = ["study", "--mode", "all", "--n", "2", "--threads", "1", "--config", path,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "o").exists()

    def test_range_override_repairs_a_repriced_cost(self, tmp_path, capsys):
        payload = {"costs": {"occ": 1500.0}, "uncertainty": {"occ": {"min": 1000.0}}}
        code = main(["lcoe", "--config", write_config(tmp_path, payload), "--design", DESIGN,
                     "--out", str(tmp_path / "o")])
        assert code == 0
        occ = parse_config(payload).uncertain[0]
        assert (occ.name, occ.min, occ.max, occ.nominal) == ("occ", 1000.0, 4000.0, 1500.0)

    @pytest.mark.parametrize(
        "financial,named",
        [({"discount_rate": 1e308}, "financial.discount_rate: "),
         ({"inflation_rate": 1e308, "inflation_mode": "escalated"},
          "financial.discount_rate / financial.inflation_rate: ")],
    )
    def test_rate_that_overflows_compounding_exits_2(self, tmp_path, capsys, financial, named):
        path = write_config(tmp_path, {"financial": financial})
        code = main(["optimize", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["optimize"], ["lcoe", "--design", DESIGN]],
                             ids=["optimize", "lcoe"])
    @pytest.mark.parametrize(
        ("payload", "named"),
        [({"financial": {"capacity_factor": 1e-300}}, "financial.capacity_factor = 1e-300"),
         ({"financial": {"downtime_years": 1e300}}, "financial.downtime_years = 1e+300"),
         ({"penalty_weight": 1e308}, "penalty_weight = 1e+308")],
        ids=["capacity-factor", "downtime", "penalty-weight"],
    )
    def test_overflowing_burnup_residual_exits_2_before_any_search(
        self, tmp_path, capsys, monkeypatch, payload, named, command
    ):
        def no_search(*args, **kwargs):
            pytest.fail("the burnup residual is checked before any search")

        monkeypatch.setattr("microlcoe.cli.optimize_design", no_search)
        path = write_config(tmp_path, payload)
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: the burnup residual penalty overflows: " in err
        assert named in err
        for key in ("financial.capacity_factor", "financial.downtime_years", "penalty_weight"):
            assert f"{key} = " in err
        assert not (tmp_path / "o").exists()

    def test_downtime_flag_that_overflows_the_residual_exits_2(self, tmp_path, capsys):
        payload = {"financial": {"downtime_model": False, "downtime_years": 1e300}}
        argv = ["lcoe", "--config", write_config(tmp_path, payload), "--design", DESIGN,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--downtime", "on"]) == 2
        err = capsys.readouterr().err
        assert "config error: --downtime on: the burnup residual penalty overflows: " in err
        assert "financial.downtime_years = 1e+300" in err

    def test_inflation_mode_flag_that_overflows_compounding_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"financial": {"inflation_rate": 1e308}})
        argv = ["lcoe", "--config", path, "--design", DESIGN, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--inflation-mode", "escalated"]) == 2
        assert "config error: --inflation-mode escalated: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "message"),
        [(["--threads", "0"], "config error: --threads 0: threads must be >= 1"),
         (["--seed", "-1"], "config error: --seed -1: seed must be >= 0")],
        ids=["threads-0", "seed-negative"],
    )
    def test_flag_error_names_the_flag(self, tmp_path, capsys, flag, message):
        assert main(["lcoe", "--design", DESIGN, *flag, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failing_scenario_exits_3_with_its_id(self, tmp_path, capsys, threads):
        # an overnight cost of 1e306 $/kW overflows the capital charge, so
        # exactly the scenarios that draw it fail
        payload = dict(LIGHT_SOLVERS)
        payload["uncertainty"] = {"occ": {"min": 3000.0, "max": 1e306, "grid_points": 2}}
        config = parse_config(payload)
        scenarios = generate_study(config.uncertain, "occ", n=4, seed=3, base=config.costs)
        failing = [s.id for s in scenarios if s.costs.occ == 1e306]
        assert failing and failing[0] > 0
        code = main(
            ["study", "--config", write_config(tmp_path, payload), "--mode", "occ",
             "--n", "4", "--seed", "3", "--threads", threads, "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert f"scenario {failing[0]} failed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("command", "head", "tail"),
        [(["lcoe", "--design", DESIGN], OVERFLOWED_TERM, "is not finite"),
         (["sweep", "--param", "discount", "--fixed-design", DESIGN], OVERFLOWED_TERM,
          "is not finite (discount_rate value 0.03)"),
         # a re-optimizing sweep meets the overflow in a population, where numpy warns
         pytest.param(["sweep", "--param", "efficiency"],
                      "numerical error: objective is not finite at design [",
                      "] (efficiency value 0.35)",
                      marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"))],
        ids=["lcoe", "sweep", "sweep-reoptimized"],
    )
    def test_overflowing_cost_exits_3(self, tmp_path, capsys, command, head, tail):
        # a finite decommissioning cost of 1e306 $/kW overflows its charge
        path = write_config(tmp_path, {"costs": {"c_dec": 1e306}, **TINY_GA})
        out = tmp_path / "o"
        code = main([*command, "--config", path, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert head in err
        assert err.rstrip().endswith(tail)  # a failing sweep names its value
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        ("command", "out", "overflow", "expected"),
        [(["study", "--mode", "all", "--n", "0"], "o", False, 2),
         (["sweep", "--param", "efficiency", "--values", "0.35,nan"], "o/sub", False, 2),
         (["lcoe", "--design", "p=25,xp=5,xt=0.25,t=6,db=30"], "o", False, 2),
         (["lcoe", "--design", DESIGN], "o", True, 3),
         (["sweep", "--param", "discount", "--fixed-design", DESIGN], "o/sub", True, 3),
         (["lcoe", "--design", DESIGN, "--threads", "0"], "o", False, 2),
         (["lcoe", "--design", DESIGN, "--seed", "-1"], "o", False, 2),
         (["sweep", "--param", "efficiency", "--values", ","], "o", False, 2),
         (["lcoe", "--design", "p19,xp=5,xt=0.2913,t=6.24,db=30"], "o", False, 2),
         # NaN passes the box comparisons; only ReactorDesign's finiteness check stops it
         (["lcoe", "--design", "p=nan,xp=5,xt=0.2913,t=6.24,db=30"], "o", False, 2)],
        ids=["study-n0", "sweep-nan", "lcoe-out-of-box", "lcoe-overflow", "sweep-overflow",
             "threads-0", "seed-negative", "values-empty", "design-not-key-value",
             "design-nan"],
    )
    def test_failing_command_writes_no_manifest(self, tmp_path, command, out, overflow,
                                                expected):
        # a failing run leaves neither files nor the directory behind
        if overflow:
            command = [*command, "--config", write_config(tmp_path, {"costs": {"c_dec": 1e306}})]
        assert main([*command, "--out", str(tmp_path / out)]) == expected
        assert not (tmp_path / "o").exists()

    def test_search_too_large_to_allocate_exits_3(self, tmp_path, capsys, monkeypatch):
        # a search whose buffers do not fit, such as {"ga": {"generations": 1e12}}
        message = "Unable to allocate 146. TiB for an array with shape (20, 1000000000001)"

        def unallocatable(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("microlcoe.cli.optimize_design", unallocatable)
        assert main(["optimize", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"optimization error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        ("command", "name"),
        [(["lcoe", "--design", DESIGN], "manifest.json"),
         (["optimize"], "manifest.json"),
         (["optimize"], "optimize.csv"),
         (["compare"], "compare.csv")],
        ids=["lcoe-manifest", "optimize-manifest", "optimize-csv", "compare-csv"],
    )
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, command, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        argv = [*command, "--config", write_config(tmp_path, TINY_GA), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: output file {str(out / name)!r} cannot be written" in err
        assert "Traceback" not in err
        # neither a new file without its manifest nor a manifest without its files
        assert [p.name for p in out.iterdir()] == [name]

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["study", "--mode", "occ", "--n", "2", "--config", write_config(tmp_path, TINY_GA),
                "--out", str(out)]
        assert main([*argv, "--seed", "0"]) == 0
        (out / "study_occ_stats.csv").unlink()
        (out / "study_occ_stats.csv").mkdir()
        assert main([*argv, "--seed", "1"]) == 2
        assert "study_occ_stats.csv' cannot be written" in capsys.readouterr().err
        # the seed-1 rows were written, so the seed-0 manifest must be gone
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", [["lcoe", "--design", DESIGN], ["optimize"]],
                             ids=["lcoe", "optimize"])
    @pytest.mark.parametrize("under", ["afile", "afile/sub"])
    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_output_dir_that_cannot_be_created_exits_2(self, tmp_path, capsys, monkeypatch,
                                                       under, via, command):
        def no_search(*args, **kwargs):
            pytest.fail("the output directory is checked before any search")

        monkeypatch.setattr("microlcoe.cli.optimize_design", no_search)
        (tmp_path / "afile").touch()
        out = str(tmp_path / under)
        argv = list(command)
        if via == "--out":
            argv += ["--out", out]
        else:
            argv += ["--config", write_config(tmp_path, {"output_dir": out})]
        assert main(argv) == 2
        assert f"config error: output directory {out!r} cannot be created" in (
            capsys.readouterr().err
        )

    def test_sa_gap_is_not_negative_when_the_objective_is(self, tmp_path, capsys):
        # a credit of 1000 $/MWh drives the optimum's cost below zero
        path = write_config(tmp_path, {**LIGHT_SOLVERS, "financial": {"ptc_rate": 1000.0}})
        code = main(["optimize", "--config", path, "--validate-sa", "--out", str(tmp_path / "o")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "lcoe -" in stdout
        gap = float(stdout.rsplit("relative gap ", 1)[1].strip().rstrip("%"))
        assert gap >= 0.0

    def test_optimize_with_sa_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, LIGHT_SOLVERS)
        out = tmp_path / "run"
        code = main(
            ["optimize", "--config", path, "--seed", "3", "--validate-sa", "--out", str(out)]
        )
        assert code == 0
        with open(out / "optimize.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["method"] for r in rows] == ["ga", "sa"]
        assert float(rows[0]["x_p"]) == pytest.approx(5.0, abs=0.2)
        stdout = capsys.readouterr().out
        assert "sa check" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "optimize.csv" in manifest["outputs"]

    def test_study_outputs_and_determinism(self, tmp_path):
        path = write_config(tmp_path, LIGHT_SOLVERS)
        out = tmp_path / "run"
        argv = ["study", "--config", path, "--mode", "occ", "--n", "4",
                "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        names = ("study_occ.csv", "study_occ_stats.csv", "manifest.json")
        first_pass = {name: (out / name).read_bytes() for name in names}
        assert main(argv) == 0
        for name in names:
            assert (out / name).read_bytes() == first_pass[name]
        with open(out / "study_occ.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert all(r["c_yc"] == "104.0" for r in rows)

    def test_sweep_fixed_design(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--param", "efficiency", "--values", "0.35,0.5",
                "--fixed-design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "sensitivity_efficiency.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["lcoe"]) > float(rows[1]["lcoe"])

    def test_sweep_rejects_bad_values(self, tmp_path):
        code = main(["sweep", "--param", "efficiency", "--values", "a,b", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "param,values",
        [
            ("efficiency", "0.35,nan"),
            ("efficiency", "0.35,inf"),
            ("efficiency", "1.5"),
            ("discount", "0.05,-0.01"),
        ],
    )
    def test_sweep_rejected_value_exits_2_before_any_search(self, tmp_path, capsys, param, values):
        out = tmp_path / "o"
        code = main(["sweep", "--param", param, "--values", values, "--out", str(out)])
        assert code == 2
        assert "--values" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_lcoe_repeated_design_key_exits_2(self, tmp_path, capsys):
        code = main(["lcoe", "--design", "p=5,p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'p'" in capsys.readouterr().err

    def test_compare_ranking(self, tmp_path):
        payload = dict(LIGHT_SOLVERS)
        payload["benchmarks"] = [
            {"name": "cheap tech", "lcoe": 10.0},
            {"name": "dear tech", "lcoe": 500.0},
        ]
        path = write_config(tmp_path, payload)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", path, "--seed", "1", "--out", str(out)])
        assert code == 0
        with open(out / "compare.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["technology"] for r in rows] == ["cheap tech", "microreactor", "dear tech"]

    def test_threads_flag_recorded(self, tmp_path):
        path = write_config(tmp_path, LIGHT_SOLVERS)
        out = tmp_path / "thr"
        code = main(
            ["study", "--config", path, "--mode", "none", "--n", "2",
             "--seed", "2", "--threads", "2", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 2

    def test_inflation_mode_override(self, tmp_path, capsys):
        out = tmp_path / "infl"
        code = main(
            ["lcoe", "--design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
             "--inflation-mode", "escalated", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["financial"]["inflation_mode"] == "escalated"


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "microlcoe.cli", "lcoe",
            "--design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30",
            "--downtime", "off", "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "66.72" in result.stdout
