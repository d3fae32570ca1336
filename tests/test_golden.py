"""Golden output bytes: SHA-256 digests of the files small-config CLI runs
write. Any change to the search, the sampling or the writers that moves an
output byte fails here, so a refactor that claims unchanged results must
keep these digests as they are (seed scheme v1).

The digests were recorded with Python 3.11 and numpy 2.x on x86-64. The
manifest is digested without its ``python`` and ``numpy`` version fields;
runs use a relative output directory so ``argv`` and ``output_dir`` are
the same on every machine.
"""

import hashlib
import json

import pytest

from microlcoe.cli import main

# Restarts stall at different generations under this GA, so the digests
# also pin how early-stopping restarts combine.
SMALL_CONFIG = {
    "ga": {"population": 30, "generations": 40, "stall_generations": 8, "restarts": 3},
    "sa": {"steps": 30, "moves_per_step": 10, "restarts": 2},
}

GOLDEN = {
    "lcoe": {
        "manifest.json": "a22893ba0f518e6fc11177c35593883db219062f6530ff56a441576f8a2b76ee",
    },
    "optimize": {
        "manifest.json": "d3cd87a0db6b896b7ef8ed7fa4e12a527bca6904e9d46fb82fffda7a1219fd48",
        "optimize.csv": "71391f041f292217e6b7179714d281767e18573c2c8b72b7b55611db445ee2c9",
    },
    "study": {
        "study_all.csv": "fc295f4c6912a6791eff1477e4b3e3c8e90b31c432518ebc865ec9240d253957",
        "study_all_stats.csv": "6380e943ad3fbe146cfff77f5c3ae1e6f399a76ba6be6fccd22ba3b66cd1ed99",
    },
    "sweep": {
        "manifest.json": "f477d5372cf06b3ef280b1b9c49092b3f47145f95a2c800fdb759cf0449070aa",
        "sensitivity_efficiency.csv": "624a0cc704b818e3d8e31a042d1a85570904956cb8f605903f0fbd1061046a44",
    },
    "sweep_discount": {
        "manifest.json": "4f50220ad4a209b928caa95970f8ca548904d5a2643be0457798b30b9467f122",
        "sensitivity_discount.csv": "170fc74cbd0c10425a48d955c5896aae96de1f1349eaf1788e8933f55f04e8e2",
    },
    "sweep_fixed_design": {
        "manifest.json": "1cb08460dbc620fbafee62672788c8bb87da242d57faaea5cc94e16fe3bf4c03",
        "sensitivity_inflation.csv": "1a0c0ade9bb6a67b18dda702caca1913fa69a07e1db2065b06f398a8d729982d",
    },
    "study_one_scenario": {
        "manifest.json": "7a90420cc7537b5149584b3d9fd41cf6ab5ab89e2d52eab4aa7f5f1289b4ba97",
        "study_occ.csv": "bfab6e3c90761fd71aa9760f85e26e19c76f11a95c5a3166e9e5df2ef3ed1ebd",
    },
    "compare": {
        "compare.csv": "6d2433f379f5aeeae75fab209af53f39592a8ae638d69a675917c3a56d506ec3",
        "manifest.json": "ee68da7bb32620444aba9402d5d3c8f27d72b1690974492eca9f8582d6ff4a77",
    },
}
# threads is recorded in argv, in the manifest's threads field and in the
# resolved config, so the study manifest is the one file that differs
# between worker counts; its config_sha256 leaves threads out and is the
# same for both
STUDY_MANIFEST = {
    "1": "1cc7186e6a9d11c38a7ed8c173ca4cf200d293b87da068e4807217ea2b62d24d",
    "2": "2768368f10a7701bfb113066fc61cf9bad80c127d06193e6a09ae96be477d463",
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["python"], manifest["numpy"]
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, monkeypatch, *argv) -> dict:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert main([*argv, "--config", "config.json", "--out", "out"]) == 0
    paths = sorted((tmp_path / "out").iterdir())
    # the manifest lists every other file the run wrote, and only those
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == [path.name for path in paths if path.name != "manifest.json"]
    return {path.name: _digest(path) for path in paths}


def test_lcoe(tmp_path, monkeypatch):
    # writes only the manifest
    digests = _run(tmp_path, monkeypatch, "lcoe",
                   "--design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30")
    assert digests == GOLDEN["lcoe"]


def test_optimize_with_sa_validation(tmp_path, monkeypatch):
    digests = _run(tmp_path, monkeypatch, "optimize", "--seed", "3", "--validate-sa")
    assert digests == GOLDEN["optimize"]


@pytest.mark.parametrize("threads", sorted(STUDY_MANIFEST))
def test_study(tmp_path, monkeypatch, threads):
    digests = _run(tmp_path, monkeypatch, "study", "--mode", "all", "--n", "4",
                   "--seed", "5", "--threads", threads)
    assert digests == {**GOLDEN["study"], "manifest.json": STUDY_MANIFEST[threads]}


def test_sweep(tmp_path, monkeypatch):
    digests = _run(tmp_path, monkeypatch, "sweep", "--param", "efficiency",
                   "--values", "0.35,0.5", "--seed", "2")
    assert digests == GOLDEN["sweep"]


def test_sweep_discount(tmp_path, monkeypatch):
    # the one CLI name that differs from its analysis name, at the default values
    digests = _run(tmp_path, monkeypatch, "sweep", "--param", "discount", "--seed", "2")
    assert digests == GOLDEN["sweep_discount"]


def test_sweep_fixed_design(tmp_path, monkeypatch):
    # reoptimized=0 rows under escalated inflation, at the default values
    digests = _run(tmp_path, monkeypatch, "sweep", "--param", "inflation",
                   "--fixed-design", "p=19.13,xp=5,xt=0.2913,t=6.24,db=30")
    assert digests == GOLDEN["sweep_fixed_design"]


def test_study_one_scenario(tmp_path, monkeypatch):
    # one scenario: no stats file, and the idx_* columns of unswept
    # parameters are blank
    digests = _run(tmp_path, monkeypatch, "study", "--mode", "occ", "--n", "1", "--seed", "6")
    assert digests == GOLDEN["study_one_scenario"]


def test_compare(tmp_path, monkeypatch):
    digests = _run(tmp_path, monkeypatch, "compare", "--seed", "4")
    assert digests == GOLDEN["compare"]
