"""The four benchmark workloads, driven from outside the package.

Each workload is a closed loop of ops: the harness starts op ``k + 1`` only
after op ``k`` returns. Inputs derive from the benchmark seed alone. Every op
of a run repeats one input, or cycles a fixed set of inputs named by
:meth:`Workload.key`, so results, digests and counts repeat exactly for a
seed however many ops a run completes. Why each workload exists is in
README.md next to this file.

A workload splits an op into three steps, and only ``run`` is timed:

``run(k)``
    the op itself, calling public microlcoe functions;
``record(k, raw)``
    untimed: the rows evaluated, the op's objective, a SHA-256 digest of its
    result bytes, and a small payload for the check;
``check(key, payload)``
    untimed, after the loop: raises :class:`CheckFailed` if the output is
    wrong.

Functions that the tracer wraps are looked up through their module
(``optimize.make_design_objective``, ``microlcoe.config.load_config``) at
call time, so traced ops and the traced set-up see the wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import microlcoe.config
from microlcoe import cli, optimize
from microlcoe.analysis import StudyReport, write_study_csv
from microlcoe.costs import ReactorDesign, bounds_arrays, lcoe_breakdown
from microlcoe.optimize import GaConfig, SaConfig, optimize_design, penalized_objective
from microlcoe.rng import STREAM_OPTIMIZE, STREAM_RESTART, seed_path
from microlcoe.uncertainty import generate_study

# Criterion 5's exhaustive lattice: points per design axis, and its chunks.
LATTICE_AXES = (21, 16, 11, 17, 16)
LATTICE_CHUNKS = 8
LATTICE_MARGIN = 0.1  # $/MWh a search optimum may sit above the lattice minimum
SA_CHAINS = 5  # chains --validate-sa runs
STUDY_THREADS = 2  # pool workers of the study, the ROADMAP baseline
RELATIVE_TOLERANCE = 1e-9  # vector objective against the scalar one


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass
class Outcome:
    """Untimed summary of one op's result."""

    rows: int  # objective rows evaluated
    objective: float  # best penalized objective, $/MWh
    digest: str  # SHA-256 of the result bytes
    payload: object  # what check() needs
    bytes_written: int = 0  # output file bytes, for the traced run


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _float_bytes(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def lattice(axes=LATTICE_AXES) -> np.ndarray:
    """Every point of an equispaced lattice of the design box, (n, 5)."""
    low, high = bounds_arrays()
    lines = [np.linspace(lo, hi, count) for lo, hi, count in zip(low, high, axes)]
    mesh = np.meshgrid(*lines, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def lattice_minimum(costs, fin, penalty_weight, axes=LATTICE_AXES) -> float:
    """Minimum penalized objective over the lattice, evaluated in its chunks."""
    objective = optimize.make_design_objective(costs, fin, penalty_weight)
    return min(float(objective(c).min())
               for c in np.array_split(lattice(axes), LATTICE_CHUNKS))


def check_near_lattice(objective: float, floor: float, what: str = "objective") -> None:
    """Criterion 5's rule: a search optimum is at most the lattice minimum + margin."""
    if not objective <= floor + LATTICE_MARGIN:
        raise CheckFailed(
            f"{what} {objective!r} above lattice minimum {floor!r} + {LATTICE_MARGIN}")


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RELATIVE_TOLERANCE * abs(reference)


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""

    def key(self, k: int):
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def record(self, k: int, raw) -> Outcome:
        raise NotImplementedError

    def check(self, key, payload) -> None:
        raise NotImplementedError


class OptimizeGa(Workload):
    """Back-to-back ``optimize_design`` with the stock GA, one root seed."""

    name = "optimize_ga"

    def __init__(self, seed: int, work_dir, ga: GaConfig | None = None,
                 lattice_axes=LATTICE_AXES):
        self.seed = seed
        self.config = microlcoe.config.load_config(None)
        self.ga = ga if ga is not None else self.config.ga
        self.lattice_axes = lattice_axes
        self._lattice_min = None

    def key(self, k):
        return self.seed

    def run(self, k):
        return optimize_design(
            self.config.costs, self.config.fin, ga_config=self.ga,
            penalty_weight=self.config.penalty_weight, seed=self.seed,
        )

    def record(self, k, result):
        values = list(result.best_design.as_array()) + [
            result.lcoe, result.objective, result.burnup_residual, result.penalty_value,
            *result.restart_bests,
        ]
        digest = _sha256(_float_bytes(values), str(result.evaluations).encode())
        return Outcome(result.evaluations, result.objective, digest, result)

    def check(self, key, result):
        low, high = bounds_arrays()
        x = result.best_design.as_array()
        if not np.all((x >= low) & (x <= high)):
            raise CheckFailed(f"design {x} leaves the box")
        fresh = lcoe_breakdown(result.best_design, self.config.costs, self.config.fin).total
        if fresh != result.lcoe:
            raise CheckFailed(f"lcoe {result.lcoe!r} != fresh breakdown {fresh!r}")
        if self._lattice_min is None:
            self._lattice_min = lattice_minimum(
                self.config.costs, self.config.fin, self.config.penalty_weight,
                self.lattice_axes)
        check_near_lattice(result.objective, self._lattice_min)


class SaChain(Workload):
    """One stock-schedule simulated-annealing chain per op, cycling the
    ``--validate-sa`` chain indices ``(seed, STREAM_RESTART, i)``."""

    name = "sa_chain"

    def __init__(self, seed: int, work_dir, sa: SaConfig | None = None,
                 lattice_axes=LATTICE_AXES):
        self.seed = seed
        self.config = microlcoe.config.load_config(None)
        self.sa = sa if sa is not None else self.config.sa
        self.bounds = bounds_arrays()
        self.evaluations = 1 + self.sa.steps * self.sa.moves_per_step
        self.lattice_axes = lattice_axes
        self._lattice_min = None

    def key(self, k):
        return k % SA_CHAINS

    def run(self, k):
        objective = optimize.make_design_objective(
            self.config.costs, self.config.fin, self.config.penalty_weight)
        return optimize.sa_minimize(
            objective, self.bounds, self.sa,
            seed_path(self.seed, STREAM_RESTART, self.key(k)))

    def record(self, k, result):
        digest = _sha256(_float_bytes([*result.x, result.fun]), str(result.evaluations).encode())
        return Outcome(result.evaluations, result.fun, digest, result)

    def check(self, key, result):
        if result.evaluations != self.evaluations:
            raise CheckFailed(f"{result.evaluations} evaluations, expected {self.evaluations}")
        scalar = penalized_objective(
            ReactorDesign.from_array(result.x), self.config.costs, self.config.fin,
            self.config.penalty_weight)
        if not _close(result.fun, scalar):
            raise CheckFailed(f"chain value {result.fun!r} != scalar objective {scalar!r}")
        if self._lattice_min is None:
            self._lattice_min = lattice_minimum(
                self.config.costs, self.config.fin, self.config.penalty_weight,
                self.lattice_axes)
        check_near_lattice(result.fun, self._lattice_min, "chain value")


class StudyCli(Workload):
    """In-process ``microlcoe study --mode all`` through ``cli.main``.

    The CLI writes under ``work_dir`` as given; run.py gives a relative path,
    which keeps the manifest, and so the digest, the same in every checkout.
    """

    name = "study_cli"
    MODE = "all"

    def __init__(self, seed: int, work_dir, n: int = 10, ga: GaConfig | None = None,
                 lattice_axes=LATTICE_AXES):
        self.seed = seed
        self.n = n
        self.lattice_axes = lattice_axes
        work_dir = Path(work_dir)
        self.out_dir = work_dir / "study"
        self.argv = ["study", "--mode", self.MODE, "--n", str(n),
                     "--threads", str(STUDY_THREADS), "--seed", str(seed),
                     "--out", str(self.out_dir)]
        config_path = None
        if ga is not None:
            config_path = work_dir / "study_config.json"
            config_path.write_text(json.dumps({"ga": asdict(ga)}), encoding="utf-8")
            self.argv += ["--config", str(config_path)]
        self.config = microlcoe.config.load_config(
            None if config_path is None else str(config_path))
        self.scenario_csv = f"study_{self.MODE}.csv"
        self.stats_csv = f"study_{self.MODE}_stats.csv"
        self.checked_id = seed % n
        self._scenarios = None
        self._rederived = None
        self._lattice_mins = None
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def key(self, k):
        return self.seed

    def run(self, k):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def record(self, k, code):
        files = {}
        for name in (self.scenario_csv, self.stats_csv, "manifest.json"):
            path = self.out_dir / name
            if path.is_file():
                files[name] = path.read_bytes()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rows = list(csv.DictReader(io.StringIO(files.get(self.scenario_csv, b"").decode())))
        evaluations = sum(int(r["evaluations"]) for r in rows)
        objective = (float(np.mean([float(r["penalized_objective"]) for r in rows]))
                     if rows else float("nan"))
        digest = _sha256(*(name.encode() + b"\0" + files[name] for name in sorted(files)))
        return Outcome(evaluations, objective, digest, (code, files),
                       bytes_written=sum(len(b) for b in files.values()))

    def scenarios(self):
        """The study's scenarios, sampled again from the seed."""
        if self._scenarios is None:
            self._scenarios = generate_study(
                self.config.uncertain, self.MODE, n=self.n, seed=self.seed,
                base=self.config.costs)
        return self._scenarios

    def rederived_row(self) -> bytes:
        """Scenario ``checked_id`` optimized serially at its own seed path,
        written through the study CSV writer."""
        if self._rederived is None:
            scenario = self.scenarios()[self.checked_id]
            result = optimize_design(
                scenario.costs, self.config.fin, ga_config=self.config.ga,
                penalty_weight=self.config.penalty_weight,
                seed=seed_path(self.seed, STREAM_OPTIMIZE, scenario.id))
            report = StudyReport(self.MODE, ((scenario, result),), {}, (0.0, 0.0))
            path = self.out_dir.parent / "rederived.csv"
            write_study_csv(report, path, [p.name for p in self.config.uncertain])
            self._rederived = path.read_bytes().split(b"\r\n")[1]
            path.unlink()
        return self._rederived

    def check(self, key, payload):
        code, files = payload
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        for name in (self.scenario_csv, self.stats_csv, "manifest.json"):
            if name not in files:
                raise CheckFailed(f"{name} was not written")
        lines = files[self.scenario_csv].split(b"\r\n")[1:-1]
        if len(lines) != self.n:
            raise CheckFailed(f"{len(lines)} scenario rows, expected {self.n}")
        if lines[self.checked_id] != self.rederived_row():
            raise CheckFailed(f"scenario {self.checked_id} differs from its serial re-derivation")
        if self._lattice_mins is None:
            self._lattice_mins = [
                lattice_minimum(s.costs, self.config.fin, self.config.penalty_weight,
                                self.lattice_axes)
                for s in self.scenarios()]
        rows = csv.DictReader(io.StringIO(files[self.scenario_csv].decode()))
        for row, scenario, floor in zip(rows, self.scenarios(), self._lattice_mins):
            if int(row["id"]) != scenario.id:
                raise CheckFailed(f"row for scenario {row['id']} where {scenario.id} belongs")
            check_near_lattice(float(row["penalized_objective"]), floor,
                               f"scenario {scenario.id} objective")


class GridScan(Workload):
    """Chunks of the exhaustive design lattice through the vector objective,
    under the nominal costs and ``scenarios`` sampled cost sets.

    Op ``k`` evaluates chunk ``k % chunks`` under cost set ``k // chunks``
    (cyclically), so a run sweeps whole lattices.
    """

    name = "grid_scan"
    SAMPLES = 8  # rows per chunk checked against the scalar objective

    def __init__(self, seed: int, work_dir, axes=LATTICE_AXES, chunks: int = LATTICE_CHUNKS,
                 scenarios: int = 15):
        self.config = microlcoe.config.load_config(None)
        self.chunks = np.array_split(lattice(axes), chunks)
        self.cost_sets = [self.config.costs] + [
            s.costs for s in generate_study(
                self.config.uncertain, "all", n=scenarios, seed=seed, base=self.config.costs)
        ]
        rng = np.random.default_rng(seed)
        self.samples = [np.sort(rng.choice(len(c), self.SAMPLES, replace=False))
                        for c in self.chunks]

    def key(self, k):
        return (k // len(self.chunks)) % len(self.cost_sets), k % len(self.chunks)

    def run(self, k):
        costs, chunk = self.key(k)
        objective = optimize.make_design_objective(
            self.cost_sets[costs], self.config.fin, self.config.penalty_weight)
        return objective(self.chunks[chunk])

    def record(self, k, values):
        _, chunk = self.key(k)
        sampled = values[self.samples[chunk]].copy()
        return Outcome(len(values), float(values.min()), _sha256(_float_bytes(values)), sampled)

    def check(self, key, sampled):
        costs, chunk = key
        for row, value in zip(self.samples[chunk], sampled):
            design = ReactorDesign.from_array(self.chunks[chunk][row])
            scalar = penalized_objective(
                design, self.cost_sets[costs], self.config.fin, self.config.penalty_weight)
            if not _close(value, scalar):
                raise CheckFailed(f"row {row} of chunk {chunk}: {value!r} != scalar {scalar!r}")


WORKLOADS = {w.name: w for w in (OptimizeGa, SaChain, StudyCli, GridScan)}
