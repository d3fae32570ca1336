"""Span recorder for the traced benchmark run.

The recorder wraps public microlcoe functions at the module attribute each
caller looks them up through, records one span per call, and puts every
original back on :meth:`Tracer.uninstall`. Nothing under ``src/`` changes.

A span is ``(id, parent, op, name, start, end, rows, info, pid)``: ``rows`` is
the design count of a vector call (0 otherwise) and ``info`` carries per-call
counts such as a GA restart's generations. Spans stay in memory. Pool workers
forked by ``run_uncertainty_study`` inherit the wrappers, keep their own
spans, and write them to ``spans-<pid>.json`` in the work directory when the
worker process exits; :meth:`Tracer.collect_workers` merges those files.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

import numpy as np

import microlcoe.analysis
import microlcoe.cli
import microlcoe.config
import microlcoe.costs
import microlcoe.optimize
import microlcoe.uncertainty


def _rows(value) -> int:
    return int(np.size(value))


def _matrix_rows(x) -> int:
    return int(np.shape(x)[0])


def _ga_info(args, kwargs, result) -> dict:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    generations = len(result.history) - 1
    return {"generations": generations, "stalled": int(generations < config.generations)}


# (module, attribute, span name, rows of the call's arguments, info of its result)
TARGETS = (
    (microlcoe.optimize, "ga_minimize", "optimize.ga_minimize", None, _ga_info),
    (microlcoe.optimize, "sa_minimize", "optimize.sa_minimize", None, None),
    (microlcoe.optimize, "lcoe_terms", "costs.lcoe_terms", lambda a, k: _rows(a[0]), None),
    (microlcoe.optimize, "burnup_residual", "fuelcycle.burnup_residual",
     lambda a, k: _rows(a[0]), None),
    (microlcoe.optimize, "effective_capacity_factor", "costs.effective_capacity_factor",
     lambda a, k: _rows(a[1]), None),
    (microlcoe.optimize, "make_rng", "rng.make_rng", None, None),
    (microlcoe.uncertainty, "make_rng", "rng.make_rng", None, None),
    (microlcoe.costs, "ptc_credit_per_mwh", "costs.ptc_credit_per_mwh", None, None),
    (microlcoe.analysis, "optimize_design", "analysis.scenario", None, None),
    (microlcoe.analysis, "generate_study", "uncertainty.generate_study", None, None),
    (microlcoe.cli, "run_uncertainty_study", "analysis.run_uncertainty_study", None, None),
    (microlcoe.cli, "load_config", "config.load_config", None, None),
    (microlcoe.config, "load_config", "config.load_config", None, None),
    (microlcoe.cli, "write_study_csv", "analysis.write", None, None),
    (microlcoe.cli, "write_study_stats_csv", "analysis.write", None, None),
    (microlcoe.cli, "write_manifest", "analysis.write", None, None),
)
# make_design_objective is wrapped apart from TARGETS: its wrapper wraps the
# objective it returns, so every objective built while tracing is traced.
OBJECTIVE_FACTORY = (microlcoe.optimize, "make_design_objective")


class Tracer:
    """In-memory span recorder that patches the TARGETS while installed."""

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self.spans: list[tuple] = []
        self.stack: list = [None]
        self.op = -1
        self.pid = os.getpid()
        self._count = 0
        self._saved: list[tuple] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- recording --------------------------------------------------------

    def _new_id(self) -> int:
        self._count += 1
        return self.pid * 1_000_000_000 + self._count

    def wrap(self, name, fn, rows_of=None, info_of=None):
        """``fn`` with one span recorded per call."""

        def traced(*args, **kwargs):
            parent = self.stack[-1]
            sid = self._new_id()
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            self.stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                info = info_of(args, kwargs, result) if info_of and result is not None else None
                self.spans.append((sid, parent, self.op, name, start, end, rows, info, self.pid))

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op: int, fn):
        """Call ``fn()`` as op ``op`` inside an ``op`` span."""
        self.op = op
        try:
            return self.wrap("op", fn)()
        finally:
            self.op = -1

    # -- patching ---------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, rows_of, info_of in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, rows_of, info_of))
        module, attr = OBJECTIVE_FACTORY
        factory = getattr(module, attr)
        self._saved.append((module, attr, factory))

        def make_design_objective(*args, **kwargs):
            return self.wrap("optimize.objective", factory(*args, **kwargs),
                             lambda a, k: _matrix_rows(a[0]))

        setattr(module, attr, make_design_objective)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- pool workers -----------------------------------------------------

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry is
        # cleared, so the Finalize below survives until the worker exits.
        if not self.installed:
            return
        self.spans = []
        self.pid = os.getpid()
        self._count = 0
        # Park the inherited heap in the permanent generation: otherwise the
        # spans this worker allocates trigger full collections that traverse
        # (and copy on write) the parent's objects, a cost untraced workers
        # do not pay. It cut the traced study's overhead from ~2 s to ~0.4 s.
        gc.freeze()
        mp_util.Finalize(None, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        path = self.work_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect_workers(self) -> None:
        """Merge the worker span files into this recorder and delete them."""
        for path in sorted(self.work_dir.glob("spans-*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, one ``[id, parent, op, ...]`` each."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
