"""Every name the traced benchmark wraps still exists.

``bench/tracer.py`` patches module attributes of the package by name; a
deletion under ``src/`` that removes one would crash a ``--trace 1`` run,
so this tier-1 check fails first.
"""

import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH_DIR))
        yield importlib.import_module("tracer")


def test_every_traced_target_resolves(tracer):
    targets = [(module, attr) for module, attr, *_ in tracer.TARGETS]
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in [*targets, tracer.OBJECTIVE_FACTORY]
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
