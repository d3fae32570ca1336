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
    "optimize": {
        "manifest.json": "673732640e4bc2abd4875a7867d4cd7deb6f362777ab2afb5862916cc215fa66",
        "optimize.csv": "71391f041f292217e6b7179714d281767e18573c2c8b72b7b55611db445ee2c9",
    },
    "study": {
        "study_all.csv": "fc295f4c6912a6791eff1477e4b3e3c8e90b31c432518ebc865ec9240d253957",
        "study_all_stats.csv": "6380e943ad3fbe146cfff77f5c3ae1e6f399a76ba6be6fccd22ba3b66cd1ed99",
    },
    "sweep": {
        "manifest.json": "a8e67755fa323cd040fb6d8aa806a7f39a5d9863d8eae689ff958ab593b1e9ca",
        "sensitivity_efficiency.csv": "624a0cc704b818e3d8e31a042d1a85570904956cb8f605903f0fbd1061046a44",
    },
}
# threads is recorded in argv and in the resolved config, so the study
# manifest is the one file that differs between worker counts
STUDY_MANIFEST = {
    "1": "52674d6ac3ed07111ff84f5e7e555a8c5274b678394cc8fd832765f476c99449",
    "2": "cd7b23bc11d0981a1d1a5374a246eaebe4f672469795b775775bd810829d036b",
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
    return {path.name: _digest(path) for path in sorted((tmp_path / "out").iterdir())}


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
