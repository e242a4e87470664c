"""Golden outputs: the CLI's CSVs on a small fixed grid match the committed
files under tests/golden/, written by ``tests/golden/regenerate.py``.

Error, kept and every other column must match exactly: they are ratios of
integer counts (or their mean and std over seeds), so they only move when a
prediction or keep decision flips. ``mean_loss`` must match to 1e-12
relative. A full-byte match is reported, not required.

The bitwise gate is ``tests/golden/fingerprint.py``: the SHA-256 of 48 runs'
predictions, keep masks, confidences, ``mean_loss`` and ``batch_error``,
compared with ``fingerprint.json``. Those bits depend on numpy, its BLAS and
the CPU, so on a machine whose provenance differs from the file's the
comparison is skipped, and the skip reason names the field that differs. The
BLAS kernel and numpy's SIMD extensions move the bits on one machine, so the
provenance must see each of them change. The hashes of the predictions and
keep masks alone do not move with those, and are compared on every machine.
"""

import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.glob("*/*.csv"))
LOSS_RTOL = 1e-12


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return _load("regenerate").golden_outputs(tmp_path_factory.mktemp("golden"))


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def test_golden_set_is_complete(regenerated):
    assert GOLDEN_FILES, "no golden files committed"
    assert sorted(regenerated) == GOLDEN_FILES
    same = [name for name in GOLDEN_FILES if regenerated[name] == (GOLDEN_DIR / name).read_text()]
    print(f"golden: {len(same)}/{len(GOLDEN_FILES)} files byte-identical")


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_file_matches(regenerated, name):
    expected = _rows((GOLDEN_DIR / name).read_text())
    got = _rows(regenerated[name])
    assert got[0] == expected[0], "columns differ"
    assert len(got) == len(expected), "row count differs"
    for i, (row, ref) in enumerate(zip(got[1:], expected[1:]), start=1):
        for col, value, want in zip(expected[0], row, ref, strict=True):
            ok = value == want or (
                col == "mean_loss"
                and math.isclose(float(value), float(want), rel_tol=LOSS_RTOL, abs_tol=0.0)
            )
            assert ok, f"{name} row {i} {col}: {value} != {want}"


@pytest.fixture(scope="module")
def fingerprinted():
    """The fingerprint module, the committed file and this machine's hashes."""
    fingerprint = _load("fingerprint")
    committed = json.loads(fingerprint.FINGERPRINT_FILE.read_text())
    return fingerprint, committed, fingerprint.fingerprints()


def test_fingerprint_matches(fingerprinted):
    fingerprint, committed, got = fingerprinted
    here = fingerprint.provenance()
    for key, value in committed["provenance"].items():
        if here.get(key) != value:
            pytest.skip(f"fingerprint.json was written where {key} is {value!r}; here it is "
                        f"{here.get(key)!r}")
    assert fingerprint.mismatches(committed["runs"], got["runs"]) == []


def test_decision_fingerprint_matches(fingerprinted):
    fingerprint, committed, got = fingerprinted
    assert fingerprint.mismatches(committed["decisions"], got["decisions"]) == []


def test_provenance_sees_the_blas_kernel_and_the_numpy_simd_paths():
    here = _load("fingerprint").provenance()
    if here["blas_core"] is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the BLAS is not OpenBLAS on x86-64")
    if not here["numpy_simd"]:
        pytest.skip("numpy dispatches to no SIMD extension here")
    # Each variable acts only on the process that reads it at load.
    overrides = {
        "blas_core": {"OPENBLAS_CORETYPE": "Prescott"},  # the lowest x86-64 kernel
        "numpy_simd": {"NPY_DISABLE_CPU_FEATURES": " ".join(here["numpy_simd"])},
    }
    script = GOLDEN_DIR / "fingerprint.py"
    code = f"import json, runpy; print(json.dumps(runpy.run_path({str(script)!r})['provenance']()))"
    runs = {
        field: subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
        )
        for field, env in overrides.items()
    }
    for field, run in runs.items():
        out, _ = run.communicate(timeout=60)
        assert run.returncode == 0
        assert json.loads(out)[field] != here[field], field
