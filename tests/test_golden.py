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
comparison is skipped, and the skip reason names the field that differs.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

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


def test_fingerprint_matches():
    fingerprint = _load("fingerprint")
    committed = json.loads(fingerprint.FINGERPRINT_FILE.read_text())
    here = fingerprint.provenance()
    for key, value in committed["provenance"].items():
        if here.get(key) != value:
            pytest.skip(f"fingerprint.json was written where {key} is {value!r}; here it is "
                        f"{here.get(key)!r}")
    assert fingerprint.mismatches(committed["runs"], fingerprint.fingerprints()) == []
