"""Bitwise fingerprint of 48 online runs, compared by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/fingerprint.py           # list the runs that differ
    PYTHONPATH=src python tests/golden/fingerprint.py --write   # rewrite fingerprint.json

The runs are 3 modes x filter on/off x seeds 0-1 x the four streams in
``STREAMS``. Each run's fingerprint is the SHA-256 of every batch record's
predictions, keep mask, confidences, ``mean_loss`` and ``batch_error`` bytes,
in batch order, so a change in the last bit of any of them shows. Those bits
depend on numpy, its BLAS and the CPU, so ``fingerprint.json`` records what
moves them beside the hashes: the numpy version, the BLAS name and version,
the kernel OpenBLAS picked (``blas_core``), the SIMD extensions numpy
dispatches to (``numpy_simd``) and the CPU model. A machine whose provenance
differs cannot compare the float hashes. Forcing another BLAS kernel or
turning numpy's AVX-512 paths off changes them, so both are in the key; the
BLAS thread count is not, because one and two threads give the same 48
hashes. A second hash per run, in the ``decisions`` block, reads the
predictions and keep masks alone. It matched 48/48 under other BLAS kernels
and with numpy's AVX-512 paths off, so it is compared on every machine.
Rewrite the file only for a declared numeric change, and name it in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from voronoi_tta.adaptation import MODES, AdaptConfig
from voronoi_tta.experiments import prepare_run, run_single
from voronoi_tta.streams import StreamConfig

FINGERPRINT_FILE = Path(__file__).resolve().parent / "fingerprint.json"

# name -> (StreamConfig overrides, site fraction)
STREAMS = {
    "long": ({"n_batches": 400}, 0.01),
    "default": ({}, 1.0),
    "scale_drift_b8": ({"corruption": "scale_drift", "batch_size": 8}, 0.1),
    "shift_drift_b16_alpha0.1": (
        {"corruption": "shift_drift", "batch_size": 16, "label_shift_alpha": 0.1}, 0.1
    ),
}
SEEDS = (0, 1)


def _blas_core() -> str | None:
    """The kernel that the OpenBLAS bundled with numpy, if it is one, picked
    for this CPU when it loaded (``OPENBLAS_CORETYPE`` overrides the pick)."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    """What the bits depend on besides the code: the numpy and BLAS builds, the
    kernel the BLAS runs, the SIMD extensions numpy dispatches to (none listed
    when all are disabled) and the CPU model."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": _blas_core(),
        "numpy_simd": config.get("SIMD Extensions", {}).get("found", []),
        "cpu_model": _cpu_model(),
    }


def _run_hashes(trace) -> tuple[str, str]:
    """The run's float hash and its decision hash, in one pass over the records."""
    floats, decisions = hashlib.sha256(), hashlib.sha256()
    for r in trace.records:
        for data in (np.asarray(r.predictions, dtype=np.int64).tobytes(),
                     np.asarray(r.keep_mask, dtype=bool).tobytes()):
            floats.update(data)
            decisions.update(data)
        floats.update(np.asarray(r.confidences, dtype=np.float64).tobytes())
        floats.update(np.float64(r.mean_loss).tobytes())
        floats.update(np.float64(r.batch_error).tobytes())
    return floats.hexdigest(), decisions.hexdigest()


def fingerprints() -> dict[str, dict[str, str]]:
    """The float hashes (``runs``) and decision hashes (``decisions``) of each
    run, keyed ``<stream>/<mode>/filter_<on|off>/seed<k>``."""
    hashes = {"runs": {}, "decisions": {}}
    for name, (overrides, site_fraction) in STREAMS.items():
        cfg = replace(StreamConfig(), **overrides)
        for seed in SEEDS:
            prepared = prepare_run(cfg, seed, site_fraction)
            for mode in MODES:
                for filtering in (False, True):
                    trace = run_single(prepared, AdaptConfig(), mode, filtering)
                    key = f"{name}/{mode}/filter_{'on' if filtering else 'off'}/seed{seed}"
                    hashes["runs"][key], hashes["decisions"][key] = _run_hashes(trace)
    return hashes


def mismatches(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The runs whose hash differs, or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite fingerprint.json")
    args = parser.parse_args(argv)
    got = fingerprints()
    if args.write:
        payload = {"provenance": provenance(), **got}
        FINGERPRINT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(got['runs'])} runs' hashes to {FINGERPRINT_FILE.name}")
        return 0
    committed = json.loads(FINGERPRINT_FILE.read_text())
    here = provenance()
    for key, value in committed["provenance"].items():
        if here.get(key) != value:
            print(f"note: {key} is {here.get(key)!r} here, {value!r} in {FINGERPRINT_FILE.name}")
    failed = False
    for block, hashes in got.items():
        bad = mismatches(committed[block], hashes)
        for key in bad:
            print(f"differs ({block}): {key}")
        print(f"fingerprint {block}: {len(hashes) - len(bad)}/{len(hashes)} runs match")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
