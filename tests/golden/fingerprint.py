"""Bitwise fingerprint of 48 online runs, compared by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/fingerprint.py           # list the runs that differ
    PYTHONPATH=src python tests/golden/fingerprint.py --write   # rewrite fingerprint.json

The runs are 3 modes x filter on/off x seeds 0-1 x the four streams in
``STREAMS``. Each run's fingerprint is the SHA-256 of every batch record's
predictions, keep mask, confidences, ``mean_loss`` and ``batch_error`` bytes,
in batch order, so a change in the last bit of any of them shows. The bits
depend on numpy, its BLAS and the CPU, so ``fingerprint.json`` records those
beside the hashes; a machine whose provenance differs cannot be compared.
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


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
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
    """What the bits depend on besides the code."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
    }


def _run_hash(trace) -> str:
    h = hashlib.sha256()
    for r in trace.records:
        h.update(np.asarray(r.predictions, dtype=np.int64).tobytes())
        h.update(np.asarray(r.keep_mask, dtype=bool).tobytes())
        h.update(np.asarray(r.confidences, dtype=np.float64).tobytes())
        h.update(np.float64(r.mean_loss).tobytes())
        h.update(np.float64(r.batch_error).tobytes())
    return h.hexdigest()


def fingerprints() -> dict[str, str]:
    """SHA-256 of each run, keyed ``<stream>/<mode>/filter_<on|off>/seed<k>``."""
    hashes = {}
    for name, (overrides, site_fraction) in STREAMS.items():
        cfg = replace(StreamConfig(), **overrides)
        for seed in SEEDS:
            prepared = prepare_run(cfg, seed, site_fraction)
            for mode in MODES:
                for filtering in (False, True):
                    trace = run_single(prepared, AdaptConfig(), mode, filtering)
                    key = f"{name}/{mode}/filter_{'on' if filtering else 'off'}/seed{seed}"
                    hashes[key] = _run_hash(trace)
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
        payload = {"provenance": provenance(), "runs": got}
        FINGERPRINT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(got)} run hashes to {FINGERPRINT_FILE.name}")
        return 0
    committed = json.loads(FINGERPRINT_FILE.read_text())
    here = provenance()
    for key, value in committed["provenance"].items():
        if here.get(key) != value:
            print(f"note: {key} is {here.get(key)!r} here, {value!r} in {FINGERPRINT_FILE.name}")
    bad = mismatches(committed["runs"], got)
    for key in bad:
        print(f"differs: {key}")
    print(f"fingerprint: {len(got) - len(bad)}/{len(got)} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
