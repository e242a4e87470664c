"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs the CLI commands in ``COMMANDS`` and overwrites every CSV they write
under ``tests/golden/<command name>/``. Regenerate only for a declared numeric
change, and name in CHANGES.md each file that changed and its largest move.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from voronoi_tta.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

# The default stream cut to 10 batches; site fraction 0.1 unless swept or long.
_TINY = ["--n-batches", "10", "--seeds", "0,1"]
COMMANDS = {
    "run": ["run", *_TINY, "--site-fraction", "0.1"],  # cipd filtered (auto)
    "run_unfiltered": ["run", *_TINY, "--site-fraction", "0.1", "--mode", "cipd", "--filter", "false"],
    "ablate": ["ablate", *_TINY, "--site-fraction", "0.1"],
    "sweep": ["sweep", *_TINY, "--axis", "site-fraction", "--values", "1,0.01"],
    # online_long's panel: a last-bit change that only grows after 100 or
    # more batches shows here and not in the 10-batch files.
    "long": ["run", "--n-batches", "400", "--site-fraction", "0.01", "--seeds", "0"],
}


def golden_outputs(workdir: Path) -> dict[str, str]:
    """Text of every CSV the commands write, keyed ``<command name>/<file>``."""
    outputs = {}
    for name, args in COMMANDS.items():
        out = Path(workdir) / name
        if main([*args, "--out", str(out)]) != 0:
            raise RuntimeError(f"golden command {name!r} failed")
        for path in sorted(out.glob("*.csv")):
            outputs[f"{name}/{path.name}"] = path.read_text()
    return outputs


def regenerate():
    for path in GOLDEN_DIR.glob("*/*.csv"):
        path.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for key, text in golden_outputs(Path(tmp)).items():
            (GOLDEN_DIR / key).parent.mkdir(exist_ok=True)
            (GOLDEN_DIR / key).write_text(text)


if __name__ == "__main__":
    regenerate()
