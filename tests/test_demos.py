"""The fast demos run from a copy and reproduce their committed outputs.

Each demo is copied into a temporary directory, so its ``out/`` files land
there and the committed ``demos/out/`` stays untouched.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_SVGS = {
    "01_diagrams_in_the_plane.py": (
        "vd_cells.svg", "pd_cells.svg", "civd_raster.svg", "cipd_raster.svg",
    ),
    "02_online_adaptation.py": (),
    "03_sample_filtering.py": ("subtraction.svg",),
    "04_distance_report.py": (),
    "05_shift_and_robustness_sweeps.py": (),
}


@pytest.mark.parametrize("demo", sorted(DEMO_SVGS))
def test_demo_runs_and_reproduces_its_svgs(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    for name in DEMO_SVGS[demo]:
        want = (ROOT / "demos" / "out" / name).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == want, name
