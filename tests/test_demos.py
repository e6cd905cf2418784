"""The narrative demos run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"

# 05 trains for about 20 s; the training it shows is covered by test_pipeline
DEMOS = [
    "01_nlc_round_trip.py",
    "02_box_from_correspondences.py",
    "03_projection_and_fusion.py",
    "04_kitti_io_and_metrics.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, src_env, tmp_path):
    result = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)],
        cwd=tmp_path, env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
