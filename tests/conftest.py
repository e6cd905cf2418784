import os
from pathlib import Path

import numpy as np
import pytest

from nlcdet import Box3D

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports nlcdet from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def random_box(rng, center_scale=20.0, dim_lo=0.5, dim_hi=5.0):
    return Box3D(
        center=rng.uniform(-center_scale, center_scale, size=3),
        l=rng.uniform(dim_lo, dim_hi),
        w=rng.uniform(dim_lo, dim_hi),
        h=rng.uniform(dim_lo, dim_hi),
        yaw=rng.uniform(-np.pi, np.pi),
    )
