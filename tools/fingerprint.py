"""Print one ``name sha256`` line per seeded output of the library.

Run from anywhere, with the checkout's own ``src`` on the path:

    python3 tools/fingerprint.py > fingerprint.txt

Two checkouts that print the same lines compute the same bytes for the
seeded training runs (small ones and the benchmark's ``train`` run), the ablation, the gradient checks, the synthetic
scenes and the box solver.  The ``dof_analysis/...`` lines print the
Jacobian ranks themselves, on near-coplanar correspondences whose NLC z
spreads from 1e-6 to 1e-10, where the observability rule decides.  Run
each checkout in its own process; BLAS is pinned to one thread so that sums
reduce in the same order every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from nlcdet import (  # noqa: E402
    Box3D, LossWeights, dof_analysis, gradcheck, nlc_to_lidar, solve_box,
)
from nlcdet.pipeline import ABLATION_ROWS, TrainConfig, ablation, generate_scene, train  # noqa: E402

SMALL = TrainConfig(epochs=3, train_scenes=6, val_scenes=3)


def _feed(h, obj) -> None:
    """Hash ``obj`` by its type, shape and exact bits, walking containers."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    elif isinstance(obj, dict):
        for key, value in obj.items():
            h.update(repr(key).encode())
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())  # repr of a float round-trips its bits


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def fingerprints():
    """Yield (name, sha256) for every seeded output, and (name, ranks) for
    the near-coplanar family: 8 boxes, each with 8 NLCs whose z is 0.5 plus
    the spread times a standard normal draw."""
    runs = {f"train/{row}": replace(SMALL, **flags) for row, flags in ABLATION_ROWS.items()}
    runs["train/no_nlc"] = replace(SMALL, epochs=4, weights=LossWeights(nlc=0.0))
    runs["train/no_sem2d"] = replace(SMALL, epochs=4, weights=LossWeights(sem2d=0.0))
    for name, config in runs.items():
        model, report = train(config)
        yield f"{name}/params", digest(model.params)
        yield f"{name}/report", json_digest(report.to_dict())
    # the benchmark's ``train`` operation: the default 50+20 scenes, two epochs
    model, report = train(TrainConfig(seed=0, epochs=2))
    yield "train/default_epochs_2", digest([model.params, report.to_dict()])
    yield "ablation", json_digest(ablation(SMALL, seeds=(0, 1)))
    yield "gradcheck", json_digest(gradcheck.run_all(20, 0))
    for seed in range(10):
        yield f"scene/{seed}", digest(generate_scene(seed))
    rng = np.random.default_rng(0)
    for i in range(8):
        box = _car_box(rng)
        nlc = rng.uniform(0.05, 0.95, size=(40, 3))
        pts = nlc_to_lidar(nlc, box) + rng.normal(0.0, 0.02, size=(40, 3))
        yield f"solve_box/{i}", json_digest(solve_box(np.hstack([pts, nlc])).to_dict())
    family = []
    for seed in range(8):
        rng = np.random.default_rng([seed, 20])
        family.append((_car_box(rng), rng.uniform(0.05, 0.95, size=(8, 3)), rng.standard_normal(8)))
    for spread in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        ranks, reports = [], []
        for box, nlc, z in family:
            nlc[:, 2] = 0.5 + spread * z
            corrs = np.hstack([nlc_to_lidar(nlc, box), nlc])
            ranks.append(str(dof_analysis(corrs, at=box)["jacobian_rank"]))
            reports.append(solve_box(corrs, init=box).to_dict())
        yield f"dof_analysis/z_spread_{spread:.0e}", " ".join(ranks)
        yield f"solve_box/z_spread_{spread:.0e}", json_digest(reports)


def _car_box(rng) -> Box3D:
    return Box3D(center=rng.uniform(-20, 20, size=3), l=rng.uniform(3, 5),
                 w=rng.uniform(1.5, 2), h=rng.uniform(1.3, 1.8), yaw=rng.uniform(-np.pi, np.pi))


if __name__ == "__main__":
    for name, sha in fingerprints():
        print(name, sha, flush=True)
