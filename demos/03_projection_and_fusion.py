"""Differentiable point/pixel propagation and the fusion blocks.

Point features scatter onto the image grid by averaging everything that lands
in a pixel; image features gather back to points by bilinear sampling.  Both
directions have hand-written backwards whose correctness is verified by
finite differences and by the adjoint identity <Ax, y> = <x, A^T y>.
"""

import numpy as np

from nlcdet import DenseLayer, fuse_i2p, fuse_p2i
from nlcdet import gradcheck
from nlcdet.propagation import ProjectionPlan

rng = np.random.default_rng(3)
H, W, N, C = 8, 12, 40, 5

coords = np.column_stack([rng.uniform(0, W, N), rng.uniform(0, H, N)])
feats = rng.normal(size=(N, C))

# A ProjectionPlan holds both operators over one set of point projections,
# built as sparse matrices on first use and reused by every later call.
plan = ProjectionPlan(coords, H, W)
grid = plan.scatter(feats)
back = plan.gather(grid)
print(f"scatter: {feats.shape} point features -> {grid.shape} grid "
      f"({np.count_nonzero(np.abs(grid).sum(axis=0))} occupied pixels)")
print(f"gather:  {grid.shape} grid -> {back.shape} point features")

# Adjoint identity: the backward of each op is the transpose of its forward.
gy = rng.normal(size=grid.shape)
lhs = float(np.sum(grid * gy))
rhs = float(np.sum(feats * plan.scatter_grad(gy)))
print(f"\nscatter adjoint identity: |<Ax,y> - <x,A'y>| = {abs(lhs - rhs):.3e}")
gp = rng.normal(size=back.shape)
lhs = float(np.sum(back * gp))
rhs = float(np.sum(grid * plan.gather_grad(gp)))
print(f"gather  adjoint identity: |<Ax,y> - <x,A'y>| = {abs(lhs - rhs):.3e}")

# Fusion blocks merge the transported features with the native branch.  Both
# take (M, C) rows: pixel rows (H*W, C) on the image side, point rows on the other.
layers = (
    DenseLayer(weights=rng.normal(size=(C, C)) * 0.3, bias=np.zeros(C)),
    DenseLayer(weights=rng.normal(size=(C, 2 * C)) * 0.3, bias=np.zeros(C)),
)
image_rows = rng.normal(size=(H * W, C))
fused_img, _ = fuse_p2i(grid.reshape(C, -1).T, image_rows, layers)
fused_pts, _ = fuse_i2p(back, feats, layers)
print(f"fuse point->image: {fused_img.shape} pixel rows; "
      f"fuse image->point: {fused_pts.shape} point rows")

# The same finite-difference harness that gates the package, run here live.
results = gradcheck.run_all(trials=3, seed=0)
print("\nfinite-difference checks (max relative error per operator):")
for name, err in sorted(results.items()):
    print(f"  {name:<22} {err:.3e}  (threshold {gradcheck.THRESHOLDS[name]:.0e})")
