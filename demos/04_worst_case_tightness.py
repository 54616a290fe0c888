"""Worst-case instances: the certified rates are attained, not just bounded.

A two-dimensional quadratic with curvatures (beta, sigma), paired with
either the zero function or the indicator of the origin, turns the whole
splitting iteration into an exact scalar recurrence.  Picking the right
pair and starting coordinate for each (gamma, alpha) quadrant produces an
instance whose measured per-step contraction equals the certified bound to
machine precision, and relaxations beyond 2/(1+delta) provably fail on it.
"""

import numpy as np

from proxsplit import Regularity, contraction_factor
from proxsplit.worstcase import (
    adversarial_case,
    divergence_distances,
    verify_grid,
    verify_point,
)

reg = Regularity(sigma=1.0, beta=4.0)

print("adversarial construction per parameter quadrant (kappa = 4):")
for alpha, gamma in ((0.8, 0.3), (1.2, 0.8), (0.8, 0.8), (1.2, 0.3)):
    variant, z0, coord = adversarial_case(alpha, gamma, reg)
    print(f"  alpha={alpha}, gamma={gamma}: variant={variant}, "
          f"start={z0}, coordinate={'beta' if coord == 1 else 'sigma'}")

print("\nmeasured vs exact vs bound at a few points:")
for gamma, alpha in ((0.5, 1.0), (0.1, 0.5), (2.5, 1.2)):
    row = verify_point(reg.beta, reg.sigma, gamma, alpha)
    print(f"  gamma={gamma:4} alpha={alpha:4}  bound={row['bound']:.6f}  "
          f"exact={row['exact_rate']:.6f}  "
          f"measured={row['measured_rate']:.6f}  "
          f"max|diff|={row['max_abs_diff']:.1e}")

rows = verify_grid()
print(f"\nfull tightness grid: {len(rows)} points, "
      f"max|measured-exact| = {max(r['max_abs_diff'] for r in rows):.1e}, "
      f"max|exact-bound| = "
      f"{max(abs(r['exact_rate'] - r['bound']) for r in rows):.1e}")

# just beyond the feasible relaxation interval the iteration stops
# converging on the adversarial instance
gamma = 0.5
delta = contraction_factor(reg, gamma)
dist = divergence_distances(reg.beta, reg.sigma, gamma)
print(f"\nalpha = 1.01 * 2/(1+delta) = {1.01 * 2 / (1 + delta):.4f}: "
      f"distance to the fixed point grows from {dist[0]:.3f} to "
      f"{dist[-1]:.3f} over {len(dist) - 1} iterations "
      f"(ratio {dist[-1] / dist[0]:.2f}, nondecreasing: "
      f"{bool(np.all(dist[1:] >= dist[:-1]))})")
