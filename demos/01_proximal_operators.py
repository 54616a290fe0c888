"""Tour of the proximal-operator catalog.

Every catalog member knows how to evaluate itself, compute its prox
(the minimizer of gamma*f(x) + 0.5*||x - z||^2), the reflected prox
2*prox - id, and the prox of its convex conjugate via Moreau's identity.
"""

import numpy as np

from proxsplit import (
    Box,
    IndicatorZero,
    PwlPenalty,
    Quadratic,
    WeightedL1,
    Zero,
)

z = np.array([2.0, -0.5])
print(f"query point z = {z}\n")

# The anisotropic quadratic 0.5*(4 x1^2 + 1 x2^2): its prox divides each
# coordinate by 1 + gamma * curvature.
f = Quadratic(np.diag([4.0, 1.0]))
print("quadratic, curvatures (4, 1), gamma=1")
print("  prox      ", f.prox(1.0, z), " (z1/5, z2/2)")
print("  reflected ", f.reflect(1.0, z), " scales coordinate 1 by -0.6")

# Soft thresholding: the prox of a weighted l1 norm.
w = WeightedL1([1.0, 1.0])
print("\nweighted l1 with unit weights, gamma=1")
print("  prox      ", w.prox(1.0, z), " shrinks toward 0 by gamma*w")

# A soft band penalty: zero inside [lo, hi], linear outside with a steep
# slope.  Points within gamma*slope of the band land exactly on its edge.
h = PwlPenalty(lo=-1.0, hi=1.0, slope=10.0)
print("\npiecewise-linear band [-1, 1], slope 10, gamma=0.1")
print("  prox(1.5) ", h.prox(0.1, np.array([1.5])),
      " clamps onto the band edge")

# Indicators: prox = projection.  The zero function and the indicator of
# the origin are conjugate to each other, which the Moreau identity turns
# into complementary proxes.
print("\nzero function vs indicator of the origin (conjugate pair)")
print("  prox of zero fn        ", Zero().prox(1.0, z), " identity")
print("  prox of its conjugate  ", Zero().conjugate_prox(1.0, z), " origin")
print("  prox of origin indic.  ", IndicatorZero().prox(1.0, z))
print("  prox of its conjugate  ", IndicatorZero().conjugate_prox(1.0, z),
      " identity")

# Box projection is gamma-independent.
b = Box([-1.0, -1.0], [1.0, 1.0])
print("\nbox [-1,1]^2")
print("  prox      ", b.prox(5.0, z), " plain clipping")

# Moreau's identity ties a prox to its conjugate's prox exactly:
#   prox_{gamma f}(z) + gamma * prox_{f*/gamma}(z/gamma) = z
gamma = 0.7
lhs = w.prox(gamma, z) + gamma * w.conjugate_prox(1 / gamma, z / gamma)
print(f"\nMoreau identity residual for the l1 member: "
      f"{np.linalg.norm(lhs - z):.2e}")
