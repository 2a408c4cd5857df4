"""The fractional maximal operator and the stopping-time toolbox.

M_gamma averages |f| d(mu) over balls, damped by mu(B)^gamma. Its two
weight strong bound is equivalent to a single family of tests: feed each
cube indicator times the dual weight v = (mu/sigma)^(1/(p-1)) through the
operator. When mu charges a sigma-null point no bound can hold, and the
verdict returns the violating set instead. The stopping half shows the
principal-cube machinery behind the operator bounds.
"""

import math

import numpy as np

from dyadica import (
    PointMeasure,
    build_adjacent_systems,
    build_principal_cubes,
    check_mainlemma,
    check_universal_maximal,
    dual_weight,
    generate_space,
    random_measure,
    verdict_theorem_a,
)
from dyadica.maximal import apply_M, maximal_params

space, mu = generate_space("integer_segment_counting", n=16)
family = build_adjacent_systems(space, seed=0)
sigma = random_measure(16, seed=5)
omega = random_measure(16, seed=6, zero_fraction=0.25)

params = maximal_params(space, mu, gamma=0.5)
f = np.zeros(16)
f[7] = 1.0
print(f"M_gamma(point mass at 7): max {apply_M(params, f).max():.4f}, "
      f"doubling constant {params.doubling_constant}")

# The dual weight turns the two-weight problem into a testable one; the
# defining identity v^p sigma = v mu is verified pointwise on build.
dw = dual_weight(mu, sigma, p=2.0)
print(f"dual weight range: {dw.v.min():.4f} .. {dw.v.max():.4f}")

# The verdict reads the space off the family and measures the doubling
# constant of (space, mu) itself, once, in the params it returns.
v = verdict_theorem_a(family, mu, sigma, omega,
                      gamma=0.5, p=2.0, q=2.0, budget=6)
print(f"\ntesting branch: testing={v.testing.value:.4f} "
      f"norm>={v.norm.lower:.4f} ratio={v.ratio:.3f} "
      f"doubling={v.params.doubling_constant}")

# q = inf works too: the norm becomes a max over omega-charged points.
vi = verdict_theorem_a(family, mu, sigma, omega,
                       gamma=0.5, p=2.0, q=math.inf, budget=6)
print(f"q = inf:        testing={vi.testing.value:.4f} "
      f"norm>={vi.norm.lower:.4f}")

# Necessity: zero out sigma under a mu-charged point and the inequality
# must fail, exhibited by an explicit function with zero source norm and
# positive image norm.
bad = sigma.masses.copy()
bad[3] = 0.0
nv = verdict_theorem_a(family, mu, PointMeasure(bad), omega,
                       gamma=0.5, p=2.0, q=2.0)
print(f"\nnecessity branch: violating set {nv.violating_set}, "
      f"lhs={nv.lhs:.4f} > 0 = rhs, confirmed={nv.confirmed}")

# Principal cubes: a stopping-time family where each selected cube
# strictly doubles its parent's average. The selection implies the sum of
# p-th powers of averages is controlled by twice the maximal function's
# p-th power, pointwise.
rng = np.random.default_rng(42)
g = rng.random(16)
pf = build_principal_cubes(family.systems[0], sigma, g)
print(f"\nprincipal cubes selected: {len(pf.cubes)}, ids {pf.cubes.tolist()}")
rep = check_mainlemma(family.systems[0], pf.cubes, sigma, g, p=2.0)
print(f"average-sum bound: {rep.status}, "
      f"share of the cap used: {rep.details['max_ratio_of_two']:.3f}")

# The dyadic maximal operator obeys the universal L^p bound with the
# sharp constant p' = p/(p-1), independent of the weight.
for p in (1.5, 2.0, 4.0):
    rep = check_universal_maximal(family.systems[0], sigma, p, trials=50)
    print(f"p={p}: ||M_w f||_p <= p' ||f||_p holds, worst share "
          f"{rep.details['max_ratio_of_p_prime']:.3f}")
