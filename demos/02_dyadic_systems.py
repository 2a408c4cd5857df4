"""Adjacent dyadic cube systems: construction, checks, and the coverage
certificate.

A dyadic system partitions the space at every scale delta^k into "cubes"
that nest across scales and are sandwiched between inner and outer balls.
A family of such systems is adjacent when every ball is contained, at a
comparable scale, in some cube of some member system; the builder records
a certificate for that claim which can be replayed independently.
"""

from dyadica import (
    build_adjacent_systems,
    check_system,
    coverage_bound,
    generate_space,
    replay_coverage,
    require,
)
from dyadica.dyadic import dyadic_parameters

space, mu = generate_space("snowflake_power", n=8, power=2.0)

# The scale ratio delta and the ball-sandwich radii c1, C1 are forced by
# the quasi-triangle constant; strict mode requires 96 a0^6 delta <= 1.
delta, c1, C1, strict = dyadic_parameters(space.a0)
print(f"a0={space.a0}  delta={delta:.6f}  c1={c1:.6f}  C1={C1:.1f}  "
      f"strict={strict}")

family = build_adjacent_systems(space, seed=0)
print(f"family size: {len(family.systems)} system(s)")

# A cube is an integer id, sorted by (k, center); sys0.cubes holds the
# columns k, center and diameter by id. generation(k) is the slice of ids
# at scale k, label[k - k_min, x] is the id of the generation-k cube
# holding x, parent[id] is -1 at the top, and the members of cube id are
# the row incidence[id].
sys0 = family.systems[0]
print(f"\nscale window k = {sys0.k_min} .. {sys0.k_max}")
for k in sys0.generation_range():
    ids = sys0.generation(k)
    sizes = sorted(sys0.incidence[ids].sum(axis=1).tolist(), reverse=True)
    print(f"  generation {k:3d}: ids {ids.start:2d}..{ids.stop - 1:2d}, "
          f"sizes {sizes}")
leaf = sys0.leaf(0)
print(f"point 0: cube ids {sys0.label[:, 0].tolist()} coarsest "
      f"first; its leaf {leaf} has parent {sys0.parent[leaf]}")

# Five structural checks, all exact: each generation partitions the
# space, children refine parents, every cube sits between an inner and an
# outer ball, outer balls of descendants nest, and centers persist
# through the generations. Each check returns a report; require() raises a
# failed one as a CheckFailed named by the report, with its witness.
for report in check_system(sys0):
    print(f"  {report.name:22s} {require(report).status}")

# The adjacency certificate covers every ball: one row per center, band
# and radius regime (plus the extreme radii) names a cube that holds the
# ball with diameter at most C times the radius. The observed constant
# must stay below 8 a0^3 / delta^2.
cert = family.certificate
bound = coverage_bound(space.a0, sys0.delta)
print(f"\ncoverage: observed C = {cert.observed_C:.2f} <= bound {bound:.2f}")
print(f"regimes certified: {len(cert.entries)}, replay ok: "
      f"{replay_coverage(family.systems, cert)}")
