"""Potential-type kernels and their dyadic envelopes.

A kernel on a finite space is an (n, n) matrix of nonnegative values, finite
off the diagonal; +inf may appear only at K(x, x). Built-in families:

* ``frac_rho``: K(x, y) = dist(x, y)^(alpha - n_dim); the diagonal is +inf
  unless a finite ``diag`` override is supplied.
* ``ball_volume``: K(x, y) = mu(B(x, dist(x, y)))^(gamma - 1) with the strict
  ball centered at the first argument, hence possibly asymmetric. The
  diagonal is mu({x})^(gamma - 1) when x carries mass and +inf otherwise.
  Masses are summed in distance order, as ``apply_M`` sums them.
* ``ball_volume_closed``: same with the closed ball.
* ``matrix``: caller-supplied values.

The dyadic envelope phi assigns to a cube Q the largest kernel value over
pairs drawn from the containing ball B(Q) that are at least c * radius(B(Q))
apart, with c = delta^2 / (5 a0^2). Three estimates tie phi back to the
kernel and are checked exactly on the finite space, with constant
C_K = k1(k2)^2 where k1 is the exact growth constant at scale factor
k2 = 20 a0^4 / delta^2, read in one pass off the rows of the space index:

1. phi(Q) <= C_K * K(x, y) for every such separated pair in B(Q);
2. phi(ancestor) <= C_K * phi(descendant) along cube ancestry;
3. a cube whose ball holds no separated pair has exactly one set-equal
   child, so an undefined envelope never multiplies a nonempty shell.

A ``PhiTable`` is the envelope of one kernel on one system with its C_K,
k1 and k2: the estimates and the dyadic model operator share one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicSystem
from .errors import BadParams, CheckFailed
from .policy import CheckReport, guard_vec, outcome
from .space import _BLOCK_ELEMENTS, PointMeasure, QuasiMetricSpace


@dataclass(eq=False)
class Kernel:
    kind: str
    params: dict
    matrix: np.ndarray = field(repr=False)
    symmetric: bool

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_kernel(space: QuasiMetricSpace, mu: PointMeasure | None, kind: str,
                 **params) -> Kernel:
    n = space.n
    d = space.dist
    if kind == "frac_rho":
        alpha = float(params.get("alpha", np.nan))
        n_dim = float(params.get("n_dim", np.nan))
        if not (np.isfinite(alpha) and np.isfinite(n_dim) and 0 < alpha < n_dim):
            raise BadParams("need 0 < alpha < n_dim", alpha=alpha, n_dim=n_dim)
        with np.errstate(divide="ignore"):
            K = np.where(d > 0, d, np.nan) ** (alpha - n_dim)
        diag = params.get("diag")
        if diag is None:
            np.fill_diagonal(K, np.inf)
        else:
            dv = float(diag)
            if not dv >= 0.0:
                raise BadParams("diagonal override must be nonnegative",
                                diag=dv)
            np.fill_diagonal(K, dv)
    elif kind in ("ball_volume", "ball_volume_closed"):
        if mu is None:
            raise BadParams("ball volume kernels need a reference measure")
        gamma = float(params.get("gamma", np.nan))
        if not (np.isfinite(gamma) and 0 < gamma <= 1):
            raise BadParams("need gamma in (0, 1]", gamma=gamma)
        # the strict diagonal reads a neighbour's entry; it is set below
        mass = space.index.prefix_sums(mu.masses).ravel()[
            space.ball_ends(d, closed=kind.endswith("closed"))]
        empty = np.argwhere((mass == 0.0) & ~np.eye(n, dtype=bool))
        if empty.size:
            x, y = map(int, empty[0])
            raise CheckFailed("empty_ball_mass", "the ball around x of radius "
                              "dist(x, y) has no mu mass", x=x, y=y,
                              radius=float(d[x, y]))
        np.fill_diagonal(mass, mu.masses)
        # Python float powers, one per distinct mass: numpy's power may
        # move the last ulp
        vals, at = np.unique(mass.ravel(), return_inverse=True)
        K = np.array([m ** (gamma - 1.0) if m > 0.0 else np.inf
                      for m in vals.tolist()])[at].reshape(n, n)
    elif kind == "matrix":
        K = np.asarray(params.get("values"), dtype=float)
        if K.ndim != 2 or K.shape != (n, n):
            raise BadParams("kernel matrix must be n-by-n", shape=K.shape)
        if np.any(np.isnan(K)) or np.any(K < 0):
            raise BadParams("kernel values must be nonnegative and not NaN")
        off = ~np.eye(n, dtype=bool)
        if np.any(np.isinf(K[off])):
            x, y = np.argwhere(np.isinf(K) & off)[0]
            raise BadParams("off-diagonal kernel values must be finite",
                            x=int(x), y=int(y))
    else:
        raise BadParams("unknown kernel kind", kind=kind)
    return Kernel(kind=kind, params=dict(params), matrix=K,
                  symmetric=bool(np.array_equal(K, K.T)))


def growth_scale_factor(a0: float, delta: float) -> float:
    return 20.0 * a0**4 / delta**2


def pair_threshold(a0: float, delta: float) -> float:
    return delta**2 / (5.0 * a0**2)


def kernel_growth_constant(kernel: Kernel, space: QuasiMetricSpace,
                           k2: float) -> float:
    """Smallest k1 with K(x, y) <= k1 * K(x', y) whenever the moved pair is
    off-diagonal and dist(x', y) <= k2 * dist(x, y), over both slots.

    Zero kernel values are allowed only against zero: a positive value
    comparable to a zero one means no finite k1 exists.
    """
    return _slot_growth(kernel.matrix, space, k2,
                        "x" if kernel.symmetric else "xy")


def _slot_growth(K: np.ndarray, space: QuasiMetricSpace, k2: float,
                 slots: str) -> float:
    """The growth constant of the kernel slots in ``slots``, checked in
    that order; col[i, b, a] is the kernel with slot i first (K for "x",
    K.T for "y") at (a, b).  d is symmetric, so the points a may move to
    are order[b] after b, and those within k2 * d(a, b) of b are the first
    |closed ball| - 1.  One running minimum along each row of ``order``, b
    read as +inf, is read at each ball's end and serves every a."""
    n, order = space.n, space.index.order
    ends = space.ball_ends(k2 * space.dist, closed=True)
    reach = ends - n * np.arange(n)[:, None]
    col = np.stack([{"x": K.T, "y": K}[s] for s in slots])
    low = np.take_along_axis(col, order[None], axis=2)
    low[..., 0] = np.inf  # order[b, 0] is b
    low = np.minimum.accumulate(low, axis=2).reshape(len(slots), -1)[:, ends]
    live = (col != 0.0) & (reach > 0)
    if np.any(zero := live & (low == 0.0)):  # first slot, b, then a
        i, b, a = map(int, np.argwhere(zero)[0])
        moves = order[b, 1:reach[b, a] + 1]
        x, y = (a, b) if slots[i] == "x" else (b, a)
        raise CheckFailed("unbounded", "positive value comparable to a zero "
                          "one", x=x, y=y, **{f"{slots[i]}_moved": int(
                              moves[col[i, b, moves] == 0.0].min())})
    return float((col[live] / low[live]).max(initial=1.0))


def kernel_bound_constant(kernel: Kernel, space: QuasiMetricSpace,
                          delta: float) -> tuple[float, float, float]:
    """Return (C_K, k1, k2) with C_K = k1^2 at the calibrated scale factor."""
    k2 = growth_scale_factor(space.a0, delta)
    k1 = kernel_growth_constant(kernel, space, k2)
    return k1 * k1, k1, k2


# ---------------------------------------------------------------------------
# dyadic envelope
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PhiTable:
    """Envelope values per cube id; ``defined`` is False when the containing
    ball holds no separated pair (the value is then 0 and must never be
    paired with a nonempty shell). ``low`` is the smallest separated-pair
    value of each defined cube, taken in the same pass as the envelope.
    (C_K, k1, k2) is ``kernel_bound_constant`` at the system's delta."""

    threshold: float
    values: np.ndarray
    defined: np.ndarray
    low: np.ndarray
    C_K: float
    k1: float
    k2: float


def phi_table(kernel: Kernel, sys: DyadicSystem) -> PhiTable:
    """Each containing ball is a prefix of its center's ``index.order`` row.
    By ball size, blocks of cubes gather (cubes, s, s) tables of d and K, s
    their largest ball, of at most _BLOCK_ELEMENTS entries."""
    space = sys.space
    C_K, k1, k2 = kernel_bound_constant(kernel, space, sys.delta)
    c = pair_threshold(space.a0, sys.delta)
    radius = np.array([sys.outer_ball_radius(k) for k in sys.generation_range()])
    cut = c * radius[sys.cubes.k - sys.k_min]
    size = sys.outer_balls.sum(axis=1)
    values = np.zeros(len(sys.cubes))
    low = np.zeros(len(sys.cubes))
    defined = np.zeros(len(sys.cubes), dtype=bool)
    by_size, start = np.argsort(size, kind="stable"), 0
    while start < size.size:
        # at most _BLOCK_ELEMENTS // s^2 cubes fit, s the block's first size
        s = size[by_size[start:start + max(1, _BLOCK_ELEMENTS
                                           // size[by_size[start]] ** 2)]]
        fit = np.arange(1, s.size + 1) * s * s <= _BLOCK_ELEMENTS
        ids = by_size[start:start + max(1, int(fit.sum()))]
        start += ids.size
        w = int(size[ids[-1]])
        # past its ball a row repeats the center, which adds no pair
        center = sys.cubes.center[ids]
        pts = np.where(np.arange(w) < size[ids, None],
                       space.index.order[center, :w], center[:, None])
        flat = pts[:, :, None] * space.n + pts[:, None, :]
        sep = space.dist.take(flat) >= cut[ids, None, None]
        vals = kernel.matrix.take(flat)
        defined[ids] = sep.any(axis=(1, 2))
        values[ids] = np.where(sep, vals, 0.0).max(axis=(1, 2))
        low[ids] = np.where(defined[ids],
                            np.where(sep, vals, np.inf).min(axis=(1, 2)), 0.0)
    return PhiTable(threshold=c, values=values, defined=defined, low=low,
                    C_K=C_K, k1=k1, k2=k2)


def check_kernel_estimates(kernel: Kernel, sys: DyadicSystem,
                           phi: PhiTable | None = None) -> list[CheckReport]:
    """Check the three envelope estimates exactly on the finite space."""
    if phi is None:
        phi = phi_table(kernel, sys)
    C_K, named, v = phi.C_K, sys.cubes.name, phi.values
    reports: list[CheckReport] = []

    def emit(name: str, witness: dict | None = None, **details):
        reports.append(outcome(name, sys.strict_delta, witness, **details))

    def ratio(top, bottom):
        return np.divide(top, bottom, where=bottom > 0.0,
                         out=np.where(top > 0.0, np.inf, 0.0))

    # (1) the envelope never exceeds C_K times any separated pair value
    ids = np.flatnonzero(phi.defined)
    worst = ratio(v[ids], phi.low[ids])
    bad = np.flatnonzero(~(v[ids] <= guard_vec(C_K * phi.low[ids])))

    def case(j):
        return {**named(ids[j]), "phi": float(v[ids[j]]),
                "min_pair_value": float(phi.low[ids[j]])}
    if bad.size:
        emit("bounded_on_separated_pairs", {**case(bad[0]), "C_K": C_K})
    else:
        top = float(worst.max(initial=0.0))
        emit("bounded_on_separated_pairs", worst_ratio=top, C_K=C_K,
             worst_case=case(np.argmax(worst)) if top > 0.0 else None)

    # (2) ancestors never exceed C_K times descendants; up[g, i] is the
    # generation-g cube holding i's center, i's ancestor when g is coarser
    up = sys.label[:, sys.cubes.center]
    pair = ((np.arange(sys.num_generations)[:, None] < sys.cubes.k - sys.k_min)
            & phi.defined & phi.defined[up])
    fail = pair & ~(v[up] <= guard_vec(C_K * v))
    bad = np.flatnonzero(fail.any(axis=0))
    if bad.size:  # the first descendant, its nearest failing ancestor
        i = bad[0]
        a = up[np.flatnonzero(fail[:, i])[-1], i]
        emit("bounded_along_ancestry",
             {"ancestor": tuple(named(a).values()),
              "descendant": tuple(named(i).values()),
              "phi_ancestor": float(v[a]), "phi_descendant": float(v[i]),
              "C_K": C_K})
    else:
        emit("bounded_along_ancestry", C_K=C_K,
             worst_ratio=float(ratio(v[up], v)[pair].max(initial=0.0)))

    # (3) a cube with no separated pair collapses onto its only child
    witness = None
    vacuous = np.flatnonzero(~phi.defined & (sys.cubes.k < sys.k_max))
    for i in vacuous:
        kids = sys.children(i)
        if len(kids) != 1 or not np.array_equal(sys.incidence[kids[0]],
                                                sys.incidence[i]):
            witness = {**named(i), "children": len(kids)}
            break
    if vacuous.size:
        emit("vacuous_cubes_collapse", witness)
    else:
        reports.append(CheckReport("vacuous_cubes_collapse", "vacuous",
                                   sys.strict_delta))

    return reports
