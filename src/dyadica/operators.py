"""Direct and dyadic model operators.

The direct operator integrates the kernel against a weighted density,

    T(f dsigma)(x) = sum_y K(x, y) f(y) sigma({y}),

and its adjoint uses the transposed kernel. The dyadic model operator is
tied to a cube system generalized by the measure pair (sigma, omega): off
the diagonal K is replaced by the envelope of the finest cube containing
both points, and the diagonal keeps K(x, x) only at joint atoms,

    T_D(f dsigma)(x) = sum_{y != x} phi(Q(x, y)) f(y) sigma({y})
                       + [x joint atom] K(x, x) f(x) sigma({x}),

so the matrix diagonal is positive only where both measures charge the
point. An equivalent telescoping form runs over one cube chain: with
A_k(x) the sigma-integral of f over the generation-k cube containing x,

    T_D(f dsigma)(x) = sum_k phi(Q^k(x)) (A_k(x) - A_{k+1}(x)) + diagonal.

The shifted variant T_D^m widens each shell to m generations; cubes past
the finest generation mean the point cube {x}. Cube integrals are computed
hierarchically (a parent's sum adds its children's sums in cube-id order,
which is center order, and the finest generation sums its members in point
order), which makes A_{k+1} <= A_k >= f(x) sigma({x}) hold exactly in
floating point for f >= 0 and lets the sandwich T_D <= T_D^m be asserted
with no tolerance.

Everywhere a +inf diagonal meets a zero density the product counts as zero;
a +inf against a nonzero density propagates as a signed infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic import GeneralizedSystem
from .errors import (
    BadM,
    BadParams,
    DualityViolated,
    EquivalenceViolated,
    FormMismatch,
    PointCubeViolated,
    PropertyViolation,
    SandwichViolated,
)
from .kernel import Kernel, PhiTable, phi_table
from .policy import TOLERANCES, CheckReport, close, guard, guard_vec, outcome
from .space import PointMeasure, _frozen


def _as_density(f, n: int) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    if v.shape != (n,):
        raise BadParams("density must have one value per point", shape=v.shape)
    if not np.isfinite(v).all():
        raise BadParams("density values must be finite")
    return v


def split_diagonal(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: a C-ordered copy of matrix with a zero diagonal, and that
    diagonal."""
    off = np.array(matrix, dtype=float, order="C")
    diag = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    return _frozen(off), _frozen(diag)


def weighted_apply(off: np.ndarray, diag: np.ndarray, f,
                   measure: PointMeasure) -> np.ndarray:
    """Integrate a split kernel matrix against f d(measure), inf * 0 = 0:
    the diagonal multiplies only where the density is nonzero. Off-diagonal
    values are finite, so a zero density has the zero image."""
    g = _as_density(f, off.shape[0]) * measure.masses
    if not g.any():
        return np.zeros(g.size)
    return off @ g + np.multiply(diag, g, out=np.zeros(g.size), where=g != 0.0)


def pairing(u: np.ndarray, v: np.ndarray, w: PointMeasure) -> float:
    """sum u * v * w with any zero factor silencing an infinite partner."""
    nz = w.charged & (u != 0.0) & (v != 0.0)
    t = np.multiply(u, v, out=np.zeros(nz.size), where=nz)
    return float(np.multiply(t, w.masses, out=t, where=nz).sum())


def apply_direct(kernel: Kernel, f, sigma: PointMeasure) -> np.ndarray:
    return weighted_apply(*split_diagonal(kernel.matrix), f, sigma)


@dataclass(eq=False)
class MatrixOperator:
    """Kernel-matrix operator f -> sum_y M(., y) f(y) sigma({y}).

    The adjoint integrates the transposed matrix against omega. The direct
    operator is MatrixOperator(kernel.matrix, sigma, omega); the dyadic
    model operator is the same action on its envelope matrix. The first
    apply splits the matrix and its transpose and keeps the splits, so the
    matrix must not change after it.
    """

    matrix: np.ndarray = field(repr=False)
    sigma: PointMeasure
    omega: PointMeasure

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _splits(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return split_diagonal(self.matrix), split_diagonal(self.matrix.T)

    def apply(self, f) -> np.ndarray:
        return weighted_apply(*self._splits[0], f, self.sigma)

    def apply_adjoint(self, h) -> np.ndarray:
        return weighted_apply(*self._splits[1], h, self.omega)


@dataclass(eq=False)
class DyadicOperator(MatrixOperator):
    """Dyadic model operator bound to a generalized system and its measures.

    sigma and omega are the generalized system's pair; the matrix is
    symmetric and its diagonal is positive only at joint atoms. C_K is the
    envelope's bound constant, copied from ``phi``.
    """

    kernel: Kernel
    gen: GeneralizedSystem
    phi: PhiTable
    C_K: float

    @property
    def system(self):
        return self.gen.base


def build_dyadic_operator(kernel: Kernel, gen: GeneralizedSystem,
                          phi: PhiTable | None = None) -> DyadicOperator:
    system = gen.base
    space = system.space
    if kernel.n != space.n:
        raise BadParams("kernel and system disagree on the point count",
                        kernel_n=kernel.n, space_n=space.n)
    if phi is None:
        phi = phi_table(kernel, system)
    # ids[x, y] = id of the smallest cube holding x and y: finer generations
    # overwrite coarser ones, and the coarsest generation is the whole space
    label = system.label
    ids = np.repeat(label[0][:, None], space.n, axis=1)
    for row in label[1:]:
        np.copyto(ids, row[:, None], where=row[:, None] == row[None, :])
    undefined = np.triu(~phi.defined[ids], 1)
    if undefined.any():
        x, y = (int(i) for i in np.argwhere(undefined)[0])
        q = system.cubes[ids[x, y]]
        raise PropertyViolation(
            "envelope undefined on a cube separating two points",
            x=x, y=y, k=q.k, center=q.center)
    M = phi.values[ids]
    joint = gen.sigma.charged & gen.omega.charged
    np.fill_diagonal(M, np.where(joint, kernel.matrix.diagonal(), 0.0))
    return DyadicOperator(matrix=M, sigma=gen.sigma, omega=gen.omega,
                          kernel=kernel, gen=gen, phi=phi, C_K=phi.C_K)


# ---------------------------------------------------------------------------
# telescoping form
# ---------------------------------------------------------------------------

def cube_sums(system, point_vals: np.ndarray) -> np.ndarray:
    """Per-cube totals by id; a parent's total adds its children's in id order.

    Finest-generation cubes sum their members in point order, and ids within
    a generation follow the centers, so children enter their parent's total
    in center order. The ordered recursion makes every child total <= its
    parent total, and every total at least each of its member values,
    exactly in floating point when the values are nonnegative.
    """
    sums = np.zeros(len(system.cubes))
    for x in range(system.space.n):
        sums[system.label[-1, x]] += float(point_vals[x])
    for k in range(system.k_max, system.k_min, -1):
        ids = system.generation(k)
        for i in range(ids.start, ids.stop):
            sums[system.parent[i]] += sums[i]
    return sums


def apply_dyadic_partition(op: DyadicOperator, f, m: int = 1) -> np.ndarray:
    """Telescoping form of the dyadic operator with shells m generations deep."""
    if not isinstance(m, int) or m < 1:
        raise BadM(m=m)
    system = op.system
    g = _as_density(f, op.n) * op.gen.sigma.masses
    # chain[gi, x] = A_k(x), the total of the generation-k cube holding x
    chain = cube_sums(system, g)[system.label]
    phi = op.phi.values[system.label]
    G = system.num_generations
    total = np.zeros(op.n)
    for i in range(G):
        far = chain[i + m] if i + m < G else g
        total += phi[i] * (chain[i] - far)
    with np.errstate(invalid="ignore"):
        return np.where(g == 0.0, total, total + op.matrix.diagonal() * g)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _vec_close(a: np.ndarray, b: np.ndarray, rel: float) -> tuple[bool, int, float]:
    """Componentwise closeness treating matching infinities as equal: (ok,
    the first offending index or else the worst one, its relative error)."""
    with np.errstate(invalid="ignore"):
        err = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    inf = np.isinf(a) | np.isinf(b)
    err = np.where(inf, np.where(a == b, 0.0, np.inf), err)
    bad = np.flatnonzero(err > rel)
    i = int(bad[0]) if bad.size else int(np.argmax(err))
    return not bad.size, i, float(err[i])


def check_forms_agree(op: DyadicOperator) -> CheckReport:
    """Kernel form and telescoping form agree on every basis density."""
    rel = TOLERANCES["dual_form_rel"]
    n = op.n
    worst = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a = op.apply(e)
        b = apply_dyadic_partition(op, e, m=1)
        ok, i, err = _vec_close(a, b, rel)
        worst = max(worst, 0.0 if np.isinf(err) else err)
        if not ok:
            return outcome("forms_agree", op.system.strict_delta, FormMismatch,
                           {"basis": j, "x": i, "kernel_form": float(a[i]),
                            "telescoped": float(b[i])})
    return outcome("forms_agree", op.system.strict_delta, FormMismatch,
                   worst_rel_err=worst, rel=rel)


def check_self_adjoint(op: DyadicOperator, seed: int = 0,
                       trials: int = 20) -> CheckReport:
    """<T_D(g dsigma), h>_omega == <g, T_D(h domega)>_sigma on random pairs."""
    rel = TOLERANCES["duality_rel"]
    rng = np.random.default_rng(np.random.SeedSequence([0xAD01, seed]))
    sigma, omega = op.gen.sigma, op.gen.omega
    n = op.n
    worst = 0.0
    for t in range(trials):
        g = rng.uniform(0.0, 1.0, n)
        h = rng.uniform(0.0, 1.0, n)
        lhs = pairing(op.apply(g), h, omega)
        rhs = pairing(g, op.apply_adjoint(h), sigma)
        if np.isinf(lhs) or np.isinf(rhs):
            if lhs == rhs:
                continue
        elif close(lhs, rhs, rel):
            scale = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
            continue
        return outcome("self_adjoint", op.system.strict_delta, DualityViolated,
                       {"trial": t, "lhs": lhs, "rhs": rhs})
    return outcome("self_adjoint", op.system.strict_delta, DualityViolated,
                   trials=trials, worst_rel_err=worst)


def check_shifted_sandwich(op: DyadicOperator, f, m: int) -> CheckReport:
    """T_D <= T_D^m (no tolerance) and T_D^m <= C_K m T_D (roundoff guard)."""
    fv = _as_density(f, op.n)
    if np.any(fv < 0):
        raise BadParams("sandwich check needs a nonnegative density")
    base = apply_dyadic_partition(op, fv, m=1)
    shifted = apply_dyadic_partition(op, fv, m=m)
    low_ok = bool(np.all(shifted >= base))
    cap = op.C_K * m * base
    high_ok = bool(np.all(shifted <= guard_vec(cap)))
    if low_ok and high_ok:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(base > 0, shifted / base, 1.0)
        ratio = float(np.nanmax(np.where(np.isfinite(ratio), ratio, 1.0)))
        return outcome("shifted_sandwich", op.system.strict_delta,
                       SandwichViolated, m=m, cap=op.C_K * m, worst_ratio=ratio)
    side = "lower" if not low_ok else "upper"
    bad = np.flatnonzero(~(shifted >= base) if not low_ok
                         else ~(shifted <= guard_vec(cap)))
    x = int(bad[0])
    return outcome("shifted_sandwich", op.system.strict_delta, SandwichViolated,
                   {"m": m, "side": side, "x": x, "base": float(base[x]),
                    "shifted": float(shifted[x]), "cap": op.C_K * m})


def check_dyadic_below_direct(op: DyadicOperator) -> CheckReport:
    """Entrywise phi(Q(x,y)) <= C_K K(x,y) and <= C_K K(y,x).

    This makes T_D(f dsigma) <= C_K T(f dsigma) and <= C_K T*(f dsigma)
    pointwise for every nonnegative density at once. Witnesses are the
    first entry in (x, y, direct before adjoint) order.
    """
    K = op.kernel.matrix
    target = np.stack([K, K.T], axis=-1)
    v = np.broadcast_to(op.matrix[:, :, None], target.shape)
    off = ~np.eye(op.n, dtype=bool)[:, :, None]
    labels = ("direct", "adjoint")
    bad = off & ~(v <= guard_vec(op.C_K * target))
    if bad.any():
        x, y, t = (int(i) for i in np.argwhere(bad)[0])
        return outcome("dyadic_below_direct", op.system.strict_delta,
                       EquivalenceViolated,
                       {"x": x, "y": y, "against": labels[t],
                        "phi": float(v[x, y, t]),
                        "kernel": float(target[x, y, t]), "C_K": op.C_K})
    ratio = np.divide(v, target, out=np.zeros(target.shape), where=off & (target > 0))
    worst, witness = float(ratio.max(initial=0.0)), None
    if worst > 0:
        x, y, t = (int(i) for i in np.argwhere(ratio == worst)[0])
        witness = {"x": x, "y": y, "against": labels[t]}
    return outcome("dyadic_below_direct", op.system.strict_delta,
                   EquivalenceViolated, worst_ratio=worst, C_K=op.C_K,
                   worst_at=witness)


def require_same_instance(ops, kernel: Kernel, sigma: PointMeasure,
                          omega: PointMeasure) -> None:
    """Raise BadParams unless every operator has this kernel and pair."""
    for o in ops:
        if o.kernel is not kernel:
            raise BadParams("operators must share one kernel",
                            system=o.system.system_id)
        if not (np.array_equal(o.sigma.masses, sigma.masses)
                and np.array_equal(o.omega.masses, omega.masses)):
            raise BadParams("operators must share the measure pair",
                            system=o.system.system_id)


def check_direct_below_family(
        ops: list[DyadicOperator] | tuple[DyadicOperator, ...]) -> CheckReport:
    """Entrywise K(x,y) <= 3 C_K sum_t phi_t(Q_t(x,y)) off the diagonal.

    Summed against any nonnegative density this gives
    T(f dsigma) <= 3 C_K sum_t T_Dt(f dsigma) pointwise.
    """
    if not ops:
        raise BadParams("need at least one dyadic operator")
    kernel = ops[0].kernel
    require_same_instance(ops, kernel, ops[0].sigma, ops[0].omega)
    K = kernel.matrix
    C_K = ops[0].C_K
    n = ops[0].n
    total = np.zeros((n, n))
    for o in ops:
        total += o.matrix
    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere(off & ~(K <= guard_vec(3.0 * C_K * total)))
    if bad.size:
        x, y = (int(i) for i in bad[0])
        return outcome("direct_below_family", ops[0].system.strict_delta,
                       EquivalenceViolated,
                       {"x": x, "y": y, "kernel": float(K[x, y]),
                        "family_sum": float(total[x, y]), "C_K": C_K})
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(off & (total > 0), K / total / (3.0 * C_K), 0.0)
    return outcome("direct_below_family", ops[0].system.strict_delta,
                   EquivalenceViolated, systems=len(ops),
                   worst_margin=float(ratio.max(initial=0.0)))


def check_family_domination(ops: list[DyadicOperator] | tuple[DyadicOperator, ...],
                            f) -> CheckReport:
    """T(f dsigma) <= 3 C_K sum_t T_Dt(f dsigma) at omega-charged points."""
    if not ops:
        raise BadParams("need at least one dyadic operator")
    fv = _as_density(f, ops[0].n)
    if np.any(fv < 0):
        raise BadParams("domination check needs a nonnegative density")
    kernel, sigma, omega = ops[0].kernel, ops[0].sigma, ops[0].omega
    require_same_instance(ops, kernel, sigma, omega)
    C_K = ops[0].C_K
    lhs = apply_direct(kernel, fv, sigma)
    rhs = np.zeros_like(lhs)
    for o in ops:
        rhs = rhs + o.apply(fv)
    idx = np.flatnonzero(omega.charged)
    for x in idx:
        L, R = float(lhs[x]), 3.0 * C_K * float(rhs[x])
        if np.isinf(L) and np.isinf(R):
            continue
        if not L <= guard(R):
            return outcome("family_domination", ops[0].system.strict_delta,
                           EquivalenceViolated,
                           {"x": int(x), "direct": L, "family_bound": R})
    return outcome("family_domination", ops[0].system.strict_delta,
                   EquivalenceViolated, points=len(idx), systems=len(ops))


def check_point_cube_testing(op: DyadicOperator, p: float, q: float,
                             strong_constant: float,
                             dual_constant: float) -> CheckReport:
    """Finite testing constants force the point-cube bounds at joint atoms.

    At a joint atom x the two inequalities read

        K(x, x) omega({x})^(1/q)  <= strong * sigma({x})^(1/p - 1),
        K(x, x) sigma({x})^(1/p') <= dual   * omega({x})^(1/q' - 1),

    so in particular an infinite K(x, x) at a joint atom is incompatible
    with finite testing constants; that case fails with kxx_infinite set in
    the witness. With no joint atoms the check is vacuous.
    """
    if not (1.0 < p <= q):
        raise BadParams("need 1 < p <= q", p=p, q=q)
    gen = op.gen
    if not gen.joint_atoms:
        return CheckReport("point_cube_testing", "vacuous",
                           op.system.strict_delta,
                           details={"joint_atoms": 0})
    p_prime = p / (p - 1.0)
    q_prime = q / (q - 1.0) if np.isfinite(q) else 1.0
    sig, om = gen.sigma.masses, gen.omega.masses
    worst = 0.0
    for x in gen.joint_atoms:
        kxx = float(op.kernel.matrix[x, x])
        sides = (
            ("strong", kxx * om[x] ** (1.0 / q),
             strong_constant * sig[x] ** (1.0 / p - 1.0)),
            ("dual", kxx * sig[x] ** (1.0 / p_prime),
             dual_constant * om[x] ** (1.0 / q_prime - 1.0)),
        )
        for label, lhs, rhs in sides:
            if np.isinf(lhs) and np.isinf(rhs):
                continue
            if not lhs <= guard(rhs):
                return outcome("point_cube_testing", op.system.strict_delta,
                               PointCubeViolated,
                               {"x": int(x), "side": label, "lhs": float(lhs),
                                "rhs": float(rhs),
                                "kxx_infinite": bool(np.isinf(kxx))})
            if rhs > 0 and np.isfinite(lhs / rhs):
                worst = max(worst, float(lhs / rhs))
    return outcome("point_cube_testing", op.system.strict_delta,
                   PointCubeViolated, joint_atoms=len(gen.joint_atoms),
                   worst_ratio=worst)
