"""Central tolerance policy.

All numeric comparisons in the library go through the constants below; the
scenario harness echoes this table into every report so a report is
interpretable on its own. Set/measure identities are compared exactly and do
not appear here. ``EXACT_GUARD`` covers only last-ulp roundoff in ratio
comparisons whose real-arithmetic proof gives "<=" through a chain of
products and quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed

TOLERANCES: dict[str, float] = {
    # float-roundoff guard on exact-in-real-arithmetic ratio comparisons
    "exact_guard_rel": 1e-12,
    # dual-form agreement of the dyadic operator on basis vectors
    "dual_form_rel": 1e-12,
    # self-adjointness pairing agreement
    "duality_rel": 1e-10,
    # replaying a norm witness must reproduce the recorded lower bound
    "witness_replay_rel": 1e-9,
    # structural slack: testing constant <= seeded norm lower bound + this
    "testing_le_norm_abs": 1e-9,
    # dual weight identity v^p sigma == v mu, per point
    "dual_weight_rel": 1e-12,
    # sweep stability: max equivalence ratio across re-seeded draws
    "sweep_stability_rel": 0.10,
}


def guard(value: float) -> float:
    """Upper comparison bound for ``x <= value`` allowing last-ulp noise."""
    rel = TOLERANCES["exact_guard_rel"]
    return value * (1.0 + rel) if value >= 0 else value * (1.0 - rel)


def close(a, b, rel: float):
    """|a - b| <= rel * max(|a|, |b|, 1), elementwise on arrays."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.abs(np.subtract(a, b)) <= rel * scale


@dataclass
class CheckReport:
    """Outcome of one structural check.

    ``status`` is "pass", "fail", or "vacuous" (nothing to check). A report
    produced under relaxed construction parameters carries
    ``strict_mode=False`` so downstream consumers can discount it.
    """

    name: str
    status: str
    strict_mode: bool = True
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "vacuous")


def outcome(name: str, strict_mode: bool, witness: dict | None = None,
            **details) -> CheckReport:
    """A pass report when ``witness`` is None, else a fail report."""
    return CheckReport(name, "pass" if witness is None else "fail",
                       strict_mode, witness, details)


def require(report: CheckReport) -> CheckReport:
    """Return a pass or vacuous report; raise a failed one as CheckFailed,
    named by the report and carrying its witness."""
    if report.status == "fail":
        raise CheckFailed(report.name, f"check '{report.name}' failed",
                          **(report.witness or {}))
    return report


def guard_vec(values):
    """Elementwise ``guard`` for arrays."""
    v = np.asarray(values, dtype=float)
    rel = TOLERANCES["exact_guard_rel"]
    return np.where(v >= 0, v * (1.0 + rel), v * (1.0 - rel))
