"""The package's one verdict type, and the measures its verdicts are formed from.

``CheckResult`` is what a criterion of the suite and a scenario's run
record report.  The norm-monotonicity and convergence-order measures are
shared by the command line and the suite, so both live here, where a
command can import them without the suite's kernels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckResult", "fitted_order", "monotonicity_violation"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check, from the suite or a scenario run."""

    name: str
    tolerance: float
    measured: float
    passed: bool
    requirement: str = ""
    details: dict = field(default_factory=dict)

    @classmethod
    def bounded(cls, name: str, measured: float, tolerance: float, **fields) -> "CheckResult":
        """A check that passes when ``measured <= tolerance``."""
        return cls(name, tolerance, measured, measured <= tolerance, **fields)

    def verdict(self) -> dict:
        """The run record's view: name, tolerance, measured, passed."""
        return {
            "name": self.name,
            "tolerance": float(self.tolerance),
            "measured": float(self.measured),
            "passed": bool(self.passed),
        }

    def to_dict(self) -> dict:
        return {**self.verdict(), "requirement": self.requirement, "details": self.details}


def monotonicity_violation(norms, epsilon) -> float:
    """Largest step against the branch: a norm drop for epsilon < 0 (dilatation),
    a norm rise for epsilon > 0 (contraction); 0 when the norms are monotone.

    ``norms`` may be a stack ``(..., n)`` with one epsilon per row ``(...)``;
    the result is then the largest over all rows."""
    norms = np.asarray(norms, dtype=float)
    if norms.shape[-1] < 2:
        return 0.0
    steps = np.diff(norms)
    against = np.where(np.asarray(epsilon)[..., None] < 0, -steps, steps)
    return float(max(against.max(), 0.0))


def fitted_order(resolutions, gaps) -> float:
    """Convergence order: minus the slope of log2(gap) against log2(resolution)."""
    x = np.log2(np.asarray(resolutions, dtype=float))
    y = np.log2(np.asarray(gaps, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)
