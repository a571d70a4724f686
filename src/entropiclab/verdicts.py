"""The package's one verdict type, the table of the claims its verdicts check,
and the measures its verdicts are formed from.

``CheckResult`` is what a criterion of the suite and a scenario's run
record report.  Each claim the laboratory checks is one entry of
``CLAIMS``: the paper's statement, the sense (``<=`` or ``>=``) and the
bound a measured value is held to, the suite criterion that checks it and
the commands' verdicts that check it too.  ``verdict`` makes every
``CheckResult`` of a command and of a criterion from that table by name, so
each bound is written once.  The norm-monotonicity and convergence-order
measures are shared by the command line and the suite, so both live here,
where a command can import them without the suite's kernels.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["CLAIMS", "CheckResult", "fitted_order", "monotonicity_violation", "verdict"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check, from the suite or a scenario run."""

    name: str
    tolerance: float
    measured: float
    passed: bool
    requirement: str = ""
    details: dict = field(default_factory=dict)

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


class Claim(NamedTuple):
    """One claim, the bound it is held to and the verdicts that check it.

    ``criterion`` is the suite's verdict, if any, and ``requirement`` the
    text of its record.  Each ``(key, sense, bound)`` of ``also`` holds a
    value of the verdict's details to a bound of its own.  A claim with a
    ``scale`` names the value its bound is relative to: its tolerance is
    ``bound * scale + floor``.
    """

    statement: str
    sense: str
    bound: float
    criterion: str | None
    commands: tuple = ()
    requirement: str = ""
    also: tuple = ()
    scale: str = ""
    floor: float = 0.0


CLAIMS = (
    Claim("zero field strength keeps the thermal-time evolution unitary",
          "<=", 1e-12, "unitary-limit", ("h-norm-preservation", "s-unitary-norms"),
          "max |norm - 1| over tau in [0, 50], dim 64, strength 0"),
    Claim("constant-generator evolution composes: tau1 then tau2 is tau1 + tau2",
          "<=", 1e-10, "semigroup-law", ("s-semigroup-composition",),
          "composition error over 100 randomized (tau1, tau2, S) triples"),
    Claim("a nonnegative generator's norms never shrink for eps < 0, never grow for eps > 0",
          "<=", 1e-12, "dilatation-contraction", ("s-dilatation", "s-contraction"),
          "worst monotonicity violation over 100 randomized runs, both branches"),
    Claim("factorized eigen-solutions agree with the integrated propagator",
          "<=", 1e-10, "eigen-solution-identity", (),
          "factorized vs integrated solution over 200 (s, tau, eps) points"),
    Claim("the chart's finite difference reproduces the per-mode production rates",
          "<=", 1e-6, "entropy-production-oracle", (),
          "finite-difference chart derivative vs closed-form rates, 20 randomized pairs"),
    Claim("laboratory-time and thermal-time evolutions match through the chart",
          "<=", 1e-10, "picture-consistency", ("picture-deviation",),
          "real-factor chart deviation, two-level and dim-16 random generator"),
    Claim("spread times clock time never undershoots kB/2; a two-level case saturates it",
          "<=", 1e-12, "uncertainty-bound", (),
          "product >= kB/2 on randomized unitary samples; two-level case saturates",
          also=(("saturation_gap", "<=", 1e-10), ("evaluated", ">=", 900))),
    Claim("Onsager's velocity and force forms agree; production stays nonnegative",
          "<=", 1e-12, "onsager-forms", ("entropy-forms-agree", "entropy-rate-nonnegative"),
          "form agreement (relative) and nonnegative production over 1000 systems"),
    Claim("entropy-temperature cross moments hit their sharp Gaussian values",
          "<=", 3.0, "fluctuation-covariance",
          ("fluct-ds-dt", "fluct-dp-dv", "fluct-ds-dtau", "fluct-dt-dv-uncorrelated"),
          "<dS dT>/(kB T) and <dS dtau>/kB within 3 standard errors of 1 at n = 1e6"),
    Claim("area integral and boundary circulation converge together at order 2",
          ">=", 1.9, "stokes-identity", ("stokes-order",),
          "|area - circulation| convergence order over three dyadic refinements"),
    Claim("compact sources look like 4M/r from afar; the potential is harmonic in vacuum",
          "<=", 0.01, "gravity-falloff", (),
          "4M/r within 1% beyond 10 source radii; vacuum Laplacian order >= 1.9",
          also=(("laplacian_order", ">=", 1.9),)),
    Claim("identical seeds reproduce streams bit for bit",
          "<=", 0.0, "determinism", (), "bit-identical streams across reruns"),
    Claim("laboratory-time evolution conserves energy",
          "<=", 1e-10, None, ("h-energy-conservation",), scale="|E0|", floor=1e-12),
    Claim("the trace potential is nonnegative", ">=", 0.0, None, ("potential-nonnegative",)),
    Claim("area integral and boundary circulation agree, where too few resolutions fit no order",
          "<=", 1e-9, None, ("stokes-gap",)),
)

_CLAIM_OF = {name: claim for claim in CLAIMS for name in (claim.criterion, *claim.commands)
             if name}
# NaN fails either comparison
_HOLDS = {"<=": operator.le, ">=": operator.ge}


def verdict(name: str, measured: float, details: dict | None = None,
            scale: float | None = None) -> CheckResult:
    """The verdict ``name`` on ``measured``, held to the bound of the claim it checks.

    It passes when ``measured`` lies on the claim's side of the tolerance and
    each value of ``details`` that the claim bounds lies on its side too.  A
    claim whose bound is relative takes its ``scale`` here.
    """
    claim = _CLAIM_OF[name]
    tolerance = claim.bound * scale + claim.floor if claim.scale else claim.bound
    passed = _HOLDS[claim.sense](measured, tolerance) and all(
        _HOLDS[sense](details[key], bound) for key, sense, bound in claim.also)
    requirement = claim.requirement if name == claim.criterion else ""
    return CheckResult(name, tolerance, measured, bool(passed), requirement, details or {})


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
