"""Gaussian near-equilibrium fluctuations of a (p, V, T, S) system.

The ensemble draws temperature and volume deviations independently with
the standard near-equilibrium variances and reconstructs entropy and
pressure deviations through the reference-state partial derivatives, so
every advertised cross-moment (entropy-temperature, pressure-volume) comes
out of one joint sampler.  Log coordinates turn the fluctuation exponent
into a sum of canonical products, and the quadrature routines check that
this exponent is the symplectic area of a bounded patch, equal to the
circulation of the canonical one-form around its boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import NATURAL, Constants
from .seeding import BLOCK_SAMPLES, block_generator, block_ranges

__all__ = [
    "CanonicalPoint",
    "FluctuationSamples",
    "SymplecticPatch",
    "ThermoReference",
    "boundary_action",
    "covariance_report",
    "disk_patch",
    "fourier_patch",
    "gaussian_sample",
    "log_probability",
    "rectangle_patch",
    "standardized_deviations",
    "streamed_covariance_report",
    "symplectic_area",
    "to_canonical",
    "two_plane_patch",
]


@dataclass(frozen=True)
class ThermoReference:
    """Reference state plus the response coefficients the sampler needs.

    ``compressibility_term`` is the isothermal volume response (dV/dp)_T,
    always negative for a stable system.  The ideal-gas preset ties the
    reference values together through p V = S0 T and defaults to the
    monatomic heat capacity 1.5 * S0.
    """

    pressure: float
    volume: float
    temperature: float
    entropy_scale: float
    heat_capacity_cv: float
    compressibility_term: float

    def __post_init__(self):
        positive = {
            "pressure": self.pressure,
            "volume": self.volume,
            "temperature": self.temperature,
            "entropy_scale": self.entropy_scale,
            "heat_capacity_cv": self.heat_capacity_cv,
        }
        for name, value in positive.items():
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not (np.isfinite(self.compressibility_term) and self.compressibility_term < 0.0):
            raise ValueError(
                f"compressibility_term must be negative, got {self.compressibility_term!r}"
            )

    @classmethod
    def ideal_gas(
        cls,
        pressure: float,
        volume: float,
        temperature: float,
        heat_capacity_cv: float | None = None,
    ) -> "ThermoReference":
        if not all(np.isfinite(v) and v > 0 for v in (pressure, volume, temperature)):
            raise ValueError("ideal-gas reference needs positive pressure, volume, temperature")
        entropy_scale = pressure * volume / temperature
        return cls(
            pressure=pressure,
            volume=volume,
            temperature=temperature,
            entropy_scale=entropy_scale,
            heat_capacity_cv=(
                1.5 * entropy_scale if heat_capacity_cv is None else heat_capacity_cv
            ),
            compressibility_term=-volume / pressure,
        )

    # ideal-gas equation-of-state slopes at the reference point
    def pressure_temperature_slope(self) -> float:
        return self.entropy_scale / self.volume

    def pressure_volume_slope(self) -> float:
        return -self.pressure / self.volume


class FluctuationSamples:
    """Array-backed ensemble of joint fluctuations (columns dp, dV, dT, dS)."""

    __slots__ = ("_dp", "_dV", "_dT", "_dS")

    def __init__(self, dp, dV, dT, dS):
        arrays = [np.asarray(a, dtype=float) for a in (dp, dV, dT, dS)]
        n = arrays[0].size
        if any(a.ndim != 1 or a.size != n for a in arrays):
            raise ValueError("sample columns must be 1-D and of equal length")
        if any(not np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("samples must be finite")
        for a in arrays:
            a.setflags(write=False)
        self._dp, self._dV, self._dT, self._dS = arrays

    @property
    def dp(self) -> np.ndarray:
        return self._dp

    @property
    def dV(self) -> np.ndarray:
        return self._dV

    @property
    def dT(self) -> np.ndarray:
        return self._dT

    @property
    def dS(self) -> np.ndarray:
        return self._dS

    def __len__(self) -> int:
        return self._dp.size


def _fill_block(ref, constants, seed, block, start, stop, dp, dV, dT, dS):
    rng = block_generator(seed, block)
    draws = rng.standard_normal((2, stop - start))
    sigma_t = math.sqrt(constants.kB * ref.temperature**2 / ref.heat_capacity_cv)
    sigma_v = math.sqrt(-constants.kB * ref.temperature * ref.compressibility_term)
    # each product straight into its column, rounded as the expression would be
    dt = np.multiply(sigma_t, draws[0], out=dT[start:stop])
    dv = np.multiply(sigma_v, draws[1], out=dV[start:stop])
    slope_t = ref.pressure_temperature_slope()
    slope_v = ref.pressure_volume_slope()
    np.multiply(ref.heat_capacity_cv / ref.temperature, dt, out=dS[start:stop])
    dS[start:stop] += slope_t * dv
    np.multiply(slope_t, dt, out=dp[start:stop])
    dp[start:stop] += slope_v * dv


def _check_sample_count(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def gaussian_sample(
    ref: ThermoReference,
    n: int,
    seed: int,
    constants: Constants = NATURAL,
) -> FluctuationSamples:
    """Draw n joint fluctuations around the reference state.

    Temperature and volume deviations are independent zero-mean Gaussians
    with variances kB T^2 / cv and -kB T (dV/dp)_T; entropy and pressure
    deviations follow from the equation-of-state slopes.  Sample block b
    depends only on (seed, b), so a seed reproduces its stream bit for bit.
    """
    _check_sample_count(n)
    return FluctuationSamples(*_draw_group(ref, constants, seed, 0, n))


# the cross-moments of a covariance report, in the order of _Moments' first
# four quantities, and their sharp near-equilibrium values: <dS dT>/(kB T)
# -> 1, <dp dV>/(kB T) -> -1, the dT-dV correlation -> 0, and <dS dtau>/kB
# -> 1 with dtau = dT/T to first order
_TARGETS = {
    "ds_dt_over_kBT": 1.0,
    "dp_dv_over_kBT": -1.0,
    "dt_dv_correlation": 0.0,
    "ds_dtau_over_kB": 1.0,
}


def standardized_deviations(report: dict) -> dict:
    """Each statistic's distance |mean - target| from its sharp value, in standard
    errors, by name; ``inf`` for a standard error of 0."""
    deviations = {}
    for name, target in _TARGETS.items():
        mean, stderr = report[name]["mean"], report[name]["stderr"]
        deviations[name] = abs(mean - target) / stderr if stderr > 0 else math.inf
    return deviations


# samples per group of the covariance moments: four sample blocks, and the
# rows of a block of fluct's CSV, which cli derives from it.  The seed-7
# criterion's report (1e6 samples) took a median of 36.6 ms in process at
# four blocks and at two, 37.7 at eight, 40.0 at one and 39.9 at sixteen
# (15 interleaved calls, 2-core x86-64).
_GROUP = 4 * BLOCK_SAMPLES


class _Moments:
    """Count, mean and M2 (the sum of squared deviations) of six quantities of
    the samples: dS dT/(kB T), dp dV/(kB T), dT dV, dS (dT/T)/kB, dT and dV.

    ``of_group`` takes the mean and M2 of one group of samples in two
    passes over it, and ``merge`` merges the groups in group order with the
    pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 1983), so the
    whole columns are never needed.
    """

    def __init__(self, ref: ThermoReference, constants: Constants):
        self.ref = ref
        self.constants = constants
        self._quantities = np.empty((6, _GROUP))
        self.count = 0
        self.mean = np.zeros(6)
        self.m2 = np.zeros(6)

    def quantities(self, dp, dV, dT, dS, out):
        """The six quantities of the samples, as the rows of ``out``."""
        kbt = self.constants.kB * self.ref.temperature
        np.divide(np.multiply(dS, dT, out=out[0]), kbt, out=out[0])
        np.divide(np.multiply(dp, dV, out=out[1]), kbt, out=out[1])
        np.multiply(dT, dV, out=out[2])
        np.divide(dT, self.ref.temperature, out=out[3])
        np.divide(np.multiply(dS, out[3], out=out[3]), self.constants.kB, out=out[3])
        out[4] = dT
        out[5] = dV
        return out

    def of_group(self, dp, dV, dT, dS) -> tuple:
        """``(count, mean, M2)`` of one group of samples, in two passes over it;
        nothing is merged, and a forked worker may call it for the parent."""
        size = dT.size
        deviations = self.quantities(dp, dV, dT, dS, self._quantities[:, :size])
        mean = deviations.sum(axis=1) / size
        deviations -= mean[:, None]
        return size, mean, np.square(deviations, out=deviations).sum(axis=1)

    def merge(self, group: tuple) -> None:
        """Merge one group's ``(count, mean, M2)``, as ``of_group`` gives it."""
        size, mean, m2 = group
        total = self.count + size
        delta = mean - self.mean
        self.mean = self.mean + delta * (size / total)
        self.m2 = self.m2 + m2 + delta * delta * (self.count * size / total)
        self.count = total

    def std(self) -> np.ndarray:
        """The six sample standard deviations (ddof = 1)."""
        return np.sqrt(self.m2 / (self.count - 1))

    def report(self) -> dict:
        std = self.std()
        # dT dV is reported as a correlation, in units of std(dT) std(dV)
        scale = np.array([1.0, 1.0, std[4] * std[5], 1.0])
        means = self.mean[:4] / scale
        stderrs = std[:4] / scale / math.sqrt(self.count)
        report = {"n": self.count}
        for name, mean, stderr in zip(_TARGETS, means, stderrs):
            report[name] = {"mean": float(mean), "stderr": float(stderr)}
        return report


def _check_report_size(n: int) -> None:
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a covariance report, got {n}")


def covariance_report(
    samples: FluctuationSamples,
    ref: ThermoReference,
    constants: Constants = NATURAL,
) -> dict:
    """Monte Carlo cross-moments with standard-error bars (needs >= 1000 samples).

    Returns ``{"n": n, name: {"mean": m, "stderr": s}}`` with one entry per
    statistic of ``_TARGETS``, in its order.  The means and standard
    deviations are merged from groups of ``_GROUP`` samples, as
    ``streamed_covariance_report`` merges them.
    """
    n = len(samples)
    _check_report_size(n)
    columns = (samples.dp, samples.dV, samples.dT, samples.dS)
    return _merged_moments(ref, constants, n, lambda start, stop: (
        column[start:stop] for column in columns)).report()


def _draw_group(ref, constants, seed, start, stop, out=None):
    """Samples ``start``..``stop`` of the seed's stream as the rows dp, dV, dT, dS of
    ``out[:, :stop - start]`` (a new array if ``out`` is None); the package's one
    sampling path, ``gaussian_sample`` included.

    ``start`` is a multiple of ``BLOCK_SAMPLES``, and ``stop`` is one too or
    the end of the stream, so each sample block is drawn whole by
    ``_fill_block``, as in the whole stream.  A sample past the double range
    raises ``ValueError``.
    """
    group = np.empty((4, stop - start)) if out is None else out[:, :stop - start]
    for block, begin, end in block_ranges(stop - start):
        _fill_block(ref, constants, seed, start // BLOCK_SAMPLES + block, begin, end, *group)
    if not np.isfinite(group).all():
        raise ValueError("samples must be finite")
    return group


def _merged_moments(ref, constants, n, samples) -> _Moments:
    """The ``_Moments`` of ``n`` samples, merged group by group in order;
    ``samples(start, stop)`` gives a group's columns dp, dV, dT, dS."""
    moments = _Moments(ref, constants)
    for start in range(0, n, _GROUP):
        moments.merge(moments.of_group(*samples(start, min(start + _GROUP, n))))
    return moments


def _streamed_moments(ref, n, seed, constants) -> _Moments:
    buffer = np.empty((4, _GROUP))
    return _merged_moments(ref, constants, n, lambda start, stop: _draw_group(
        ref, constants, seed, start, stop, buffer))


def streamed_covariance_report(
    ref: ThermoReference,
    n: int,
    seed: int,
    constants: Constants = NATURAL,
) -> dict:
    """``covariance_report(gaussian_sample(ref, n, seed, constants), ref, constants)``,
    bit for bit, holding one group of ``_GROUP`` samples at a time."""
    _check_sample_count(n)
    _check_report_size(n)
    return _streamed_moments(ref, n, seed, constants).report()


@dataclass(frozen=True)
class CanonicalPoint:
    """Dimensionless canonical coordinates of a thermodynamic state:
    p1 = -ln(p/p0), q1 = ln(V/V0), p2 = ln(T/T0), q2 = S/S0.

    Also used as a tangent-space increment, in which case the fields hold
    the deltas of those coordinates.
    """

    p1: float
    q1: float
    p2: float
    q2: float


def to_canonical(
    pressure: float,
    volume: float,
    temperature: float,
    entropy: float,
    ref: ThermoReference,
) -> CanonicalPoint:
    """Map a physical state to canonical coordinates.  The reference state with
    entropy equal to the entropy scale maps to (0, 0, 0, 1)."""
    for name, value in (("pressure", pressure), ("volume", volume), ("temperature", temperature)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not np.isfinite(entropy):
        raise ValueError("entropy must be finite")
    return CanonicalPoint(
        p1=float(-np.log(pressure / ref.pressure)),
        q1=float(np.log(volume / ref.volume)),
        p2=float(np.log(temperature / ref.temperature)),
        q2=float(entropy / ref.entropy_scale),
    )


def log_probability(
    delta: CanonicalPoint,
    ref: ThermoReference,
    constants: Constants = NATURAL,
) -> float:
    """Unnormalized log weight of a canonical increment:
    -(S0 / 2 kB) (dp1 dq1 + dp2 dq2).  The partition constant is never
    computed; only differences of this value are meaningful."""
    for value in (delta.p1, delta.q1, delta.p2, delta.q2):
        if not np.isfinite(value):
            raise ValueError("canonical increments must be finite")
    return float(
        -(ref.entropy_scale / (2.0 * constants.kB))
        * (delta.p1 * delta.q1 + delta.p2 * delta.q2)
    )


@dataclass(frozen=True)
class SymplecticPatch:
    """Smooth parametric surface in (q1, p1, q2, p2), mapped from the unit
    square.

    ``chart(u, v)`` must broadcast over arrays and return the four
    coordinates; when no analytic ``jacobian`` is supplied the derivatives
    are taken by central differences, so the chart must tolerate a halo of
    half a grid cell around the square.
    """

    chart: Callable
    jacobian: Callable | None = None

    def evaluate(self, u, v):
        q1, p1, q2, p2 = self.chart(u, v)
        return (np.asarray(q1, float), np.asarray(p1, float),
                np.asarray(q2, float), np.asarray(p2, float))

    def boundary_samples(self, segments_per_side: int):
        """Closed loop around the boundary, corner nodes included, traversed
        counterclockwise in (u, v)."""
        if segments_per_side < 1:
            raise ValueError("need at least one segment per side")
        s = np.linspace(0.0, 1.0, segments_per_side + 1)
        u = np.concatenate([s, np.ones_like(s[1:]), s[::-1][1:], np.zeros_like(s[1:])])
        v = np.concatenate([np.zeros_like(s), s[1:], np.ones_like(s[1:]), s[::-1][1:]])
        return self.evaluate(u, v)


def rectangle_patch(q1_extent: float, p1_extent: float) -> SymplecticPatch:
    """Flat rectangle in the first canonical plane with positive orientation."""

    def chart(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return q1_extent * v, p1_extent * u, np.zeros_like(u), np.zeros_like(v)

    def jacobian(u, v):
        u = np.asarray(u, float)
        zero = np.zeros_like(u)
        d_du = (zero, np.full_like(u, p1_extent), zero, zero)
        d_dv = (np.full_like(u, q1_extent), zero, zero, zero)
        return d_du, d_dv

    return SymplecticPatch(chart=chart, jacobian=jacobian)


def disk_patch(radius: float) -> SymplecticPatch:
    """Round disk of the given radius, centred on the origin of the first canonical plane."""

    def chart(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        rho = radius * u
        angle = 2.0 * math.pi * v
        return rho * np.sin(angle), rho * np.cos(angle), np.zeros_like(u), np.zeros_like(v)

    return SymplecticPatch(chart=chart)


def two_plane_patch(area1: float, area2: float) -> SymplecticPatch:
    """Patch whose projected areas on the two canonical planes are area1 and
    area2; the symplectic area is their sum."""

    def chart(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return area1 * v, u, area2 * v, u

    return SymplecticPatch(chart=chart)


def fourier_patch(seed: int = 0, modes: int = 2, amplitude: float = 0.08) -> SymplecticPatch:
    """Randomized smooth patch: a positively oriented base sheet plus a short
    trigonometric series in both parameters.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    coeffs = amplitude * rng.standard_normal((4, modes, modes, 2))
    base = 0.5 + 0.5 * rng.random(2)

    def chart(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        coords = [base[0] * v, base[0] * u, base[1] * v, base[1] * u]
        # each mode's sin and cos once, added to every coordinate in the
        # same (k, l) order as one coordinate at a time
        for k in range(modes):
            for l in range(modes):
                angle = math.pi * ((k + 1) * u + (l + 1) * v)
                sin, cos = np.sin(angle), np.cos(angle)
                for c in range(4):
                    coords[c] = coords[c] + coeffs[c, k, l, 0] * sin + coeffs[c, k, l, 1] * cos
        return tuple(coords)

    return SymplecticPatch(chart=chart)


def symplectic_area(patch: SymplecticPatch, resolution: int) -> float:
    """Integral of dp1^dq1 + dp2^dq2 over the patch.

    Midpoint quadrature of the pulled-back two-form on a resolution^2 grid;
    derivatives come from the analytic jacobian when available, otherwise
    from central differences with a step of an eighth of a cell.  Either
    way the error is second order in the cell size.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    mids = (np.arange(resolution) + 0.5) / resolution
    u, v = np.meshgrid(mids, mids, indexing="ij")
    if patch.jacobian is not None:
        d_du, d_dv = patch.jacobian(u, v)
        q1u, p1u, q2u, p2u = (np.asarray(a, float) for a in d_du)
        q1v, p1v, q2v, p2v = (np.asarray(a, float) for a in d_dv)
    else:
        h = 0.125 / resolution
        fup = patch.evaluate(u + h, v)
        fdn = patch.evaluate(u - h, v)
        gup = patch.evaluate(u, v + h)
        gdn = patch.evaluate(u, v - h)
        q1u, p1u, q2u, p2u = ((a - b) / (2 * h) for a, b in zip(fup, fdn))
        q1v, p1v, q2v, p2v = ((a - b) / (2 * h) for a, b in zip(gup, gdn))
    form = (p1u * q1v - p1v * q1u) + (p2u * q2v - p2v * q2u)
    if float(np.max(np.abs(form))) == 0.0:
        raise ValueError("degenerate parametrization: the pulled-back form vanishes everywhere")
    return float(form.mean())


def boundary_action(patch: SymplecticPatch, resolution: int) -> float:
    """Circulation of p1 dq1 + p2 dq2 around the patch boundary.

    Composite trapezoid rule with ``resolution`` segments per square side;
    corner nodes are included so each smooth side is integrated to second
    order.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    q1, p1, q2, p2 = patch.boundary_samples(resolution)
    term1 = 0.5 * (p1[:-1] + p1[1:]) @ np.diff(q1)
    term2 = 0.5 * (p2[:-1] + p2[1:]) @ np.diff(q2)
    return float(term1 + term2)
