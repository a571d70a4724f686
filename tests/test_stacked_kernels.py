"""The stacked criteria and kernels against the one-object code they replace.

``onsager-forms`` and ``uncertainty-bound`` draw their 1,000 random systems
first and then compute one stack per dimension.  The references below are
the per-object loops they replaced, written out in plain NumPy: one matrix,
one state and one grid point at a time, with ``np.vdot``, ``np.linalg.norm``
and Python's complex division.  Results must match them bit for bit.
"""
import json
import math

import numpy as np
import pytest

from entropiclab import HermitianOperator, OnsagerSystem, relax
from entropiclab.entropy_picture import entropy_operator
from entropiclab.onsager import _check_systems, _relaxations
from entropiclab.operators import _check_hermitian, spectral_decompose
from entropiclab.suite import (
    CheckResult,
    _random_hermitian,
    _random_spectrum_operator,
    _random_state,
    _rng,
    check_onsager_forms,
    check_uncertainty_bound,
)

SEEDS = (1, 2, 7, 14, 20)  # 14 and 20 catch a complex division by a reciprocal


def reference_spread(entries, amplitudes):
    weight = float(np.vdot(amplitudes, amplitudes).real)
    image = entries @ amplitudes
    mean = float(np.vdot(amplitudes, image).real) / weight
    second = float(np.vdot(image, image).real) / weight
    variance = second - mean * mean
    if variance < 0.0:
        assert variance >= -1e-12 * max(1.0, second)
        variance = 0.0
    return float(np.sqrt(variance))


def reference_product(psi, generator, observable, tau):
    """The uncertainty product of one state, as one object at a time computed it."""
    s = generator.operator.entries
    decomposition = spectral_decompose(generator.operator)
    vectors = decomposition.eigenvectors
    z = 1j * tau / 1.0
    probe = vectors @ (np.exp(z * decomposition.eigenvalues) * (vectors.conj().T @ psi))
    delta_s = reference_spread(s, probe)
    delta_a = reference_spread(observable, probe)
    clock = HermitianOperator(1j * (observable @ s - s @ observable)).entries
    weight = float(np.vdot(probe, probe).real)
    rate = (complex(np.vdot(probe, clock @ probe)) / weight).real
    if abs(rate) < 1e-14:
        return None
    return delta_s * (delta_a / abs(rate))


def reference_uncertainty_bound(seed):
    rng = _rng(seed, 7)
    min_margin, evaluated = math.inf, 0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        generator = entropy_operator(_random_spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
        psi = _random_state(rng, dim).amplitudes
        observable = _random_hermitian(rng, dim, unit="dimensionless").entries
        product = reference_product(psi, generator, observable, float(rng.uniform(0.1, 2.0)))
        if product is not None:
            evaluated += 1
            min_margin = min(min_margin, product - 0.5)
    plus = (np.array([1.0, 1.0]) / math.sqrt(2.0)).astype(complex)
    generator = entropy_operator(HermitianOperator(np.diag([0.0, 2.0]), unit="energy"), 1.0)
    saturating = reference_product(plus, generator, np.outer(plus, plus.conj()), math.pi / 4.0)
    saturation_gap = abs(saturating - 0.5)
    return CheckResult(
        name="uncertainty-bound",
        requirement="product >= kB/2 on randomized unitary samples; two-level case saturates",
        tolerance=1e-12,
        measured=float(max(-min_margin, 0.0)),
        passed=min_margin >= -1e-12 and saturation_gap <= 1e-10 and evaluated >= 900,
        details={"evaluated": evaluated, "min_margin": min_margin,
                 "saturation_gap": saturation_gap},
    ).to_dict()


def reference_rate(L, R, G, y):
    forces = -G @ y
    velocities = L @ forces
    return float(velocities @ R @ velocities), float(forces @ L @ forces)


def reference_relax(system, grid):
    """Coordinates and production rates, one grid point at a time."""
    L, R, G = system.kinetic, system.resistance, system.entropy_hessian
    eigenvalues, vectors = np.linalg.eig(L @ G)
    coefficients = np.linalg.solve(vectors, system.y0.astype(complex))
    ys = np.empty((len(grid), system.dim))
    rates = np.empty(len(grid))
    for k, t in enumerate(grid):
        ys[k] = (vectors @ (np.exp(-eigenvalues * t) * coefficients)).real
        rates[k] = reference_rate(L, R, G, ys[k])[0]
    return ys, rates


def reference_onsager_forms(seed):
    rng = _rng(seed, 8)
    grid = np.linspace(0.0, 2.0, 9)
    worst_gap = worst_rate = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        system = OnsagerSystem(a @ a.T + 0.5 * np.eye(n), b @ b.T + 0.5 * np.eye(n),
                               rng.standard_normal(n))
        v, f = reference_rate(system.kinetic, system.resistance, system.entropy_hessian, system.y0)
        worst_gap = max(worst_gap, abs(v - f) / max(abs(v), abs(f), 1e-300))
        worst_rate = max(worst_rate, float(np.max(-reference_relax(system, grid)[1])))
    return CheckResult(
        name="onsager-forms",
        requirement="form agreement (relative) and nonnegative production over 1000 systems",
        tolerance=1e-12,
        measured=max(worst_gap, worst_rate),
        passed=worst_gap <= 1e-12 and worst_rate <= 1e-12,
        details={"systems": 1000, "worst_form_gap": worst_gap, "worst_negative_rate": worst_rate},
    ).to_dict()


def exact(value):
    # JSON keeps every bit of a double, and the sign of zero
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_uncertainty_bound_matches_per_object_loop(seed):
    assert exact(check_uncertainty_bound(seed).to_dict()) == exact(reference_uncertainty_bound(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_onsager_forms_matches_per_object_loop(seed):
    assert exact(check_onsager_forms(seed).to_dict()) == exact(reference_onsager_forms(seed))


def random_system(rng, n, symmetric=True):
    a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
    kinetic = a @ a.T + 0.5 * np.eye(n)
    if not symmetric:  # an antisymmetric part keeps the kinetic matrix regular
        kinetic += c - c.T
    return OnsagerSystem(kinetic, b @ b.T + 0.5 * np.eye(n), rng.standard_normal(n))


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.3], np.linspace(0.0, 3.0, 13),
                                  np.cumsum(np.r_[0.0, np.random.default_rng(5).uniform(0, 1, 30)])])
@pytest.mark.parametrize("symmetric", [True, False])
def test_relax_matches_per_point_reference(grid, symmetric):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        system = random_system(rng, n, symmetric)
        trajectory = relax(system, grid)
        ys, rates = reference_relax(system, np.asarray(grid, dtype=float))
        assert trajectory.ys.tobytes() == ys.tobytes()
        assert trajectory.entropy_rates.tobytes() == rates.tobytes()


def test_stack_of_real_and_complex_spectra_matches_each_system():
    # an asymmetric kinetic matrix can give L G a complex spectrum; the stack
    # is then complex, and each system with a real spectrum must still get
    # the real exponential it gets alone
    rng = np.random.default_rng(3)
    systems = [random_system(rng, 3, symmetric=k % 2 == 0) for k in range(12)]
    assert any(np.iscomplexobj(np.linalg.eigvals(s.kinetic @ s.entropy_hessian)) for s in systems)
    grid = np.linspace(0.0, 2.0, 9)
    ys, rates = _relaxations(*(np.array([getattr(s, name) for s in systems])
                               for name in ("kinetic", "resistance", "entropy_hessian", "y0")), grid)
    for k, system in enumerate(systems):
        alone = relax(system, grid)
        assert ys[k].tobytes() == alone.ys.tobytes()
        assert rates[k].tobytes() == alone.entropy_rates.tobytes()


def message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_stacked_hermiticity_check_rejects_as_the_constructor():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    stack = (raw + raw.conj().swapaxes(-1, -2)) / 2.0
    _check_hermitian(stack)
    stack[3, 0, 1] += 1e-6
    assert message(lambda: _check_hermitian(stack)) == message(lambda: HermitianOperator(stack[3]))
    assert message(lambda: HermitianOperator(stack[3]))[0] is ValueError


def spd_stack(rng, k, n):
    a = rng.standard_normal((k, n, n))
    return a @ a.swapaxes(-1, -2) + 0.5 * np.eye(n)


@pytest.mark.parametrize("spoil", ["ill-conditioned kinetic", "indefinite hessian"])
def test_stacked_system_check_rejects_as_the_constructor(spoil):
    rng = np.random.default_rng(2)
    kinetic, hessian, y0 = spd_stack(rng, 6, 3), spd_stack(rng, 6, 3), rng.standard_normal((6, 3))
    _check_systems(kinetic, hessian, y0)
    if spoil == "ill-conditioned kinetic":
        kinetic[4] = np.diag([1.0, 1.0, 1e-14])
    else:
        hessian[4] = np.diag([1.0, -0.5, 2.0])
    stacked = message(lambda: _check_systems(kinetic, hessian, y0))
    assert stacked == message(lambda: OnsagerSystem(kinetic[4], hessian[4], y0[4]))
    assert stacked[0] is ValueError
