"""The stacked criteria and kernels against the one-object code they replace.

``onsager-forms``, ``uncertainty-bound``, ``semigroup-law``,
``dilatation-contraction`` and ``eigen-solution-identity`` draw their random
systems first and then compute one stack per dimension.  The references
below are the per-object loops they replaced: one matrix, one state and one
grid point at a time, with ``np.vdot``, ``np.linalg.norm``, Python's complex
division and the public ``evolve_s``.  Results must match them bit for bit.
"""
import json
import math

import numpy as np
import pytest

from entropiclab import HermitianOperator, OnsagerSystem, StateVector, Trajectory, relax
from entropiclab.constants import Constants
from entropiclab.energy_picture import evolve_h, evolve_h_perturbed
from entropiclab.entropy_picture import (
    EigenSolutionSpec,
    _closed_form_rows,
    _thermal_rows,
    eigen_solution,
    entropy_operator,
    evolve_s,
)
from entropiclab.onsager import _check_systems, _relaxations
from entropiclab.operators import (
    _check_hermitian,
    _exp_rows,
    _expectations,
    _norms,
    _rows,
    spectral_decompose,
)
from entropiclab.suite import (
    CheckResult,
    _complex_normal,
    _random_hermitian,
    _random_state,
    _rng,
    check_dilatation_contraction,
    check_eigen_solution_identity,
    check_onsager_forms,
    check_semigroup_law,
    check_uncertainty_bound,
)

SEEDS = (1, 2, 7, 14, 20)  # 14 and 20 catch a complex division by a reciprocal


def random_spectrum_operator(rng, dim, low, high):
    """Hermitian matrix with eigenvalues drawn uniformly from [low, high]."""
    q, _ = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    levels = np.sort(rng.uniform(low, high, dim))
    matrix = q @ (levels[:, None] * q.conj().T)
    return HermitianOperator((matrix + matrix.conj().T) / 2.0)


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
    s, eigenvalues, vectors = generator
    z = 1j * tau / 1.0
    probe = vectors @ (np.exp(z * eigenvalues) * (vectors.conj().T @ psi))
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
        generator = entropy_operator(random_spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
        psi = _random_state(rng, dim).amplitudes
        observable = _random_hermitian(rng, dim).entries
        product = reference_product(psi, generator, observable, float(rng.uniform(0.1, 2.0)))
        if product is not None:
            evaluated += 1
            min_margin = min(min_margin, product - 0.5)
    plus = (np.array([1.0, 1.0]) / math.sqrt(2.0)).astype(complex)
    generator = entropy_operator(HermitianOperator(np.diag([0.0, 2.0])), 1.0)
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


def final_row(psi, generator, tau, epsilon):
    return evolve_s(psi, generator, [0.0, tau], epsilon).amplitudes[-1]


def reference_semigroup_law(seed):
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        generator = entropy_operator(random_spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
        epsilon = float(rng.uniform(-0.3, 0.0))
        tau1, tau2 = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.05, 1.5))
        psi = _random_state(rng, dim)
        two_step = final_row(StateVector(final_row(psi, generator, tau1, epsilon)), generator,
                             tau2, epsilon)
        one_shot = final_row(psi, generator, tau1 + tau2, epsilon)
        worst = max(worst, float(np.linalg.norm(two_step - one_shot)))
    return CheckResult.bounded(
        "semigroup-law", worst, 1e-10,
        requirement="composition error over 100 randomized (tau1, tau2, S) triples",
        details={"triples": 100},
    ).to_dict()


def reference_dilatation_contraction(seed):
    rng = _rng(seed, 3)
    grid = np.linspace(0.0, 2.0, 21)
    worst = 0.0
    for run in range(100):
        dim = int(rng.integers(2, 9))
        generator = entropy_operator(random_spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
        psi = _random_state(rng, dim)
        epsilon = float(rng.uniform(0.05, 0.5))
        if run % 2 == 0:
            epsilon = -epsilon
        steps = np.diff(evolve_s(psi, generator, grid, epsilon, allow_antidissipative=True).norms)
        worst = max(worst, float(max(np.max(-steps) if epsilon < 0 else np.max(steps), 0.0)))
    return CheckResult.bounded(
        "dilatation-contraction", worst, 1e-12,
        requirement="worst monotonicity violation over 100 randomized runs, both branches",
        details={"runs": 100},
    ).to_dict()


def reference_eigen_solution_identity(seed):
    rng = _rng(seed, 4)
    worst, points = 0.0, 0
    for _ in range(10):
        generator = entropy_operator(random_spectrum_operator(rng, 5, 0.0, 2.5), 1.0)
        _, eigenvalues, eigenvectors = generator
        for k in range(5):
            mode = StateVector(eigenvectors[:, k])
            spec = EigenSolutionSpec(mode, float(eigenvalues[k]), generator)
            for tau in (0.4, 1.3):
                for epsilon in (0.0, -0.35):
                    direct = eigen_solution(spec, tau, epsilon).amplitudes
                    gap = np.linalg.norm(direct - final_row(mode, generator, tau, epsilon))
                    worst = max(worst, float(gap))
                    points += 1
    return CheckResult.bounded(
        "eigen-solution-identity", worst, 1e-10,
        requirement=f"factorized vs integrated solution over {points} (s, tau, eps) points",
        details={"points": points},
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check, reference", [
    (check_semigroup_law, reference_semigroup_law),
    (check_dilatation_contraction, reference_dilatation_contraction),
    (check_eigen_solution_identity, reference_eigen_solution_identity),
], ids=["semigroup-law", "dilatation-contraction", "eigen-solution-identity"])
def test_thermal_time_criteria_match_per_system_evolve_s(seed, check, reference):
    assert exact(check(seed).to_dict()) == exact(reference(seed))


def same_trajectory(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("grid", "amplitudes", "norms", "expectations"))


@pytest.mark.parametrize("schedule", ["frozen", "chart"])
@pytest.mark.parametrize("epsilon", [0.0, -0.3, 0.25])
def test_kernel_on_one_system_is_evolve_s(schedule, epsilon):
    rng = np.random.default_rng(4)
    constants = Constants(hbar=0.7, kB=1.3)
    grid = np.r_[0.0, np.sort(rng.uniform(0.0, 3.0, 7))]
    for dim in (1, 3, 6):
        generator = entropy_operator(_random_hermitian(rng, dim), 1.7)
        psi = _random_state(rng, dim)
        entries, eigenvalues, eigenvectors = generator
        elapsed = grid if schedule == "frozen" else -np.expm1(-grid)
        rows = _thermal_rows(eigenvalues[None], eigenvectors[None], psi.amplitudes[None],
                             elapsed[None], [epsilon], constants.kB)
        averages = _expectations(entries, rows[0])
        if schedule == "chart":
            averages = np.exp(-grid) * averages
        kernel = Trajectory(grid, rows[0], _norms(rows[0]), averages)
        alone = evolve_s(psi, generator, grid, epsilon, constants, schedule=schedule,
                         allow_antidissipative=True)
        assert same_trajectory(kernel, alone)


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
        ys, rates = relax(system, grid)
        expected_ys, expected_rates = reference_relax(system, np.asarray(grid, dtype=float))
        assert ys.tobytes() == expected_ys.tobytes()
        assert rates.tobytes() == expected_rates.tobytes()


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
        alone_ys, alone_rates = relax(system, grid)
        assert ys[k].tobytes() == alone_ys.tobytes()
        assert rates[k].tobytes() == alone_rates.tobytes()


@pytest.mark.parametrize("hbar, kB", [(1.0, 1.0), (0.7, 1.3)])
def test_array_exponents_match_per_row_lists(hbar, kB):
    # the exponents as they were formed one grid point at a time, in Python
    # complex arithmetic, signed zeros included
    rng = np.random.default_rng(9)
    constants = Constants(hbar=hbar, kB=kB)
    grid = np.r_[0.0, np.sort(rng.uniform(0.0, 3.0, 6))]
    hamiltonian = _random_hermitian(rng, 4)
    psi = _random_state(rng, 4)
    h, vectors = spectral_decompose(hamiltonian)

    def rows(phases):
        return _rows(vectors, np.asarray(phases, dtype=complex), psi.amplitudes).tobytes()

    def per_row(exponents):
        return rows([complex(z) * h for z in exponents])

    zs = [0j, complex(-0.0, -0.0), 1.5 - 2j, -1j * 0.0]
    assert _exp_rows(h, vectors, np.array(zs), psi.amplitudes).tobytes() == per_row(zs)
    assert (evolve_h(psi, hamiltonian, grid, constants).amplitudes.tobytes()
            == per_row([-1j * t / hbar for t in grid]))
    for epsilon_prime in (0.0, -0.0, 0.3):
        for mode, scale in (("exact", 1.0 / (1.0 + epsilon_prime**2)), ("first_order", 1.0)):
            rate = (epsilon_prime - 1j) * scale / hbar
            trajectory = evolve_h_perturbed(psi, hamiltonian, grid, epsilon_prime, mode, constants)
            assert trajectory.amplitudes.tobytes() == per_row([rate * t for t in grid])
    for epsilon in (0.0, -0.3):
        frozen = [(1j - epsilon) * (h / 1.7) * tau / kB for tau in grid]
        chart = [(1j - epsilon) * (h / (kB * 1.7)) * (1.0 - math.exp(-tau)) for tau in grid]
        for mode, phases in (("frozen_S", frozen), ("chart_S", chart)):
            closed = _closed_form_rows(mode, psi, hamiltonian, 1.7, grid, epsilon, constants)
            assert closed.tobytes() == rows(phases)


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
