"""Machine-checkable invariant suite.

Every structural claim the package makes is pinned here as a named check
with an explicit tolerance, runnable from the command line (``check-all``)
and from the test suite.  All randomness is derived from one seed, so a
fixed seed reproduces every number in every check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import _fanout
from .constants import NATURAL
from .energy_picture import evolve_h
from .entropy_picture import (
    EigenSolutionSpec,
    _thermal_rows,
    dissipative_part,
    eigen_solution,
    entropy_operator,
    entropy_production,
    entropy_production_via_chart,
    evolve_s,
    picture_consistency,
    semigroup_gap,
    uncertainty_product,
    weak_field_epsilon,
)
from .fluctuations import (
    ThermoReference,
    boundary_action,
    disk_patch,
    fourier_patch,
    gaussian_sample,
    standardized_deviations,
    streamed_covariance_report,
    symplectic_area,
)
from .gravity import RegionSpec, laplacian_spot_check, mean_h, rasterize, trace_potential
from .onsager import _check_systems, _forces, _rate_forms, _relative_gaps, _relaxations
from .operators import (
    HermitianOperator,
    StateVector,
    _adjoint,
    _checked_eigh,
    _norms,
    build_hamiltonian,
    spectral_decompose,
)
from .verdicts import CheckResult, fitted_order, monotonicity_violation

__all__ = ["criterion_names", "run_all"]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag)])


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_state(rng, dim) -> StateVector:
    raw = _complex_normal(rng, dim)
    return StateVector(raw / np.linalg.norm(raw))


def _random_hermitian(rng, dim) -> HermitianOperator:
    raw = _complex_normal(rng, (dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def _spectrum_draw(rng, dim, high):
    # the stream of a Hermitian matrix with eigenvalues uniform on [0, high]:
    # a complex normal basis, then the levels
    return _complex_normal(rng, (dim, dim)), rng.uniform(0.0, high, dim)


def _spectrum_stack(basis, levels):
    """Hamiltonians ``(k, d, d)`` with the sorted ``levels`` as eigenvalues, in the
    QR of ``basis``, and their checked eigensystems."""
    q, _ = np.linalg.qr(basis)
    matrices = q @ (np.sort(levels, axis=-1)[..., :, None] * _adjoint(q))
    hamiltonians = (matrices + _adjoint(matrices)) / 2.0
    return (hamiltonians, *_checked_eigh(hamiltonians))


def _unit_rows(states):
    return states / _norms(states)[..., None]


def check_unitary_limit(seed: int) -> CheckResult:
    """Zero field strength must keep the thermal-time evolution unitary."""
    rng = _rng(seed, 1)
    hamiltonian = _random_hermitian(rng, 64)
    generator = entropy_operator(hamiltonian, temperature=1.0)
    psi0 = _random_state(rng, 64)
    grid = np.linspace(0.0, 50.0, 26)
    epsilon = weak_field_epsilon(0.0)
    trajectory = evolve_s(psi0, generator, grid, epsilon)
    return CheckResult.bounded(
        "unitary-limit",
        float(np.max(np.abs(trajectory.norms - 1.0))),
        1e-12,
        requirement="max |norm - 1| over tau in [0, 50], dim 64, strength 0",
        details={"dim": 64, "tau_max": 50.0},
    )


def _semigroup_draw(rng, dim):
    return (*_spectrum_draw(rng, dim, 2.0), rng.uniform(-0.3, 0.0), rng.uniform(0.05, 1.5),
            rng.uniform(0.05, 1.5), _complex_normal(rng, dim))


def check_semigroup_law(seed: int) -> CheckResult:
    """Constant-generator evolution composes: step tau1 then tau2 = step tau1+tau2."""
    rng = _rng(seed, 2)
    worst = 0.0
    # at temperature 1 the generator S = H / T is H itself, eigensystem included
    for basis, levels, epsilons, tau1, tau2, states in _draw_by_dim(rng, 100, 2, 13,
                                                                    _semigroup_draw):
        _, eigenvalues, eigenvectors = _spectrum_stack(basis, levels)
        gaps = semigroup_gap(eigenvalues, eigenvectors, _unit_rows(states), tau1, tau2,
                             epsilons, NATURAL.kB)
        worst = max(worst, float(gaps.max()))
    return CheckResult.bounded(
        "semigroup-law",
        worst,
        1e-10,
        requirement="composition error over 100 randomized (tau1, tau2, S) triples",
        details={"triples": 100},
    )


def check_dilatation_contraction(seed: int) -> CheckResult:
    """Nonnegative generator: norms never shrink for eps < 0, never grow for eps > 0."""
    rng = _rng(seed, 3)
    grid = np.linspace(0.0, 2.0, 21)
    runs = itertools.count()

    def draw(rng, dim):
        basis, levels = _spectrum_draw(rng, dim, 2.0)
        state = _complex_normal(rng, dim)
        epsilon = rng.uniform(0.05, 0.5)
        # growth branch on even runs, contraction on odd
        return basis, levels, state, -epsilon if next(runs) % 2 == 0 else epsilon

    worst = 0.0
    for basis, levels, states, epsilons in _draw_by_dim(rng, 100, 2, 9, draw):
        _, eigenvalues, eigenvectors = _spectrum_stack(basis, levels)
        rows = _thermal_rows(eigenvalues, eigenvectors, _unit_rows(states), grid, epsilons,
                             NATURAL.kB)
        worst = max(worst, monotonicity_violation(_norms(rows), epsilons))
    return CheckResult.bounded(
        "dilatation-contraction",
        worst,
        1e-12,
        requirement="worst monotonicity violation over 100 randomized runs, both branches",
        details={"runs": 100},
    )


def check_eigen_solution_identity(seed: int) -> CheckResult:
    """Factorized eigen-solutions agree with the integrated propagator."""
    rng = _rng(seed, 4)
    constants = NATURAL
    taus, epsilons = (0.4, 1.3), (0.0, -0.35)
    basis, levels = map(np.array, zip(*(_spectrum_draw(rng, 5, 2.5) for _ in range(10))))
    hamiltonians, eigenvalues, eigenvectors = _spectrum_stack(basis, levels)
    # every mode of every system under each epsilon: (system, mode, epsilon, tau, d)
    modes = eigenvectors.swapaxes(-1, -2)
    integrated = _thermal_rows(eigenvalues[:, None, None], eigenvectors[:, None, None],
                               modes[:, :, None], taus, epsilons, constants.kB)
    direct = np.empty_like(integrated)
    for system, hamiltonian in enumerate(hamiltonians):
        # at temperature 1 the generator S = H / T is H itself, eigensystem included
        generator = (hamiltonian, eigenvalues[system], eigenvectors[system])
        for k, mode in enumerate(modes[system]):
            spec = EigenSolutionSpec(
                mode=StateVector(mode),
                entropic_eigenvalue=float(eigenvalues[system, k]) / constants.kB,
                generator=generator,
            )
            for e, epsilon in enumerate(epsilons):
                for t, tau in enumerate(taus):
                    direct[system, k, e, t] = eigen_solution(spec, tau, epsilon).amplitudes
    points = math.prod(direct.shape[:-1])
    return CheckResult.bounded(
        "eigen-solution-identity",
        float(_norms(direct - integrated).max()),
        1e-10,
        requirement=f"factorized vs integrated solution over {points} (s, tau, eps) points",
        details={"points": points},
    )


def check_entropy_production_oracle(seed: int) -> CheckResult:
    """Chart finite difference reproduces the per-mode production rates."""
    rng = _rng(seed, 5)
    constants = NATURAL
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(4, 9))
        hamiltonian = _random_hermitian(rng, dim)
        # through the field strength that gives it, as a config's strength is read
        epsilon = weak_field_epsilon(-2.0 * float(rng.uniform(-0.3, -0.01)) / math.pi)
        derivative = entropy_production_via_chart(hamiltonian, epsilon, constants)
        target = (-epsilon * constants.kB / constants.hbar) * hamiltonian.entries
        gap = float(
            np.linalg.norm(dissipative_part(derivative) - target) / np.linalg.norm(target)
        )
        worst = max(worst, gap)
        rates = entropy_production(hamiltonian, epsilon, constants)
        energies = spectral_decompose(hamiltonian)[0]
        mode_gap = float(
            np.max(np.abs(rates.imag - (-epsilon * constants.kB / constants.hbar) * energies))
        )
        worst = max(worst, mode_gap)
    return CheckResult.bounded(
        "entropy-production-oracle",
        worst,
        1e-6,
        requirement="finite-difference chart derivative vs closed-form rates, 20 randomized pairs",
        details={"pairs": 20, "step": 1e-4},
    )


def check_picture_consistency(seed: int) -> CheckResult:
    """Laboratory-time and thermal-time evolutions match through the chart."""
    rng = _rng(seed, 6)
    grid = np.linspace(0.0, 1.0, 5)
    two_level = build_hamiltonian("two_level", e0=0.0, e1=1.0)
    deviations = [
        picture_consistency(_random_state(rng, 2), two_level, 1.0, "real_C", grid, 0.0)
    ]
    random_h = _random_hermitian(rng, 16)
    deviations.append(
        picture_consistency(_random_state(rng, 16), random_h, 1.0, "real_C", grid, 0.0)
    )
    return CheckResult.bounded(
        "picture-consistency",
        float(max(deviations)),
        1e-10,
        requirement="real-factor chart deviation, two-level and dim-16 random generator",
        details={"deviations": [float(d) for d in deviations]},
    )


# systems per stack in the randomized criteria: large enough that the
# per-call overhead is spread thin, small enough that the draws waiting for
# their stack stay a few hundred kB
_STACK = 128


def _draw_by_dim(rng, count: int, low: int, high: int, draw):
    """Yield ``count`` draws as stacks, one dimension per stack.

    Each draw is a dimension from ``rng.integers(low, high)`` followed by
    ``draw(rng, dim)``'s arrays, in stream order.  The draws of one
    dimension fill per-part arrays of ``_STACK`` rows; a full stack is
    yielded at once, and the partly filled ones after the last draw.  The
    caller computes between draws, which leaves the stream unchanged.
    """
    stacks, sizes = {}, {}
    for _ in range(count):
        dim = int(rng.integers(low, high))
        parts = draw(rng, dim)
        if dim not in stacks:
            stacks[dim] = [np.empty((_STACK,) + np.shape(part), np.result_type(part))
                           for part in parts]
            sizes[dim] = 0
        for stack, part in zip(stacks[dim], parts):
            stack[sizes[dim]] = part
        sizes[dim] += 1
        if sizes[dim] == _STACK:
            del sizes[dim]
            yield tuple(stacks.pop(dim))
    for dim, parts in stacks.items():
        yield tuple(stack[:sizes[dim]] for stack in parts)


def _uncertainty_draw(rng, dim):
    # a spectrum, a state, an observable and the probe point, in that order
    basis, levels = _spectrum_draw(rng, dim, 2.0)
    state = _complex_normal(rng, dim)
    observable = _complex_normal(rng, (dim, dim))
    return basis, levels, state, observable, rng.uniform(0.1, 2.0)


def check_uncertainty_bound(seed: int) -> CheckResult:
    """Generator-spread times observable clock time never undershoots kB/2."""
    rng = _rng(seed, 7)
    constants = NATURAL
    half_kb = constants.kB / 2.0
    min_margin = math.inf
    evaluated = 0
    # 1000 draws, computed in stacks of one dimension
    for basis, levels, states, raw, taus in _draw_by_dim(rng, 1000, 2, 9, _uncertainty_draw):
        hamiltonians, eigenvalues, eigenvectors = _spectrum_stack(basis, levels)
        states = _unit_rows(states)
        observables = (raw + _adjoint(raw)) / 2.0
        # at temperature 1 the generator S = H / T is H itself, eigensystem included
        delta_s, delta_tau = uncertainty_product(
            (hamiltonians, eigenvalues, eigenvectors), observables, states, taus, constants
        )
        moving = delta_tau != math.inf
        evaluated += int(moving.sum())
        if moving.any():
            min_margin = min(min_margin, float((delta_s * delta_tau)[moving].min() - half_kb))

    # saturating two-level configuration: projector probe on an equal superposition
    generator = entropy_operator(
        HermitianOperator(np.diag([0.0, 2.0 * constants.kB])), 1.0
    )
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    delta_s, delta_tau = uncertainty_product(generator, np.outer(plus, plus.conj()), plus,
                                             math.pi / 4.0)
    saturation_gap = abs(delta_s * delta_tau - half_kb)

    passed = (min_margin >= -1e-12) and (saturation_gap <= 1e-10) and evaluated >= 900
    measured = float(max(-min_margin, 0.0))
    return CheckResult(
        name="uncertainty-bound",
        requirement="product >= kB/2 on randomized unitary samples; two-level case saturates",
        tolerance=1e-12,
        measured=measured,
        passed=bool(passed),
        details={
            "evaluated": evaluated,
            "min_margin": float(min_margin),
            "saturation_gap": float(saturation_gap),
        },
    )


def _onsager_draw(rng, dim):
    return rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim)), rng.standard_normal(dim)


def check_onsager_forms(seed: int) -> CheckResult:
    """Velocity and force quadratic forms agree; production stays nonnegative."""
    rng = _rng(seed, 8)
    grid = np.linspace(0.0, 2.0, 9)
    worst_gap = 0.0
    worst_rate = 0.0
    # 1000 random SPD systems, checked and relaxed in stacks of one dimension
    for a, b, y0 in _draw_by_dim(rng, 1000, 2, 9, _onsager_draw):
        identity = 0.5 * np.eye(a.shape[-1])
        kinetic = a @ a.swapaxes(-1, -2) + identity
        hessian = b @ b.swapaxes(-1, -2) + identity
        _check_systems(kinetic, hessian, y0)
        resistance = np.linalg.inv(kinetic)
        gaps = _relative_gaps(*_rate_forms(kinetic, resistance, _forces(hessian, y0)))
        _, rates = _relaxations(kinetic, resistance, hessian, y0, grid)
        worst_gap = max(worst_gap, float(gaps.max()))
        worst_rate = max(worst_rate, float((-rates).max()))
    passed = worst_gap <= 1e-12 and worst_rate <= 1e-12
    return CheckResult(
        name="onsager-forms",
        requirement="form agreement (relative) and nonnegative production over 1000 systems",
        tolerance=1e-12,
        measured=float(max(worst_gap, worst_rate)),
        passed=bool(passed),
        details={"systems": 1000, "worst_form_gap": worst_gap, "worst_negative_rate": worst_rate},
    )


def check_fluctuation_covariance(seed: int) -> CheckResult:
    """Entropy-temperature cross moments hit their sharp Gaussian values."""
    ref = ThermoReference.ideal_gas(1.0, 1.0, 1.0)
    report = streamed_covariance_report(ref, 10**6, seed=seed)
    z = standardized_deviations(report)
    return CheckResult.bounded(
        "fluctuation-covariance",
        float(max(z["ds_dt_over_kBT"], z["ds_dtau_over_kB"])),
        3.0,
        requirement="<dS dT>/(kB T) and <dS dtau>/kB within 3 standard errors of 1 at n = 1e6",
        details={
            "ds_dt_mean": report["ds_dt_over_kBT"]["mean"],
            "ds_dtau_mean": report["ds_dtau_over_kB"]["mean"],
            "n": report["n"],
        },
    )


def check_stokes_identity(seed: int) -> CheckResult:
    """Area integral and boundary circulation converge together at order 2."""
    resolutions = (16, 32, 64, 128)
    patches = {
        "disk": disk_patch(0.8),
        "fourier-a": fourier_patch(int(seed) * 7 + 1),
        "fourier-b": fourier_patch(int(seed) * 7 + 2),
    }
    orders = {}
    for label, patch in patches.items():
        gaps = [
            abs(symplectic_area(patch, res) - boundary_action(patch, res))
            for res in resolutions
        ]
        orders[label] = fitted_order(resolutions, gaps)
    measured = float(min(orders.values()))
    return CheckResult(
        name="stokes-identity",
        requirement="|area - circulation| convergence order over three dyadic refinements",
        tolerance=1.9,
        measured=measured,
        passed=measured >= 1.9,
        details={"orders": {k: float(v) for k, v in orders.items()}},
    )


def check_gravity_falloff(seed: int) -> CheckResult:
    """Compact sources look like 4M/r from afar; the potential is harmonic in vacuum."""
    radius = 0.45
    source = rasterize(
        [{"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": radius, "trace": 1.0}],
        shape=(16, 16, 16),
        spacing=0.1,
        origin=(-0.8, -0.8, -0.8),
    )
    mass = source.total_mass
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0] / np.sqrt(3.0)])
    r = np.array([10.0, 15.0, 20.0])[:, None] * radius
    h = trace_potential(source, r[:, :, None] * directions)
    worst_falloff = float(np.abs(h * r / (4.0 * mass) - 1.0).max())

    probe = np.array([2.0, 0.6, -0.4])
    residuals = [abs(laplacian_spot_check(source, probe, step)) for step in (0.4, 0.2, 0.1)]
    order = fitted_order((1, 2, 4), residuals)
    passed = worst_falloff <= 0.01 and order >= 1.9
    return CheckResult(
        name="gravity-falloff",
        requirement="4M/r within 1% beyond 10 source radii; vacuum Laplacian order >= 1.9",
        tolerance=0.01,
        measured=float(worst_falloff),
        passed=bool(passed),
        details={"laplacian_order": float(order), "residuals": [float(r) for r in residuals]},
    )


def check_determinism(seed: int) -> CheckResult:
    """Identical seeds reproduce streams bit for bit."""
    ref = ThermoReference.ideal_gas(1.0, 1.0, 1.0)
    samples = gaussian_sample(ref, 20000, seed=seed)
    repeat = gaussian_sample(ref, 20000, seed=seed)
    streams_equal = all(
        np.array_equal(getattr(samples, col), getattr(repeat, col))
        for col in ("dp", "dV", "dT", "dS")
    )

    source = rasterize(
        [{"kind": "point", "position": [0.05, 0.05, 0.05], "mass": 1.0}],
        shape=(4, 4, 4),
        spacing=0.1,
    )
    region = RegionSpec.ball(center=[3.0, 0.0, 0.0], radius=0.5, samples=5000)
    means_equal = mean_h(source, region, seed=seed) == mean_h(source, region, seed=seed)

    rng = _rng(seed, 12)
    hamiltonian = _random_hermitian(rng, 6)
    psi0 = _random_state(rng, 6)
    grid = np.linspace(0.0, 1.0, 6)
    first = evolve_h(psi0, hamiltonian, grid)
    second = evolve_h(psi0, hamiltonian, grid)
    trajectories_equal = np.array_equal(first.amplitudes, second.amplitudes)

    passed = streams_equal and means_equal and trajectories_equal
    return CheckResult(
        name="determinism",
        requirement="bit-identical streams across reruns",
        tolerance=0.0,
        measured=0.0 if passed else 1.0,
        passed=bool(passed),
        details={
            "sample_streams_equal": bool(streams_equal),
            "region_means_equal": bool(means_equal),
            "trajectories_equal": bool(trajectories_equal),
        },
    )


_CRITERIA = (
    check_unitary_limit,
    check_semigroup_law,
    check_dilatation_contraction,
    check_eigen_solution_identity,
    check_entropy_production_oracle,
    check_picture_consistency,
    check_uncertainty_bound,
    check_onsager_forms,
    check_fluctuation_covariance,
    check_stokes_identity,
    check_gravity_falloff,
    check_determinism,
)


def criterion_names() -> list:
    return [fn.__name__.removeprefix("check_").replace("_", "-") for fn in _CRITERIA]


# _CRITERIA's indices, costliest first, so that no long criterion starts
# last while the other workers idle; medians over three rounds of 21 seed-7
# calls each in process on a 2-core x86-64 machine, in milliseconds:
_SUBMISSION_ORDER = (
    8,   # fluctuation-covariance     36.6
    6,   # uncertainty-bound          26.9
    9,   # stokes-identity            19.8
    7,   # onsager-forms              18.9
    1,   # semigroup-law               4.8
    2,   # dilatation-contraction      3.3
    11,  # determinism                 3.2
    3,   # eigen-solution-identity     2.9
    4,   # entropy-production-oracle   2.0
    0,   # unitary-limit               1.1
    5,   # picture-consistency         0.61
    10,  # gravity-falloff             0.52
)


def run_all(seed: int = 0) -> list:
    """Run every check with sub-seeds derived from one master seed.

    The checks run through ``_fanout.ordered``, costliest first: in forked
    worker processes, one per CPU this process may run on, or in process on
    one CPU.  The results come back in ``criterion_names()`` order, and an
    exception is that of the first failing check in that order, so neither
    depends on the CPU count.
    """
    def run(index):
        # read at call time, so functions installed in _CRITERIA run too
        try:
            return _CRITERIA[index](seed)
        except Exception as exc:  # raised below, in criterion order
            return exc

    tasks = [(index,) for index in _SUBMISSION_ORDER]
    done = dict(zip(_SUBMISSION_ORDER, _fanout.ordered(run, tasks, "criterion")))
    results = [done[index] for index in range(len(_CRITERIA))]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results
