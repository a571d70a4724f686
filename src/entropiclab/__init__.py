"""Numerical laboratory for entropy-generated quantum evolution.

The package puts four constructions side by side and makes every claimed
identity machine-checkable:

* evolution generated by a Hamiltonian in laboratory time, and the same
  dynamics rewritten with an entropy operator in dimensionless thermal
  time, where a gravity-controlled rotation of the time axis turns the
  unitary group into a dissipative semigroup;
* weak-field source integrals producing the dimensionless field strength
  that controls that rotation;
* linear irreversible thermodynamics (kinetic matrix, conjugate forces,
  reciprocity, production rate);
* a Gaussian thermodynamic fluctuation sampler whose log-probability is a
  symplectic area, checked by quadrature against the boundary circulation.
"""
import importlib

__version__ = "0.1.0"

# each public name by the module that defines it.  A name is imported on its
# first use (PEP 562), so that a command loads only the modules it runs
_ORIGINS = {
    "constants": ("NATURAL", "Constants"),
    "energy_picture": ("evolve_h",),
    "entropy_picture": (
        "EigenSolutionSpec",
        "dissipative_part",
        "eigen_solution",
        "entropy_operator",
        "entropy_production",
        "entropy_production_via_chart",
        "evolve_s",
        "picture_consistency",
        "uncertainty_product",
        "weak_field_epsilon",
    ),
    "fluctuations": (
        "CanonicalPoint",
        "FluctuationSamples",
        "SymplecticPatch",
        "ThermoReference",
        "boundary_action",
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
    ),
    "gravity": (
        "RegionSpec",
        "SourceDistribution",
        "laplacian_spot_check",
        "mean_h",
        "rasterize",
        "trace_potential",
    ),
    "onsager": ("OnsagerSystem", "entropy_rate", "forces", "reciprocity_check", "relax"),
    "operators": (
        "HermitianOperator",
        "StateVector",
        "Trajectory",
        "build_hamiltonian",
        "spectral_decompose",
    ),
    "suite": ("criterion_names", "run_all"),
    "verdicts": ("CheckResult",),
}
_MODULE_OF = {name: module for module, names in _ORIGINS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
