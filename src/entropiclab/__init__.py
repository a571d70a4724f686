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
from .constants import NATURAL, Constants
from .energy_picture import evolve_h, evolve_h_perturbed, noether_energy_drift
from .entropy_picture import (
    EigenSolutionSpec,
    dissipative_part,
    eigen_solution,
    entropy_operator,
    entropy_production,
    entropy_production_via_chart,
    evolve_s,
    picture_consistency,
    uncertainty_product,
    weak_field_epsilon,
)
from .fluctuations import (
    CanonicalPoint,
    FluctuationSamples,
    SymplecticPatch,
    ThermoReference,
    boundary_action,
    disk_patch,
    fourier_patch,
    gaussian_sample,
    log_probability,
    rectangle_patch,
    standardized_deviations,
    streamed_covariance_report,
    symplectic_area,
    to_canonical,
    two_plane_patch,
)
from .gravity import (
    RegionSpec,
    SourceDistribution,
    laplacian_spot_check,
    mean_h,
    rasterize,
    trace_potential,
)
from .onsager import (
    OnsagerSystem,
    entropy_rate,
    forces,
    reciprocity_check,
    relax,
)
from .operators import (
    HermitianOperator,
    StateVector,
    Trajectory,
    build_hamiltonian,
    spectral_decompose,
)
from .suite import CheckResult, criterion_names, run_all

__version__ = "0.1.0"
