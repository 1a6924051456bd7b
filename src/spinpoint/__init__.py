"""Point interactions coupled to localized spins.

Solver for one quantum particle in d = 1 or 3 coupled to N spins 1/2
through singular interface conditions at fixed sites: admissibility of
boundary pairs, resolvent kernels via a finite defect correction,
bound states below the continuum, and time evolution.
"""

from .boundary import (
    BoundaryPair,
    ValidationError,
    ValidationReport,
    is_local,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
    require_valid,
    validate,
)
from .dynamics import EvolveResult, evolve_spectral, free_evolve, spectral_defaults
from .greens import green, sqrt_upper
from .krein import (
    NearPoleError,
    apply_resolvent,
    boundary_data_from_evaluator,
    defect_matrix,
    extract_boundary_data,
    gamma_dressed,
    gamma_free,
    invert_dressed,
    kernel_evaluator,
    resolvent_kernel,
    resolvent_state_evaluator,
    verify_boundary_conditions,
)
from .spectral import (
    BoundState,
    eigenfunction_eval,
    essential_spectrum_bottom,
    find_bound_states,
)
from .spins import (
    ModelSpec,
    config_code,
    enumerate_configs,
    index_dimension,
)
from .states import GaussianComponent, GaussianPacket, GridState, UniformGrid, gaussian_overlap

__version__ = "0.1.0"
