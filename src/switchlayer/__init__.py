"""Sliding modes, switching layers, and sigmoid regularization for
piecewise-smooth systems with nonlinear (hidden) switching terms."""

from .core import (
    SURFACE_TOL,
    DimensionMismatchError,
    NonFiniteFieldError,
    SwitchedField,
    eval_field,
    hidden_term,
    regime_of,
)
from .sigmoids import SigmoidSpec, UnsupportedExpansionError
from .series import (
    AsymptoticData,
    MatchingUndefinedError,
    SeriesExpansion,
    expand_from_midpoint,
    match_alpha23,
    to_hidden_form,
)
from .integrate import (
    GrazeWarning,
    IntegrationError,
    IntegratorConfig,
    TrajectorySegment,
    advance_to_surface,
    integrate_regularized,
)
from .layer import (
    DegenerateInclusionError,
    HybridTrajectory,
    LayerEquilibrium,
    SlidingSolution,
    classify_surface_point,
    find_layer_equilibria,
    find_sliding_modes,
    integrate_hybrid,
    integrate_layer_only,
    layer_amplitude,
)
from .scenarios import (
    DUFFING_RIPPLE_WINDOW,
    CircuitParams,
    DuffingParams,
    circuit_iv_to_state,
    circuit_state_to_iv,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
    mu_of_lambda,
)

__version__ = "0.1.0"
