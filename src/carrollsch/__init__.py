"""Numerical dictionary between space-evolved and time-evolved wave dynamics.

The package implements the 1+1 dimensional correspondence between the
Schrodinger equation and its space-evolution counterpart: compatible
potential pairs via commuting constraint operators, the Schwarzian duality
map between potentials, unitary spectral propagation on the equal-x Hilbert
space, continuity-equation bridging, the classical ray limit, and
interacting problems (finite-time quantization, interaction momentum, Dyson
expansion).
"""
from .constants import NATURAL, PhysicalConstants
from .numerics import (
    FundamentalPair,
    GridError,
    TimeGrid,
    cumulative_integral,
    deriv_uniform,
    integrate_fundamental_pair,
    schwarzian_samples,
)
from .potentials import PotentialSpec
from .operators import (
    MARGIN,
    Field2D,
    apply_F,
    apply_H,
    commutator_residual,
    commutator_residuals,
    gaussian_probes,
)
from .duality import (
    BranchError,
    DualityMap,
    forward_delta,
    inverse_tau,
    inversion_identity_residual,
    roundtrip_residual,
    schwarzian_residual,
    vsch_from_vcar,
)
from .propagator import (
    GaussianParams,
    Wavefunction,
    carroll_density_current,
    carrier_center,
    effective_width,
    evolve_free,
    gaussian_exact,
    gaussian_field,
    measured_moments,
)
from .currents import continuity_equivalence
from .classical import (
    RaySolution,
    TwoMomentum,
    carroll_relation_residual,
    picard_iterate,
    trace_ray,
    ultra_boost,
    ultra_boost_inverse,
)
from .interaction import (
    InteractionMomentum,
    SpectrumResult,
    dirichlet_eigenvalue_oracle,
    dyson_first_order,
    dyson_sweep,
    evolve_interacting,
    gauge_reduce,
    interaction_momentum,
    quantized_modes,
)

__version__ = "0.1.0"
