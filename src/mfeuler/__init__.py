"""Coupled particle / stochastic compressible Euler simulator.

An N-particle stochastic Hamiltonian system and a pseudo-spectral stochastic
compressible Euler solver advance under one shared Brownian path; diagnostics
quantify how fast the particle system's empirical measures approach the fluid
as N grows.
"""

__version__ = "0.1.0"

from .config import RunConfig, validate
from .coupling import (
    CoupledRun,
    QRecord,
    RateResult,
    build_run,
    coupled_step,
    fit_loglog,
    mollified_density,
    monte_carlo_rate,
    q_functional,
    mean_field_distances,
)
from .errors import (
    AlphaTooSmall,
    ConfigError,
    DegenerateFit,
    DensityNotNormalizable,
    DivisionDegenerate,
    GridTooCoarse,
    KernelAliasingWarning,
    MfeulerError,
    NonFiniteState,
    NonPositiveDensity,
    QuadratureNotConverged,
)
from .fields import (
    EmpiricalMeasure,
    GridField,
    PeriodicGrid,
    deposit,
    interpolate,
    neg_sobolev_distance,
    neg_sobolev_tail_bound,
)
from .fluid import EulerConfig, FluidState, StoppingRecord, make_fluid_state, sample_velocity, state_norm, stopping_guard
from .kernels import (
    MollifierSpec,
    ScaledKernel,
    TaylorWeightFamily,
    hypothesis_report,
    mollification_error_ratio,
)
from .noise import NoisePath, SigmaField, stream
from .particles import (
    ParticleState,
    force_direct,
    force_particle_mesh,
    init_well_prepared,
)
from .profiles import DensityProfile, VelocityProfile
