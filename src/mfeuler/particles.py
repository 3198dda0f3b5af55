"""N-particle system: forces, splitting integrator, well-prepared initial data.

The first-order system is

    dX_k = V_k dt
    dV_k = -(1/N) sum_l grad potential(X_k - X_l) dt + sigma(X_k) V_k o dB

with Stratonovich noise shared by all particles.  One step splits into a
symplectic-Euler drift and an exact noise map: freezing X, the noise-only
equation dV_q = sigma_q V_q o dB_q has pathwise solution
V_q * exp(sigma_q(X) dB_q), so the noise substep carries no time-discretization
error.  Forces come either from the exact O(N^2) pair sum or from a
particle-mesh pipeline (deposit, spectral convolution with the sampled force
kernel, interpolation back).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DensityNotNormalizable, GridTooCoarse, NonFiniteState
from .fields import EmpiricalMeasure, GridField, PeriodicGrid, assignment_window, deposit, interpolate, sample_kernel
from .kernels import ScaledKernel
from .noise import SigmaField, stream

FORCE_METHODS = ("direct", "particle_mesh")


@dataclass
class ParticleState:
    positions: np.ndarray  # (N, dim), torus coordinates in [0, period)
    velocities: np.ndarray  # (N, dim)
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share a shape")

    @property
    def n_particles(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    def copy(self):
        return ParticleState(self.positions.copy(), self.velocities.copy(), self.time)


def validate_kernel_box(kernel: ScaledKernel, period: float):
    """The kernel's effective support must fit inside half the torus."""
    radius = kernel.support_radius()
    if radius >= 0.5 * period:
        raise GridTooCoarse(
            f"kernel support radius {radius:.4g} does not fit in half the period {period:.4g}"
        )


def min_image(disp: np.ndarray, period: float) -> np.ndarray:
    return disp - period * np.round(disp / period)


def force_direct(state: ParticleState, kernel: ScaledKernel, period: float, block: int = 1024):
    """Exact pair-sum force -(1/N) sum_l grad potential(X_k - X_l), minimum image.

    The self term vanishes because the potential gradient of a symmetric C^1
    kernel is zero at the origin; no special-casing of l = k is needed.
    """
    validate_kernel_box(kernel, period)
    pos = state.positions
    n = state.n_particles
    forces = np.empty_like(pos)
    for start in range(0, n, block):
        chunk = pos[start : start + block]
        disp = min_image(chunk[:, None, :] - pos[None, :, :], period)
        grads = np.asarray(kernel.potential_gradient(disp.reshape(-1, state.dim)))
        forces[start : start + block] = -grads.reshape(disp.shape).sum(axis=1) / n
    return forces


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@cache
def _half_cell_phase(grid: PeriodicGrid) -> np.ndarray:
    phase = np.ones(grid.shape, dtype=complex)
    for lam in grid.freq_mesh:
        phase = phase * np.exp(1j * lam * grid.spacing / 2.0)
    return _read_only(phase)


@cache
def force_kernel_spectrum(kernel: ScaledKernel, grid: PeriodicGrid) -> tuple:
    """Per-component FFT of the force kernel sampled on the lattice, built once per (kernel, grid)."""
    return tuple(
        _read_only(np.fft.fftn(sample_kernel(grid, lambda pts: np.asarray(kernel.potential_gradient(pts))[:, q])))
        for q in range(grid.dim)
    )


@cache
def sampled_mollifier(kernel: ScaledKernel, grid: PeriodicGrid) -> np.ndarray:
    """The mollifier ``kernel.density`` sampled on the lattice, built once per (kernel, grid)."""
    return _read_only(sample_kernel(grid, kernel.density))


def deposit_spectrum(positions, grid: PeriodicGrid, scheme: str):
    """FFT of the deposited unit-mass empirical density, alias-suppressed.

    The assignment-window transform is divided out and a second
    half-cell-shifted deposit is averaged in (interlacing), which cancels the
    odd-order alias images of the point masses.
    """
    measure = EmpiricalMeasure(positions)
    dens_hat = np.fft.fftn(deposit(measure, grid, scheme).values)
    shifted = deposit(EmpiricalMeasure(np.mod(positions + grid.spacing / 2.0, grid.period)), grid, scheme)
    dens_hat = 0.5 * (dens_hat + _half_cell_phase(grid) * np.fft.fftn(shifted.values))
    return dens_hat / assignment_window(grid, scheme)


def gather(field_hat, grid: PeriodicGrid, positions, scheme: str):
    """Read a spectral field back at particle positions with the deposit's adjoint.

    Mirrors ``deposit_spectrum``: window deconvolution plus an interlaced
    second gather from the half-cell-shifted lattice.
    """
    corrected = field_hat / assignment_window(grid, scheme)
    direct = interpolate(GridField(grid, np.fft.ifftn(corrected).real), positions, scheme)
    shifted_vals = np.fft.ifftn(corrected * _half_cell_phase(grid)).real
    shifted = interpolate(
        GridField(grid, shifted_vals), np.mod(positions - grid.spacing / 2.0, grid.period), scheme
    )
    return 0.5 * (direct + shifted)


def force_particle_mesh(state: ParticleState, kernel: ScaledKernel, grid: PeriodicGrid, deposit_scheme: str = "linear"):
    """Particle-mesh force: deposit, spectral convolution, gather.

    The deposited density spectrum is multiplied by the transform of the
    sampled force kernel.  Standard particle-mesh alias control is applied on
    both ends: the assignment window is divided out and deposits/gathers are
    interlaced with a half-cell shift.

    Raises
    ------
    GridTooCoarse
        If the lattice spacing exceeds a quarter of the kernel's effective
        width, where the sampled kernel would alias badly.
    """
    validate_kernel_box(kernel, grid.period)
    if grid.spacing > kernel.effective_width() / 4.0:
        raise GridTooCoarse(
            f"grid spacing {grid.spacing:.4g} > effective kernel width / 4 = "
            f"{kernel.effective_width() / 4.0:.4g}"
        )
    dens_hat = deposit_spectrum(state.positions, grid, deposit_scheme)
    forces = np.empty_like(state.positions)
    for q, g_hat in enumerate(force_kernel_spectrum(kernel, grid)):
        conv_hat = dens_hat * g_hat * grid.cell_volume
        forces[:, q] = -gather(conv_hat, grid, state.positions, deposit_scheme)
    return forces


def compute_force(state, kernel, period, method="direct", grid=None, deposit_scheme="linear"):
    if method == "direct":
        return force_direct(state, kernel, period)
    if method == "particle_mesh":
        if grid is None:
            raise ValueError("particle_mesh force needs a grid")
        return force_particle_mesh(state, kernel, grid, deposit_scheme)
    raise ValueError(f"unknown force method {method!r}")


def step(
    state: ParticleState,
    dB: np.ndarray,
    dt: float,
    kernel: ScaledKernel,
    sigma: SigmaField,
    period: float,
    method: str = "direct",
    grid: PeriodicGrid | None = None,
    deposit_scheme: str = "linear",
    context: str = "",
) -> ParticleState:
    """Advance one step: symplectic-Euler drift, then the exact noise factor.

    The noise coefficient is evaluated at the post-drift positions (the
    frozen-position justification of the exact factor); positions re-wrap
    into the torus.
    """
    forces = compute_force(state, kernel, period, method, grid, deposit_scheme)
    vel = state.velocities + forces * dt
    pos = np.mod(state.positions + vel * dt, period)
    factors = np.exp(sigma.values(pos) * np.asarray(dB)[None, :])
    vel = vel * factors
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
        raise NonFiniteState(f"particle state became non-finite ({context})")
    return ParticleState(pos, vel, state.time + dt)


# ---------------------------------------------------------------------------
# Well-prepared initial data
# ---------------------------------------------------------------------------


def init_well_prepared(
    density,
    velocity,
    n: int,
    period: float,
    scheme: str = "stratified",
    master_seed: int = 0,
    seed_tags=(),
    dim: int = 1,
    resolution: int = 2**13,
) -> ParticleState:
    """Positions sampled from the density, velocities read off the profile.

    ``stratified`` (dim 1 only) inverts the numerically accumulated CDF at the
    quantile midpoints (k - 1/2)/N; ``iid`` draws uniforms from the stream
    tagged by (master_seed, "init", *seed_tags) and inverts the same CDF.
    Velocities are exact samples of the velocity profile, so the kinetic
    mismatch vanishes at t = 0 by construction.

    Raises
    ------
    DensityNotNormalizable
        If the lattice mass of the density deviates from 1 by more than 1e-6.
    """
    if scheme not in ("stratified", "iid"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    h = period / resolution
    if dim == 1:
        axis = np.arange(resolution) * h
        dens = np.asarray(density(axis[:, None]))
        mass = float(np.sum(dens) * h)
        if abs(mass - 1.0) > 1e-6:
            raise DensityNotNormalizable(f"density mass {mass!r} deviates from 1 by more than 1e-6")
        cdf = np.concatenate([[0.0], np.cumsum(dens) * h])
        cdf /= cdf[-1]
        nodes = np.concatenate([axis, [period]])
        if scheme == "stratified":
            u = (np.arange(n) + 0.5) / n
        else:
            u = stream(master_seed, "init", *seed_tags).random(n)
        positions = np.interp(u, cdf, nodes)[:, None]
    else:
        if scheme == "stratified":
            raise ValueError("stratified initialization is defined for dim=1 only; use iid")
        lattice = PeriodicGrid(2, 2**9, period)
        h2 = lattice.spacing
        pts = lattice.points()
        dens = np.asarray(density(pts))
        mass = float(np.sum(dens) * h2 * h2)
        if abs(mass - 1.0) > 1e-6:
            raise DensityNotNormalizable(f"density mass {mass!r} deviates from 1 by more than 1e-6")
        rng = stream(master_seed, "init", *seed_tags)
        probs = dens / dens.sum()
        cells = rng.choice(dens.size, size=n, p=probs)
        jitter = rng.random((n, 2))
        positions = pts[cells] + jitter * h2
    velocities = np.asarray(velocity(positions))
    return ParticleState(positions, velocities, 0.0)


# ---------------------------------------------------------------------------
# Independent SDE reference schemes (noise verification oracles)
# ---------------------------------------------------------------------------


def ito_reference(
    v0: np.ndarray,
    x0: np.ndarray,
    sigma: SigmaField,
    path_increments: np.ndarray,
    dt: float,
    period: float,
    scheme: str = "corrected",
) -> np.ndarray:
    """Integrate the force-free Ito form dV_q = 1/2 sigma_q(X)^2 V_q dt + sigma_q(X) V_q dB_q.

    ``euler`` is the plain Euler-Maruyama discretization (strong order 1/2 for
    this multiplicative noise); ``corrected`` adds the next Ito-Taylor term
    1/2 sigma^2 V (dB^2 - dt), lifting the pathwise order to 1.  Positions
    advance with dX = V dt; coefficients are evaluated non-anticipatively.
    """
    if scheme not in ("euler", "corrected"):
        raise ValueError(f"unknown oracle scheme {scheme!r}")
    v = np.atleast_2d(np.asarray(v0, dtype=float)).copy()
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    for dB in path_increments:
        sig = sigma.values(x)
        incr = 0.5 * sig**2 * v * dt + sig * v * dB[None, :]
        if scheme == "corrected":
            incr = incr + 0.5 * sig**2 * v * (dB[None, :] ** 2 - dt)
        x = np.mod(x + v * dt, period)
        v = v + incr
    return v
