"""Pseudo-spectral solver for the stochastic compressible Euler system.

On the torus the system reads

    d rho  = -div(rho v) dt
    d v_q  = -(grad_q rho + v . grad v_q) dt + sigma_q(x) v_q o dB_q

where the pressure law p = rho^2 / 2 turns grad p / rho into grad rho exactly,
so no division by the density ever happens.  Time stepping is a Strang
composition: half an exact multiplicative-noise map, a classical four-stage
Runge-Kutta drift step, half a noise map.  Quadratic products are dealiased by
zeroing the top modes; an optional weak hyperviscosity damps the spectral tail
on long runs.  A Sobolev-norm guard stops the state the first time
||(rho, v)||_{H^s} reaches the configured threshold, and a stopped state is
never advanced again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import NonPositiveDensity
from .fields import GridField, PeriodicGrid, interpolate, sobolev_norm
from .noise import SigmaField


@dataclass(frozen=True)
class EulerConfig:
    dt: float
    dealias_fraction: float = 2.0 / 3.0
    hyperviscosity_nu: float = 1e-8
    hyperviscosity_order: int = 4
    guard_s: float = 3.5
    guard_m: float = 50.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0, 1]")
        if self.hyperviscosity_nu < 0:
            raise ValueError("hyperviscosity_nu must be nonnegative")
        if self.hyperviscosity_order < 1:
            raise ValueError("hyperviscosity_order must be >= 1")
        if not self.guard_m > 0:
            raise ValueError("guard_m must be positive (may be inf)")

    def validate_guard_order(self, dim: int):
        # local solvability needs s > dim/2 + 2; the default dim/2 + 3 is the
        # stricter order the convergence diagnostics assume
        if not self.guard_s > dim / 2.0 + 2.0:
            raise ValueError(f"guard_s must exceed dim/2 + 2 = {dim / 2 + 2}")


@dataclass(frozen=True)
class StoppingRecord:
    step_index: int
    time: float
    norm_value: float
    threshold: float
    reason: str = "sobolev_guard"


@dataclass
class FluidState:
    rho: GridField
    velocity: tuple
    time: float = 0.0
    step_index: int = 0
    stopped: bool = False
    stopping: StoppingRecord | None = None

    def __post_init__(self):
        self.velocity = tuple(self.velocity)
        if len(self.velocity) != self.rho.grid.dim:
            raise ValueError("one velocity component per dimension required")

    @property
    def grid(self):
        return self.rho.grid

    def mass(self):
        return self.rho.integral()

    def min_density(self):
        return float(np.min(self.rho.values))

    def copy(self):
        return FluidState(
            self.rho.copy(),
            tuple(v.copy() for v in self.velocity),
            self.time,
            self.step_index,
            self.stopped,
            self.stopping,
        )


def state_norm(state: FluidState, s: float) -> float:
    """H^s norm of the full state: sqrt(||rho||_s^2 + sum_q ||v_q||_s^2)."""
    total = sobolev_norm(state.rho, s) ** 2
    for v in state.velocity:
        total += sobolev_norm(v, s) ** 2
    return math.sqrt(total)


@cache
def _workspace(grid: PeriodicGrid, dealias_fraction: float, hyperviscosity_nu: float, hyperviscosity_order: int):
    """Per-grid arrays of the drift right-hand side: (i*lambda per axis, dealias mask, hyperviscous rate)."""
    ilam = tuple(1j * lam for lam in grid.freq_mesh)
    keep = int(dealias_fraction * (grid.points_per_dim // 2))
    axis_ok = (np.abs(grid.axis_modes) <= keep).astype(float)
    dealias = reduce(np.multiply.outer, (axis_ok,) * grid.dim)
    nyq = np.pi / grid.spacing
    ratio = grid.freq_norm_sq / nyq**2
    hyper = -hyperviscosity_nu * ratio**hyperviscosity_order
    for array in (*ilam, dealias, hyper):
        array.flags.writeable = False
    return ilam, dealias, hyper


def drift_rhs(state: FluidState, config: EulerConfig):
    """Deterministic tendencies (d rho, d v_q) of the divergence-form system.

    Derivatives are spectral; the quadratic fluxes rho*v_q and v.grad(v_q) are
    dealiased before differentiation/assembly.  Raises NonPositiveDensity if
    the lattice density is not strictly positive.
    """
    if state.min_density() <= 0.0:
        raise NonPositiveDensity(f"min rho = {state.min_density():.6g} <= 0 at t = {state.time:.6g}")
    return _drift_rhs_values(state.rho.values, [v.values for v in state.velocity], state.grid, config)


def _drift_rhs_values(rho, vels, grid, config):
    ilam, dealias, hyper = _workspace(
        grid, config.dealias_fraction, config.hyperviscosity_nu, config.hyperviscosity_order
    )
    rho_hat = np.fft.fftn(rho)
    vel_hats = [np.fft.fftn(v) for v in vels]

    drho_hat = hyper * rho_hat
    for q, v in enumerate(vels):
        flux_hat = np.fft.fftn(rho * v) * dealias
        drho_hat = drho_hat - ilam[q] * flux_hat

    dvel_hats = []
    for q, v_hat in enumerate(vel_hats):
        advect = np.zeros_like(rho)
        for qq in range(grid.dim):
            dv = np.fft.ifftn(ilam[qq] * v_hat).real
            advect += vels[qq] * dv
        dv_hat = -np.fft.fftn(advect) * dealias - ilam[q] * rho_hat + hyper * v_hat
        dvel_hats.append(dv_hat)

    drho = np.fft.ifftn(drho_hat).real
    dvels = [np.fft.ifftn(h).real for h in dvel_hats]
    return drho, dvels


def step_drift(state: FluidState, dt: float, config: EulerConfig) -> FluidState:
    """Classical four-stage Runge-Kutta step of the deterministic part."""
    grid = state.grid
    rho0 = state.rho.values
    vel0 = [v.values for v in state.velocity]
    if float(np.min(rho0)) <= 0.0:
        raise NonPositiveDensity(f"min rho = {float(np.min(rho0)):.6g} <= 0 at t = {state.time:.6g}")

    def rhs(rho, vels):
        return _drift_rhs_values(rho, vels, grid, config)

    k1r, k1v = rhs(rho0, vel0)
    k2r, k2v = rhs(rho0 + 0.5 * dt * k1r, [v + 0.5 * dt * k for v, k in zip(vel0, k1v)])
    k3r, k3v = rhs(rho0 + 0.5 * dt * k2r, [v + 0.5 * dt * k for v, k in zip(vel0, k2v)])
    k4r, k4v = rhs(rho0 + dt * k3r, [v + dt * k for v, k in zip(vel0, k3v)])

    rho1 = rho0 + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    vel1 = [
        v + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for v, a, b, c, d in zip(vel0, k1v, k2v, k3v, k4v)
    ]
    return FluidState(
        GridField(grid, rho1),
        tuple(GridField(grid, v) for v in vel1),
        state.time + dt,
        state.step_index,
        state.stopped,
        state.stopping,
    )


def noise_step(state: FluidState, dB: np.ndarray, sigma: SigmaField, scale: float = 1.0) -> FluidState:
    """Exact pathwise noise map: v_q <- v_q * exp(sigma_q(x) dB_q * scale).

    The density carries no noise term and is untouched.
    """
    grid = state.grid
    dB = np.asarray(dB, dtype=float)
    new_vel = []
    for q, v in enumerate(state.velocity):
        sig = sigma.component_on_grid(grid, q)
        new_vel.append(GridField(grid, v.values * np.exp(sig * (dB[q] * scale))))
    return FluidState(state.rho, tuple(new_vel), state.time, state.step_index, state.stopped, state.stopping)


def stopping_guard(state: FluidState, config: EulerConfig) -> FluidState:
    """Stop the state the first time ||(rho, v)||_{H^s} reaches the threshold."""
    if state.stopped:
        return state
    if not math.isfinite(config.guard_m):
        return state
    norm = state_norm(state, config.guard_s)
    if norm >= config.guard_m:
        record = StoppingRecord(state.step_index, state.time, norm, config.guard_m)
        return FluidState(state.rho, state.velocity, state.time, state.step_index, True, record)
    return state


def step(state: FluidState, dB: np.ndarray, sigma: SigmaField, config: EulerConfig) -> FluidState:
    """One Strang-split step (noise half, RK4 drift, noise half), then the guard.

    A stopped state is returned unchanged: diagnostics downstream read values
    frozen at the stopping time.
    """
    if state.stopped:
        return state
    config.validate_guard_order(state.grid.dim)
    out = noise_step(state, dB, sigma, scale=0.5)
    out = step_drift(out, config.dt, config)
    out = noise_step(out, dB, sigma, scale=0.5)
    out.step_index = state.step_index + 1
    return stopping_guard(out, config)


def sample_velocity(state: FluidState, points: np.ndarray, scheme: str = "linear") -> np.ndarray:
    """Read the bulk velocity at off-lattice points, shape (n, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cols = [interpolate(v, pts, scheme) for v in state.velocity]
    return np.stack(cols, axis=-1)


def make_fluid_state(grid: PeriodicGrid, density_profile, velocity_profile) -> FluidState:
    rho = density_profile.on_grid(grid)
    vel = tuple(velocity_profile.component_on_grid(grid, q) for q in range(grid.dim))
    return FluidState(rho, vel)
