"""Pseudo-spectral solver for the stochastic compressible Euler system.

On the torus the system reads

    d rho  = -div(rho v) dt
    d v_q  = -(grad_q rho + v . grad v_q) dt + sigma_q(x) v_q o dB_q

where the pressure law p = rho^2 / 2 turns grad p / rho into grad rho exactly,
so no division by the density ever happens.  The state is one real array
``u`` of shape (1 + dim,) + grid shape, u[0] = rho and u[1 + q] = v_q, and
every operator acts on it whole, with real FFTs over the trailing lattice
axes.  Time stepping is a Strang composition: half an exact
multiplicative-noise map, a classical four-stage Runge-Kutta drift step, half a
noise map, both halves one factor exp(sigma dB / 2) computed once.  The drift
step runs on the ``rfftn`` half spectrum of ``u``: one forward transform, four
stages combined in spectral space, one inverse transform; each right-hand side
takes two transforms in any dimension, one ``irfftn`` for rho, v and every d_a
v_q and one ``rfftn`` for the quadratic products.  Those products are dealiased
by zeroing the top modes; an optional weak hyperviscosity damps the spectral
tail on long runs.  A drift step allocates one set of stage arrays, and its
four right-hand sides write every intermediate into them in the order of
operations of the plain expressions, so the bits are theirs.  Each step ends
with one check that the state is finite and the density strictly positive.  A
Sobolev-norm guard, one ``rfftn`` of the whole state, stops the state the first
time ||(rho, v)||_{H^s} reaches the configured threshold, recording why in
``stopping``; a stopped state never steps again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .errors import NonFiniteState, NonPositiveDensity
from .fields import GridField, PeriodicGrid, interpolate, read_only, sobolev_weight
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
        if not self.hyperviscosity_nu >= 0:
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
    """(rho, v) on one lattice as one array: u[0] = rho, u[1 + q] = v_q."""

    grid: PeriodicGrid
    u: np.ndarray
    time: float = 0.0
    step_index: int = 0
    stopping: StoppingRecord | None = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        shape = (1 + self.grid.dim,) + self.grid.shape
        if self.u.shape != shape:
            raise ValueError(f"state shape {self.u.shape} != (1 + dim,) + grid shape {shape}")

    @property
    def stopped(self) -> bool:
        return self.stopping is not None

    @property
    def rho(self) -> GridField:
        return GridField(self.grid, self.u[0])

    @property
    def velocity(self) -> tuple:
        return tuple(GridField(self.grid, v) for v in self.u[1:])

    def mass(self):
        return float(np.sum(self.u[0]) * self.grid.cell_volume)

    def min_density(self):
        return float(np.min(self.u[0]))


def _checked(state: FluidState) -> FluidState:
    """``state`` itself, once its values are finite and its lattice density strictly positive."""
    if not np.isfinite(state.u).all():
        raise NonFiniteState(f"fluid state became non-finite at t = {state.time:.6g}")
    if state.min_density() <= 0.0:
        raise NonPositiveDensity(f"min rho = {state.min_density():.6g} <= 0 at t = {state.time:.6g}")
    return state


def state_norm(state: FluidState, s: float) -> float:
    """H^s norm of the full state: sqrt(||rho||_s^2 + sum_q ||v_q||_s^2), from one ``grid.rfft`` of ``u``."""
    u_hat = state.grid.rfft(state.u)
    return math.sqrt(np.sum(sobolev_weight(state.grid, s) * np.abs(u_hat) ** 2))


@cache
def _workspace(grid: PeriodicGrid, dealias_fraction: float, hyperviscosity_nu: float, hyperviscosity_order: int):
    """Per-(grid, config) read-only arrays of the drift right-hand side on the half spectrum.

    Returns (i*lambda stacked over axes, dealias mask, hyperviscous rate).
    i*lambda_a is zero on the modes where axis a is at Nyquist: that is the
    part of the derivative a real field keeps.
    """
    m = grid.points_per_dim
    ilam = 1j * np.stack(grid.freq_mesh)
    nyquist = grid.axis_modes == -(m // 2)
    for a in range(grid.dim):
        ilam[(a,) + (slice(None),) * a + (nyquist,)] = 0.0
    keep = int(dealias_fraction * (m // 2))
    axis_ok = (np.abs(grid.axis_modes) <= keep).astype(float)
    dealias = reduce(np.multiply.outer, (axis_ok,) * grid.dim)
    ratio = grid.freq_norm_sq / (np.pi / grid.spacing) ** 2  # |lambda|^2 over its Nyquist value
    hyper = -hyperviscosity_nu * ratio**hyperviscosity_order
    # column M/2 of the half spectrum holds mode -M/2, which has the |lambda| of +M/2 and, like it, no derivative
    return tuple(read_only(np.ascontiguousarray(grid.half(array))) for array in (ilam, dealias, hyper))


def drift_rhs(state: FluidState, config: EulerConfig) -> np.ndarray:
    """Deterministic tendency d u = (d rho, d v_q) of the divergence-form system, stacked like ``u``.

    Derivatives are spectral; the quadratic fluxes rho*v_q and v.grad(v_q) are
    dealiased before differentiation/assembly.  Raises NonFiniteState or
    NonPositiveDensity unless the state is finite with strictly positive density.
    """
    grid = state.grid
    work = _stage_arrays(grid)
    u_hat = grid.rfft(_checked(state).u, out=work[0][: 1 + grid.dim])
    return grid.irfft(_rhs(work, grid, config, np.empty_like(u_hat)))


def _stage_arrays(grid: PeriodicGrid) -> tuple:
    """The arrays a right-hand side works in: the spectral input of 1 + dim + dim**2 rows, the half spectrum
    of ``u`` then every i*lambda_a v_q, its real fields, the 2 * dim products and their half spectrum."""
    dim = grid.dim
    half = grid.shape[:-1] + (grid.points_per_dim // 2 + 1,)
    rows = 1 + dim + dim * dim
    return (
        np.empty((rows,) + half, dtype=complex),
        np.empty((rows,) + grid.shape),
        np.empty((2 * dim,) + grid.shape),
        np.empty((2 * dim,) + half, dtype=complex),
    )


def _rhs(work, grid, config, out):
    """Spectral tendency, into ``out``, of the half spectrum in the first 1 + dim rows of ``work``'s spectral
    input: one ``grid.irfft`` and one ``grid.rfft``, every intermediate one of the ``_stage_arrays``."""
    ilam, dealias, hyper = _workspace(
        grid, config.dealias_fraction, config.hyperviscosity_nu, config.hyperviscosity_order
    )
    spectra, values, products, products_hat = work
    dim = grid.dim
    u_hat = spectra[: 1 + dim]
    np.multiply(ilam[:, None], u_hat[None, 1:], out=spectra[1 + dim :].reshape((dim, dim) + u_hat.shape[1:]))
    grid.irfft(spectra, out=values)
    rho, vel = values[0], values[1 : 1 + dim]
    grad = values[1 + dim :].reshape((dim, dim) + grid.shape)  # grad[a, q] = d_a v_q
    np.multiply(rho, vel, out=products[:dim])
    np.multiply(vel[:, None], grad, out=grad)
    np.add.reduce(grad, axis=0, out=products[dim:])  # v . grad v_q, summed over a in order
    grid.rfft(products, out=products_hat)
    products_hat *= dealias
    flux_hat, advect_hat = products_hat[:dim], products_hat[dim:]

    # hyper*rho - d_0(rho v_0) - d_1(rho v_1) ..., subtracted term by term
    np.multiply(hyper, u_hat[0], out=out[0])
    np.multiply(ilam, flux_hat, out=flux_hat)
    for term in flux_hat:
        np.subtract(out[0], term, out=out[0])
    # -advect - i*lambda rho + hyper*v, left to right; once negated, advect_hat holds each later product
    np.negative(advect_hat, out=out[1:])
    np.subtract(out[1:], np.multiply(ilam, u_hat[0], out=advect_hat), out=out[1:])
    np.add(out[1:], np.multiply(hyper, u_hat[1:], out=advect_hat), out=out[1:])
    return out


def step_drift(state: FluidState, dt: float, config: EulerConfig) -> FluidState:
    """Classical four-stage Runge-Kutta step of the deterministic part, staged on the half spectrum of ``u``.

    The four stages share one set of ``_stage_arrays``: each writes u0 + c * k into the first rows of the
    spectral input, and each k is added to a running sum once the next stage has read it, in the order of
    u0 + dt/6 * (((k1 + 2 k2) + 2 k3) + k4), scalars first.
    """
    grid = state.grid
    work = _stage_arrays(grid)
    stage = work[0][: 1 + grid.dim]
    u0 = grid.rfft(state.u)
    total, k = np.empty_like(u0), np.empty_like(u0)
    stage[...] = u0
    _rhs(work, grid, config, total)  # k1, to which the later k's are added
    np.add(u0, np.multiply(0.5 * dt, total, out=stage), out=stage)
    for c in (0.5 * dt, dt):  # k2 and k3, each counted twice
        _rhs(work, grid, config, k)
        np.add(u0, np.multiply(c, k, out=stage), out=stage)
        np.add(total, np.multiply(2.0, k, out=k), out=total)
    np.add(total, _rhs(work, grid, config, k), out=total)
    np.add(u0, np.multiply(dt / 6.0, total, out=total), out=total)
    return replace(state, u=grid.irfft(total), time=state.time + dt)


def noise_step(state: FluidState, dB: np.ndarray, sigma: SigmaField, scale: float = 1.0) -> FluidState:
    """Exact pathwise noise map: v_q <- v_q * exp(sigma_q(x) dB_q * scale).

    The density carries no noise term and is untouched.
    """
    u = state.u.copy()
    u[1:] *= _noise_factor(state.grid, dB, sigma, scale)
    return replace(state, u=u)


def _noise_factor(grid: PeriodicGrid, dB: np.ndarray, sigma: SigmaField, scale: float) -> np.ndarray:
    """exp(sigma_q(x) dB_q * scale) on the lattice, shaped like the velocity rows ``u[1:]``."""
    increment = (np.asarray(dB, dtype=float) * scale).reshape((grid.dim,) + (1,) * grid.dim)
    return np.exp(sigma.on_grid(grid) * increment)


def stopping_guard(state: FluidState, config: EulerConfig) -> FluidState:
    """Stop the state the first time ||(rho, v)||_{H^s} reaches the threshold."""
    if state.stopped:
        return state
    if not math.isfinite(config.guard_m):
        return state
    norm = state_norm(state, config.guard_s)
    if norm >= config.guard_m:
        record = StoppingRecord(state.step_index, state.time, norm, config.guard_m)
        return replace(state, stopping=record)
    return state


def step(state: FluidState, dB: np.ndarray, sigma: SigmaField, config: EulerConfig) -> FluidState:
    """One Strang-split step (noise half, RK4 drift, noise half), the state check, then the guard.

    Raises NonFiniteState or NonPositiveDensity if the stepped state is not
    finite with strictly positive density.  A stopped state is returned
    unchanged: diagnostics downstream read values frozen at the stopping time.
    """
    if state.stopped:
        return state
    config.validate_guard_order(state.grid.dim)
    half = _noise_factor(state.grid, dB, sigma, 0.5)
    u = state.u.copy()
    u[1:] *= half
    out = step_drift(FluidState(state.grid, u, state.time, state.step_index + 1), config.dt, config)
    out.u[1:] *= half
    return stopping_guard(_checked(out), config)


def sample_velocity(state: FluidState, points: np.ndarray, scheme: str = "linear") -> np.ndarray:
    """Read the bulk velocity at off-lattice points, shape (n, dim), through one stencil for all components."""
    return interpolate(state.u[1:], points, state.grid, scheme)


def make_fluid_state(grid: PeriodicGrid, density_profile, velocity_profile) -> FluidState:
    """The profiles sampled on the lattice; raises unless finite with strictly positive density."""
    pts = grid.points()
    u = np.concatenate((density_profile(pts)[None], velocity_profile(pts).T))
    return _checked(FluidState(grid, u.reshape((1 + grid.dim,) + grid.shape)))
