import math

import numpy as np
import pytest

from mfeuler.errors import NonPositiveDensity
from mfeuler.fields import GridField, PeriodicGrid, spectral_derivative
from mfeuler.fluid import (
    EulerConfig,
    FluidState,
    drift_rhs,
    make_fluid_state,
    noise_step,
    sample_velocity,
    state_norm,
    step,
    step_drift,
    stopping_guard,
)
from mfeuler.noise import NoisePath, SigmaField
from mfeuler.profiles import DensityProfile, VelocityProfile

TWO_PI = 2.0 * math.pi


def make_state(m=128, rho_amp=0.2, vel_amp=0.1, family="bump", normalize=True, period=TWO_PI):
    grid = PeriodicGrid(1, m, period)
    dens = DensityProfile(family, rho_amp, 8.0, period, 1, normalize)
    vel = VelocityProfile("sine", vel_amp, period)
    return make_fluid_state(grid, dens, vel)


def test_pressure_gradient_identity():
    # grad(rho^2/2) / rho == grad(rho) for strictly positive fields
    grid = PeriodicGrid(1, 256, TWO_PI)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(6) * 0.05
    vals = 1.0 + sum(c * np.cos((i + 1) * grid.axis_coords + i) for i, c in enumerate(coeffs))
    rho = GridField(grid, vals)
    lhs = spectral_derivative(GridField(grid, 0.5 * rho.values**2)).values / rho.values
    rhs = spectral_derivative(rho).values
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-8)


def test_drift_rhs_constants_are_steady():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(GridField(grid, np.full(grid.shape, 1.3)), (GridField(grid, np.full(grid.shape, 0.4)),))
    drho, dvel = drift_rhs(state, EulerConfig(dt=1e-3))
    assert np.max(np.abs(drho)) < 1e-14
    assert np.max(np.abs(dvel[0])) < 1e-14


def test_drift_rhs_pure_density_wave():
    grid = PeriodicGrid(1, 128, TWO_PI)
    rho = GridField(grid, 1.0 + 0.1 * np.sin(grid.axis_coords))
    state = FluidState(rho, (GridField(grid, np.zeros(grid.shape)),))
    drho, dvel = drift_rhs(state, EulerConfig(dt=1e-3, hyperviscosity_nu=0.0))
    assert np.max(np.abs(drho)) < 1e-13
    np.testing.assert_allclose(dvel[0], -0.1 * np.cos(grid.axis_coords), atol=1e-12)


def test_drift_rhs_rejects_nonpositive_density():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(GridField(grid, np.full(grid.shape, 0.0)), (GridField(grid, np.zeros(grid.shape)),))
    with pytest.raises(NonPositiveDensity):
        drift_rhs(state, EulerConfig(dt=1e-3))


def test_acoustic_dispersion():
    grid = PeriodicGrid(1, 128, TWO_PI)
    eps = 1e-4
    state = FluidState(
        GridField(grid, 1.0 + eps * np.cos(grid.axis_coords)),
        (GridField(grid, np.zeros(grid.shape)),),
    )
    cfg = EulerConfig(dt=1e-3, hyperviscosity_nu=0.0)
    sigma = SigmaField("constant", 0.0)
    for _ in range(10):
        state = step(state, np.zeros(1), sigma, cfg)
    t = state.time
    np.testing.assert_allclose(
        state.rho.values, 1.0 + eps * np.cos(grid.axis_coords) * math.cos(t), atol=1e-10
    )
    np.testing.assert_allclose(
        state.velocity[0].values, eps * np.sin(grid.axis_coords) * math.sin(t), atol=1e-10
    )


def test_mass_conservation_long_run():
    state = make_state(m=256)
    cfg = EulerConfig(dt=1e-3)
    sigma = SigmaField("sinusoidal", 0.25, 0.5, TWO_PI)
    path = NoisePath.generate(3, 0, 1000, 1, 1e-3)
    mass0 = state.mass()
    for dB in path.increments:
        state = step(state, dB, sigma, cfg)
    assert abs(state.mass() - mass0) < 1e-8 * abs(mass0)
    assert not state.stopped


def test_noise_step_exactness_and_density_invariance():
    state = make_state(m=64)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, TWO_PI)
    path = NoisePath.generate(4, 0, 1000, 1, 1e-3)
    rho0 = state.rho.values.copy()
    v0 = state.velocity[0].values.copy()
    for dB in path.increments:
        state = noise_step(state, dB, sigma)
    sig_vals = sigma.component_on_grid(state.grid, 0)
    # built once per (sigma, grid, component) and read-only
    assert sigma.component_on_grid(state.grid, 0) is sig_vals and not sig_vals.flags.writeable
    exact = v0 * np.exp(sig_vals * path.terminal()[0])
    np.testing.assert_allclose(state.velocity[0].values, exact, rtol=1e-12)
    np.testing.assert_array_equal(state.rho.values, rho0)
    # zero increment leaves the state untouched
    before = state.velocity[0].values.copy()
    state = noise_step(state, np.zeros(1), sigma)
    np.testing.assert_array_equal(state.velocity[0].values, before)


def test_zero_sigma_reduces_to_deterministic_bitwise():
    state_a = make_state()
    state_b = make_state()
    cfg = EulerConfig(dt=1e-3)
    sigma = SigmaField("constant", 0.0)
    path = NoisePath.generate(5, 0, 100, 1, 1e-3)
    for dB in path.increments:
        state_a = step(state_a, dB, sigma, cfg)
        state_b = step_drift(state_b, cfg.dt, cfg)
    np.testing.assert_array_equal(state_a.rho.values, state_b.rho.values)
    np.testing.assert_array_equal(state_a.velocity[0].values, state_b.velocity[0].values)


def test_self_convergence_fourth_order():
    grid = PeriodicGrid(1, 128, TWO_PI)
    dens = DensityProfile("sine", 0.3, period=TWO_PI, normalize=False)
    vel = VelocityProfile("sine", 0.3, TWO_PI)
    sigma = SigmaField("constant", 0.0)
    horizon = 0.4

    def run(dt):
        st = make_fluid_state(grid, dens, vel)
        cfg = EulerConfig(dt=dt, hyperviscosity_nu=0.0)
        for _ in range(int(round(horizon / dt))):
            st = step(st, np.zeros(1), sigma, cfg)
        return st

    ref = run(3.125e-4)
    errs, dts = [], []
    for dt in (2e-2, 1e-2, 5e-3, 2.5e-3):
        st = run(dt)
        err = np.max(np.abs(st.rho.values - ref.rho.values)) + np.max(
            np.abs(st.velocity[0].values - ref.velocity[0].values)
        )
        errs.append(err)
        dts.append(dt)
    from mfeuler.coupling import fit_loglog

    slope, _, _ = fit_loglog(dts, errs)
    assert slope >= 3.5


def test_guard_infinite_threshold_never_stops():
    state = make_state(m=64)
    cfg = EulerConfig(dt=1e-3, guard_m=math.inf)
    assert not stopping_guard(state, cfg).stopped


def test_guard_fires_immediately_above_threshold():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(GridField(grid, np.full(grid.shape, 10.0 / math.sqrt(TWO_PI))), (GridField(grid, np.zeros(grid.shape)),))
    norm = state_norm(state, 3.5)
    assert norm == pytest.approx(10.0, rel=1e-12)
    cfg = EulerConfig(dt=1e-3, guard_m=5.0)
    out = stopping_guard(state, cfg)
    assert out.stopped
    assert out.stopping.norm_value == pytest.approx(norm)
    assert out.stopping.threshold == 5.0


def test_steepening_guard_fires_and_freezes():
    grid = PeriodicGrid(1, 256, TWO_PI)
    dens = DensityProfile("sine", 0.5, period=TWO_PI, normalize=False)
    vel = VelocityProfile("sine", 0.8, TWO_PI)
    state = make_fluid_state(grid, dens, vel)
    n0 = state_norm(state, 3.5)
    cfg = EulerConfig(dt=5e-4, guard_m=1.15 * n0, hyperviscosity_nu=0.0)
    sigma = SigmaField("constant", 0.0)
    steps = 0
    while not state.stopped and steps < 4000:
        state = step(state, np.zeros(1), sigma, cfg)
        steps += 1
    assert state.stopped
    record = state.stopping
    assert record.norm_value >= cfg.guard_m
    # the spectrum tail is still tiny when the guard fires (pre-blowup)
    coeffs = np.abs(np.fft.fft(state.rho.values))
    tail = coeffs[96:129].max() / coeffs.max()
    assert tail < 1e-3
    # a stopped state is never advanced
    frozen = step(state, np.array([0.3]), sigma, cfg)
    assert frozen is state
    np.testing.assert_array_equal(frozen.rho.values, state.rho.values)


def test_sample_velocity_schemes():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(
        GridField(grid, np.ones(grid.shape)), (GridField(grid, np.sin(grid.axis_coords)),)
    )
    # lattice points are read back exactly
    got = sample_velocity(state, grid.axis_coords[:, None], "linear")
    np.testing.assert_allclose(got[:, 0], np.sin(grid.axis_coords), atol=1e-14)
    # midpoint error within the second-derivative interpolation bound
    mids = grid.axis_coords[:, None] + grid.spacing / 2.0
    lin = sample_velocity(state, mids, "linear")[:, 0]
    err = np.max(np.abs(lin - np.sin(mids[:, 0])))
    assert err <= grid.spacing**2 / 8.0 * 1.0 + 1e-12
    # spectral interpolation is exact for a band-limited field
    spec = sample_velocity(state, mids, "spectral")[:, 0]
    np.testing.assert_allclose(spec, np.sin(mids[:, 0]), atol=1e-12)


def test_guard_order_validation():
    cfg = EulerConfig(dt=1e-3, guard_s=2.4)
    with pytest.raises(ValueError):
        cfg.validate_guard_order(1)
    cfg2 = EulerConfig(dt=1e-3, guard_s=2.6)
    cfg2.validate_guard_order(1)


def test_2d_acoustic_dispersion_diagonal_mode():
    # perturbation on the (1,1) mode oscillates at frequency sqrt(2)
    grid = PeriodicGrid(2, 64, TWO_PI)
    xx, yy = np.meshgrid(grid.axis_coords, grid.axis_coords, indexing="ij")
    eps = 1e-4
    state = FluidState(
        GridField(grid, 1.0 + eps * np.cos(xx + yy)),
        (GridField(grid, np.zeros(grid.shape)), GridField(grid, np.zeros(grid.shape))),
    )
    cfg = EulerConfig(dt=1e-3, guard_s=4.5, hyperviscosity_nu=0.0)
    sigma = SigmaField("constant", 0.0)
    for _ in range(10):
        state = step(state, np.zeros(2), sigma, cfg)
    t = state.time
    expected = 1.0 + eps * np.cos(xx + yy) * math.cos(math.sqrt(2.0) * t)
    np.testing.assert_allclose(state.rho.values, expected, atol=1e-10)


def test_2d_constants_steady_and_mass_conserved():
    grid = PeriodicGrid(2, 32, TWO_PI)
    xx, yy = np.meshgrid(grid.axis_coords, grid.axis_coords, indexing="ij")
    rho = GridField(grid, 1.0 + 0.05 * np.sin(xx) * np.cos(yy))
    vel = (
        GridField(grid, 0.05 * np.sin(xx)),
        GridField(grid, 0.05 * np.cos(yy)),
    )
    state = FluidState(rho, vel)
    cfg = EulerConfig(dt=1e-3, guard_s=4.5)
    sigma = SigmaField("sinusoidal", 0.2, 0.5, TWO_PI)
    path = NoisePath.generate(6, 0, 50, 2, 1e-3)
    mass0 = state.mass()
    for dB in path.increments:
        state = step(state, dB, sigma, cfg)
    assert abs(state.mass() - mass0) < 1e-10 * abs(mass0)
    assert np.all(np.isfinite(state.rho.values))

    const = FluidState(
        GridField(grid, np.full(grid.shape, 1.2)),
        (GridField(grid, np.full(grid.shape, 0.3)), GridField(grid, np.full(grid.shape, -0.2))),
    )
    drho, dvel = drift_rhs(const, cfg)
    assert np.max(np.abs(drho)) < 1e-13
    assert max(np.max(np.abs(d)) for d in dvel) < 1e-13


def test_hyperviscosity_damps_tail():
    grid = PeriodicGrid(1, 128, TWO_PI)
    noise_vals = 1.0 + 1e-6 * np.cos(60 * grid.axis_coords)
    state = FluidState(GridField(grid, noise_vals), (GridField(grid, np.zeros(grid.shape)),))
    cfg = EulerConfig(dt=1e-2, hyperviscosity_nu=10.0, hyperviscosity_order=4)
    sigma = SigmaField("constant", 0.0)
    for _ in range(50):
        state = step(state, np.zeros(1), sigma, cfg)
    coeffs = np.abs(np.fft.fft(state.rho.values)) / grid.points_per_dim
    assert coeffs[60] < 0.25e-6
