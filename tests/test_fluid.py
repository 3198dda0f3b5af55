import math

import numpy as np
import pytest

import mfeuler.fields as fields_mod
import mfeuler.fluid as fluid_mod
from mfeuler.errors import NonFiniteState, NonPositiveDensity
from mfeuler.fields import PeriodicGrid, sobolev_weight
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
    # grad(rho^2/2) / rho == grad(rho): with v = 0 and no hyperviscosity the drift's dv is -grad(rho^2/2) / rho
    grid = PeriodicGrid(1, 256, TWO_PI)
    x = grid.axis_coords
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(6) * 0.05
    rho = 1.0 + sum(c * np.cos((i + 1) * x + i) for i, c in enumerate(coeffs))
    drho = -sum(c * (i + 1) * np.sin((i + 1) * x + i) for i, c in enumerate(coeffs))
    du = drift_rhs(FluidState(grid, np.stack([rho, np.zeros(grid.shape)])), EulerConfig(dt=1e-3, hyperviscosity_nu=0.0))
    np.testing.assert_allclose(du[1], -(rho * drho) / rho, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_drift_rhs_density_wave_oracle(dim):
    # rho = 1 + a sin x_axis, v = 0, nu = 0: d rho = 0 and dv_q = -a cos x_axis along q = axis only
    grid = PeriodicGrid(dim, 64, TWO_PI)
    coords = np.meshgrid(*(grid.axis_coords,) * dim, indexing="ij")
    for axis in range(dim):
        u = np.zeros((1 + dim,) + grid.shape)
        u[0] = 1.0 + 0.1 * np.sin(coords[axis])
        du = drift_rhs(FluidState(grid, u), EulerConfig(dt=1e-3, hyperviscosity_nu=0.0))
        expected = np.zeros((dim,) + grid.shape)
        expected[axis] = -0.1 * np.cos(coords[axis])
        assert np.max(np.abs(du[0])) < 1e-12
        np.testing.assert_allclose(du[1:], expected, rtol=0, atol=1e-12)


def test_drift_rhs_constants_are_steady():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(grid, np.stack([np.full(grid.shape, 1.3), np.full(grid.shape, 0.4)]))
    du = drift_rhs(state, EulerConfig(dt=1e-3))
    assert du.shape == (2,) + grid.shape
    assert np.max(np.abs(du[0])) < 1e-14
    assert np.max(np.abs(du[1])) < 1e-14


def test_drift_rhs_pure_density_wave():
    grid = PeriodicGrid(1, 128, TWO_PI)
    state = FluidState(grid, np.stack([1.0 + 0.1 * np.sin(grid.axis_coords), np.zeros(grid.shape)]))
    du = drift_rhs(state, EulerConfig(dt=1e-3, hyperviscosity_nu=0.0))
    assert np.max(np.abs(du[0])) < 1e-13
    np.testing.assert_allclose(du[1], -0.1 * np.cos(grid.axis_coords), atol=1e-12)


def _per_component_drift_rhs(rho, vels, grid, config):
    """The drift right-hand side written one component at a time: the reference for the stacked one."""
    ilam = [1j * lam for lam in grid.freq_mesh]
    keep = int(config.dealias_fraction * (grid.points_per_dim // 2))
    axis_ok = (np.abs(grid.axis_modes) <= keep).astype(float)
    dealias = axis_ok if grid.dim == 1 else np.multiply.outer(axis_ok, axis_ok)
    ratio = grid.freq_norm_sq / (np.pi / grid.spacing) ** 2
    hyper = -config.hyperviscosity_nu * ratio**config.hyperviscosity_order

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
        dvel_hats.append(-np.fft.fftn(advect) * dealias - ilam[q] * rho_hat + hyper * v_hat)
    return np.fft.ifftn(drho_hat).real, [np.fft.ifftn(h).real for h in dvel_hats]


def _random_state(grid, seed):
    # random positive density and nonzero velocities, with content up to the
    # Nyquist modes, so every advection term d_a v_q (a != q included in 2-d)
    # and every Nyquist rule enters the tendency
    rng = np.random.default_rng(seed)
    dim = grid.dim
    return np.concatenate([0.5 + rng.random((1,) + grid.shape), 0.3 * rng.standard_normal((dim,) + grid.shape)])


@pytest.mark.parametrize("dim, m", [(1, 512), (2, 64)], ids=["1d", "2d"])
def test_drift_rhs_matches_per_component_reference(dim, m):
    # the spectral right-hand side runs on real transforms, the reference on
    # full complex ones, so they agree to rounding, not bit for bit
    grid = PeriodicGrid(dim, m, TWO_PI)
    u = _random_state(grid, 10 + dim)
    cfg = EulerConfig(dt=1e-3, hyperviscosity_nu=1e-3)
    du = drift_rhs(FluidState(grid, u), cfg)
    drho, dvels = _per_component_drift_rhs(u[0], list(u[1:]), grid, cfg)
    ref = np.stack([drho] + dvels)
    assert du.shape == u.shape
    assert np.max(np.abs(du - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, m", [(1, 128), (2, 32)], ids=["1d", "2d"])
def test_step_drift_matches_physical_space_rk4(dim, m):
    # 50 spectral RK4 steps against RK4 on the lattice values with the
    # per-component reference as right-hand side; in 2-d a derivative left
    # nonzero on a Nyquist row of the half spectrum moves the tendency by 18 %
    grid = PeriodicGrid(dim, m, TWO_PI)
    u = _random_state(grid, 20 + dim)
    cfg = EulerConfig(dt=1e-3, hyperviscosity_nu=1e-3)

    def rhs(w):
        drho, dvels = _per_component_drift_rhs(w[0], list(w[1:]), grid, cfg)
        return np.stack([drho] + dvels)

    state, ref = FluidState(grid, u), u
    for _ in range(50):
        state = step_drift(state, cfg.dt, cfg)
        k1 = rhs(ref)
        k2 = rhs(ref + 0.5 * cfg.dt * k1)
        k3 = rhs(ref + 0.5 * cfg.dt * k2)
        k4 = rhs(ref + cfg.dt * k3)
        ref = ref + cfg.dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert state.time == pytest.approx(50 * cfg.dt)
    assert np.max(np.abs(state.u - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, m", [(1, 512), (2, 64)], ids=["1d", "2d"])
def test_fluid_step_makes_eleven_transforms(dim, m, monkeypatch):
    # one rfft into the half spectrum, two transforms per right-hand side in
    # each of the four stages, one irfft back, one rfft for the guard
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(PeriodicGrid, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(PeriodicGrid, name, counted)
    grid = PeriodicGrid(dim, m, TWO_PI)
    state = FluidState(grid, _random_state(grid, 30 + dim))
    cfg = EulerConfig(dt=1e-4, guard_s=dim / 2.0 + 3.0, guard_m=1e300)
    out = step(state, np.full(dim, 1e-2), SigmaField("sinusoidal", 0.2, 0.5, TWO_PI), cfg)
    assert out.step_index == 1 and not out.stopped
    assert calls == ["rfft"] + ["irfft", "rfft"] * 4 + ["irfft", "rfft"]


def _full_spectrum_sobolev_norm(values, grid, s):
    """The Sobolev norm from the full complex spectrum: the reference for the half-spectrum weight."""
    coeffs = np.fft.fftn(values) / grid.points_per_dim**grid.dim
    return math.sqrt(grid.period**grid.dim * np.sum((1.0 + grid.freq_norm_sq) ** s * np.abs(coeffs) ** 2))


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_state_norm_matches_per_row_full_spectrum_norms(dim, m):
    # white noise carries weight on every column of the half spectrum,
    # the unpaired column 0 and Nyquist column included
    grid = PeriodicGrid(dim, m, TWO_PI)
    state = FluidState(grid, _random_state(grid, 40 + dim))
    rows = [_full_spectrum_sobolev_norm(row, grid, 3.5) for row in state.u]
    assert state_norm(state, 3.5) == pytest.approx(math.sqrt(sum(r * r for r in rows)), rel=1e-13)
    weight = sobolev_weight(grid, 3.5)
    assert sobolev_weight(grid, 3.5) is weight and not weight.flags.writeable


def test_drift_rhs_rejects_nonpositive_density():
    grid = PeriodicGrid(1, 64, TWO_PI)
    state = FluidState(grid, np.zeros((2,) + grid.shape))
    with pytest.raises(NonPositiveDensity):
        drift_rhs(state, EulerConfig(dt=1e-3))


def test_acoustic_dispersion():
    grid = PeriodicGrid(1, 128, TWO_PI)
    eps = 1e-4
    state = FluidState(grid, np.stack([1.0 + eps * np.cos(grid.axis_coords), np.zeros(grid.shape)]))
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
    sig_vals = sigma.on_grid(state.grid)
    # built once per (sigma, grid) and read-only
    assert sigma.on_grid(state.grid) is sig_vals and not sig_vals.flags.writeable
    assert sig_vals.shape == (1,) + state.grid.shape
    exact = v0 * np.exp(sig_vals[0] * path.terminal()[0])
    np.testing.assert_allclose(state.velocity[0].values, exact, rtol=1e-12)
    np.testing.assert_array_equal(state.rho.values, rho0)
    # zero increment leaves the state untouched
    before = state.velocity[0].values.copy()
    state = noise_step(state, np.zeros(1), sigma)
    np.testing.assert_array_equal(state.velocity[0].values, before)


def test_step_raises_when_the_state_turns_non_finite():
    state = make_state(m=64)
    sigma = SigmaField("constant", 1e300)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match="non-finite"):
        step(state, np.array([1e-3]), sigma, EulerConfig(dt=1e-3))


def test_make_fluid_state_checks_the_initial_values():
    grid = PeriodicGrid(1, 64, TWO_PI)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    with pytest.raises(NonFiniteState):
        make_fluid_state(grid, lambda pts: np.full(len(pts), math.inf), vel)
    with pytest.raises(NonPositiveDensity):
        make_fluid_state(grid, lambda pts: np.zeros(len(pts)), vel)


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
    state = FluidState(grid, np.stack([np.full(grid.shape, 10.0 / math.sqrt(TWO_PI)), np.zeros(grid.shape)]))
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
    state = FluidState(grid, np.stack([np.ones(grid.shape), np.sin(grid.axis_coords)]))
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


@pytest.mark.parametrize("scheme", ["nearest", "linear", "spectral"])
@pytest.mark.parametrize("dim", [1, 2])
def test_sample_velocity_reads_every_component_through_one_stencil(monkeypatch, dim, scheme):
    # equal bit for bit to one interpolate per component, from one stencil
    # (or one pair of phase tables) for all components
    grid = PeriodicGrid(dim, 32, TWO_PI)
    rng = np.random.default_rng(30 + dim)
    u = np.concatenate([np.ones((1,) + grid.shape), rng.standard_normal((dim,) + grid.shape)])
    state = FluidState(grid, u)
    pts = rng.random((300, dim)) * grid.period
    pts[:2] = np.array([grid.spacing * 3, np.nextafter(grid.period, 0.0)])[:, None]  # a node, just below the period
    expected = np.stack([fields_mod.interpolate(v[None], pts, grid, scheme)[:, 0] for v in u[1:]], axis=-1)

    built = []
    for name in ("_stencil", "_phase_tables"):
        original = getattr(fields_mod, name)
        monkeypatch.setattr(fields_mod, name, lambda *a, _f=original, _n=name: built.append(_n) or _f(*a))
    got = sample_velocity(state, pts, scheme)
    assert got.shape == (300, dim)
    assert got.tobytes() == expected.tobytes()
    assert built == ["_phase_tables" if scheme == "spectral" else "_stencil"]


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
    state = FluidState(grid, np.stack([1.0 + eps * np.cos(xx + yy), np.zeros(grid.shape), np.zeros(grid.shape)]))
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
    state = FluidState(grid, np.stack([1.0 + 0.05 * np.sin(xx) * np.cos(yy), 0.05 * np.sin(xx), 0.05 * np.cos(yy)]))
    cfg = EulerConfig(dt=1e-3, guard_s=4.5)
    sigma = SigmaField("sinusoidal", 0.2, 0.5, TWO_PI)
    path = NoisePath.generate(6, 0, 50, 2, 1e-3)
    mass0 = state.mass()
    for dB in path.increments:
        state = step(state, dB, sigma, cfg)
    assert abs(state.mass() - mass0) < 1e-10 * abs(mass0)
    assert np.all(np.isfinite(state.rho.values))

    const = FluidState(grid, np.stack([np.full(grid.shape, c) for c in (1.2, 0.3, -0.2)]))
    du = drift_rhs(const, cfg)
    assert du.shape == (3,) + grid.shape
    assert np.max(np.abs(du)) < 1e-13


def test_hyperviscosity_damps_tail():
    grid = PeriodicGrid(1, 128, TWO_PI)
    noise_vals = 1.0 + 1e-6 * np.cos(60 * grid.axis_coords)
    state = FluidState(grid, np.stack([noise_vals, np.zeros(grid.shape)]))
    cfg = EulerConfig(dt=1e-2, hyperviscosity_nu=10.0, hyperviscosity_order=4)
    sigma = SigmaField("constant", 0.0)
    for _ in range(50):
        state = step(state, np.zeros(1), sigma, cfg)
    coeffs = np.abs(np.fft.fft(state.rho.values)) / grid.points_per_dim
    assert coeffs[60] < 0.25e-6


def _concatenating_rhs(u_hat, grid, config):
    """The right-hand side built with ``np.concatenate`` and new arrays for every intermediate: the reference
    for the staged one, which must keep its every floating-point operation in order."""
    ilam, dealias, hyper = fluid_mod._workspace(
        grid, config.dealias_fraction, config.hyperviscosity_nu, config.hyperviscosity_order
    )
    dim = grid.dim
    grad_hat = (ilam[:, None] * u_hat[None, 1:]).reshape((dim * dim,) + u_hat.shape[1:])
    values = grid.irfft(np.concatenate((u_hat, grad_hat)))
    rho, vel = values[0], values[1 : 1 + dim]
    grad = values[1 + dim :].reshape((dim, dim) + grid.shape)
    advect = (vel[:, None] * grad).sum(axis=0)
    products_hat = grid.rfft(np.concatenate((rho * vel, advect))) * dealias
    flux_hat, advect_hat = products_hat[:dim], products_hat[dim:]
    du_hat = np.empty_like(u_hat)
    du_hat[0] = np.subtract.reduce(np.concatenate(([hyper * u_hat[0]], ilam * flux_hat)))
    du_hat[1:] = -advect_hat - ilam * u_hat[0] + hyper * u_hat[1:]
    return du_hat


def _concatenating_step(state, dB, sigma, config):
    """One Strang step with the reference right-hand side and new arrays for every RK4 stage."""
    grid, dt = state.grid, config.dt
    out = noise_step(state, dB, sigma, scale=0.5)
    u0 = grid.rfft(out.u)
    k1 = _concatenating_rhs(u0, grid, config)
    k2 = _concatenating_rhs(u0 + 0.5 * dt * k1, grid, config)
    k3 = _concatenating_rhs(u0 + 0.5 * dt * k2, grid, config)
    k4 = _concatenating_rhs(u0 + dt * k3, grid, config)
    out = FluidState(grid, grid.irfft(u0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), out.time + dt)
    out = noise_step(out, dB, sigma, scale=0.5)
    out.step_index = state.step_index + 1
    return out


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_staged_step_equals_the_concatenating_step_bitwise(dim, m):
    grid = PeriodicGrid(dim, m, TWO_PI)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, TWO_PI)
    cfg = EulerConfig(dt=1e-3, hyperviscosity_nu=1e-3, guard_s=dim / 2.0 + 3.0, guard_m=math.inf)
    path = NoisePath.generate(3, 0, 20, dim, cfg.dt)
    state = reference = FluidState(grid, _random_state(grid, 40 + dim))
    for dB in path.increments:
        state, reference = step(state, dB, sigma, cfg), _concatenating_step(reference, dB, sigma, cfg)
        assert state.u.tobytes() == reference.u.tobytes()
        assert (state.time, state.step_index) == (reference.time, reference.step_index)
    u = FluidState(grid, _random_state(grid, 50 + dim)).u
    assert drift_rhs(FluidState(grid, u), cfg).tobytes() == grid.irfft(_concatenating_rhs(grid.rfft(u), grid, cfg)).tobytes()


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_stepped_states_hold_fresh_arrays(dim, m):
    # the stage arrays are the step's own: two states stepped from one keep their values
    grid = PeriodicGrid(dim, m, TWO_PI)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, TWO_PI)
    cfg = EulerConfig(dt=1e-3, guard_s=dim / 2.0 + 3.0, guard_m=math.inf)
    start = FluidState(grid, _random_state(grid, 60 + dim))
    before = start.u.copy()
    first = step(start, np.full(dim, 0.1), sigma, cfg)
    kept = first.u.copy()
    second = step(start, np.full(dim, -0.1), sigma, cfg)
    drifted = step_drift(start, cfg.dt, cfg)
    assert not np.shares_memory(first.u, second.u) and not np.shares_memory(first.u, drifted.u)
    assert np.array_equal(first.u, kept) and np.array_equal(start.u, before)
    assert not np.array_equal(first.u, second.u)


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_a_step_makes_one_noise_factor_and_two_states(dim, m, monkeypatch):
    # both Strang halves multiply by one exp(sigma dB / 2), each evaluation reading sigma.on_grid once;
    # the states built are the pre-drift one and the drift's, and the drift runs through the module
    counts = {"factor": 0, "state": 0, "drift": 0}
    on_grid, post_init, drift = SigmaField.on_grid, FluidState.__post_init__, fluid_mod.step_drift

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def no_noise_step(*args, **kwargs):
        raise AssertionError("step called noise_step")

    grid = PeriodicGrid(dim, m, TWO_PI)
    state = FluidState(grid, _random_state(grid, 70 + dim))
    monkeypatch.setattr(SigmaField, "on_grid", counted("factor", on_grid))
    monkeypatch.setattr(FluidState, "__post_init__", counted("state", post_init))
    monkeypatch.setattr(fluid_mod, "step_drift", counted("drift", drift))
    monkeypatch.setattr(fluid_mod, "noise_step", no_noise_step)
    cfg = EulerConfig(dt=1e-3, guard_s=dim / 2.0 + 3.0, guard_m=1e300)
    out = step(state, np.full(dim, 0.1), SigmaField("sinusoidal", 0.3, 0.5, TWO_PI), cfg)
    assert not out.stopped and out.step_index == 1
    assert counts == {"factor": 1, "state": 2, "drift": 1}


def test_stopped_is_read_from_the_stopping_record():
    grid = PeriodicGrid(1, 16, TWO_PI)
    u = _random_state(grid, 80)
    with pytest.raises(TypeError):
        FluidState(grid, u, stopped=True)
    state = FluidState(grid, u)
    assert not state.stopped
    with pytest.raises(AttributeError):
        state.stopped = True
    record = fluid_mod.StoppingRecord(3, 0.5, 2.0, 1.0)
    assert FluidState(grid, u, stopping=record).stopped


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_a_guarded_step_carries_the_record_of_the_reference_step(dim, m):
    grid = PeriodicGrid(dim, m, TWO_PI)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, TWO_PI)
    cfg = EulerConfig(dt=1e-3, hyperviscosity_nu=1e-3, guard_s=dim / 2.0 + 3.0, guard_m=1e-3)
    state = FluidState(grid, _random_state(grid, 90 + dim), time=0.25, step_index=7)
    dB = np.full(dim, 0.05)
    out = step(state, dB, sigma, cfg)
    expected = stopping_guard(_concatenating_step(state, dB, sigma, cfg), cfg).stopping
    assert out.stopped and out.stopping == expected
    assert (expected.step_index, expected.time) == (8, 0.25 + cfg.dt)


def test_the_strang_step_is_galilean_boost_covariant():
    # with constant sigma, (rho, v) -> (rho(x - s), v(x - s) + c exp(sigma B_t)) with ds = c exp(sigma B_t) dt maps
    # solutions to solutions; the Strang step translates during its drift by the offset after the first
    # half factor, c exp(sigma (B_n + dB_n / 2)) dt, to roundoff (a Lie step, noise after drift, misses by ~1e-6)
    m, c, dt, sigma0 = 512, 0.3, 1e-3, 0.25
    grid = PeriodicGrid(1, m, TWO_PI)
    sigma = SigmaField("constant", sigma0)
    cfg = EulerConfig(dt=dt, guard_m=math.inf)
    path = NoisePath.generate(5, 0, 200, 1, dt)
    dB = path.increments[:, 0]
    B = np.concatenate(([0.0], np.cumsum(dB)))
    plain = make_fluid_state(grid, DensityProfile(), VelocityProfile("sine", 0.1, TWO_PI))
    boosted = FluidState(grid, plain.u + np.array([[0.0], [c]]))
    for inc in path.increments:
        plain, boosted = step(plain, inc, sigma, cfg), step(boosted, inc, sigma, cfg)
    s = np.sum(c * np.exp(sigma0 * (B[:-1] + 0.5 * dB)) * dt)
    lam = np.fft.rfftfreq(m, 1.0 / m)
    expected = np.fft.irfft(np.fft.rfft(plain.u) * np.exp(-1j * lam * s), m)
    expected[1] += c * math.exp(sigma0 * B[-1])
    assert np.max(np.abs(boosted.u[0] - expected[0])) < 1e-12
    assert np.max(np.abs(boosted.u[1] - expected[1])) < 1e-12
