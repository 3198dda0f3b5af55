import math

import numpy as np
import pytest

import mfeuler.coupling as coupling_mod
import mfeuler.fluid as fluid_mod
from mfeuler.config import RunConfig, validate
from mfeuler.coupling import (
    build_run,
    coupled_step,
    fit_loglog,
    mollified_density,
    monte_carlo_rate,
    q_functional,
    mean_field_distances,
    _run_sample,
)
from mfeuler.errors import DegenerateFit
from mfeuler.fields import GridField, PeriodicGrid
from mfeuler.fluid import EulerConfig, FluidState, state_norm
from mfeuler.kernels import MollifierSpec, ScaledKernel
from mfeuler.noise import NoisePath, SigmaField
from mfeuler.particles import ParticleState

TWO_PI = 2.0 * math.pi


def tiny_config(**overrides):
    cfg = RunConfig()
    cfg.grid.points_per_dim = 128
    cfg.particles.n = 128
    cfg.study.t_final = 0.02
    cfg.study.n_values = (64, 128, 256)
    cfg.study.samples = 3
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    return validate(cfg)


def test_q_additivity_bit_exact():
    cfg = tiny_config()
    run = build_run(cfg)
    rec = q_functional(run)
    assert rec.q_total == rec.kinetic_term + rec.density_term
    assert rec.kinetic_term >= 0 and rec.density_term >= 0


def test_well_prepared_kinetic_term_zero_at_start():
    cfg = tiny_config()
    cfg.euler.velocity_interpolation = "spectral"
    run = build_run(cfg)
    rec = q_functional(run)
    # velocities sampled exactly from the profile; spectral reads are exact
    # for the band-limited initial velocity
    assert rec.kinetic_term < 1e-25


def test_single_particle_q_oracle():
    # one particle at x0 with velocity w against a prescribed fluid state
    # grid fine enough that the deposit alias floor sits below the 1e-6
    # comparison tolerance (off-node deposit error is bounded separately)
    grid = PeriodicGrid(1, 2048, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 0.6, 1), 1, 0.5)
    x0, w = float(grid.axis_coords[640]), 0.7
    rho_vals = (1.0 + 0.2 * np.cos(grid.axis_coords)) / TWO_PI
    vel_vals = 0.1 * np.sin(grid.axis_coords)
    fluid_state = FluidState(GridField(grid, rho_vals), (GridField(grid, vel_vals),))
    from mfeuler.coupling import CoupledRun

    run = CoupledRun(
        particles=ParticleState(np.array([[x0]]), np.array([[w]])),
        fluid=fluid_state,
        path=NoisePath.generate(0, 0, 1, 1, 1e-3),
        kernel=kern,
        grid=grid,
        sigma=SigmaField("constant", 0.0),
        euler_config=EulerConfig(dt=1e-3),
        velocity_interpolation="spectral",
    )
    rec = q_functional(run)
    # spectral reads of a single-mode velocity are exact
    v_at = 0.1 * math.sin(x0)
    assert rec.kinetic_term == pytest.approx((w - v_at) ** 2, rel=1e-9)
    # density term against a direct quadrature of |kernel(x - x0) - rho|^2
    fine = np.linspace(0, TWO_PI, 2**14, endpoint=False)
    wrapped = (fine - x0 + math.pi) % TWO_PI - math.pi
    mol = np.asarray(kern.density(wrapped))
    rho_fine = (1.0 + 0.2 * np.cos(fine)) / TWO_PI
    expected = float(np.sum((mol - rho_fine) ** 2) * (fine[1] - fine[0]))
    assert rec.density_term == pytest.approx(expected, abs=1e-6)


def test_coupled_step_deterministic():
    cfg = tiny_config()
    runs = []
    for _ in range(2):
        run = build_run(cfg)
        for _ in range(10):
            run = coupled_step(run)
        runs.append(run)
    np.testing.assert_array_equal(runs[0].particles.positions, runs[1].particles.positions)
    np.testing.assert_array_equal(runs[0].particles.velocities, runs[1].particles.velocities)
    np.testing.assert_array_equal(runs[0].fluid.rho.values, runs[1].fluid.rho.values)


def test_zero_sigma_decouples():
    cfg = tiny_config(**{"sigma.base": 0.0, "sigma.family": "constant"})
    run = build_run(cfg)
    import mfeuler.fluid as fluid_mod
    import mfeuler.particles as particles_mod

    p_ref = run.particles
    f_ref = run.fluid
    for i in range(10):
        run = coupled_step(run)
        p_ref = particles_mod.step(
            p_ref, np.zeros(1), cfg.integrator.dt, run.kernel, run.sigma, run.grid.period,
            method=run.force_method, grid=run.grid, deposit_scheme=run.deposit_scheme,
        )
        f_ref = fluid_mod.step(f_ref, np.zeros(1), run.sigma, run.euler_config)
    np.testing.assert_array_equal(run.particles.positions, p_ref.positions)
    np.testing.assert_array_equal(run.fluid.rho.values, f_ref.rho.values)


def test_frozen_run_diagnostics_stable():
    from mfeuler.fluid import state_norm

    cfg = tiny_config(**{"study.t_final": 0.05})
    cfg.init.velocity_amplitude = 0.4
    probe = build_run(cfg)
    # guard threshold just above the initial norm: fires within a few steps
    cfg.euler.guard_m = 1.0002 * state_norm(probe.fluid, cfg.euler.guard_s)
    run = build_run(cfg)
    assert not run.fluid.stopped
    for _ in range(50):
        run = coupled_step(run)
    assert run.fluid.stopped, "guard never fired in the steepening run"
    frozen_rec = q_functional(run)
    frozen_pos = run.particles.positions.copy()
    again = coupled_step(run)
    assert again.fluid.stopping == run.fluid.stopping
    np.testing.assert_array_equal(again.particles.positions, frozen_pos)
    rec2 = q_functional(again)
    assert rec2 == frozen_rec
    assert frozen_rec.stopped


@pytest.mark.parametrize("tight_guard", [False, True], ids=["default_guard", "tight_guard"])
def test_rate_sample_systems_match_solo_runs(monkeypatch, tight_guard):
    cfg = tiny_config(**{"study.t_final": 0.05, "init.velocity_amplitude": 0.4})
    if tight_guard:
        # threshold just above the initial norm: fires within a few steps
        cfg.euler.guard_m = 1.0002 * state_norm(build_run(cfg).fluid, cfg.euler.guard_s)
    n_steps = int(round(cfg.study.t_final / cfg.integrator.dt))

    fluid_steps = []
    final_runs = []
    fluid_step = fluid_mod.step
    distances = coupling_mod.mean_field_distances

    def counted_step(state, *args):
        fluid_steps.append(state.step_index)
        return fluid_step(state, *args)

    def recorded_distances(run, *args):
        final_runs.append(run)
        return distances(run, *args)

    monkeypatch.setattr(fluid_mod, "step", counted_step)
    monkeypatch.setattr(coupling_mod, "mean_field_distances", recorded_distances)
    result = _run_sample(cfg, 1)
    monkeypatch.undo()

    if tight_guard:
        stop_step = final_runs[0].fluid.stopping.step_index
        assert result.censored and 0 < stop_step < n_steps
    else:
        stop_step = n_steps
        assert not result.censored
    # the shared fluid steps once per increment, for all N together
    assert fluid_steps == list(range(stop_step))
    for j, n in enumerate(cfg.study.n_values):
        solo = build_run(cfg, 1, n_particles=n)
        for _ in range(n_steps):
            solo = coupled_step(solo)
        inside = final_runs[j]
        assert inside.particles.n_particles == n
        np.testing.assert_array_equal(inside.particles.positions, solo.particles.positions)
        np.testing.assert_array_equal(inside.particles.velocities, solo.particles.velocities)
        assert result.qT[j] == q_functional(solo).q_total
        assert solo.step_index == stop_step
        if tight_guard:
            # a step after the stop changes nothing
            assert coupled_step(solo) is solo
        else:
            with pytest.raises(IndexError, match="noise path exhausted"):
                coupled_step(solo)


def test_mean_field_distances_permutation_invariant():
    cfg = tiny_config()
    run = build_run(cfg)
    d1 = mean_field_distances(run, 2.0)
    rng = np.random.default_rng(0)
    perm = rng.permutation(run.particles.n_particles)
    from dataclasses import replace

    shuffled = replace(
        run,
        particles=ParticleState(
            run.particles.positions[perm], run.particles.velocities[perm], run.particles.time
        ),
    )
    d2 = mean_field_distances(shuffled, 2.0)
    assert d1[0] == pytest.approx(d2[0], rel=1e-12)
    assert d1[1] == pytest.approx(d2[1], rel=1e-12)


def test_mean_field_distances_initial_sweep_decreases():
    values = []
    for n in (256, 1024, 4096):
        cfg = tiny_config(**{"particles.n": n, "grid.points_per_dim": 512})
        run = build_run(cfg)
        ds, dv = mean_field_distances(run, 2.0)
        values.append((ds, dv))
    assert values[0][0] > values[1][0] > values[2][0]
    assert values[0][1] > values[1][1] > values[2][1]


def test_fit_loglog_cases():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, r2 = fit_loglog(xs, 3.0 * xs**-0.5)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _, r2 = fit_loglog(xs, np.full(4, 2.0))
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0
    rng = np.random.default_rng(1)
    ys = xs**-1.0 * (1.0 + 1e-3 * rng.standard_normal(4))
    slope, _, _ = fit_loglog(xs, ys)
    assert slope == pytest.approx(-1.0, abs=0.01)
    with pytest.raises(DegenerateFit):
        fit_loglog([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateFit):
        fit_loglog([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateFit):
        fit_loglog([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


def test_rate_study_t0_baseline():
    cfg = tiny_config(**{"study.t_final": 0.0, "study.samples": 4, "grid.points_per_dim": 256})
    cfg.study.n_values = (128, 256, 512, 1024)
    res = monte_carlo_rate(cfg)
    assert res.slope_q is not None and res.slope_q < 0
    np.testing.assert_array_equal(res.mean_q, res.mean_q0)
    assert np.all(res.censored_counts == 0)


def test_rate_study_common_random_numbers_and_isolation():
    cfg = tiny_config(**{"study.samples": 2})
    # the per-sample path depends only on (master_seed, sample): identical
    # bytes across all N by construction
    path_a = NoisePath.generate(cfg.run.master_seed, 1, 20, 1, cfg.integrator.dt)
    path_b = NoisePath.generate(cfg.run.master_seed, 1, 20, 1, cfg.integrator.dt)
    np.testing.assert_array_equal(path_a.increments, path_b.increments)
    # sample results do not depend on which other samples ran
    r_solo = _run_sample(cfg, 1)
    res = monte_carlo_rate(cfg)
    r_batch = _run_sample(cfg, 1)
    np.testing.assert_array_equal(r_solo.qT, r_batch.qT)
    assert res.samples == 2


def test_rate_study_thread_count_invariance():
    cfg = tiny_config(**{"study.samples": 4})
    res1 = monte_carlo_rate(cfg, threads=1)
    res4 = monte_carlo_rate(cfg, threads=4)
    np.testing.assert_array_equal(res1.mean_q, res4.mean_q)
    np.testing.assert_array_equal(res1.mean_dist_s, res4.mean_dist_s)
    np.testing.assert_array_equal(res1.mean_dist_v, res4.mean_dist_v)


def test_rate_study_single_n_degenerate_fit():
    cfg = tiny_config()
    cfg.study.n_values = (128,)
    cfg.study.samples = 2
    res = monte_carlo_rate(cfg)
    assert res.slope_q is None
    assert len(res.mean_q) == 1 and res.mean_q[0] > 0
    assert any("slope_q" in note for note in res.notes)


def test_rate_study_standard_error_scaling():
    base = tiny_config(**{"study.samples": 8})
    base.study.n_values = (128,)
    more = tiny_config(**{"study.samples": 32})
    more.study.n_values = (128,)
    se8 = monte_carlo_rate(base).se_q[0]
    se32 = monte_carlo_rate(more).se_q[0]
    # quadrupling the sample count halves the standard error (within tolerance)
    assert se32 == pytest.approx(se8 / 2.0, rel=0.6)


def test_2d_coupled_run_smoke():
    cfg = RunConfig()
    cfg.grid.dim = 2
    cfg.grid.points_per_dim = 64
    cfg.kernel.width = 0.8
    cfg.particles.n = 128
    cfg.particles.init_scheme = "iid"
    cfg.study.t_final = 0.01
    cfg.study.alpha = 2.5
    cfg.euler.guard_s = 4.5
    validate(cfg)
    run = build_run(cfg)
    mass0 = run.fluid.mass()
    for _ in range(10):
        run = coupled_step(run)
    rec = q_functional(run)
    assert math.isfinite(rec.q_total) and rec.q_total >= 0
    ds, dv = mean_field_distances(run, cfg.study.alpha)
    assert ds > 0 and dv > 0
    assert abs(run.fluid.mass() - mass0) < 1e-10
    assert run.particles.positions.shape == (128, 2)


def test_mollified_density_unit_mass():
    grid = PeriodicGrid(1, 256, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 2.0, 1), 128, 0.5)
    rng = np.random.default_rng(2)
    pts = rng.random((128, 1)) * TWO_PI
    mol = mollified_density(pts, kern, grid)
    assert mol.integral() == pytest.approx(1.0, abs=1e-10)
