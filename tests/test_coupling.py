import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mfeuler.coupling as coupling_mod
import mfeuler.fields as fields_mod
import mfeuler.fluid as fluid_mod
import mfeuler.particles as particles_mod
from mfeuler.config import RunConfig, validate
from mfeuler.coupling import (
    build_run,
    coupled_step,
    fit_loglog,
    mollified_density,
    monte_carlo_rate,
    q_functional,
    mean_field_distances,
    SAMPLE_COLUMNS,
    _run_sample,
)
from mfeuler.errors import DegenerateFit
from mfeuler.fields import PeriodicGrid
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
    (rec,) = q_functional(run)
    assert rec.q_total == rec.kinetic_term + rec.density_term
    assert rec.kinetic_term >= 0 and rec.density_term >= 0


@pytest.mark.parametrize("velocity_scheme", ["linear", "nearest"])
def test_q_functional_reads_the_velocity_through_the_pass_stencil(monkeypatch, velocity_scheme):
    # one stencil per gauge: with the deposit's scheme the velocity is read through the mollified density's
    # stencil, with another scheme by one fields.interpolate of the whole sweep; either reads sample_velocity's bits
    cfg = tiny_config(**{"euler.velocity_interpolation": velocity_scheme})
    run = build_run(cfg, 0, cfg.study.n_values)
    p = run.particles
    mismatch = p.velocities - fluid_mod.sample_velocity(run.fluid, p.positions, velocity_scheme)
    expected = [float(np.mean(rows)) for rows in p.split(np.sum(mismatch * mismatch, axis=1))]
    stencils, reads = [], []
    stencil = fields_mod._stencil
    for module in (fields_mod, particles_mod):
        monkeypatch.setattr(module, "_stencil", lambda *a: stencils.append(1) or stencil(*a))
    interpolate = fluid_mod.interpolate

    def counted(values, points, grid, scheme):
        reads.append((values.shape, points.shape))
        return interpolate(values, points, grid, scheme)

    monkeypatch.setattr(fluid_mod, "interpolate", counted)
    records = q_functional(run)
    assert [record.kinetic_term for record in records] == expected
    if velocity_scheme == "linear":
        assert (len(stencils), reads) == (1, [])
    else:
        assert (len(stencils), reads) == (2, [((1, 128), (64 + 128 + 256, 1))])


def test_well_prepared_kinetic_term_zero_at_start():
    cfg = tiny_config()
    cfg.euler.velocity_interpolation = "spectral"
    run = build_run(cfg)
    (rec,) = q_functional(run)
    # velocities sampled exactly from the profile; spectral reads are exact
    # for the band-limited initial velocity
    assert rec.kinetic_term < 1e-25


def test_lattice_transforms_run_only_in_fields(monkeypatch):
    # the Fourier layout belongs to fields: every other module transforms through grid.rfft / grid.irfft
    callers = set()
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def recorded(*args, _original=original, **kwargs):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    cfg = tiny_config()
    run = coupled_step(build_run(cfg))
    q_functional(run)
    mean_field_distances(run, cfg.study.alpha, run.grid.points_per_dim // 2)
    state_norm(run.fluid, cfg.euler.guard_s)
    grid = PeriodicGrid(2, 16, TWO_PI)
    rng = np.random.default_rng(5)
    fluid_mod.sample_velocity(FluidState(grid, rng.random((3,) + grid.shape)), rng.random((7, 2)) * TWO_PI, "spectral")
    assert callers == {"mfeuler.fields"}


def test_single_particle_q_oracle():
    # one particle at x0 with velocity w against a prescribed fluid state
    # grid fine enough that the deposit alias floor sits below the 1e-6
    # comparison tolerance (off-node deposit error is bounded separately)
    grid = PeriodicGrid(1, 2048, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 0.6, 1), 1, 0.5)
    x0, w = float(grid.axis_coords[640]), 0.7
    rho_vals = (1.0 + 0.2 * np.cos(grid.axis_coords)) / TWO_PI
    vel_vals = 0.1 * np.sin(grid.axis_coords)
    fluid_state = FluidState(grid, np.stack([rho_vals, vel_vals]))
    from mfeuler.coupling import CoupledRun

    run = CoupledRun(
        particles=ParticleState(np.array([[x0]]), np.array([[w]])),
        fluid=fluid_state,
        path=NoisePath.generate(0, 0, 1, 1, 1e-3),
        kernels=(kern,),
        sigma=SigmaField("constant", 0.0),
        euler_config=EulerConfig(dt=1e-3),
        velocity_interpolation="spectral",
    )
    (rec,) = q_functional(run)
    # spectral reads of a single-mode velocity are exact
    v_at = 0.1 * math.sin(x0)
    assert rec.kinetic_term == pytest.approx((w - v_at) ** 2, rel=1e-9)
    # density term against a direct quadrature of |kernel(x - x0) - rho|^2
    fine = np.linspace(0, TWO_PI, 2**14, endpoint=False)
    wrapped = (fine - x0 + math.pi) % TWO_PI - math.pi
    mol = kern.density(wrapped[:, None])
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
    p_ref = run.particles
    f_ref = run.fluid
    for i in range(10):
        run = coupled_step(run)
        p_ref = particles_mod.step(
            p_ref, np.zeros(1), cfg.integrator.dt, run.kernels, run.sigma, run.grid.period,
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
    (frozen_rec,) = q_functional(run)
    frozen_pos = run.particles.positions.copy()
    again = coupled_step(run)
    assert again.fluid.stopping == run.fluid.stopping
    np.testing.assert_array_equal(again.particles.positions, frozen_pos)
    (rec2,) = q_functional(again)
    assert rec2 == frozen_rec
    assert frozen_rec.stopped


def systems_of(run):
    """The (positions, velocities) rows of each system of a run, in order: views through ``split``."""
    p = run.particles
    return list(zip(p.split(p.positions), p.split(p.velocities)))


@pytest.mark.parametrize("tight_guard", [False, True], ids=["default_guard", "tight_guard"])
def test_rate_sample_systems_match_solo_runs(monkeypatch, tight_guard):
    cfg = tiny_config(**{"study.t_final": 0.05, "init.velocity_amplitude": 0.4})
    if tight_guard:
        # threshold just above the initial norm: fires within a few steps
        cfg.euler.guard_m = 1.0002 * state_norm(build_run(cfg).fluid, cfg.euler.guard_s)
    n_steps = int(round(cfg.study.t_final / cfg.integrator.dt))
    cutoff = cfg.grid.points_per_dim // 2

    fluid_steps = []
    particle_steps = []  # the particle counts of each particles.step call
    force_sweeps = []  # and of each force_particle_mesh call
    q_sweeps = []  # and of the run of each q_functional call
    distance_runs = []  # the run of each mean_field_distances call
    fluid_step = fluid_mod.step
    particle_step = particles_mod.step
    force = particles_mod.force_particle_mesh
    gauge = coupling_mod.q_functional
    distances = coupling_mod.mean_field_distances

    def counted_step(state, *args):
        fluid_steps.append(state.step_index)
        return fluid_step(state, *args)

    def counted_particle_step(state, *args, **kwargs):
        particle_steps.append(list(state.sizes))
        return particle_step(state, *args, **kwargs)

    def counted_force(state, *args):
        force_sweeps.append(list(state.sizes))
        return force(state, *args)

    def counted_gauge(run):
        q_sweeps.append(list(run.particles.sizes))
        return gauge(run)

    def recorded_distances(run, *args):
        distance_runs.append(run)
        return distances(run, *args)

    monkeypatch.setattr(fluid_mod, "step", counted_step)
    monkeypatch.setattr(particles_mod, "step", counted_particle_step)
    monkeypatch.setattr(particles_mod, "force_particle_mesh", counted_force)
    monkeypatch.setattr(coupling_mod, "q_functional", counted_gauge)
    monkeypatch.setattr(coupling_mod, "mean_field_distances", recorded_distances)
    table, censored = _run_sample(cfg, 1, cutoff)
    monkeypatch.undo()

    (final,) = distance_runs  # one distance call, on every N
    if tight_guard:
        stop_step = final.fluid.stopping.step_index
        assert censored and 0 < stop_step < n_steps
    else:
        stop_step = n_steps
        assert not censored
    # the shared fluid steps once per increment, and so does the particle-mesh pass, for all N together
    assert fluid_steps == list(range(stop_step))
    assert particle_steps == force_sweeps == [list(cfg.study.n_values)] * stop_step
    # the gauge reads every N at once, at t = 0 and at the end
    assert q_sweeps == [list(cfg.study.n_values)] * 2
    assert final.particles.sizes == cfg.study.n_values
    for j, (n, (pos, vel)) in enumerate(zip(cfg.study.n_values, systems_of(final))):
        solo = build_run(cfg, 1, (n,))
        (start,) = q_functional(solo)
        for _ in range(n_steps):
            solo = coupled_step(solo)
        assert len(pos) == n
        np.testing.assert_array_equal(pos, solo.particles.positions)
        np.testing.assert_array_equal(vel, solo.particles.velocities)
        (end,) = q_functional(solo)
        (dist_s,), (dist_v,) = mean_field_distances(solo, cfg.study.alpha, cutoff)
        expected = {"q0": start.q_total, "q": end.q_total, "dist_s": dist_s, "dist_v": dist_v}
        assert dict(zip(SAMPLE_COLUMNS, table[j].tolist())) == expected
        assert solo.step_index == stop_step
        if tight_guard:
            # a step after the stop changes nothing
            assert coupled_step(solo) is solo
        else:
            with pytest.raises(IndexError, match="noise path exhausted"):
                coupled_step(solo)


def test_sweep_run_holds_one_state_and_splits_into_one_system_runs():
    cfg = tiny_config()
    run = build_run(cfg, 1, cfg.study.n_values)
    assert run.particles.sizes == cfg.study.n_values
    assert run.particles.n_particles == sum(cfg.study.n_values)
    assert [kernel.n_particles for kernel in run.kernels] == list(cfg.study.n_values)
    for (pos, vel), kernel, n in zip(systems_of(run), run.kernels, cfg.study.n_values):
        solo = build_run(cfg, 1, (n,))
        assert solo.kernels == (kernel,)
        assert np.shares_memory(pos, run.particles.positions)
        np.testing.assert_array_equal(pos, solo.particles.positions)
        np.testing.assert_array_equal(vel, solo.particles.velocities)
    assert build_run(cfg).particles.sizes == (cfg.particles.n,)


@pytest.mark.parametrize("velocity_interpolation", ["linear", "nearest", "spectral"])
@pytest.mark.parametrize("deposit_scheme", ["nearest", "linear"])
@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_gauge_and_distances_equal_each_system_built_alone(dim, deposit_scheme, velocity_interpolation):
    # one deposit, one transform and one velocity read for every N give each system the bits it has alone
    edits = {
        "integrator.deposit_scheme": deposit_scheme,
        "euler.velocity_interpolation": velocity_interpolation,
        "study.t_final": 0.003,
    }
    if dim == 2:
        edits.update({
            "grid.dim": 2,
            "grid.points_per_dim": 64,
            "kernel.width": 1.0,
            "particles.init_scheme": "iid",
            "study.alpha": 2.5,
            "study.n_values": (256, 512, 1024),
        })
    cfg = tiny_config(**edits)
    alpha = cfg.study.alpha
    sweep = build_run(cfg, 2, cfg.study.n_values)
    solos = [build_run(cfg, 2, (n,)) for n in cfg.study.n_values]
    for steps in (0, 3):  # at t = 0, then after three steps
        for _ in range(steps):
            sweep = coupled_step(sweep)
            solos = [coupled_step(solo) for solo in solos]
        assert sweep.step_index == steps
        cutoff = sweep.grid.points_per_dim // 2
        alone = [(q_functional(solo), mean_field_distances(solo, alpha, cutoff)) for solo in solos]
        assert q_functional(sweep) == [record for (record,), _ in alone]
        dist_s, dist_v = mean_field_distances(sweep, alpha, cutoff)
        assert dist_s.tolist() == [ds for _, ((ds,), _) in alone]
        assert dist_v.tolist() == [dv for _, (_, (dv,)) in alone]


def test_mean_field_distances_permutation_invariant():
    cfg = tiny_config()
    run = build_run(cfg)
    cutoff = run.grid.points_per_dim // 2
    d1 = mean_field_distances(run, 2.0, cutoff)
    rng = np.random.default_rng(0)
    perm = rng.permutation(run.particles.n_particles)

    shuffled = replace(
        run,
        particles=ParticleState(
            run.particles.positions[perm], run.particles.velocities[perm], run.particles.time
        ),
    )
    d2 = mean_field_distances(shuffled, 2.0, cutoff)
    assert d1[0] == pytest.approx(d2[0], rel=1e-12)
    assert d1[1] == pytest.approx(d2[1], rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_mean_field_distances_transform_the_fluid_once_per_gauge(monkeypatch, dim):
    # one grid.rfft of the stacked (rho, rho v) serves every system of the sweep
    edits = {
        "grid.dim": 2,
        "grid.points_per_dim": 64,
        "kernel.width": 1.0,
        "particles.init_scheme": "iid",
        "study.alpha": 2.5,
        "study.n_values": (256, 512, 1024),
    }
    cfg = tiny_config(**(edits if dim == 2 else {}))
    run = coupled_step(build_run(cfg, 0, cfg.study.n_values))
    assert len(run.particles.sizes) == 3
    calls = []
    rfft = PeriodicGrid.rfft

    def counted(grid, values, out=None):
        calls.append(np.shape(values))
        return rfft(grid, values, out)

    monkeypatch.setattr(PeriodicGrid, "rfft", counted)
    dist_s, dist_v = mean_field_distances(run, cfg.study.alpha, run.grid.points_per_dim // 2)
    assert calls == [(1 + dim,) + run.grid.shape]
    assert dist_s.shape == dist_v.shape == (3,)


def test_mean_field_distances_initial_sweep_decreases():
    values = []
    for n in (256, 1024, 4096):
        cfg = tiny_config(**{"particles.n": n, "grid.points_per_dim": 512})
        run = build_run(cfg)
        (ds,), (dv,) = mean_field_distances(run, 2.0, run.grid.points_per_dim // 2)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_loglog_refuses_non_finite_values(bad):
    # a NaN or infinite point would give a NaN slope and a RuntimeWarning, not a note
    with pytest.raises(DegenerateFit, match="finite x and y"):
        fit_loglog([1.0, 2.0, 3.0], [1.0, bad, 2.0])
    with pytest.raises(DegenerateFit, match="finite x and y"):
        fit_loglog([1.0, bad, 3.0], [1.0, 2.0, 3.0])


def test_distances_refuse_an_empty_system_as_the_gauge_does():
    cfg = tiny_config()
    run = build_run(cfg, 0, (64, 64))
    p = run.particles
    run = replace(run, particles=ParticleState(p.positions[:64], p.velocities[:64], 0.0, (64, 0)))
    with pytest.raises(ValueError, match=r"system sizes \(64, 0\) include an empty system"):
        q_functional(run)
    with pytest.raises(ValueError, match=r"system sizes \(64, 0\) include an empty system"):
        mean_field_distances(run, cfg.study.alpha, 16)


def _comb_distance_sq(grid, n, alpha, cutoff):
    """dist_S^2 of a comb of n equal masses against the uniform density: (1/L) sum (1 + lambda_k^2)^-alpha
    over the box's modes k != 0 that n divides; the lattice holds the one mode M/2 = -M/2."""
    k = np.arange(-min(cutoff, grid.points_per_dim // 2 - 1), cutoff + 1)
    k = k[(k != 0) & (k % n == 0)]
    return float(np.sum((1.0 + (2.0 * np.pi * k / grid.period) ** 2) ** -alpha)) / grid.period


@pytest.mark.parametrize("n_values", [(64, 128, 256, 512, 1024), (256, 512, 1024, 2048, 4096, 8192)])
def test_uniform_flow_is_an_exact_equilibrium_of_the_coupled_sweep(n_values):
    # a uniform density moving at one velocity c, under constant sigma, solves both systems: the stratified
    # particles are a comb that translates, every particle's particle-mesh force is zero, and both sides'
    # velocity is c * exp(sigma B_t); Q vanishes and the distances are the comb's closed form
    c, sigma = 0.3, 0.25
    cfg = tiny_config(
        **{
            "grid.points_per_dim": 512,
            "init.density_family": "uniform",
            "init.velocity_family": "constant",
            "init.velocity_amplitude": c,
            "sigma.family": "constant",
            "sigma.base": sigma,
            "study.t_final": 0.2,
            "study.n_values": n_values,
        }
    )
    run = build_run(cfg, 0, n_values)
    grid, alpha, cutoff = run.grid, cfg.study.alpha, run.grid.points_per_dim // 2
    expected = np.array([_comb_distance_sq(grid, n, alpha, cutoff) for n in n_values])
    assert expected[0] > 0.0 and expected[-1] == 0.0
    for at_end in (False, True):
        if at_end:
            for _ in range(run.path.n_steps):
                run = coupled_step(run)
        p = run.particles
        for n, pos in zip(n_values, p.split(p.positions[:, 0])):
            gaps = np.diff(np.sort(pos), append=pos.min() + grid.period)
            assert np.max(np.abs(gaps - grid.period / n)) < 1e-12
        assert max(record.q_total for record in q_functional(run)) < 1e-20
        dist_s, dist_v = mean_field_distances(run, alpha, cutoff)
        inside = expected > 0.0
        np.testing.assert_allclose(dist_s[inside], expected[inside], rtol=1e-12, atol=0.0)
        assert np.all(dist_s[~inside] < 1e-24)
        speed = c * math.exp(sigma * float(np.sum(run.path.increments[: run.step_index])))
        np.testing.assert_allclose(dist_v[inside], speed**2 * dist_s[inside], rtol=1e-12, atol=0.0)
        assert np.all(dist_v[~inside] < 1e-24)
    assert run.step_index == run.path.n_steps and not run.fluid.stopped


_RATE_STUDY_MODULES = """
import sys
from mfeuler.config import RunConfig, validate
from mfeuler.coupling import monte_carlo_rate

cfg = RunConfig()
cfg.grid.points_per_dim = 128
cfg.study.t_final = 0.005
cfg.study.n_values = (64, 128, 256)
cfg.study.samples = 1
res = monte_carlo_rate(validate(cfg))
assert res.slope_q is not None, res.notes
print("numpy.ma" in sys.modules)
"""


def test_rate_study_does_not_import_numpy_ma():
    # numpy.ma takes about 17 ms to import, inside the wall time of every fresh study process
    src = os.path.dirname(os.path.dirname(coupling_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _RATE_STUDY_MODULES], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    cutoff = cfg.grid.points_per_dim // 2
    r_solo, _ = _run_sample(cfg, 1, cutoff)
    res = monte_carlo_rate(cfg)
    r_batch, _ = _run_sample(cfg, 1, cutoff)
    np.testing.assert_array_equal(r_solo, r_batch)
    assert res.samples == 2


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
    (rec,) = q_functional(run)
    assert math.isfinite(rec.q_total) and rec.q_total >= 0
    (ds,), (dv,) = mean_field_distances(run, cfg.study.alpha, run.grid.points_per_dim // 2)
    assert ds > 0 and dv > 0
    assert abs(run.fluid.mass() - mass0) < 1e-10
    assert run.particles.positions.shape == (128, 2)


@pytest.mark.parametrize("dim", [1, 2])
def test_study_evaluates_density_once_on_its_lattice(monkeypatch, dim):
    from mfeuler import profiles

    cfg = RunConfig()
    cfg.grid.points_per_dim = 64
    cfg.study.t_final = 0.002
    if dim == 2:
        cfg.grid.dim = 2
        cfg.kernel.width = 1.0
        cfg.particles.init_scheme = "iid"
        cfg.study.alpha = 2.5
    validate(cfg)
    profiles.DensityProfile.lattice_shape.cache_clear()
    shapes = []
    axis_term = profiles.DensityProfile._axis_term

    def counted(self, x):
        shapes.append(np.shape(x))
        return axis_term(self, x)

    monkeypatch.setattr(profiles.DensityProfile, "_axis_term", counted)
    for sample in (0, 1):
        coupling_mod.build_run(cfg, sample, (256, 1024, 2048))
    m = {1: 2**13, 2: 2**9}[dim]
    assert shapes.count((m,)) == 1  # the one lattice evaluation, on the axis coordinates
    assert (m**dim, dim) not in shapes  # and no lattice point cloud


def test_mollified_density_unit_mass():
    grid = PeriodicGrid(1, 256, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 2.0, 1), 128, 0.5)
    rng = np.random.default_rng(2)
    pts = rng.random((128, 1)) * TWO_PI
    (mol,) = mollified_density(ParticleState(pts, np.zeros_like(pts)), [kern], grid)
    assert np.sum(mol) * grid.cell_volume == pytest.approx(1.0, abs=1e-10)
