"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 7 executes the full default rate study and
dominates the runtime (about 23 s on 2 cores).
"""

import math
import time

import numpy as np
import pytest

from mfeuler.cli import main
from mfeuler.config import RunConfig, validate
from mfeuler.coupling import fit_loglog, monte_carlo_rate
from mfeuler.errors import AlphaTooSmall
from mfeuler.fields import (
    EmpiricalMeasure,
    PeriodicGrid,
    box_spectra,
    measure_mode_coefficients,
    neg_sobolev_distance,
    sobolev_mode_sum,
)
from mfeuler.fluid import (
    EulerConfig,
    make_fluid_state,
    state_norm,
    step as fluid_step,
    step_drift,
)
from mfeuler.kernels import MollifierSpec, ScaledKernel, mollification_error_ratio
from mfeuler.noise import NoisePath, SigmaField
from mfeuler.particles import ParticleState, force_direct, force_particle_mesh, init_well_prepared, step as particle_step
from mfeuler.profiles import DensityProfile, VelocityProfile
from sde_oracles import ito_reference

TWO_PI = 2.0 * math.pi


def test_criterion_1_force_path_equivalence():
    """d=1, N=1024, M=256, gaussian, beta=0.5: PM force within 1e-3 of direct."""
    t0 = time.time()
    grid = PeriodicGrid(1, 256, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 4.0, 1), 1024, 0.5)
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    stratified = init_well_prepared(dens, vel, 1024, scheme="stratified")
    rng = np.random.default_rng(2024)
    uniform = ParticleState(rng.random((1024, 1)) * TWO_PI, np.zeros((1024, 1)))
    worst = 0.0
    for state in (stratified, uniform):
        fd = force_direct(state.positions, kern, grid.period)
        fp = force_particle_mesh(state, [kern], grid)
        worst = max(worst, float(np.max(np.abs(fd - fp)) / np.max(np.abs(fd))))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: force paths agree (max rel dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_stratonovich_noise_exactness():
    """Exact noise factor at any dt; Ito-corrected Euler oracle converges at order one."""
    sigma = SigmaField("constant", 0.3)
    kern = ScaledKernel(MollifierSpec("gaussian", 0.05, 1), 1, 0.5)  # negligible force
    finest = 2**12
    horizon = 1.0

    # pathwise exactness of the splitting scheme for several step sizes
    worst_rel = 0.0
    for level in (2, 6, 12):
        path = NoisePath.generate(31, 0, finest, 1, horizon / finest).coarsen(2 ** (12 - level))
        state = ParticleState(np.array([[1.0]]), np.array([[1.0]]))
        for dB in path.increments:
            state = particle_step(state, dB, path.dt, [kern], sigma, TWO_PI, method="direct")
        exact = math.exp(0.3 * path.terminal()[0])
        worst_rel = max(worst_rel, abs(state.velocities[0, 0] - exact) / abs(exact))
    assert worst_rel < 1e-12

    # strong error of the Ito-form oracles under common-path refinement,
    # averaged over independent paths; the corrected (order-one Ito-Taylor)
    # scheme must show slope 1.0 +- 0.3, and the plain Euler-Maruyama scheme
    # must converge to the same terminal value (its theoretical strong order
    # is one half)
    levels = list(range(6, 13))
    paths = [NoisePath.generate(2024, sample, finest, 1, horizon / finest) for sample in range(32)]
    exact = np.array([math.exp(0.3 * path.terminal()[0]) for path in paths])
    errs = {}
    for j in levels:
        coarse = [path.coarsen(2 ** (12 - j)) for path in paths]
        increments = np.stack([c.increments for c in coarse], axis=1)  # (steps, paths, 1): one path per row
        for scheme in ("euler", "corrected"):
            v = ito_reference(np.ones((32, 1)), np.full((32, 1), 3.0), sigma, increments, coarse[0].dt, TWO_PI, scheme)
            errs[(scheme, j)] = np.abs(v[:, 0] - exact)
    dts = [horizon / 2**j for j in levels]
    slope_corr, _, _ = fit_loglog(dts, [np.mean(errs[("corrected", j)]) for j in levels])
    slope_em, _, _ = fit_loglog(dts, [np.mean(errs[("euler", j)]) for j in levels])
    em_final = np.mean(errs[("euler", 12)])
    assert abs(slope_corr - 1.0) <= 0.3
    assert slope_em > 0.25 and em_final < 2e-3
    print(
        f"\nACCEPTANCE 2 PASS: noise factor exact ({worst_rel:.2e}); corrected-Euler slope "
        f"{slope_corr:.3f} in 1.0+-0.3 (plain EM slope {slope_em:.3f})"
    )


def test_criterion_3_spde_conservation_and_reduction():
    """Default 1-d run, 1000 steps: mass drift, bitwise reduction, order >= 3.5."""
    grid = PeriodicGrid(1, 512, TWO_PI)
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    sigma = SigmaField("sinusoidal", 0.25, 0.5, TWO_PI)
    cfg = EulerConfig(dt=1e-3)
    state = make_fluid_state(grid, dens, vel)
    path = NoisePath.generate(12345, 0, 1000, 1, 1e-3)
    mass0 = state.mass()
    min_rho = math.inf
    for dB in path.increments:
        state = fluid_step(state, dB, sigma, cfg)
        min_rho = min(min_rho, state.min_density())
    drift = abs(state.mass() - mass0) / abs(mass0)
    assert drift < 1e-8
    assert not state.stopped
    assert min_rho > 0.1

    zero_sigma = SigmaField("constant", 0.0)
    state_a = make_fluid_state(grid, dens, vel)
    state_b = make_fluid_state(grid, dens, vel)
    for dB in path.increments[:200]:
        state_a = fluid_step(state_a, dB, zero_sigma, cfg)
        state_b = step_drift(state_b, cfg.dt, cfg)
    assert np.array_equal(state_a.rho.values, state_b.rho.values)
    assert all(
        np.array_equal(a.values, b.values) for a, b in zip(state_a.velocity, state_b.velocity)
    )

    conv_grid = PeriodicGrid(1, 128, TWO_PI)
    conv_dens = DensityProfile("sine", 0.3, period=TWO_PI, normalize=False)
    conv_vel = VelocityProfile("sine", 0.3, TWO_PI)

    def run(dt):
        st = make_fluid_state(conv_grid, conv_dens, conv_vel)
        c = EulerConfig(dt=dt, hyperviscosity_nu=0.0)
        for _ in range(int(round(0.4 / dt))):
            st = fluid_step(st, np.zeros(1), zero_sigma, c)
        return st

    ref = run(3.125e-4)
    errors, dts = [], []
    for dt in (2e-2, 1e-2, 5e-3, 2.5e-3):
        st = run(dt)
        errors.append(
            np.max(np.abs(st.rho.values - ref.rho.values))
            + np.max(np.abs(st.velocity[0].values - ref.velocity[0].values))
        )
        dts.append(dt)
    order, _, _ = fit_loglog(dts, errors)
    assert order >= 3.5
    print(
        f"\nACCEPTANCE 3 PASS: mass drift {drift:.2e} < 1e-8, bitwise sigma=0 reduction, "
        f"self-convergence order {order:.2f} >= 3.5"
    )


def test_criterion_4_stopping_guard():
    """Steepening run with m=5 stops, freezes diagnostics, refuses further steps."""
    grid = PeriodicGrid(1, 256, TWO_PI)
    dens = DensityProfile("sine", 0.3, period=TWO_PI, normalize=False)
    vel = VelocityProfile("sine", 0.5, TWO_PI)
    state = make_fluid_state(grid, dens, vel)
    cfg = EulerConfig(dt=5e-4, guard_s=3.5, guard_m=5.0, hyperviscosity_nu=0.0)
    assert state_norm(state, cfg.guard_s) < cfg.guard_m
    sigma = SigmaField("constant", 0.0)
    steps = 0
    while not state.stopped and steps < 8000:
        state = fluid_step(state, np.zeros(1), sigma, cfg)
        steps += 1
    assert state.stopped
    record = state.stopping
    assert record.norm_value >= 5.0
    frozen_rho = state.rho.values.copy()
    frozen_time = state.time
    again = fluid_step(state, np.array([0.7]), sigma, cfg)
    assert again is state
    assert again.time == frozen_time
    np.testing.assert_array_equal(again.rho.values, frozen_rho)
    assert again.stopping == record
    print(
        f"\nACCEPTANCE 4 PASS: guard fired at t={record.time:.3f} (norm {record.norm_value:.3f} >= 5), "
        "diagnostics frozen, stepping refused"
    )


def test_criterion_5_negative_sobolev_oracle():
    """Dirac vs zero field matches the direct lattice sum; small alpha rejected."""
    grid = PeriodicGrid(1, 128, TWO_PI)
    measure = EmpiricalMeasure(np.zeros((1, 1)))
    cutoff = 32
    # the bare alpha = 1 sum, which the distance refuses, from the mode sum of the Dirac's phase sums over h
    phase_sums = measure_mode_coefficients(measure, grid, cutoff).T / grid.cell_volume
    value = math.sqrt(sobolev_mode_sum(phase_sums, -1.0, grid, cutoff))
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    direct = math.sqrt((1.0 / TWO_PI) * np.sum((1.0 + k**2) ** -1.0))
    assert abs(value - direct) <= 1e-12
    zero = box_spectra(np.zeros((1,) + grid.shape), grid, cutoff)
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, zero, 1.0, grid, cutoff)
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, zero, 1.5, grid, cutoff)
    print(f"\nACCEPTANCE 5 PASS: Dirac oracle matches direct sum to {abs(value - direct):.1e}; alpha guard rejects")


def test_criterion_6_smoothing_error_sweep():
    """f=sin ratio sweep stays bounded by twice its first value over N = 2^4..2^14."""
    spec = MollifierSpec("gaussian", 1.0, 1)
    probes = np.linspace(0.0, TWO_PI, 65)
    ratios = []
    for j in range(4, 15):
        kern = ScaledKernel(spec, 2**j, 0.5)
        ratios.append(mollification_error_ratio(kern, lambda x: np.sin(x[:, 0]), 1.0, probes[:, None]))
    assert all(r <= 2.0 * ratios[0] for r in ratios)
    assert all(r >= 0.0 for r in ratios)
    print(
        f"\nACCEPTANCE 6 PASS: smoothing ratios bounded by 2x first value "
        f"(first {ratios[0]:.3e}, max {max(ratios):.3e})"
    )


def test_criterion_7_rate_study():
    """Default study: negative slopes, Q slope <= -0.25 after floor subtraction."""
    t0 = time.time()
    cfg = validate(RunConfig())
    assert cfg.study.n_values == (256, 512, 1024, 2048, 4096, 8192)
    assert cfg.study.samples == 32
    assert cfg.kernel.beta == 0.5 and cfg.study.alpha == 2.0
    assert cfg.study.t_final == 0.2 and cfg.integrator.dt == 1e-3
    result = monte_carlo_rate(cfg)
    elapsed = time.time() - t0
    assert int(result.censored_counts.max()) == 0
    assert result.slope_q is not None and result.slope_q < 0.0
    assert result.slope_dist_s is not None and result.slope_dist_s < 0.0
    assert result.slope_dist_v is not None and result.slope_dist_v < 0.0
    assert result.slope_q_adjusted is not None and result.slope_q_adjusted <= -0.25
    assert elapsed < 900.0
    print(
        f"\nACCEPTANCE 7 PASS: slopes q={result.slope_q:.3f} (adjusted {result.slope_q_adjusted:.3f} "
        f"<= -0.25), dist_S={result.slope_dist_s:.3f}, dist_V={result.slope_dist_v:.3f}, "
        f"0 censored, {elapsed:.0f}s"
    )


def test_criterion_8_determinism_across_threads(tmp_path):
    """Same seed, different thread counts: byte-identical CSV artifacts."""
    cfg = RunConfig()
    cfg.grid.points_per_dim = 256
    cfg.particles.n = 256
    cfg.study.t_final = 0.05
    cfg.study.n_values = (128, 256, 512)
    cfg.study.samples = 4
    validate(cfg)
    cfg_path = tmp_path / "study.ini"
    cfg_path.write_text(cfg.to_text())
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        code = main(
            ["rate-study", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outs[threads] = (out / "rate.csv").read_bytes()
    assert outs[1] == outs[4]

    run_outs = {}
    for threads in (1, 4):
        out = tmp_path / f"rc{threads}"
        code = main(
            ["run-coupled", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        run_outs[threads] = (out / "q_series.csv").read_bytes()
    assert run_outs[1] == run_outs[4]
    print("\nACCEPTANCE 8 PASS: rate.csv and q_series.csv byte-identical across thread counts")
