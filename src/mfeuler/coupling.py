"""Coupled particle/fluid runs and the Monte Carlo convergence-rate study.

Both subsystems consume the identical Brownian increment at every step (the
mean-field limit couples them pathwise through the common noise).  The
convergence gauge per run is

    Q(t) = (1/N) sum_k |V_k - v(X_k, t)|^2
           + || mollified empirical density - rho(., t) ||_{L2}^2,

and the study sweeps the particle count N, averaging Q(T) and the
negative-Sobolev distances over independent noise samples.  Common random
numbers: the noise path of sample m depends only on (master_seed, m), never
on N, so every N in the sweep sees identical path bytes.  The fluid state
does not depend on the particles at all, so one fluid solve per sample drives
the whole N sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import fluid as fluid_mod
from . import particles as particles_mod
from .config import RunConfig
from .errors import DegenerateFit
from .fields import (
    EmpiricalMeasure,
    GridField,
    PeriodicGrid,
    convolve,
    neg_sobolev_distance,
    neg_sobolev_tail_bound,
)
from .kernels import MollifierSpec, ScaledKernel
from .noise import NoisePath, SigmaField
from .profiles import DensityProfile, VelocityProfile


# ---------------------------------------------------------------------------
# Assembly from configuration
# ---------------------------------------------------------------------------


def make_grid(cfg: RunConfig) -> PeriodicGrid:
    g = cfg.grid
    return PeriodicGrid(g.dim, g.points_per_dim, g.period)


def make_kernel(cfg: RunConfig, n_particles: int) -> ScaledKernel:
    spec = MollifierSpec(cfg.kernel.family, cfg.kernel.width, cfg.grid.dim)
    return ScaledKernel(spec, n_particles, cfg.kernel.beta)


def make_sigma(cfg: RunConfig) -> SigmaField:
    return SigmaField(cfg.sigma.family, cfg.sigma.base, cfg.sigma.modulation, cfg.grid.period)


def make_profiles(cfg: RunConfig):
    i = cfg.init
    density = DensityProfile(
        i.density_family,
        i.density_amplitude,
        i.density_concentration,
        cfg.grid.period,
        cfg.grid.dim,
        i.normalize,
    )
    velocity = VelocityProfile(i.velocity_family, i.velocity_amplitude, cfg.grid.period)
    return density, velocity


def make_euler_config(cfg: RunConfig) -> fluid_mod.EulerConfig:
    e = cfg.euler
    return fluid_mod.EulerConfig(
        dt=cfg.integrator.dt,
        dealias_fraction=e.dealias_fraction,
        hyperviscosity_nu=e.hyperviscosity_nu,
        hyperviscosity_order=e.hyperviscosity_order,
        guard_s=e.guard_s,
        guard_m=e.guard_m,
    )


# ---------------------------------------------------------------------------
# Coupled run
# ---------------------------------------------------------------------------


@dataclass
class QRecord:
    time: float
    kinetic_term: float
    density_term: float
    q_total: float
    stopped: bool


@dataclass
class CoupledRun:
    particles: particles_mod.ParticleState
    fluid: fluid_mod.FluidState
    path: NoisePath
    kernel: ScaledKernel
    grid: PeriodicGrid
    sigma: SigmaField
    euler_config: fluid_mod.EulerConfig
    force_method: str = "particle_mesh"
    deposit_scheme: str = "linear"
    velocity_interpolation: str = "linear"
    step_index: int = 0

    @property
    def dt(self):
        return self.euler_config.dt

    @property
    def time(self):
        return self.fluid.time


def build_runs(cfg: RunConfig, sample_index: int, n_values, n_steps=None) -> list[CoupledRun]:
    """Assemble one fluid and noise path plus one particle system per N in ``n_values``.

    The runs share the grid, sigma, noise path and guarded fluid state; only
    the kernel and the particles depend on N.
    """
    grid = make_grid(cfg)
    sigma = make_sigma(cfg)
    density, velocity = make_profiles(cfg)
    euler_cfg = make_euler_config(cfg)
    euler_cfg.validate_guard_order(grid.dim)
    if n_steps is None:
        n_steps = int(round(cfg.study.t_final / cfg.integrator.dt))
    path = NoisePath.generate(cfg.run.master_seed, sample_index, n_steps, grid.dim, cfg.integrator.dt)
    fl = fluid_mod.stopping_guard(fluid_mod.make_fluid_state(grid, density, velocity), euler_cfg)
    return [
        CoupledRun(
            particles=particles_mod.init_well_prepared(
                density,
                velocity,
                n,
                grid.period,
                scheme=cfg.particles.init_scheme,
                master_seed=cfg.run.master_seed,
                seed_tags=(int(sample_index), n),
                dim=grid.dim,
            ),
            fluid=fl,
            path=path,
            kernel=make_kernel(cfg, n),
            grid=grid,
            sigma=sigma,
            euler_config=euler_cfg,
            force_method=cfg.integrator.force_method,
            deposit_scheme=cfg.integrator.deposit_scheme,
            velocity_interpolation=cfg.euler.velocity_interpolation,
        )
        for n in map(int, n_values)
    ]


def step_runs(runs: list[CoupledRun]) -> list[CoupledRun]:
    """Advance runs that share one fluid and path by one Brownian increment.

    Every particle system steps on the increment, then the shared fluid steps
    once.  Once the fluid guard has fired, the runs are frozen: both clocks
    stay at the stopping time and the states are returned unchanged.
    """
    head = runs[0]
    if head.fluid.stopped:
        return runs
    if head.step_index >= head.path.n_steps:
        raise IndexError("noise path exhausted")
    dB = head.path.increments[head.step_index]
    context = f"seed={head.path.master_seed} sample={head.path.sample_index} step={head.step_index}"
    stepped = [
        particles_mod.step(
            run.particles,
            dB,
            run.dt,
            run.kernel,
            run.sigma,
            run.grid.period,
            method=run.force_method,
            grid=run.grid,
            deposit_scheme=run.deposit_scheme,
            context=context,
        )
        for run in runs
    ]
    fl = fluid_mod.step(head.fluid, dB, head.sigma, head.euler_config)
    return [replace(run, particles=p, fluid=fl, step_index=run.step_index + 1) for run, p in zip(runs, stepped)]


def build_run(cfg: RunConfig, sample_index: int = 0, n_particles=None, n_steps=None) -> CoupledRun:
    """Assemble a one-system coupled run from a validated configuration."""
    return build_runs(cfg, sample_index, [cfg.particles.n if n_particles is None else n_particles], n_steps)[0]


def coupled_step(run: CoupledRun) -> CoupledRun:
    """Advance both subsystems of a one-system run by one shared Brownian increment."""
    return step_runs([run])[0]


def mollified_density(positions, kernel: ScaledKernel, grid: PeriodicGrid, scheme="linear") -> GridField:
    """Lattice samples of the mollified empirical density (deposit then convolve).

    The alias-suppressed deposit spectrum (window deconvolution plus
    interlacing) keeps the result on the direct particle sum
    (1/N) sum_j density(x - X_j) up to residual deposit aliasing.
    """
    positions = np.atleast_2d(positions)
    dens_hat = particles_mod.deposit_spectrum(positions, grid, scheme)
    field = GridField(grid, np.fft.ifftn(dens_hat).real)
    return convolve(
        field,
        particles_mod.sampled_mollifier(kernel, grid),
        mass_outside=kernel.mass_outside(grid.period / 2.0),
    )


def q_functional(run: CoupledRun) -> QRecord:
    """Evaluate the convergence gauge on the current (possibly frozen) states."""
    if abs(run.particles.time - run.fluid.time) > 1e-9 * max(1.0, run.fluid.time):
        raise ValueError("particle and fluid clocks are not aligned")
    vel_at = fluid_mod.sample_velocity(run.fluid, run.particles.positions, run.velocity_interpolation)
    mismatch = run.particles.velocities - vel_at
    kinetic = float(np.mean(np.sum(mismatch * mismatch, axis=1)))
    mol = mollified_density(run.particles.positions, run.kernel, run.grid, run.deposit_scheme)
    diff = mol.values - run.fluid.rho.values
    density = float(np.sum(diff * diff) * run.grid.cell_volume)
    return QRecord(run.fluid.time, kinetic, density, kinetic + density, run.fluid.stopped)


def mean_field_distances(run: CoupledRun, alpha: float, freq_cutoff=None):
    """Squared negative-Sobolev distances of the empirical measures to the fluid.

    Returns (||S - rho||^2, ||V - rho v||^2) evaluated at the current time
    (frozen at the stopping time if the guard fired), the two quantities the
    mean-field bound controls.
    """
    pos = run.particles.positions
    n = run.particles.n_particles
    s_measure = EmpiricalMeasure(pos)
    dist_s = neg_sobolev_distance(s_measure, run.fluid.rho, alpha, freq_cutoff)

    v_measure = EmpiricalMeasure(pos, run.particles.velocities / n)
    momentum_fields = [
        GridField(run.grid, run.fluid.rho.values * v.values) for v in run.fluid.velocity
    ]
    dist_v = neg_sobolev_distance(v_measure, momentum_fields, alpha, freq_cutoff)
    return dist_s**2, dist_v**2


# ---------------------------------------------------------------------------
# Log-log fitting and the rate study
# ---------------------------------------------------------------------------


def fit_loglog(xs, ys):
    """Ordinary least squares on (log x, log y): returns (slope, intercept, r2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise DegenerateFit(f"log-log fit needs at least 3 points, got {xs.size}")
    if np.unique(xs).size != xs.size:
        raise DegenerateFit("log-log fit needs distinct x values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateFit("log-log fit needs strictly positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return float(slope), float(intercept), r2


@dataclass
class RateResult:
    n_values: tuple
    mean_q: np.ndarray
    se_q: np.ndarray
    mean_q0: np.ndarray
    mean_dist_s: np.ndarray
    mean_dist_v: np.ndarray
    censored_counts: np.ndarray
    slope_q: float | None
    slope_q_adjusted: float | None
    slope_dist_s: float | None
    slope_dist_v: float | None
    r2_q: float | None
    beta: float
    dim: int
    alpha: float
    t_final: float
    guard_m: float
    samples: int
    freq_cutoff: int = 0
    dist_tail_bound: float = 0.0
    notes: tuple = ()

    @property
    def target_slope(self):
        return -self.beta / self.dim


@dataclass
class _SampleResult:
    q0: np.ndarray
    qT: np.ndarray
    dist_s: np.ndarray
    dist_v: np.ndarray
    censored: bool


def _run_sample(cfg: RunConfig, sample_index: int) -> _SampleResult:
    runs = build_runs(cfg, sample_index, cfg.study.n_values)
    q0 = np.array([q_functional(run).q_total for run in runs])
    for _ in range(runs[0].path.n_steps):
        runs = step_runs(runs)
    qT = np.array([q_functional(run).q_total for run in runs])
    cutoff = cfg.study.freq_cutoff or None
    dists = [mean_field_distances(run, cfg.study.alpha, cutoff) for run in runs]
    dist_s = np.array([d[0] for d in dists])
    dist_v = np.array([d[1] for d in dists])
    fl = runs[0].fluid
    censored = bool(fl.stopped and fl.stopping.time < cfg.study.t_final - 1e-12)
    return _SampleResult(q0, qT, dist_s, dist_v, censored)


def monte_carlo_rate(cfg: RunConfig, threads: int | None = None) -> RateResult:
    """Average the convergence gauge over noise samples and fit log-log slopes.

    Sample m draws its noise path from (master_seed, m) only; results are
    independent of execution order and thread count.  Rows containing
    guard-stopped samples are marked censored and excluded from the fits.
    """
    threads = cfg.run.threads if threads is None else int(threads)
    sample_ids = list(range(cfg.study.samples))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda m: _run_sample(cfg, m), sample_ids))
    else:
        results = [_run_sample(cfg, m) for m in sample_ids]

    n_values = cfg.study.n_values
    n_arr = np.asarray(n_values, dtype=float)
    qT = np.stack([r.qT for r in results])  # (samples, len(N))
    q0 = np.stack([r.q0 for r in results])
    ds = np.stack([r.dist_s for r in results])
    dv = np.stack([r.dist_v for r in results])
    censored = np.array([r.censored for r in results])

    m_samples = len(results)
    mean_q = qT.mean(axis=0)
    se_q = qT.std(axis=0, ddof=1) / np.sqrt(m_samples) if m_samples > 1 else np.zeros_like(mean_q)
    mean_q0 = q0.mean(axis=0)
    mean_ds = ds.mean(axis=0)
    mean_dv = dv.mean(axis=0)
    censored_counts = np.full(len(n_values), int(censored.sum()))

    notes = []
    clean = censored_counts == 0

    def safe_fit(ys, label):
        try:
            slope, _, r2 = fit_loglog(n_arr[clean], np.asarray(ys)[clean])
            return slope, r2
        except DegenerateFit as exc:
            notes.append(f"{label}: {exc}")
            return None, None

    slope_q, r2_q = safe_fit(mean_q, "slope_q")
    slope_ds, _ = safe_fit(mean_ds, "slope_dist_s")
    slope_dv, _ = safe_fit(mean_dv, "slope_dist_v")

    adjusted = mean_q - mean_q0
    if np.all(adjusted[clean] > 0):
        slope_adj, _ = safe_fit(adjusted, "slope_q_adjusted")
    else:
        slope_adj = None
        notes.append("slope_q_adjusted: floor-subtracted means not all positive")

    grid = make_grid(cfg)
    cutoff = cfg.study.freq_cutoff or grid.points_per_dim // 2
    tail_bound = neg_sobolev_tail_bound(grid, cfg.study.alpha, cutoff)

    return RateResult(
        n_values=tuple(n_values),
        mean_q=mean_q,
        se_q=se_q,
        mean_q0=mean_q0,
        mean_dist_s=mean_ds,
        mean_dist_v=mean_dv,
        censored_counts=censored_counts,
        slope_q=slope_q,
        slope_q_adjusted=slope_adj,
        slope_dist_s=slope_ds,
        slope_dist_v=slope_dv,
        r2_q=r2_q,
        beta=cfg.kernel.beta,
        dim=cfg.grid.dim,
        alpha=cfg.study.alpha,
        t_final=cfg.study.t_final,
        guard_m=cfg.euler.guard_m,
        samples=cfg.study.samples,
        freq_cutoff=cutoff,
        dist_tail_bound=tail_bound,
        notes=tuple(notes),
    )
