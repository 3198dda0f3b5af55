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
does not depend on the particles at all, so one run per sample, one fluid
solve and one particle state holding every N, drives the whole N sweep.  The
diagnostics read that sweep as it is: ``q_functional`` returns one record and
``mean_field_distances`` one value per system, in the order of its N.  A
gauge's deposit of the particles feeds the next step's force, which deposits
the same rows, and its stencil reads the fluid velocity at the particles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fluid as fluid_mod
from . import particles as particles_mod
from .config import RunConfig
from .errors import ConfigError, DegenerateFit, GridTooCoarse, KernelAliasingWarning
from .fields import EmpiricalMeasure, PeriodicGrid, box_spectra, neg_sobolev_distance, neg_sobolev_tail_bound
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


def check_kernel_fits(cfg: RunConfig, key: str):
    """Reject, naming the keys, a force kernel that a particle step would refuse at some N of ``key``.

    ``key`` is ``particles.n`` or ``study.n_values``, the particle counts the
    command runs.  The support radius falls with N and so does the effective
    width, so the smallest N is the one the box check binds and the largest
    the one the particle-mesh spacing rule binds.
    """
    section, name = key.split(".")
    counts = np.atleast_1d(getattr(getattr(cfg, section), name))
    grid = make_grid(cfg)
    for n in (int(counts.min()), int(counts.max())):
        kernel = make_kernel(cfg, n)
        try:
            if cfg.integrator.force_method == "particle_mesh":
                particles_mod.validate_kernel_mesh(kernel, grid)
            else:
                particles_mod.validate_kernel_box(kernel, grid.period)
        except GridTooCoarse as exc:
            raise ConfigError(
                f"kernel.width = {cfg.kernel.width!r} with kernel.beta = {cfg.kernel.beta!r} "
                f"does not fit at {key} N = {n}: {exc}"
            ) from None


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
    """A sweep of particle systems, one state holding every N, and the fluid, path and settings they share."""

    particles: particles_mod.ParticleState
    fluid: fluid_mod.FluidState
    path: NoisePath
    kernels: tuple  # one per system, in the order of particles.sizes
    sigma: SigmaField
    euler_config: fluid_mod.EulerConfig
    force_method: str = "particle_mesh"
    deposit_scheme: str = "linear"
    velocity_interpolation: str = "linear"

    @property
    def grid(self) -> PeriodicGrid:
        return self.fluid.grid

    @property
    def step_index(self) -> int:
        return self.fluid.step_index

    @property
    def dt(self):
        return self.euler_config.dt


def build_run(cfg: RunConfig, sample_index: int = 0, n_values=None) -> CoupledRun:
    """Assemble a fluid and noise path of t_final / dt steps plus one particle system per N in ``n_values``.

    ``n_values`` defaults to ``(particles.n,)``, a run of one system.  The
    systems share the grid, sigma, noise path and guarded fluid state; only
    the kernel and the particles depend on N.
    """
    n_values = (cfg.particles.n,) if n_values is None else tuple(map(int, n_values))
    grid = make_grid(cfg)
    i, e = cfg.init, cfg.euler
    density = DensityProfile(
        i.density_family, i.density_amplitude, i.density_concentration, grid.period, grid.dim, i.normalize
    )
    velocity = VelocityProfile(i.velocity_family, i.velocity_amplitude, grid.period)
    euler_cfg = fluid_mod.EulerConfig(
        dt=cfg.integrator.dt,
        dealias_fraction=e.dealias_fraction,
        hyperviscosity_nu=e.hyperviscosity_nu,
        hyperviscosity_order=e.hyperviscosity_order,
        guard_s=e.guard_s,
        guard_m=e.guard_m,
    )
    euler_cfg.validate_guard_order(grid.dim)
    n_steps = int(round(cfg.study.t_final / cfg.integrator.dt))
    path = NoisePath.generate(cfg.run.master_seed, sample_index, n_steps, grid.dim, cfg.integrator.dt)
    fl = fluid_mod.stopping_guard(fluid_mod.make_fluid_state(grid, density, velocity), euler_cfg)
    systems = [
        particles_mod.init_well_prepared(
            density,
            velocity,
            n,
            scheme=cfg.particles.init_scheme,
            master_seed=cfg.run.master_seed,
            seed_tags=(int(sample_index), n),
        )
        for n in n_values
    ]
    particles = particles_mod.ParticleState(
        np.concatenate([p.positions for p in systems]), np.concatenate([p.velocities for p in systems]), 0.0, n_values
    )
    return CoupledRun(
        particles=particles,
        fluid=fl,
        path=path,
        kernels=tuple(make_kernel(cfg, n) for n in n_values),
        sigma=SigmaField(cfg.sigma.family, cfg.sigma.base, cfg.sigma.modulation, grid.period),
        euler_config=euler_cfg,
        force_method=cfg.integrator.force_method,
        deposit_scheme=cfg.integrator.deposit_scheme,
        velocity_interpolation=cfg.euler.velocity_interpolation,
    )


def coupled_step(run: CoupledRun) -> CoupledRun:
    """Advance the particles of every system and the shared fluid by one shared Brownian increment.

    Every particle system steps on the increment in one ``particles.step``
    call, then the fluid steps once.  Once the fluid guard has fired, the run
    is frozen: both clocks stay at the stopping time and the run is returned
    unchanged.
    """
    if run.fluid.stopped:
        return run
    if run.step_index >= run.path.n_steps:
        raise IndexError("noise path exhausted")
    dB = run.path.increments[run.step_index]
    particles = particles_mod.step(
        run.particles,
        dB,
        run.dt,
        run.kernels,
        run.sigma,
        run.grid.period,
        method=run.force_method,
        grid=run.grid,
        deposit_scheme=run.deposit_scheme,
        context=f"seed={run.path.master_seed} sample={run.path.sample_index} step={run.step_index}",
    )
    fl = fluid_mod.step(run.fluid, dB, run.sigma, run.euler_config)
    return replace(run, particles=particles, fluid=fl)


def mollified_density(particles: particles_mod.ParticleState, kernels, grid: PeriodicGrid, scheme="linear"):
    """Lattice samples of each system's mollified empirical density, shape (systems,) + grid.shape.

    One interlaced deposit of the whole sweep, ``particles.sweep_spectrum``,
    goes through ``mollifier_transfer`` of each system's kernel, which divides
    out the assignment window and convolves with the sampled mollifier; that
    keeps each row on the direct particle sum (1/N) sum_j density(x - X_j) up
    to residual deposit aliasing.  The deposit stays with the sweep, so the
    next step's force on these rows makes none.  Warns (``KernelAliasingWarning``)
    for each kernel with over 1e-6 of its mass wrapping around; raises
    ``ValueError`` unless there is one kernel per system.
    """
    for kernel in kernels:
        wrapped = kernel.mass_outside(grid.period / 2.0)
        if wrapped > 1e-6:
            message = f"kernel mass {wrapped:.3e} outside the half-period box wraps around"
            warnings.warn(message, KernelAliasingWarning, stacklevel=2)
    _, spectrum = particles_mod.sweep_spectrum(particles, particles_mod.mollifier_transfer, kernels, grid, scheme)
    density = grid.irfft(spectrum)
    for row, n in zip(density, particles.sizes):
        row /= n
    return density


def q_functional(run: CoupledRun) -> list[QRecord]:
    """The convergence gauge of each system, in the order of ``sizes``, on the current (possibly frozen) states.

    The fluid velocity is read at the particles through the stencil of the
    mollified density's particle-mesh pass when both use one scheme, and by
    ``fluid.sample_velocity`` otherwise; the two read the same bits.
    """
    particles, fl = run.particles, run.fluid
    if abs(particles.time - fl.time) > 1e-9 * max(1.0, fl.time):
        raise ValueError("particle and fluid clocks are not aligned")
    densities = mollified_density(particles, run.kernels, run.grid, run.deposit_scheme)
    if run.velocity_interpolation == run.deposit_scheme:
        sampled = particles_mod.read_at_particles(fl.u[1:], particles, run.grid, run.deposit_scheme)
    else:
        sampled = fluid_mod.sample_velocity(fl, particles.positions, run.velocity_interpolation)
    mismatch = particles.velocities - sampled
    squares = particles.split(np.sum(mismatch * mismatch, axis=1))
    records = []
    for rows, mol in zip(squares, densities):
        diff = mol - fl.u[0]
        kinetic = float(np.mean(rows))
        density = float(np.sum(diff * diff) * run.grid.cell_volume)
        records.append(QRecord(fl.time, kinetic, density, kinetic + density, fl.stopped))
    return records


def mean_field_distances(run: CoupledRun, alpha: float, freq_cutoff: int):
    """Squared negative-Sobolev distances of each system's empirical measures to the fluid.

    Returns two arrays, ||S - rho||^2 and ||V - rho v||^2, one value per
    system in the order of its sizes, evaluated at the current time (frozen at
    the stopping time if the guard fired): the two quantities the mean-field
    bound controls.  One ``box_spectra`` of (rho, rho v) serves every
    system, and the systems are summed one at a time, so the phase tables
    never span more than one system's rows.  The sums run over the half box
    |k|_inf <= ``freq_cutoff``, 0 to M/2: 0 keeps the mean mode only.
    Raises ``ValueError`` if a system is empty, which would have no N to
    divide its velocity weights by, as ``q_functional`` does.
    """
    p, grid, u = run.particles, run.grid, run.fluid.u
    if 0 in p.sizes:
        raise ValueError(f"system sizes {p.sizes} include an empty system")
    spectra = box_spectra(np.concatenate((u[:1], u[0] * u[1:])), grid, freq_cutoff)
    dist_s, dist_v = [], []
    for pos, vel, n in zip(p.split(p.positions), p.split(p.velocities), p.sizes):
        dist_s.append(neg_sobolev_distance(EmpiricalMeasure(pos), spectra[:1], alpha, grid, freq_cutoff) ** 2)
        dist_v.append(neg_sobolev_distance(EmpiricalMeasure(pos, vel / n), spectra[1:], alpha, grid, freq_cutoff) ** 2)
    return np.array(dist_s), np.array(dist_v)


# ---------------------------------------------------------------------------
# Log-log fitting and the rate study
# ---------------------------------------------------------------------------


def fit_loglog(xs, ys):
    """Ordinary least squares on (log x, log y): returns (slope, intercept, r2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise DegenerateFit(f"log-log fit needs at least 3 points, got {xs.size}")
    ordered = np.sort(xs)  # not np.unique, which imports numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise DegenerateFit("log-log fit needs distinct x values")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DegenerateFit("log-log fit needs finite x and y values")
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


SAMPLE_COLUMNS = ("q0", "q", "dist_s", "dist_v")  # the columns of a sample's table, one row per N


def _run_sample(cfg: RunConfig, sample_index: int, cutoff: int):
    """One sample's table, a row per N in the columns ``SAMPLE_COLUMNS``, and whether the guard stopped it early."""
    run = build_run(cfg, sample_index, cfg.study.n_values)
    q0 = [record.q_total for record in q_functional(run)]
    for _ in range(run.path.n_steps):
        run = coupled_step(run)
    qT = [record.q_total for record in q_functional(run)]
    table = np.column_stack([q0, qT, *mean_field_distances(run, cfg.study.alpha, cutoff)])
    fl = run.fluid
    return table, bool(fl.stopped and fl.stopping.time < cfg.study.t_final - 1e-12)


def monte_carlo_rate(cfg: RunConfig) -> RateResult:
    """Average the convergence gauge over noise samples and fit log-log slopes.

    Samples run in order; sample m draws its noise path from (master_seed, m)
    only.  Rows containing guard-stopped samples are marked censored and
    excluded from the fits.
    """
    grid = make_grid(cfg)
    cutoff = cfg.study.freq_cutoff or grid.points_per_dim // 2  # 0 is M/2, for the distances and the tail bound
    tables, censored = zip(*(_run_sample(cfg, m, cutoff) for m in range(cfg.study.samples)))
    table = np.stack(tables)  # (samples, len(N), len(SAMPLE_COLUMNS))
    # one mean over the samples; column c's mean is the RateResult field mean_c
    means = {f"mean_{name}": column for name, column in zip(SAMPLE_COLUMNS, table.mean(axis=0).T)}
    q = table[:, :, SAMPLE_COLUMNS.index("q")]
    se_q = q.std(axis=0, ddof=1) / np.sqrt(len(q)) if len(q) > 1 else np.zeros_like(means["mean_q"])
    censored_counts = np.full(len(cfg.study.n_values), sum(censored))

    notes = []
    clean = censored_counts == 0
    n_clean = np.asarray(cfg.study.n_values, dtype=float)[clean]

    def safe_fit(ys, label):
        try:
            slope, _, r2 = fit_loglog(n_clean, ys[clean])
            return slope, r2
        except DegenerateFit as exc:
            notes.append(f"{label}: {exc}")
            return None, None

    slope_q, r2_q = safe_fit(means["mean_q"], "slope_q")
    slope_ds, _ = safe_fit(means["mean_dist_s"], "slope_dist_s")
    slope_dv, _ = safe_fit(means["mean_dist_v"], "slope_dist_v")

    adjusted = means["mean_q"] - means["mean_q0"]
    if np.all(adjusted[clean] > 0):
        slope_adj, _ = safe_fit(adjusted, "slope_q_adjusted")
    else:
        slope_adj = None
        notes.append("slope_q_adjusted: floor-subtracted means not all positive")

    return RateResult(
        n_values=tuple(cfg.study.n_values),
        **means,
        se_q=se_q,
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
        dist_tail_bound=neg_sobolev_tail_bound(grid, cfg.study.alpha, cutoff),
        notes=tuple(notes),
    )
