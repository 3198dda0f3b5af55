"""Command-line entry point.

Subcommands: ``run-coupled`` (single coupled simulation), ``rate-study``
(Monte Carlo sweep over particle counts), ``kernel-report`` (kernel
hypothesis diagnostics and the smoothing-error sweep), ``self-test``
(built-in oracle battery).  Exit codes: 0 success, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import artifacts, coupling, fluid, kernels
from .config import RunConfig, validate
from .errors import ConfigError, MfeulerError


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = validate(RunConfig())
    if args.seed is not None:
        cfg.run.master_seed = args.seed
    if args.out is not None:
        cfg.run.output_dir = args.out
    elif os.environ.get("MFEULER_OUT"):
        cfg.run.output_dir = os.environ["MFEULER_OUT"]
    if args.threads is not None:
        cfg.run.threads = args.threads
    return validate(cfg)


def _outdir(cfg) -> str:
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    return cfg.run.output_dir


def cmd_run_coupled(args) -> int:
    cfg = _load_config(args)
    coupling.check_kernel_fits(cfg, "particles.n")
    out = _outdir(cfg)
    run = coupling.build_run(cfg, sample_index=0)
    n_steps = run.path.n_steps
    records = coupling.q_functional(run)
    mass_rows = [(0, run.fluid.time, run.fluid.mass(), run.fluid.min_density())]
    stride = cfg.output.q_stride
    snap_stride = cfg.output.snapshot_stride
    for i in range(1, n_steps + 1):
        run = coupling.coupled_step(run)
        mass_rows.append((i, run.fluid.time, run.fluid.mass(), run.fluid.min_density()))
        if i % stride == 0 or i == n_steps:
            records += coupling.q_functional(run)
        if snap_stride and i % snap_stride == 0:
            _write_snapshot(out, f"step{i:06d}", run)
    _write_snapshot(out, "final", run)
    artifacts.write_q_series(os.path.join(out, "q_series.csv"), records)
    mass_path = os.path.join(out, "mass_trace.csv")
    artifacts.write_mass_trace(mass_path, mass_rows)
    artifacts.write_manifest(
        os.path.join(out, "manifest.txt"),
        cfg.to_text(),
        __version__,
        stopping=run.fluid.stopping,
        extra={"seed": cfg.run.master_seed, "mass_trace": mass_path, "steps": n_steps},
    )
    final = records[-1]
    print(f"run-coupled: t={final.time!r} q_total={final.q_total!r} stopped={final.stopped}")
    if run.fluid.stopping is not None:
        s = run.fluid.stopping
        print(f"guard fired at step {s.step_index} (t={s.time!r}, norm={s.norm_value!r})")
    return 0


def _write_snapshot(out, tag, run):
    grid, (rho, *velocity) = run.grid, run.fluid.u
    artifacts.write_field(os.path.join(out, f"rho_{tag}.field"), grid, rho)
    for q, v in enumerate(velocity):
        artifacts.write_field(os.path.join(out, f"vel{q}_{tag}.field"), grid, v)
    if grid.dim == 1:
        artifacts.write_field_csv(os.path.join(out, f"rho_{tag}.csv"), grid, rho)
    artifacts.write_particles(os.path.join(out, f"particles_{tag}.bin"), run.particles)


def cmd_rate_study(args) -> int:
    cfg = _load_config(args)
    coupling.check_kernel_fits(cfg, "study.n_values")
    out = _outdir(cfg)
    result = coupling.monte_carlo_rate(cfg)
    artifacts.write_rate_csv(os.path.join(out, "rate.csv"), result)
    artifacts.write_rate_summary(os.path.join(out, "rate_summary.txt"), result)
    artifacts.write_manifest(
        os.path.join(out, "manifest.txt"),
        cfg.to_text(),
        __version__,
        extra={"seed": cfg.run.master_seed},
    )
    slope = "degenerate" if result.slope_q is None else repr(result.slope_q)
    print(f"rate-study: fitted q slope {slope} (target {result.target_slope!r})")
    for note in result.notes:
        print(f"note: {note}")
    return 0


def cmd_kernel_report(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    spec = kernels.MollifierSpec(cfg.kernel.family, cfg.kernel.width, cfg.grid.dim)
    family = kernels.TaylorWeightFamily(spec)
    report = kernels.hypothesis_report(
        family,
        cfg.kernel.report_freq_window,
        cfg.kernel.report_space_window,
        cfg.kernel.report_ceiling,
    )
    lines = [report.to_text(), "[smoothing error sweep] (f = sin, probe ratio vs scale bound)"]
    sweep_n = [2**j for j in range(4, 15)]
    probes = np.zeros((65, cfg.grid.dim))
    probes[:, 0] = np.linspace(0.0, 2.0 * np.pi, 65)
    for n in sweep_n:
        kern = kernels.ScaledKernel(spec, n, cfg.kernel.beta)
        ratio = kernels.mollification_error_ratio(kern, lambda x: np.sin(x[:, 0]), 1.0, probes)
        lines.append(f"ratio@N={n}: {ratio!r}")
    text = "\n".join(lines) + "\n"
    path = os.path.join(out, "kernel_report.txt")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"kernel-report: taylor_order L = {report.order} -> {path}")
    return 0


def cmd_self_test(args) -> int:
    cfg = _load_config(args)
    checks = _self_test_checks(cfg)
    failures = 0
    for name, fn in checks:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    if failures:
        print(f"self-test: {failures}/{len(checks)} checks failed")
        return 3
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def _self_test_checks(cfg):
    import math

    from . import fields, noise, particles, profiles

    def kernel_normalization():
        for fam in ("gaussian", "bump"):
            spec = kernels.MollifierSpec(fam, 1.0, 1)
            nodes = np.linspace(-spec.truncation_radius(), spec.truncation_radius(), 4097)
            mass = np.trapezoid(spec.density(nodes[:, None]), nodes)
            assert abs(mass - 1.0) < 1e-8, f"{fam} mass {mass}"

    def scaling_identity():
        spec = kernels.MollifierSpec("gaussian", 1.3, 1)
        kern = kernels.ScaledKernel(spec, 37, 0.4)
        xs = np.linspace(-2, 2, 11)[:, None]
        lhs = kern.potential(xs)
        rhs = 37**0.4 * spec.self_convolution(xs * 37**0.4)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-14), "potential scaling"

    def drift_density_wave():
        # rho = 1 + a sin x, v = 0, no hyperviscosity: the pressure term alone, dv = -grad rho = -a cos x
        grid = fields.PeriodicGrid(1, 128, 2 * math.pi)
        x = grid.axis_coords
        state = fluid.FluidState(grid, np.stack([1.0 + 0.1 * np.sin(x), np.zeros(grid.shape)]))
        du = fluid.drift_rhs(state, fluid.EulerConfig(dt=1e-3, hyperviscosity_nu=0.0))
        assert np.max(np.abs(du[0])) < 1e-12, "density tendency"
        assert np.max(np.abs(du[1] + 0.1 * np.cos(x))) < 1e-12, "pressure derivative"

    def dirac_distance():
        grid = fields.PeriodicGrid(1, 64, 2 * math.pi)
        measure = fields.EmpiricalMeasure(np.zeros((1, 1)))
        zero = fields.box_spectra(np.zeros((1,) + grid.shape), grid, 16)
        val = fields.neg_sobolev_distance(measure, zero, 2.0, grid, 16)
        k = np.arange(-16, 17)
        direct = math.sqrt((1 / (2 * math.pi)) * np.sum((1 + k.astype(float) ** 2) ** -2.0))
        assert abs(val - direct) < 1e-12, f"{val} vs {direct}"

    def noise_exactness():
        # one particle feels no force (the potential gradient vanishes at 0), so each step is the noise factor
        sig = noise.SigmaField("constant", 0.3)
        kern = kernels.ScaledKernel(kernels.MollifierSpec("gaussian", 0.05, 1), 1, 0.5)
        path = noise.NoisePath.generate(7, 0, 200, 1, 1e-2)
        state = particles.ParticleState(np.array([[3.0]]), np.array([[1.0]]))
        for dB in path.increments:
            state = particles.step(state, dB, path.dt, [kern], sig, 2 * math.pi, method="direct")
        exact = np.exp(0.3 * path.terminal()[0])
        assert abs(state.velocities[0, 0] - exact) < 1e-12 * abs(exact), "noise factor"

    def pm_matches_direct():
        grid = fields.PeriodicGrid(1, 128, 2 * math.pi)
        spec = kernels.MollifierSpec("gaussian", 2.0, 1)
        kern = kernels.ScaledKernel(spec, 64, 0.5)
        rng = np.random.default_rng(3)
        state = particles.ParticleState(rng.random((64, 1)) * 2 * math.pi, np.zeros((64, 1)))
        fd = particles.force_direct(state.positions, kern, grid.period)
        fp = particles.force_particle_mesh(state, [kern], grid)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(fd - fp)) < 5e-3 * scale, "pm force"

    def fluid_mass():
        grid = fields.PeriodicGrid(1, 128, 2 * math.pi)
        dens = profiles.DensityProfile("sine", 0.2, period=grid.period, normalize=False)
        vel = profiles.VelocityProfile("sine", 0.1, grid.period)
        state = fluid.make_fluid_state(grid, dens, vel)
        ec = fluid.EulerConfig(dt=1e-3)
        sig = noise.SigmaField("constant", 0.0)
        mass0 = state.mass()
        for _ in range(100):
            state = fluid.step(state, np.zeros(1), sig, ec)
        assert abs(state.mass() - mass0) < 1e-10 * abs(mass0), "mass drift"

    def config_roundtrip():
        text = cfg.to_text()
        again = RunConfig.from_text(text)
        assert again.to_text() == text, "config round trip"

    return [
        ("kernel normalization", kernel_normalization),
        ("kernel scaling identity", scaling_identity),
        ("drift pressure derivative", drift_density_wave),
        ("negative-Sobolev Dirac oracle", dirac_distance),
        ("exact noise factor", noise_exactness),
        ("particle-mesh vs direct force", pm_matches_direct),
        ("fluid mass conservation", fluid_mass),
        ("config round trip", config_roundtrip),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfeuler", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mfeuler {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, doc in (
        ("run-coupled", cmd_run_coupled, "run one coupled particle/fluid simulation"),
        ("rate-study", cmd_rate_study, "Monte Carlo convergence-rate sweep over N"),
        ("kernel-report", cmd_kernel_report, "kernel hypothesis report and smoothing sweep"),
        ("self-test", cmd_self_test, "run the built-in oracle battery"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=str, default=None, help="path to an INI config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None, help="reserved; no output depends on it (>= 1)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MfeulerError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
