import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import mfeuler.particles as particles_mod
from mfeuler import artifacts
from mfeuler.cli import main
from mfeuler.config import RunConfig, validate
from mfeuler.coupling import QRecord
from mfeuler.errors import ConfigError
from mfeuler.fields import GridField, PeriodicGrid
from mfeuler.particles import ParticleState


def test_default_config_valid_and_round_trips():
    cfg = validate(RunConfig())
    text = cfg.to_text()
    again = RunConfig.from_text(text)
    assert again.to_text() == text
    assert again.kernel.beta == cfg.kernel.beta
    assert again.study.n_values == cfg.study.n_values


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="kernel.bandwidth"):
        RunConfig.from_text("[kernel]\nbandwidth = 2\n")
    with pytest.raises(ConfigError, match="unknown config section: turbo"):
        RunConfig.from_text("[turbo]\nx = 1\n")


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError, match="integrator.dt"):
        RunConfig.from_text("[integrator]\ndt = -0.5\n")
    with pytest.raises(ConfigError, match="kernel.beta"):
        RunConfig.from_text("[kernel]\nbeta = 1.0\n")
    with pytest.raises(ConfigError, match="study.alpha"):
        RunConfig.from_text("[study]\nalpha = 1.2\n")
    with pytest.raises(ConfigError, match="study.n_values"):
        RunConfig.from_text("[study]\nn_values = 512,256\n")
    with pytest.raises(ConfigError, match="euler.guard_s"):
        RunConfig.from_text("[euler]\nguard_s = 2.0\n")
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig.from_text("[particles]\nn = lots\n")
    with pytest.raises(ConfigError, match="particles.init_scheme"):
        RunConfig.from_text("[grid]\ndim = 2\n[study]\nalpha = 2.5\n")
    with pytest.raises(ConfigError, match="run.threads"):
        RunConfig.from_text("[run]\nthreads = 0\n")
    # the density profile must stay positive: |a| < 1 for sine, a > -1 for bump
    for family, amplitude in (("sine", 1.5), ("sine", -1.0), ("bump", -1.0), ("bump", -2.5)):
        with pytest.raises(ConfigError, match="init.density_amplitude"):
            RunConfig.from_text(f"[init]\ndensity_family = {family}\ndensity_amplitude = {amplitude}\n")
    RunConfig.from_text("[init]\ndensity_family = uniform\ndensity_amplitude = 1.5\n")  # unused by uniform
    # the run stops at t_final only after a whole number of steps; 0.6 / 1e-3 rounds to 599.9999999999999
    with pytest.raises(ConfigError, match="study.t_final"):
        RunConfig.from_text("[integrator]\ndt = 0.003\n[study]\nt_final = 0.01\n")
    assert RunConfig.from_text("[study]\nt_final = 0.6\n").study.t_final == 0.6
    for key, raw in (
        ("sigma.base", "nan"),
        ("sigma.modulation", "inf"),
        ("init.velocity_amplitude", "nan"),
        ("init.density_amplitude", "inf"),
        ("grid.period", "inf"),
        ("kernel.width", "inf"),
        ("init.density_concentration", "inf"),
        ("euler.hyperviscosity_nu", "inf"),
        ("study.t_final", "inf"),
        ("integrator.dt", "-inf"),
    ):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RunConfig.from_text(f"[{section}]\n{name} = {raw}\n")


def test_infinite_guard_threshold_parses():
    cfg = RunConfig.from_text("[euler]\nguard_m = inf\n")
    assert math.isinf(cfg.euler.guard_m)
    assert "guard_m = inf" in cfg.to_text()
    assert RunConfig.from_text(cfg.to_text()).euler.guard_m == math.inf


def _tiny_run_config(tmp_path, **edits):
    cfg = RunConfig()
    cfg.grid.points_per_dim = 128
    cfg.particles.n = 64
    cfg.study.t_final = 0.01
    cfg.study.n_values = (64, 128, 256)
    cfg.study.samples = 2
    cfg.run.output_dir = str(tmp_path / "out")
    for key, value in edits.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    validate(cfg)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    return path


def test_cli_run_coupled_minimal(tmp_path, capsys):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["run-coupled", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "manifest.txt").exists()
    assert (out / "q_series.csv").exists()
    assert (out / "mass_trace.csv").exists()
    assert (out / "rho_final.field").exists()
    assert (out / "rho_final.csv").exists()
    assert (out / "particles_final.bin").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "[resolved config]" in manifest
    assert "stopping: none" in manifest
    # the echoed config parses back to a valid configuration
    echoed = manifest.split("[resolved config]\n", 1)[1]
    RunConfig.from_text(echoed)


def test_cli_run_coupled_2d_bump(tmp_path, capsys):
    # the bump's force kernel is a quadrature; only the lattice points within its support are summed
    cfg_path = _tiny_run_config(
        tmp_path,
        **{
            "grid.dim": 2,
            "grid.points_per_dim": 32,
            "kernel.family": "bump",
            "kernel.width": 1.0,
            "particles.n": 256,
            "particles.init_scheme": "iid",
            "study.alpha": 2.5,
            "study.t_final": 0.005,
        },
    )
    assert main(["run-coupled", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    q = np.loadtxt(out / "q_series.csv", delimiter=",", skiprows=1, ndmin=2)
    assert q.shape == (6, 5) and np.all(np.isfinite(q))
    mass = np.loadtxt(out / "mass_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
    assert len(mass) == 6
    assert np.max(np.abs(mass - mass[0])) <= 1e-11 * mass[0]
    assert artifacts.read_field(out / "vel1_final.field").grid.dim == 2


def test_cli_guard_stopped_run_exits_zero(tmp_path, capsys):
    # a run the guard stops still completes with exit 0 and a stopping record
    cfg_path = _tiny_run_config(
        tmp_path,
        **{
            "init.density_family": "sine",
            "init.density_amplitude": 0.3,
            "init.velocity_amplitude": 0.5,
            "particles.n": 64,
            "euler.guard_m": 3.2,
            "euler.hyperviscosity_nu": 0.0,
            "sigma.base": 0.0,
            "sigma.family": "constant",
            "study.t_final": 0.6,
        },
    )
    assert main(["run-coupled", "--config", str(cfg_path)]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "stopping: step=" in manifest
    out = capsys.readouterr().out
    assert "guard fired" in out
    # q series marks the stopped flag once frozen
    q_lines = (tmp_path / "out" / "q_series.csv").read_text().splitlines()
    assert q_lines[-1].endswith(",1")


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[integrator]\ndt = -1.0\n")
    assert main(["run-coupled", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "integrator.dt" in err


def test_cli_threads_below_one_exits_2(tmp_path, capsys):
    # --threads sets run.threads, which the config check refuses below 1, before any output is written
    cfg_path = _tiny_run_config(tmp_path)
    for command in ("run-coupled", "rate-study"):
        assert main([command, "--config", str(cfg_path), "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "run.threads" in err
    assert not (tmp_path / "out").exists()


def test_cli_non_positive_density_amplitude_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[init]\ndensity_family = sine\ndensity_amplitude = 1.5\n")
    assert main(["run-coupled", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "init.density_amplitude" in err


@pytest.mark.parametrize("content", [None, b"[run]\nmaster_seed = 1\xff\n"], ids=["missing", "not_utf8"])
def test_cli_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, content):
    path = tmp_path / "cfg.ini"
    if content is not None:
        path.write_bytes(content)
    assert main(["run-coupled", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert not (tmp_path / "out").exists()


def test_cli_unnormalized_density_of_another_mass_exits_2(tmp_path, capsys):
    # the default bump has lattice mass 6.46..., which the particles' initialisation would refuse at run time
    path = tmp_path / "raw.ini"
    path.write_text("[init]\nnormalize = false\n")
    assert main(["run-coupled", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "init.normalize" in err
    assert not (tmp_path / "out").exists()
    # a uniform density over a unit period has unit mass as it stands
    validated = RunConfig.from_text("[grid]\nperiod = 1.0\n[init]\ndensity_family = uniform\nnormalize = false\n")
    assert validated.init.normalize is False


def test_cli_kernel_the_step_refuses_exits_2(tmp_path, capsys):
    # beta = 0.25 at width 2: the support radius at the smallest N exceeds half the period
    cfg_path = _tiny_run_config(tmp_path, **{"kernel.beta": 0.25})
    for command, key in (("rate-study", "study.n_values"), ("run-coupled", "particles.n")):
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "half the period, 3.142" in err
        assert all(name in err for name in ("kernel.width", "kernel.beta", key))
    # the particle-mesh spacing rule binds at the largest N: 128 nodes are too coarse at N = 8192
    cfg_path = _tiny_run_config(tmp_path, **{"particles.n": 8192})
    assert main(["run-coupled", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "particles.n N = 8192" in err and "effective kernel width / 4" in err
    assert not (tmp_path / "out").exists()


def test_cli_rerun_byte_identical(tmp_path):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["run-coupled", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run-coupled", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    for name in ("q_series.csv", "mass_trace.csv", "rho_final.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_config_echo_reproduces_run(tmp_path):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["run-coupled", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    echoed = manifest.split("[resolved config]\n", 1)[1]
    echo_path = tmp_path / "echo.ini"
    echo_path.write_text(echoed)
    assert main(["run-coupled", "--config", str(echo_path), "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "q_series.csv").read_bytes() == (tmp_path / "c" / "q_series.csv").read_bytes()


def test_cli_rate_study_single_n_degenerate(tmp_path, capsys):
    cfg_path = _tiny_run_config(tmp_path, **{"study.n_values": (64,)})
    assert main(["rate-study", "--config", str(cfg_path)]) == 0
    text = (tmp_path / "out" / "rate_summary.txt").read_text()
    assert "slope_q: degenerate" in text
    csv = (tmp_path / "out" / "rate.csv").read_text().splitlines()
    assert csv[0] == "N,mean_q,se_q,mean_dist_S,mean_dist_V,censored_count"
    assert len(csv) == 2  # header plus the single N row


def test_cli_rate_study_schema(tmp_path):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["rate-study", "--config", str(cfg_path)]) == 0
    csv = (tmp_path / "out" / "rate.csv").read_text().splitlines()
    assert csv[0] == "N,mean_q,se_q,mean_dist_S,mean_dist_V,censored_count"
    assert len(csv) == 4
    summary = (tmp_path / "out" / "rate_summary.txt").read_text()
    assert "target_slope: -0.5" in summary


def test_cli_rate_study_t0_baseline(tmp_path, capsys):
    cfg_path = _tiny_run_config(tmp_path, **{"study.t_final": 0.0})
    assert main(["rate-study", "--config", str(cfg_path)]) == 0
    summary = (tmp_path / "out" / "rate_summary.txt").read_text()
    slope = float(summary.split("slope_q: ")[1].splitlines()[0])
    assert slope < 0.0


def test_cli_kernel_report(tmp_path, capsys):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["kernel-report", "--config", str(cfg_path)]) == 0
    text = (tmp_path / "out" / "kernel_report.txt").read_text()
    assert "taylor_order: 1" in text
    assert "multi_index_orders: 0,1" in text
    assert "remainder_order: 2" in text
    assert "ratio@N=16:" in text and "ratio@N=16384:" in text
    out = capsys.readouterr().out
    assert "taylor_order L = 1" in out


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = _tiny_run_config(tmp_path)
    assert main(["run-coupled", "--config", str(cfg_path), "--seed", "777", "--out", str(tmp_path / "o")]) == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "seed: 777" in manifest


def test_cli_env_output_dir(tmp_path, monkeypatch):
    cfg_path = _tiny_run_config(tmp_path)
    monkeypatch.setenv("MFEULER_OUT", str(tmp_path / "env_out"))
    assert main(["run-coupled", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "env_out" / "manifest.txt").exists()


def test_cli_self_test(tmp_path, capsys):
    assert main(["self-test", "--out", str(tmp_path / "st")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_field_binary_round_trip(tmp_path):
    grid = PeriodicGrid(1, 64, 2 * math.pi)
    rng = np.random.default_rng(0)
    f = GridField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "f.field"
    artifacts.write_field(path, f)
    g = artifacts.read_field(path)
    assert g.grid == grid
    np.testing.assert_array_equal(g.values, f.values)


def test_field_binary_round_trip_2d(tmp_path):
    grid = PeriodicGrid(2, 16, 4.0)
    rng = np.random.default_rng(1)
    f = GridField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "f2.field"
    artifacts.write_field(path, f)
    g = artifacts.read_field(path)
    np.testing.assert_array_equal(g.values, f.values)


def test_read_field_rejects_non_finite_and_truncated_payloads(tmp_path):
    grid = PeriodicGrid(1, 16, 4.0)
    values = np.linspace(0.0, 1.0, 16)
    values[5] = np.nan
    path = tmp_path / "nan.field"
    artifacts.write_field(path, GridField(grid, values))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: field values must be finite"):
        artifacts.read_field(path)

    path = tmp_path / "short.field"
    artifacts.write_field(path, GridField(grid, np.ones(16)))
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: payload holds"):
        artifacts.read_field(path)


def test_particles_binary_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    st = ParticleState(rng.random((10, 2)), rng.standard_normal((10, 2)), 0.25)
    path = tmp_path / "p.bin"
    artifacts.write_particles(path, st)
    back = artifacts.read_particles(path)
    np.testing.assert_array_equal(back.positions, st.positions)
    np.testing.assert_array_equal(back.velocities, st.velocities)
    assert back.time == st.time


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda p: p[:-8], "payload holds 152 bytes, expected 160"),  # truncated by one value
        (lambda p: p + p[:8], "payload holds 168 bytes, expected 160"),  # one value too many
        (lambda p: p[:-3], "payload holds 157 bytes, expected 160"),  # ragged: not whole float64 values
        (lambda p: np.float64(np.nan).tobytes() + p[8:], "particle values must be finite"),  # first position
        (lambda p: p[:-8] + np.float64(-np.inf).tobytes(), "particle values must be finite"),  # last velocity
    ],
    ids=["truncated", "oversized", "ragged", "nan_position", "inf_velocity"],
)
def test_read_particles_rejects_bad_payloads_naming_the_file(tmp_path, edit, message):
    path = tmp_path / "p.bin"
    artifacts.write_particles(path, ParticleState(np.ones((5, 2)), np.zeros((5, 2)), 0.5))
    head, sep, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes(head + sep + edit(payload))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
        artifacts.read_particles(path)


@pytest.mark.parametrize(
    "kind,write,read",
    [
        ("field", lambda p: artifacts.write_field(p, GridField(PeriodicGrid(2, 4, 4.0), np.ones((4, 4)))), artifacts.read_field),
        ("particle", lambda p: artifacts.write_particles(p, ParticleState(np.ones((5, 2)), np.zeros((5, 2)), 0.5)), artifacts.read_particles),
    ],
    ids=["field", "particles"],
)
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.replace(b"\n", "\nnote = café\n".encode(), 1), "header is not ASCII text"),
        (lambda d: re.sub(rb"\ndim = [^\n]*", b"", d, count=1), "header has no key 'dim'"),
        (lambda d: d.replace(b"\n\n", b"\n", 1), "header is not ASCII text ending in a blank line"),
        (lambda d: d.replace(b"dim = ", b"dim: ", 1), "header line 'dim: 2' is not 'key = value'"),
        (lambda d: d.replace(b"dim = ", b"dim = two", 1), "header value: invalid literal for int() with base 10: 'two2'"),
    ],
    ids=["non_ascii", "missing_key", "no_blank_line", "no_equals", "not_a_number"],
)
def test_binary_readers_reject_malformed_headers_naming_the_file(tmp_path, kind, write, read, edit, message):
    # the payloads hold no b"\n\n", so the header ends where the writer ended it
    path = tmp_path / "artifact.bin"
    write(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {kind} {re.escape(message)}"):
        read(path)


def test_read_field_rejects_a_grid_the_header_cannot_describe(tmp_path):
    # the grid is built before the payload size is checked, so the error names the grid, not a byte count
    path = tmp_path / "f.field"
    cases = [
        (b"period = 4.0", b"period = -4.0", "period must be positive"),
        (b"dim = 1", b"dim = -1", "grid dim must be 1 or 2"),
        (b"points_per_dim = 4", b"points_per_dim = 3", "points_per_dim must be a power of two"),
    ]
    for line, edited, message in cases:
        artifacts.write_field(path, GridField(PeriodicGrid(1, 4, 4.0), np.ones(4)))
        path.write_bytes(path.read_bytes().replace(line, edited))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            artifacts.read_field(path)


def test_read_particles_rejects_a_layout_the_header_cannot_describe(tmp_path):
    # checked before the payload size: n = -2 once read as "expected -32 bytes", and dim = 3 with a
    # 96-byte payload (2 x 2 x 3 values) as a 3-d state
    path = tmp_path / "p.bin"
    cases = [
        ({b"n = 3": b"n = -2"}, "particle header n = -2 is negative"),
        ({b"dim = 2": b"dim = 0"}, "particle header dim = 0 is not 1 or 2"),
        ({b"n = 3": b"n = 2", b"dim = 2": b"dim = 3"}, "particle header dim = 3 is not 1 or 2"),
    ]
    for edits, message in cases:
        artifacts.write_particles(path, ParticleState(np.ones((3, 2)), np.zeros((3, 2)), 0.5))
        data = path.read_bytes()
        for line, edited in edits.items():
            data = data.replace(line, edited, 1)
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            artifacts.read_particles(path)


def test_writers_pin_the_output_bytes(tmp_path):
    # ints, bools and numpy integers print as integers, every other value as repr(float); binaries are the
    # header text, a blank line and little-endian float64 payloads in C order
    records = [QRecord(0.0, 0.25, -0.0, 0.25, False), QRecord(np.float64(0.5), 0.125, 3.0, 3.125, np.True_)]
    rate = SimpleNamespace(
        n_values=(64, 128),
        mean_q=np.array([0.1, 0.2]),
        se_q=np.array([0.0, -0.0]),
        mean_dist_s=np.array([1e-12, 2.5e-13]),
        mean_dist_v=np.array([3.0, 4.0]),
        censored_counts=np.array([0, 2], dtype=np.int64),
    )
    mass_rows = [(0, 0.0, 1.0, 0.5), (np.int64(12), 0.012, 1.0000000000000002, -0.0)]
    field_1d = GridField(PeriodicGrid(1, 4, 2.0), np.array([-0.0, 1.0, 0.1, 3.0]))
    field_2d = GridField(PeriodicGrid(2, 2, 4.0), np.array([[1.0, 2.0], [3.0, 4.0]]))
    writes = {
        "q.csv": lambda p: artifacts.write_q_series(p, records),
        "mass.csv": lambda p: artifacts.write_mass_trace(p, mass_rows),
        "rate.csv": lambda p: artifacts.write_rate_csv(p, rate),
        "rho.csv": lambda p: artifacts.write_field_csv(p, field_1d),
        "rho.field": lambda p: artifacts.write_field(p, field_1d),
        "u.field": lambda p: artifacts.write_field(p, field_2d),
        "p.bin": lambda p: artifacts.write_particles(
            p, ParticleState(np.array([[0.5, 1.5], [2.5, 3.5]]), np.array([[-0.0, 2.0], [4.0, 8.0]]), 0.25)
        ),
    }
    expected = {
        "q.csv": b"time,kinetic_term,density_term,q_total,stopped\n0.0,0.25,-0.0,0.25,0\n0.5,0.125,3.0,3.125,1\n",
        "mass.csv": b"step,time,mass,min_rho\n0,0.0,1.0,0.5\n12,0.012,1.0000000000000002,-0.0\n",
        "rate.csv": (
            b"N,mean_q,se_q,mean_dist_S,mean_dist_V,censored_count\n"
            b"64,0.1,0.0,1e-12,3.0,0\n128,0.2,-0.0,2.5e-13,4.0,2\n"
        ),
        "rho.csv": b"x,value\n0.0,-0.0\n0.5,1.0\n1.0,0.1\n1.5,3.0\n",
        "rho.field": (
            b"mfeuler-field v1\ndim = 1\npoints_per_dim = 4\nperiod = 2.0\n\n" + struct.pack("<4d", -0.0, 1.0, 0.1, 3.0)
        ),
        "u.field": (
            b"mfeuler-field v1\ndim = 2\npoints_per_dim = 2\nperiod = 4.0\n\n" + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        ),
        "p.bin": (
            b"mfeuler-particles v1\nn = 2\ndim = 2\ntime = 0.25\n\n"
            + struct.pack("<8d", 0.5, 1.5, 2.5, 3.5, -0.0, 2.0, 4.0, 8.0)
        ),
    }
    for name, write in writes.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected[name], name


def test_field_csv_export(tmp_path):
    grid = PeriodicGrid(1, 8, 2.0)
    f = GridField(grid, np.arange(8.0))
    path = tmp_path / "f.csv"
    artifacts.write_field_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 9
    assert lines[1] == "0.0,0.0"


def test_run_coupled_deposits_once_per_gauge(tmp_path, monkeypatch):
    # with the gauge at every step, each step's force reuses the deposit its gauge made of the same rows
    calls = []
    deposit_spectrum = particles_mod.deposit_spectrum
    monkeypatch.setattr(particles_mod, "deposit_spectrum", lambda *a: calls.append(1) or deposit_spectrum(*a))
    cfg_path = _tiny_run_config(tmp_path, **{"output.q_stride": 1})
    assert main(["run-coupled", "--config", str(cfg_path)]) == 0
    steps = len((tmp_path / "out" / "mass_trace.csv").read_text().splitlines()) - 2  # header and step 0
    assert steps == 10 and len(calls) == steps + 1
