import math

import numpy as np
import pytest

from mfeuler import artifacts
from mfeuler.cli import main
from mfeuler.config import RunConfig, validate
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


def test_particles_binary_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    st = ParticleState(rng.random((10, 2)), rng.standard_normal((10, 2)), 0.25)
    path = tmp_path / "p.bin"
    artifacts.write_particles(path, st)
    back = artifacts.read_particles(path)
    np.testing.assert_array_equal(back.positions, st.positions)
    np.testing.assert_array_equal(back.velocities, st.velocities)
    assert back.time == st.time


def test_field_csv_export(tmp_path):
    grid = PeriodicGrid(1, 8, 2.0)
    f = GridField(grid, np.arange(8.0))
    path = tmp_path / "f.csv"
    artifacts.write_field_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 9
    assert lines[1] == "0.0,0.0"
