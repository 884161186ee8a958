"""Benchmark CLI: preset wiring, config precedence, CSV emission."""

import csv
import filecmp

import numpy as np
import pytest

from mefsc import Distribution, DistributionKind, SolverConfig, run_me_fsc, MODELS, WarmStart
from mefsc.bench_cli import ConfigError, main, parse_config, run_and_emit


def test_preset_problem_1():
    cfg = parse_config(["--problem", "1"])
    assert cfg.truncation == 6
    assert cfg.element_counts == (8,)
    assert cfg.dt == 1e-3
    assert cfg.duration == 150.0
    assert cfg.warmstart_degree == 7
    assert cfg.warmstart_duration == 1.0
    assert cfg.reference == "closed_form"
    (law,) = cfg.distributions
    assert law.kind is DistributionKind.UNIFORM
    assert (law.lower, law.upper) == (340.0, 460.0)


def test_preset_problem_2():
    cfg = parse_config(["--problem", "2"])
    assert cfg.truncation == 7
    assert cfg.element_counts == (8,)
    assert cfg.reference == "quasi_exact"
    (law,) = cfg.distributions
    assert (law.lower, law.upper) == (2.0, 3.0)


def test_preset_problem_3():
    cfg = parse_config(["--problem", "3"])
    assert cfg.truncation == 4
    assert cfg.element_counts == (8, 8)
    assert cfg.dt == 5e-3
    assert cfg.duration == 150.0
    assert cfg.warmstart_degree == 9
    first, second = cfg.distributions
    assert first.kind is DistributionKind.UNIFORM
    assert (first.lower, first.upper) == (150.0, 450.0)
    assert second.kind is DistributionKind.BETA
    assert (second.shape_a, second.shape_b) == (2.0, 5.0)
    assert (second.lower, second.upper) == (340.0, 460.0)


def test_preset_problem_4():
    cfg = parse_config(["--problem", "4"])
    assert cfg.truncation == 6
    assert cfg.element_counts == (8, 8, 8)
    assert cfg.dt == 5e-3
    assert cfg.duration == 50.0
    assert cfg.warmstart_duration == 0.0
    assert cfg.mc_samples == 1_000_000
    assert all(law.kind is DistributionKind.UNIFORM for law in cfg.distributions)
    assert all((law.lower, law.upper) == (-1.0, 1.0) for law in cfg.distributions)


def test_named_distribution_selection():
    cfg = parse_config(["--problem", "1", "--distribution", "gamma"])
    (law,) = cfg.distributions
    assert law.kind is DistributionKind.TRUNCATED_GAMMA
    assert (law.shape_a, law.shape_b) == (10.0, 0.1)
    assert (law.lower, law.upper) == (340.0, 920.0)

    cfg = parse_config(["--problem", "2", "--distribution", "normal"])
    (law,) = cfg.distributions
    assert law.kind is DistributionKind.TRUNCATED_NORMAL
    assert (law.shape_a, law.shape_b) == (2.5, 0.125)
    assert (law.lower, law.upper) == (1.4, 3.6)


def test_element_list_broadcast_and_explicit():
    cfg = parse_config(["--problem", "4", "--elements", "4"])
    assert cfg.element_counts == (4, 4, 4)
    cfg = parse_config(["--problem", "4", "--elements", "4,2,1"])
    assert cfg.element_counts == (4, 2, 1)


def test_flag_overrides_file_overrides_preset(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("problem = 1\nduration = 1.0\nbasis = 5\n")
    cfg = parse_config(["--config", str(cfg_file), "--duration", "0.5"])
    assert cfg.duration == 0.5  # flag wins
    assert cfg.truncation == 5  # file wins over preset
    assert cfg.dt == 1e-3  # preset fills the rest


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("problem = 1\nbogus_key = 3\n")
    with pytest.raises(ConfigError) as info:
        parse_config(["--config", str(cfg_file)])
    assert "bogus_key" in str(info.value)
    assert "2" in str(info.value)  # offending line number


def test_missing_problem_is_exit_2(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err != ""


def test_closed_form_only_for_problem_1(capsys):
    assert main(["--problem", "2", "--reference", "closed_form"]) == 2


def test_unsupported_distribution_name(capsys):
    assert main(["--problem", "3", "--distribution", "beta,beta"]) == 2


def test_too_small_basis_message(capsys):
    assert main(["--problem", "2", "--basis", "3"]) == 2
    err = capsys.readouterr().err
    assert "at least 4" in err


def test_partial_step_horizon_is_exit_2(tmp_path, capsys):
    assert main(["--problem", "1", "--duration", "0.0105", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not a whole number of steps" in err
    assert "0.01" in err
    assert not (tmp_path / "moments.csv").exists()


def test_quasi_exact_grid_limit_is_exit_2(tmp_path, capsys):
    argv = ["--problem", "4", "--reference", "quasi_exact", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "8000000 nodes" in err
    assert "monte_carlo" in err
    assert not (tmp_path / "moments.csv").exists()


def test_blowup_is_exit_3(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            [
                "--problem", "1",
                "--basis", "4",
                "--elements", "1",
                "--dt", "2.0",
                "--duration", "1000",
                "--warmstart-duration", "0",
                "--out", str(tmp_path),
            ]
        )
    assert code == 3


def cli_args(out_dir, duration="0.05"):
    return [
        "--problem", "1",
        "--basis", "4",
        "--elements", "2",
        "--duration", duration,
        "--out", str(out_dir),
    ]


def test_run_emits_csv_round_trip(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    assert main(cli_args(out)) == 0
    with open(out / "moments.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    assert header[0] == "t"
    assert "mean_u" in header and "var_u" in header
    assert "ref_mean_u" in header and "ref_var_u" in header
    assert len(data) == 51  # duration 0.05 at dt 1e-3, both endpoints

    # %.17g formatting must reproduce the in-memory doubles exactly
    cfg = parse_config(cli_args(out))
    series = run_me_fsc(
        SolverConfig(
            model=MODELS["oscillator"],
            distributions=cfg.distributions,
            element_counts=cfg.element_counts,
            truncation=cfg.truncation,
            dt=cfg.dt,
            duration=cfg.duration,
            warmstart=WarmStart(cfg.warmstart_degree, cfg.warmstart_duration),
        )
    )
    mean_col = header.index("mean_u")
    reread = np.array([float(row[mean_col]) for row in data])
    assert np.array_equal(reread, series.mean[0])


def test_errors_csv_has_global_row(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    assert main(cli_args(out)) == 0
    with open(out / "errors.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "t"
    assert rows[-1][0] == "GLOBAL"
    # global row is the dt/T weighted column sum of the per-step rows
    body = np.array([[float(v) for v in row[1:]] for row in rows[1:-1]])
    dt, horizon = 1e-3, 0.05
    expected = body.sum(axis=0) * dt / horizon
    got = np.array([float(v) for v in rows[-1][1:]])
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-300)


def test_identical_configs_identical_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    assert main(cli_args(out_a)) == 0
    assert main(cli_args(out_b)) == 0
    assert filecmp.cmp(out_a / "moments.csv", out_b / "moments.csv", shallow=False)
    assert filecmp.cmp(out_a / "errors.csv", out_b / "errors.csv", shallow=False)


def test_run_and_emit_returns_zero(tmp_path, capsys):
    cfg = parse_config(cli_args(tmp_path))
    assert run_and_emit(cfg) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("problem=1")
    assert "eG[mean_u]=" in line
    assert "wall=" in line
