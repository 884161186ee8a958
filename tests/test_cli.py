"""Benchmark CLI: preset wiring, config precedence, CSV emission."""

import csv
import filecmp
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mefsc import Distribution, DistributionKind, SolverConfig, run_me_fsc, MODELS, WarmStart
from mefsc import bench_cli, reference
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


# A value for every setting, other than problem 1's preset, and the RunConfig
# field it sets.
SETTING_VALUES = {
    "problem": ("2", "problem"),
    "distribution": ("gamma", "distributions"),
    "basis": ("5", "truncation"),
    "elements": ("3", "element_counts"),
    "dt": ("0.002", "dt"),
    "duration": ("2.0", "duration"),
    "warmstart_degree": ("4", "warmstart_degree"),
    "warmstart_duration": ("0.5", "warmstart_duration"),
    "reference": ("monte_carlo", "reference"),
    "mc_samples": ("500", "mc_samples"),
    "seed": ("9", "seed"),
    "workers": ("2", "workers"),
    "out": ("elsewhere", "out"),
}


@pytest.mark.parametrize("key", list(bench_cli._SETTINGS))
def test_every_setting_is_a_flag_and_a_config_key(tmp_path, key):
    value, field = SETTING_VALUES[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"problem = 1\n{key} = {value}\n")
    from_file = parse_config(["--config", str(cfg_file)])
    flag = "--" + key.replace("_", "-")
    from_flag = parse_config(["--problem", "1", flag, value])
    assert from_flag == from_file
    assert getattr(from_flag, field) != getattr(parse_config(["--problem", "1"]), field)


def test_workers_default_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("MEFSC_WORKERS", "3")
    assert parse_config(["--problem", "1"]).workers == 1


def test_unknown_reference_flag_is_exit_2(capsys):
    assert main(["--problem", "1", "--reference", "bogus"]) == 2
    assert "reference must be one of" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--dt", "0"], "dt must be positive"),
        (["--duration", "-1"], "duration must be >= 0"),
        (["--elements", "0"], "element counts must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--basis", "30"], "at most 18"),
        (["--warmstart-duration", "-1"], "warm-start duration must be >= 0"),
        (["--seed", "-1"], "seed must be >= 0"),
        (
            ["--warmstart-degree", "-1", "--warmstart-duration", "0"],
            "warm-start degree must be an integer >= 0",
        ),
        (
            ["--warmstart-degree", "-1", "--warmstart-duration", "1.0"],
            "warm-start degree must be an integer >= 0",
        ),
        (["--duration", "inf"], "duration must be finite"),
        (["--duration", "nan"], "duration must be finite"),
        (["--warmstart-duration", "inf"], "warm-start duration must be finite"),
        (["--dt", "inf"], "dt must be positive and finite"),
        (["--dt", "nan"], "dt must be positive and finite"),
        (["--duration", "1e308", "--dt", "1e-300"], "over 1000000000 steps"),
        (
            ["--elements", "1", "--basis", "4", "--duration", "1", "--dt", "1e-300"]
            + ["--warmstart-duration", "0"],
            "over 1000000000 steps",
        ),
    ],
)
def test_solver_inputs_rejected_with_exit_2(tmp_path, capsys, flags, message):
    assert main(["--problem", "1", "--out", str(tmp_path)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "moments.csv").exists()


def test_negative_seed_in_config_file_is_exit_2(tmp_path, capsys):
    # A negative seed used to run the whole solve and then fail in the
    # Monte Carlo oracle's Philox generator.
    config = tmp_path / "run.cfg"
    config.write_text("problem = 4\nreference = monte_carlo\nseed = -1\n")
    assert main(["--config", str(config), "--out", str(tmp_path)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "moments.csv").exists()


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


SRC = Path(__file__).resolve().parents[1] / "src"

# The benchmark workloads' command lines (perfbench/workloads.py) at short
# horizons: problems 2, 4 and 1, every law uniform.
UNIFORM_LAW_RUNS = (
    [
        "--problem", "2", "--distribution", "uniform", "--elements", "8",
        "--basis", "7", "--warmstart-degree", "7", "--warmstart-duration", "1.0",
        "--reference", "quasi_exact", "--dt", "0.001", "--duration", "1.1",
        "--workers", "1", "--seed", "1",
    ],
    [
        "--problem", "1", "--distribution", "uniform", "--elements", "512",
        "--basis", "4", "--warmstart-degree", "7", "--warmstart-duration", "1.0",
        "--reference", "closed_form", "--dt", "0.001", "--duration", "1.1",
        "--workers", "1", "--seed", "1",
    ],
    [
        "--problem", "4", "--distribution", "uniform", "--elements", "4",
        "--basis", "6", "--warmstart-degree", "0", "--warmstart-duration", "0",
        "--reference", "monte_carlo", "--mc-samples", "100000", "--dt", "0.005",
        "--duration", "0.05", "--workers", "2", "--seed", "1",
    ],
)


def run_fresh(body: str) -> None:
    """Run ``body`` in a new interpreter with the package importable."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr


def test_uniform_law_runs_do_not_load_scipy(tmp_path):
    runs = [
        argv + ["--out", str(tmp_path / str(i))]
        for i, argv in enumerate(UNIFORM_LAW_RUNS)
    ]
    run_fresh(
        f"""
import mefsc
from mefsc.bench_cli import main
heavy = ("scipy", "numpy.testing", "numpy.f2py")
loaded = [m for m in sys.modules if m.startswith(heavy)]
assert not loaded, loaded
for argv in {runs!r}:
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
# Workers are forked per call; no process pool is built.
assert "concurrent.futures" not in sys.modules
"""
    )


def test_non_uniform_laws_load_scipy(tmp_path):
    argv = [
        "--problem", "3", "--elements", "1", "--mc-samples", "300",
        "--duration", "0.05", "--warmstart-duration", "0.05", "--out", str(tmp_path),
    ]
    run_fresh(
        f"""
import numpy as np
from mefsc import Distribution, exact_problem1_moments
from mefsc.bench_cli import main
assert main({argv!r}) == 0
law = Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0)
series = exact_problem1_moments(np.array([0.0, 1.0]), law)
assert np.all(np.isfinite(series.mean)), series.mean
assert "scipy" in sys.modules
"""
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--problem", "3", "--duration", "0.1", "--warmstart-duration", "0.05"],
        ["--problem", "4", "--duration", "0.1"],
    ],
)
def test_monte_carlo_csvs_do_not_depend_on_workers(tmp_path, monkeypatch, flags):
    # Batches of 1000 samples, so the 3000-sample oracle runs three batches,
    # more than the two workers.
    monkeypatch.setattr(
        bench_cli,
        "monte_carlo_moments",
        partial(reference.monte_carlo_moments, batch_size=1000),
    )
    common = flags + [
        "--elements", "2", "--reference", "monte_carlo", "--mc-samples", "3000",
    ]
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(common + ["--workers", workers, "--out", str(out)]) == 0
    for name in ("moments.csv", "errors.csv"):
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False)
