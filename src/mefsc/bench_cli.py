"""Benchmark command line: presets, config merging, CSV emission.

Four stochastic ODE benchmarks are wired up with their standard parameters;
flags override an optional flat key=value config file, which overrides the
preset. Output is a pair of CSVs (moment series and error series against the
chosen reference) plus a one-line summary on stdout.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregate import MomentSeries, SolverConfig, run_me_fsc
from .fsc_element import NumericalBlowup, WarmStart
from .measures import Distribution
from .models import MODELS
from .reference import (
    ErrorSeries,
    check_quasi_exact_grid,
    error_metrics,
    exact_problem1_moments,
    monte_carlo_moments,
    quasi_exact_moments,
)

REFERENCES = ("closed_form", "quasi_exact", "monte_carlo")

_CONFIG_KEYS = (
    "problem",
    "distribution",
    "basis",
    "elements",
    "dt",
    "duration",
    "warmstart_degree",
    "warmstart_duration",
    "reference",
    "mc_samples",
    "seed",
    "workers",
    "out",
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Preset:
    model_name: str
    distribution_names: tuple[str, ...]
    truncation: int
    element_counts: tuple[int, ...]
    dt: float
    duration: float
    warmstart_degree: int
    warmstart_duration: float
    reference: str


_PRESETS = {
    1: Preset("oscillator", ("uniform",), 6, (8,), 1e-3, 150.0, 7, 1.0, "closed_form"),
    2: Preset("third_order", ("uniform",), 7, (8,), 1e-3, 150.0, 7, 1.0, "quasi_exact"),
    3: Preset(
        "vanderpol", ("uniform", "beta"), 4, (8, 8), 5e-3, 150.0, 9, 1.0, "monte_carlo"
    ),
    4: Preset(
        "kraichnan_orszag",
        ("uniform", "uniform", "uniform"),
        6,
        (8, 8, 8),
        5e-3,
        50.0,
        0,
        0.0,
        "monte_carlo",
    ),
}

# Named input laws each benchmark axis supports, with their fixed parameters.
_DISTRIBUTIONS: dict[int, tuple[dict[str, Distribution], ...]] = {
    1: (
        {
            "uniform": Distribution.uniform(340.0, 460.0),
            "beta": Distribution.beta(2.0, 5.0, 340.0, 460.0),
            "gamma": Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0),
        },
    ),
    2: (
        {
            "uniform": Distribution.uniform(2.0, 3.0),
            "beta": Distribution.beta(2.0, 5.0, 2.0, 3.0),
            "normal": Distribution.truncated_normal(2.5, 0.125, 1.4, 3.6),
        },
    ),
    3: (
        {"uniform": Distribution.uniform(150.0, 450.0)},
        {"beta": Distribution.beta(2.0, 5.0, 340.0, 460.0)},
    ),
    4: tuple(
        {
            "uniform": Distribution.uniform(-1.0, 1.0),
            "beta": Distribution.beta(2.0, 5.0, -1.0, 1.0),
        }
        for _ in range(3)
    ),
}


@dataclass(frozen=True)
class RunConfig:
    problem: int
    distribution_names: tuple[str, ...]
    distributions: tuple[Distribution, ...]
    truncation: int
    element_counts: tuple[int, ...]
    dt: float
    duration: float
    warmstart_degree: int
    warmstart_duration: float
    reference: str
    mc_samples: int
    seed: int
    workers: int
    out: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mefsc",
        description="Propagate parametric uncertainty through a benchmark ODE "
        "system and report moment series and errors against a reference.",
    )
    parser.add_argument("--problem", type=int, help="benchmark id (1-4)")
    parser.add_argument(
        "--distribution",
        help="input law name, or comma list with one name per random axis",
    )
    parser.add_argument("--basis", type=int, help="basis truncation index P")
    parser.add_argument("--elements", help="element count, or comma list per axis")
    parser.add_argument("--dt", type=float, help="time step (s)")
    parser.add_argument("--duration", type=float, help="integration horizon (s)")
    parser.add_argument("--warmstart-degree", type=int, help="warm-start polynomial degree")
    parser.add_argument(
        "--warmstart-duration", type=float, help="warm-start interval length (s)"
    )
    parser.add_argument("--reference", choices=REFERENCES, help="reference oracle")
    parser.add_argument("--mc-samples", type=int, help="Monte Carlo sample count")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed")
    parser.add_argument(
        "--workers", type=int, help="worker processes for the solve and Monte Carlo"
    )
    parser.add_argument("--out", help="output directory for the CSV files")
    parser.add_argument("--config", help="flat key=value config file")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _convert(key: str, value, kind):
    if value is None or isinstance(value, kind):
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key}: {value!r}") from exc


def _split_list(key: str, value, axes: int, kind) -> tuple:
    if isinstance(value, (tuple, list)):
        items = tuple(value)
    else:
        items = tuple(part.strip() for part in str(value).split(","))
    items = tuple(_convert(key, item, kind) for item in items)
    if len(items) == 1 and axes > 1:
        items = items * axes
    if len(items) != axes:
        raise ConfigError(
            f"{key} must give one value per random axis ({axes}), got {len(items)}"
        )
    return items


def parse_config(argv=None) -> RunConfig:
    """Resolve flags, optional config file, and preset into a RunConfig.

    Precedence: command-line flags, then config-file entries, then the
    problem preset.
    """
    args = _build_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(key: str):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return file_values.get(key)

    problem = _convert("problem", pick("problem"), int)
    if problem is None:
        raise ConfigError("a problem id is required (--problem 1..4)")
    if problem not in _PRESETS:
        raise ConfigError(f"unknown problem {problem}; choose from 1, 2, 3, 4")
    preset = _PRESETS[problem]
    model = MODELS[preset.model_name]
    axes = model.param_dim

    def merged(key: str, default):
        value = pick(key)
        return default if value is None else value

    distribution_names = _split_list(
        "distribution", merged("distribution", preset.distribution_names), axes, str
    )
    choices = _DISTRIBUTIONS[problem]
    distributions = []
    for axis, name in enumerate(distribution_names):
        if name not in choices[axis]:
            raise ConfigError(
                f"problem {problem} axis {axis + 1} supports "
                f"{sorted(choices[axis])}, got {name!r}"
            )
        distributions.append(choices[axis][name])

    truncation = _convert("basis", merged("basis", preset.truncation), int)
    element_counts = _split_list(
        "elements", merged("elements", preset.element_counts), axes, int
    )
    dt = _convert("dt", merged("dt", preset.dt), float)
    duration = _convert("duration", merged("duration", preset.duration), float)
    warm_degree = _convert(
        "warmstart_degree", merged("warmstart_degree", preset.warmstart_degree), int
    )
    warm_duration = _convert(
        "warmstart_duration",
        merged("warmstart_duration", preset.warmstart_duration),
        float,
    )
    reference = str(merged("reference", preset.reference))
    mc_samples = _convert("mc_samples", merged("mc_samples", 1_000_000), int)
    seed = _convert("seed", merged("seed", 0), int)
    workers_default = os.environ.get("MEFSC_WORKERS", "1")
    workers = _convert("workers", merged("workers", workers_default), int)
    out = str(merged("out", "."))

    if reference not in REFERENCES:
        raise ConfigError(f"reference must be one of {REFERENCES}, got {reference!r}")
    if reference == "closed_form" and problem != 1:
        raise ConfigError("closed_form reference exists only for problem 1")
    if mc_samples < 1:
        raise ConfigError("mc_samples must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if warm_degree < 0:
        raise ConfigError("warmstart degree must be >= 0")
    if warm_duration < 0:
        raise ConfigError("warmstart duration must be >= 0")

    return RunConfig(
        problem=problem,
        distribution_names=distribution_names,
        distributions=tuple(distributions),
        truncation=truncation,
        element_counts=element_counts,
        dt=dt,
        duration=duration,
        warmstart_degree=warm_degree,
        warmstart_duration=warm_duration,
        reference=reference,
        mc_samples=mc_samples,
        seed=seed,
        workers=workers,
        out=out,
    )


def _reference_series(config: RunConfig, solver: MomentSeries) -> MomentSeries:
    model = MODELS[_PRESETS[config.problem].model_name]
    if config.reference == "closed_form":
        return exact_problem1_moments(solver.times, config.distributions[0])
    if config.reference == "quasi_exact":
        return quasi_exact_moments(model, config.distributions, solver.times)
    return monte_carlo_moments(
        model,
        config.distributions,
        config.mc_samples,
        config.dt,
        config.duration,
        config.seed,
        workers=config.workers,
    )


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_moments(path: Path, solver: MomentSeries, reference: MomentSeries) -> None:
    names = solver.component_names
    header = ["t"]
    for name in names:
        header += [f"mean_{name}", f"var_{name}"]
    for name in names:
        header += [f"ref_mean_{name}", f"ref_var_{name}"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(solver.times.size):
            row = [_fmt(solver.times[i])]
            for c in range(len(names)):
                row += [_fmt(solver.mean[c, i]), _fmt(solver.variance[c, i])]
            for c in range(len(names)):
                row += [_fmt(reference.mean[c, i]), _fmt(reference.variance[c, i])]
            writer.writerow(row)


def _write_errors(path: Path, errors: ErrorSeries) -> None:
    names = errors.component_names
    header = ["t"]
    for name in names:
        header += [f"err_mean_{name}", f"err_var_{name}"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(errors.times.size):
            row = [_fmt(errors.times[i])]
            for c in range(len(names)):
                row += [_fmt(errors.mean_error[c, i]), _fmt(errors.variance_error[c, i])]
            writer.writerow(row)
        final = ["GLOBAL"]
        for c in range(len(names)):
            final += [
                _fmt(errors.global_mean_error[c]),
                _fmt(errors.global_variance_error[c]),
            ]
        writer.writerow(final)


def run_and_emit(config: RunConfig) -> int:
    """Run solver and reference, write moments.csv and errors.csv."""
    model = MODELS[_PRESETS[config.problem].model_name]
    warmstart = (
        WarmStart(config.warmstart_degree, config.warmstart_duration)
        if config.warmstart_duration > 0
        else None
    )
    start = time.perf_counter()
    try:
        solver_config = SolverConfig(
            model=model,
            distributions=config.distributions,
            element_counts=config.element_counts,
            truncation=config.truncation,
            dt=config.dt,
            duration=config.duration,
            warmstart=warmstart,
            workers=config.workers,
        )
        if config.reference == "quasi_exact":
            check_quasi_exact_grid(len(config.distributions))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # A diverging run is reported through NumericalBlowup (exit code 3); the
    # overflow warnings numpy emits on the way there are noise on a CLI.
    with np.errstate(over="ignore", invalid="ignore"):
        solver = run_me_fsc(solver_config)
        reference = _reference_series(config, solver)
    errors = error_metrics(solver, reference)
    wall = time.perf_counter() - start

    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_moments(out_dir / "moments.csv", solver, reference)
        _write_errors(out_dir / "errors.csv", errors)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc

    parts = [f"problem={config.problem}"]
    for c, name in enumerate(errors.component_names):
        parts.append(f"eG[mean_{name}]={errors.global_mean_error[c]:.3e}")
        parts.append(f"eG[var_{name}]={errors.global_variance_error[c]:.3e}")
    parts.append(f"wall={wall:.1f}s")
    print(" ".join(parts))
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_and_emit(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalBlowup as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
