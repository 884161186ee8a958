"""Benchmark command line: presets, config merging, CSV emission.

Four stochastic ODE benchmarks are wired up with their standard parameters;
flags override an optional flat key=value config file, which overrides the
preset. Output is a pair of CSVs (moment series and error series against the
chosen reference) plus a one-line summary on stdout.
"""
from __future__ import annotations

import argparse
import csv
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

# Every setting of a run: its type and its help text. Each one is a flag
# (--name, with dashes) and a config-file key, and every preset gives each a
# value but the problem id, which picks the preset. A type in a list marks a
# per-axis setting: a comma list, or one value for every random axis.
_SETTINGS = {
    "problem": (int, "benchmark id (1-4)"),
    "distribution": ([str], "input law name, or comma list with one name per axis"),
    "basis": (int, "basis truncation index P"),
    "elements": ([int], "element count, or comma list per axis"),
    "dt": (float, "time step (s)"),
    "duration": (float, "integration horizon (s)"),
    "warmstart_degree": (int, "warm-start polynomial degree"),
    "warmstart_duration": (float, "warm-start interval length (s)"),
    "reference": (str, f"reference oracle, one of {', '.join(REFERENCES)}"),
    "mc_samples": (int, "Monte Carlo sample count"),
    "seed": (int, "Monte Carlo seed"),
    "workers": (int, "worker processes for the solve and Monte Carlo"),
    "out": (str, "output directory for the CSV files"),
}


class ConfigError(Exception):
    pass


# The settings every preset gives the same value.
_SHARED = {"mc_samples": 1_000_000, "seed": 0, "workers": 1, "out": "."}

# Problem id -> (model name, a value for every other setting).
_PRESETS = {
    1: (
        "oscillator",
        dict(
            _SHARED, distribution="uniform", basis=6, elements=8, dt=1e-3,
            duration=150.0, warmstart_degree=7, warmstart_duration=1.0,
            reference="closed_form",
        ),
    ),
    2: (
        "third_order",
        dict(
            _SHARED, distribution="uniform", basis=7, elements=8, dt=1e-3,
            duration=150.0, warmstart_degree=7, warmstart_duration=1.0,
            reference="quasi_exact",
        ),
    ),
    3: (
        "vanderpol",
        dict(
            _SHARED, distribution="uniform,beta", basis=4, elements=8,
            dt=5e-3, duration=150.0, warmstart_degree=9, warmstart_duration=1.0,
            reference="monte_carlo",
        ),
    ),
    4: (
        "kraichnan_orszag",
        dict(
            _SHARED, distribution="uniform", basis=6, elements=8, dt=5e-3,
            duration=50.0, warmstart_degree=0, warmstart_duration=0.0,
            reference="monte_carlo",
        ),
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
    for name, (kind, text) in _SETTINGS.items():
        scalar = None if isinstance(kind, list) else kind
        parser.add_argument("--" + name.replace("_", "-"), type=scalar, help=text)
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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _convert(key: str, value, kind):
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key}: {value!r}") from exc


def _split_list(key: str, value, axes: int, kind) -> tuple:
    items = tuple(_convert(key, part.strip(), kind) for part in str(value).split(","))
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
    flags = vars(_build_parser().parse_args(argv))
    path = flags.pop("config")
    given = _read_config_file(path) if path else {}
    given.update((key, value) for key, value in flags.items() if value is not None)

    if "problem" not in given:
        raise ConfigError("a problem id is required (--problem 1..4)")
    problem = _convert("problem", given["problem"], int)
    if problem not in _PRESETS:
        raise ConfigError(f"unknown problem {problem}; choose from 1, 2, 3, 4")
    model_name, preset = _PRESETS[problem]
    axes = MODELS[model_name].param_dim

    values = {**preset, **given}
    for key, (kind, _) in _SETTINGS.items():
        if isinstance(kind, list):
            values[key] = _split_list(key, values[key], axes, kind[0])
        else:
            values[key] = _convert(key, values[key], kind)

    choices = _DISTRIBUTIONS[problem]
    distributions = []
    for axis, name in enumerate(values.pop("distribution")):
        if name not in choices[axis]:
            raise ConfigError(
                f"problem {problem} axis {axis + 1} supports "
                f"{sorted(choices[axis])}, got {name!r}"
            )
        distributions.append(choices[axis][name])

    reference = values["reference"]
    if reference not in REFERENCES:
        raise ConfigError(f"reference must be one of {REFERENCES}, got {reference!r}")
    if reference == "closed_form" and problem != 1:
        raise ConfigError("closed_form reference exists only for problem 1")
    if values["mc_samples"] < 1:
        raise ConfigError("mc_samples must be >= 1")
    if values["seed"] < 0:
        raise ConfigError("seed must be >= 0")

    truncation = values.pop("basis")
    element_counts = values.pop("elements")
    return RunConfig(
        distributions=tuple(distributions),
        truncation=truncation,
        element_counts=element_counts,
        **values,
    )


def _reference_series(config: RunConfig, solver: MomentSeries) -> MomentSeries:
    model = MODELS[_PRESETS[config.problem][0]]
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
    model = MODELS[_PRESETS[config.problem][0]]
    start = time.perf_counter()
    try:
        # A zero duration means no warm start (run_elements).
        warmstart = WarmStart(config.warmstart_degree, config.warmstart_duration)
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
