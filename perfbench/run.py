"""Run one benchmark workload through the `mefsc` CLI and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository: the solver is imported from its
``src`` directory. The run calls ``mefsc.bench_cli.main`` in this process,
round after round, until ``--seconds`` have passed; every round is one whole
CLI run (solve, reference oracle, error series, both CSVs), and its outputs
are checked against the benchmark's own computations (checks.py). A
workload with ``oracle_repeats`` times its oracle that many more times after
each untraced round, and reports those calls as its ``reference_s``
(repeat_oracle).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: medians over the rounds, the cold set-up time and the
peak resident set. With ``--trace 1`` untraced and traced rounds alternate;
the metrics are the per-layer ones from the traced rounds (medians), plus the
tracing overhead, the traced minus the untraced median CLI time. The spans
of the last traced round are written to ``.perfbench_out/<workload>/trace.json``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# A traced run makes at least this many rounds of each kind.
MIN_ROUNDS = 2
# Seconds that host_probe() takes on the host of the README's reference
# figures, and how strongly round times follow the probe (see host_probe).
PROBE_REFERENCE_S = 0.025
SPEED_EXPONENT = 0.75

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "reference_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fsc_element.self_s": "s",
    "fsc_element.us_per_element_step": "us",
    "fsc_element.element_steps": "count",
    "fsc_element.fallback_events": "count",
    "basis.orthogonalize_s": "s",
    "basis.orthogonalize_calls": "count",
    "basis.gflop": "GFLOP",
    "basis.gflop_per_s": "GFLOP/s",
    "basis.masked_germs": "count",
    "basis.kept_ratio": "ratio",
    "models.chain_calls": "count",
    "models.chain_levels": "count",
    "models.chain_s": "s",
    "models.rhs_calls": "count",
    "models.rhs_s": "s",
    "flowmap.fill_germs_self_s": "s",
    "aggregate.self_s": "s",
    "aggregate.batches": "count",
    "aggregate.series_bytes": "bytes",
    "measures.build_quadrature_s": "s",
    "reference.oracle_s": "s",
    "reference.model_node_evals": "count",
    "reference.error_metrics_s": "s",
    "bench_cli.output_s": "s",
    "bench_cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    The host this benchmark was written on is shared: its speed moves by up
    to half for tens of seconds at a time, for the solver and this probe
    alike, though not by the same amount: run medians moved with the
    probe's time to a power between 0.5 and 1, depending on the workload and
    the hour (README.md). Each round runs the probe just before and just
    after the CLI run and scales its times by PROBE_REFERENCE_S over the
    mean of the two, to the power SPEED_EXPONENT.
    """
    import numpy as np

    a = np.full((8, 8), 0.125)
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    x = a
    for _ in range(2_500):
        x = (x @ a) * 0.1 + a.sum()
    return time.perf_counter() - start


def speed_factor(probe_s: float) -> float:
    """What scales a time taken while host_probe() took ``probe_s`` seconds."""
    return (PROBE_REFERENCE_S / probe_s) ** SPEED_EXPONENT


class Repeats(NamedTuple):
    """The oracle calls that repeat_oracle made after a round."""

    oracle_s: list[float]
    # host_probe() just before each call.
    probe_s: list[float]
    # Every call gave the CLI call's moments bit for bit.
    same: bool


def repeat_oracle(tracer, repeats: int) -> Repeats:
    """Call the round's oracle ``repeats`` more times with the same arguments,
    each just after a host_probe().

    For an oracle that takes tens of milliseconds, one call in a round of
    seconds is too small a sample, and the probes around the round are too
    far from it: with the CLI's call alone, the closed-form oracle's median
    over a 30 s run spread by up to 28% between runs, and with 20 repeated
    calls scaled by the round's probes, by 11%.
    """
    import numpy as np

    fn, args, kwargs, first = tracer.oracle_call
    done = Repeats([], [], True)
    for _ in range(repeats):
        done.probe_s.append(host_probe())
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        done.oracle_s.append(time.perf_counter() - start)
        if not all(
            np.array_equal(getattr(result, name), getattr(first, name))
            for name in ("times", "mean", "variance")
        ):
            done = done._replace(same=False)
    return done


def run_round(bench_cli, spans, tracer, argv, full: bool, repeats: int):
    """One CLI run, probed as ``full`` says; in an untraced round that
    succeeds, ``repeats`` more oracle calls follow it (repeat_oracle).

    Returns its exit code, the factor that scales its times to the reference
    host speed, and the Repeats, or None when none were made.
    """
    tracer.reset()
    before = host_probe()
    with spans.instrument(tracer, full), contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call("bench_cli.main", bench_cli.main, (argv,))
    done = None
    if code == 0 and not full and repeats:
        done = repeat_oracle(tracer, repeats)
    after = host_probe()
    tracer.collect()
    return code, speed_factor((before + after) / 2.0), done


def peak_rss_kib() -> int:
    """Largest resident set so far of this process or a child it waited for.

    Taken after the first round: one CLI run per process, as a user runs
    it. Later rounds in the same process reuse or fragment the heap that
    the first one left, and moved the peak between two levels 9% apart.
    """
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def scaled(rounds: list[dict], name: str) -> float:
    """Median over rounds of a time scaled to the reference host speed.

    A round scales ``name`` by its ``<name>.speed`` if it has one, else by
    its ``speed``.
    """
    return statistics.median(r.get(f"{name}.speed", r["speed"]) * r[name] for r in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mefsc" / "__init__.py").is_file():
        print(f"error: no mefsc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from mefsc import bench_cli

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / workload.name
    out = work / "csv"
    cli_argv = workload.argv(args.seed, str(out))
    bench_cli.parse_config(cli_argv)
    setup_s = time.perf_counter() - T0

    import checks
    import spans

    spool = work / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    for stale in spool.glob("*.pkl"):
        stale.unlink()
    tracer = spans.Tracer(spool)

    attempted = failed = 0
    correct = True
    # Untraced and traced rounds: raw wall times, each with its speed factor.
    plain: list[dict] = []
    layers: list[dict] = []
    traced: list[dict] = []
    last_trace = []
    start = time.perf_counter()
    while True:
        full = bool(args.trace) and attempted % 2 == 1
        code, speed, repeated = run_round(
            bench_cli, spans, tracer, cli_argv, full, workload.oracle_repeats
        )
        attempted += 1
        if attempted == 1:
            peak_kib = peak_rss_kib()
        if code != 0:
            failed += 1
        else:
            by_name = {span.name: span for span in tracer.spans}
            results = checks.run_checks(
                workload, out, by_name["aggregate.run_me_fsc"].info[1]
            )
            for name, value, limit in checks.failures(results):
                correct = False
                print(f"check failed: {name}: {value!r} > {limit!r}", file=sys.stderr)
            main_span = by_name["bench_cli.main"]
            times = {"speed": speed, "total_s": main_span.end - main_span.start}
            if full:
                try:
                    metrics = spans.layer_metrics(
                        tracer.spans,
                        tracer.oracle_node_evals,
                        workload.required_spans,
                        workload.nonzero,
                    )
                except spans.MissingLayer as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                for name in metrics:
                    unit = PER_LAYER[name]
                    if unit in ("s", "us"):
                        metrics[name] *= speed
                    elif unit == "GFLOP/s":
                        metrics[name] /= speed
                metrics["bench_cli.output_bytes"] = sum(
                    (out / name).stat().st_size for name in ("moments.csv", "errors.csv")
                )
                layers.append(metrics)
                traced.append(times)
                last_trace = tracer.spans
            else:
                solve = by_name["aggregate.run_me_fsc"]
                oracle = by_name[workload.oracle]
                times["solve_s"] = solve.end - solve.start
                times["reference_s"] = oracle.end - oracle.start
                if repeated is not None:
                    times["reference_s"] = statistics.median(repeated.oracle_s)
                    times["reference_s.speed"] = speed_factor(
                        statistics.median(repeated.probe_s)
                    )
                    if not repeated.same:
                        correct = False
                        print("check failed: a repeated oracle call differs", file=sys.stderr)
                plain.append(times)
        done = time.perf_counter() - start >= args.seconds
        enough = (
            attempted >= 2 * MIN_ROUNDS and attempted % 2 == 0
            if args.trace
            else attempted >= 1
        )
        if done and enough:
            break

    if not plain or (args.trace and not traced):
        print("error: no round of a needed kind succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = scaled(traced, "total_s") - scaled(plain, "total_s")
        with open(work / "trace.json", "w") as handle:
            json.dump([span._asdict() for span in last_trace], handle, default=list)
        units = PER_LAYER
    else:
        metrics = {name: scaled(plain, name) for name in ("solve_s", "reference_s", "total_s")}
        raw = {name: statistics.median(r[name] for r in plain) for name in metrics}
        speed = statistics.median(r["speed"] for r in plain)
        print(
            f"unscaled: {raw}, setup_s {setup_s}; median speed factor {speed}",
            file=sys.stderr,
        )
        # The one cold set-up is scaled by the run's median host speed.
        metrics["setup_s"] = speed * setup_s
        metrics["peak_rss_mb"] = peak_kib / 1024.0
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
