"""Run interleaved parent/change pairs of a benchmark workload and write them
up as a ``BENCH_<n>.json``.

    python3 tools/benchpairs.py --parent DIR --change DIR --workload NAME \\
        --seeds 611-620 --seconds 36 --out BENCH_14.json \\
        [--note TEXT] [--claim METRIC]

``DIR`` are two checkouts of the repository, the parent commit's and the
change's. For each seed the tool runs ``perfbench/run.py --workload NAME
--seed <seed> --seconds <s> --trace 0`` once from each checkout, each in its
own process with the checkout as its working directory, the parent first for
the first, third, ... seed and the change first for the others. It reads
only the JSON line that perfbench prints last.

The file gets, per workload, the median and quartiles over the seeds of each
side for every end-to-end metric, ``change_wins`` (the pairs where the change
is better by the metric's own direction), the rounds attempted and failed,
and ``all_rounds_correct`` (every run checked its outputs and found them
correct), and per side the median host speed factor of each run, the
factor perfbench prints on stderr and scales that run's times by, in seed
order, which shows drift across a set. The file is rewritten after every
pair, so an interrupted run keeps the pairs it finished. An existing ``--out`` file keeps its other
workloads and top-level entries; ``--workload`` may be given more than once.
``--claim METRIC`` records the claimed gain of the last workload given,
with the parent's interquartile range and whether the gain passes both
parts of the rule for a claimed gain: the change is better in at least nine
of every ten pairs, and its median is better than the parent's by more than
the parent's interquartile range.

The file records both checkouts' commits, ``parent_commit`` and
``change_commit``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
SIDES = ("parent", "change")
# The line on which perfbench reports a run's median host speed factor.
SPEED = re.compile(r"median speed factor ([0-9.eE+-]+)")
# Share of the pairs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``611-620`` or ``611,613,617`` as a list of seeds."""
    if "-" in text.lstrip("-"):
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's JSON result for one untraced run from ``checkout``, with
    the run's median host speed factor added as ``speed``."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(
            f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    speed = SPEED.search(done.stderr)
    result["speed"] = float(speed.group(1)) if speed else None
    return result


def rounded(value: float) -> float:
    return round(float(value), 5)


def summarize(results: dict[str, list[dict]], seeds: list[int]) -> dict:
    """One workload's entry: the pairs of ``results[side]``, in seed order."""
    metrics = {}
    for name, better in BETTER.items():
        values = {
            side: [run["metrics"][name]["value"] for run in results[side]] for side in SIDES
        }
        gain = np.subtract(values["parent"], values["change"])
        entry = {"unit": results["parent"][0]["metrics"][name]["unit"]}
        for side in SIDES:
            quartiles = np.percentile(values[side], [25, 50, 75])
            entry[f"{side}_median"] = rounded(quartiles[1])
            entry[f"{side}_quartiles"] = [rounded(q) for q in quartiles]
        entry["change_wins"] = int(np.sum(gain > 0 if better == "lower" else gain < 0))
        metrics[name] = entry
    return {
        "pairs": len(results["parent"]),
        "seeds": seeds[: len(results["parent"])],
        "all_rounds_correct": all(run["correct"] for side in SIDES for run in results[side]),
        "rounds_attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "rounds_failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "speed_factors": {
            side: [None if r["speed"] is None else rounded(r["speed"]) for r in results[side]]
            for side in SIDES
        },
        "metrics": metrics,
    }


def claim(workload: str, pairs: int, metric: str, entry: dict) -> dict:
    """The ``claimed`` entry of ``metric`` on ``workload``: its medians and
    wins, the parent's interquartile range, and whether each part of the
    rule holds."""
    low, _, high = entry["parent_quartiles"]
    gap = entry["parent_median"] - entry["change_median"]
    if BETTER[metric] != "lower":
        gap = -gap
    wins_needed = math.ceil(CLAIM_WIN_SHARE * pairs)
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": entry["parent_median"],
        "change_median": entry["change_median"],
        "wins": entry["change_wins"],
        "pairs": pairs,
        "parent_quartiles": entry["parent_quartiles"],
        "parent_iqr": rounded(high - low),
        "median_gap": rounded(gap),
        "wins_needed": wins_needed,
        "wins_hold": entry["change_wins"] >= wins_needed,
        "gap_holds": gap > high - low,
    }


def git_commit(checkout: Path) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    if done.returncode:
        return None
    return done.stdout.strip() or None


def host() -> str:
    return (
        f"{os.cpu_count()} logical CPUs, {platform.machine()}, {platform.system()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", help="what the change does (the file's 'change')")
    parser.add_argument("--claim", help="end-to-end metric of the last workload claimed")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    if args.claim is not None and args.claim not in BETTER:
        parser.error(f"--claim must be one of {sorted(BETTER)}")

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.note:
        bench["change"] = args.note
    bench.setdefault("change", "")
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        key = f"{side}_commit"
        bench[key] = git_commit(checkout) or bench.get(key)
    bench["command"] = (
        f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
        "--trace 0"
    )
    bench["pairing"] = (
        "interleaved parent/change pairs, one per seed, the parent first for the "
        "first, third, ... seed of each workload, each side from its own checkout "
        "(tools/benchpairs.py)"
    )
    bench["host"] = host()
    bench["metric_notes"] = (
        "times are perfbench's host-speed-scaled medians over the rounds of one run; "
        "the medians and quartiles below are over the runs of each side; "
        "change_wins counts pairs where the change read better; speed_factors are "
        "each run's median host speed factor, in seed order"
    )
    workloads = bench.setdefault("workloads", {})
    for workload in args.workload:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                results[side].append(run_once(checkout, workload, seed, args.seconds))
            workloads[workload] = summarize(results, args.seeds)
            args.out.write_text(json.dumps(bench, indent=2) + "\n")
            solve = {side: results[side][-1]["metrics"]["solve_s"]["value"] for side in SIDES}
            print(f"{workload} seed {seed}: solve_s {solve}", file=sys.stderr, flush=True)
    if args.claim is not None:
        summary = workloads[args.workload[-1]]
        bench["claimed"] = claim(
            args.workload[-1], summary["pairs"], args.claim, summary["metrics"][args.claim]
        )
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
