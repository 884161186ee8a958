"""tools/benchpairs.py on two stand-in checkouts whose perfbench/run.py
prints fixed results, so the write-up can be checked without a benchmark."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
solve = {solve} + 0.01 * (seed % 3)
print("unscaled: {{}}; median speed factor {speed}", file=sys.stderr)
metrics = dict(setup_s=0.1, solve_s=solve, reference_s=0.5, total_s=0.6 + solve,
               peak_rss_mb=30.0)
print(json.dumps({{
    "correct": True, "attempted": 3, "failed": 0,
    "metrics": {{k: {{"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}}
                for k, v in metrics.items()}},
}}))
"""


def checkout(root: Path, solve: float, speed: float) -> Path:
    run = root / "perfbench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(textwrap.dedent(RUN.format(solve=solve, speed=speed)))
    return root


@pytest.mark.parametrize("change_solve, holds", [(0.30, True), (0.41, False)])
def test_claim_records_commits_speed_factors_and_the_rule(tmp_path, change_solve, holds):
    parent = checkout(tmp_path / "parent", 0.40, 1.25)
    change = checkout(tmp_path / "change", change_solve, 0.75)
    out = tmp_path / "BENCH.json"
    code = benchpairs.main([
        "--parent", str(parent), "--change", str(change), "--workload", "w",
        "--seeds", "1-4", "--seconds", "1", "--out", str(out), "--claim", "solve_s",
    ])
    assert code == 0
    bench = json.loads(out.read_text())
    # Neither stand-in is a git checkout.
    assert "parent_commit" in bench and "change_commit" in bench
    entry = bench["workloads"]["w"]
    assert entry["pairs"] == 4 and entry["seeds"] == [1, 2, 3, 4]
    assert entry["speed_factors"] == {"parent": [1.25] * 4, "change": [0.75] * 4}
    claimed = bench["claimed"]
    # Parent solve_s reads 0.41, 0.42, 0.40, 0.41: quartiles 0.4075-0.4125.
    assert claimed["parent_iqr"] == pytest.approx(0.005)
    assert claimed["pairs"] == 4 and claimed["wins_needed"] == 4
    assert claimed["median_gap"] == pytest.approx(0.41 - (change_solve + 0.01))
    assert claimed["wins_hold"] is holds and claimed["gap_holds"] is holds


def test_claim_rule_follows_the_metric_direction():
    entry = {
        "parent_median": 10.0, "change_median": 12.0, "change_wins": 9,
        "parent_quartiles": [9.0, 10.0, 11.0],
    }
    metric = next(name for name, better in benchpairs.BETTER.items() if better == "lower")
    claimed = benchpairs.claim("w", 10, metric, entry)
    assert claimed["median_gap"] == -2.0 and not claimed["gap_holds"]
    assert claimed["wins_needed"] == 9 and claimed["wins_hold"]
