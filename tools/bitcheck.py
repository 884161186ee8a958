"""Print the digests of the CSVs of the 24-run bit check.

    python3 tools/bitcheck.py [--out DIR] > digests.txt

Runs the `mefsc` CLI of this checkout (its ``src`` directory) 24 times: the
three benchmark workloads' command lines at seed 1, the four presets at
horizons of 1.2, 1.2, 1.1 and 0.05 s (presets 3 and 4 with 120000 Monte
Carlo samples), and preset 4 again at ``--basis 5``, whose germs end part
way through a derivative level, each with ``--workers`` 1, 2 and 3. Each
run prints one line,

    <run name> <sha256 of moments.csv> <sha256 of errors.csv>

so two checkouts give the same bits when ``diff`` finds no difference in
their outputs. A run that fails prints its exit code in place of the
digests, and the script then exits 1.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

WORKERS = (1, 2, 3)
# Run name -> (preset id, horizon in seconds, extra flags).
PRESETS = {
    "preset1": (1, 1.2, ()),
    "preset2": (2, 1.2, ()),
    "preset3": (3, 1.1, ("--mc-samples", "120000")),
    "preset4": (4, 0.05, ("--mc-samples", "120000")),
    "preset4-basis5": (4, 0.05, ("--mc-samples", "120000", "--basis", "5")),
}


def runs(out: Path):
    """(name, CLI arguments) of every run, each writing into its own directory."""
    for name, workload in WORKLOADS.items():
        for workers in WORKERS:
            tag = f"{name}-w{workers}"
            argv = workload.argv(1, str(out / tag))
            yield tag, [*argv, "--workers", str(workers)]
    for name, (problem, duration, extra) in PRESETS.items():
        for workers in WORKERS:
            tag = f"{name}-w{workers}"
            yield tag, [
                "--problem", str(problem), "--duration", repr(duration), *extra,
                "--workers", str(workers), "--out", str(out / tag),
            ]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="directory for the CSVs (default: a temporary one)")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(args.out) if args.out else Path(scratch)
        for tag, cli in runs(out):
            done = subprocess.run(
                [sys.executable, "-m", "mefsc", *cli],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            if done.returncode:
                failed = True
                print(f"{tag} exit {done.returncode}", flush=True)
                print(done.stderr, file=sys.stderr)
                continue
            sums = [digest(out / tag / name) for name in ("moments.csv", "errors.csv")]
            print(tag, *sums, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
