"""The benchmark's workloads: the `mefsc` command line each one runs.

Every flag the CLI would otherwise take from a preset or the environment is
given explicitly, so a change to a preset or to ``MEFSC_WORKERS`` cannot
change a workload. Only the Monte Carlo seed comes from ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

# Span names every workload must record in a traced round, at least one per
# layer of src/mefsc (see spans.py), so that a change to the imports cannot
# drop a layer from the trace without notice. Why each workload was chosen is
# in BENCHMARK.json and README.md.
COMMON_SPANS = (
    "bench_cli.main",
    "bench_cli.parse_config",
    "aggregate.run_me_fsc",
    "fsc_element.run_elements",
    "measures.build_quadrature",
    "flowmap.fill_germs",
    "basis.orthogonalize",
    "models.derivative_chain",
    "reference.error_metrics",
)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    oracle: str
    dt: float
    duration: float
    workers: int
    mc_samples: int = 0
    # Untraced rounds call the oracle this many more times after the CLI run,
    # with the same arguments, and report those calls (see run.repeat_oracle).
    oracle_repeats: int = 0
    # Spans this workload records beyond COMMON_SPANS and its oracle's.
    extra_spans: tuple[str, ...] = ()
    # Per-layer counts that must be non-zero in a traced round.
    nonzero: tuple[str, ...] = ()

    @property
    def required_spans(self) -> set[str]:
        return {*COMMON_SPANS, self.oracle, *self.extra_spans}

    @property
    def steps(self) -> int:
        return round(self.duration / self.dt)

    def argv(self, seed: int, out: str, duration: float | None = None) -> list[str]:
        """CLI arguments; ``duration`` overrides the horizon (tests use it)."""
        horizon = self.duration if duration is None else duration
        samples = ["--mc-samples", str(self.mc_samples)] if self.mc_samples else []
        return [
            *self.flags,
            *samples,
            "--dt", repr(self.dt),
            "--duration", repr(horizon),
            "--workers", str(self.workers),
            "--seed", str(seed),
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="third-order-e8",
            flags=(
                "--problem", "2", "--distribution", "uniform", "--elements", "8",
                "--basis", "7", "--warmstart-degree", "7",
                "--warmstart-duration", "1.0", "--reference", "quasi_exact",
            ),
            oracle="reference.quasi_exact_moments",
            dt=1e-3,
            duration=2.0,
            workers=1,
            nonzero=("basis.masked_germs", "reference.model_node_evals"),
        ),
        Workload(
            name="three-mode-e64-w2",
            flags=(
                "--problem", "4", "--distribution", "uniform", "--elements", "4",
                "--basis", "6", "--warmstart-degree", "0",
                "--warmstart-duration", "0", "--reference", "monte_carlo",
            ),
            oracle="reference.monte_carlo_moments",
            dt=5e-3,
            duration=0.5,
            workers=2,
            mc_samples=100_000,
            extra_spans=("models.rhs",),
            nonzero=("reference.model_node_evals",),
        ),
        Workload(
            name="oscillator-e512",
            flags=(
                "--problem", "1", "--distribution", "uniform", "--elements", "512",
                "--basis", "4", "--warmstart-degree", "7",
                "--warmstart-duration", "1.0", "--reference", "closed_form",
            ),
            oracle="reference.exact_problem1_moments",
            dt=1e-3,
            duration=2.0,
            workers=1,
            oracle_repeats=16,
        ),
    )
}

