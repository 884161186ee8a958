"""Spans around the calls into each layer of src/mefsc.

The spans are recorded from the benchmark's own files: for the length of one
CLI run, the names a layer is entered through are replaced by probes that
time the call and pass it on. A probe records the span's name, start, end
and parent (the span open when it was called) in memory; the round's spans
are reduced to per-layer metrics when the run ends.

An untraced round probes only the solve and the oracles, whose times are
end-to-end metrics. A traced round probes every layer:

- bench_cli: ``parse_config`` (the CLI run itself is timed by run.py);
- aggregate: ``run_me_fsc`` as imported by bench_cli;
- fsc_element: ``run_elements`` as imported by aggregate;
- basis, flowmap, measures: ``orthogonalize``, ``fill_germs`` and
  ``build_quadrature`` as imported by fsc_element;
- models: ``rhs`` and ``derivative_chain`` of each model in
  ``bench_cli.MODELS``, swapped in with ``dataclasses.replace``;
- reference: the three oracles and ``error_metrics`` as imported by bench_cli.

Model calls under an oracle are the oracle's work: they are counted as node
evaluations, not recorded as model spans.

Worker processes of the solver's pool are forked with the probes in place,
and the pool pickles ``run_elements`` and the models by reference. A probe
pickles as "this process's probe of the same name", so the workers record
spans too; each worker writes the spans of its batch to a spool file that
the parent reads back after the run.
"""
from __future__ import annotations

import dataclasses
import os
import pickle
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from mefsc import aggregate, bench_cli, fsc_element

ORACLES = ("exact_problem1_moments", "quasi_exact_moments", "monte_carlo_moments")


class Span(NamedTuple):
    id: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    info: tuple | None


class Tracer:
    """The spans of one process, kept in memory until the round ends."""

    def __init__(self, spool: Path):
        self.pid = os.getpid()
        self.spool = spool
        self.spans: list[Span] = []
        self.stack: list[tuple[int, int]] = []
        self.count = 0
        self.oracle_depth = 0
        self.oracle_node_evals = 0
        # (target, args, kwargs, result) of the round's outermost oracle call.
        self.oracle_call = None

    def reset(self) -> None:
        self.spans = []
        self.oracle_node_evals = 0
        self.oracle_call = None

    def call(self, name, fn, args, kwargs=None, describe=None):
        """Call ``fn`` under a span; ``describe(args, result)`` gives its info."""
        sid = (os.getpid(), self.count)
        self.count += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.stack.pop()
        info = describe(args, result) if describe is not None else None
        self.spans.append(Span(sid, parent, name, start, end, info))
        return result

    def collect(self) -> None:
        """Read back the spans that worker processes spooled."""
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as handle:
                self.spans.extend(pickle.load(handle))
            path.unlink()


# The probes installed in this process, by key. A forked worker inherits it.
_PROBES: dict[str, "Probe"] = {}


def _resolve(key: str, target):
    """Unpickle a probe as this process's probe of ``key``, else its target."""
    probe = _PROBES.get(key)
    return probe if probe is not None and probe.target is target else target


class Probe:
    """A stand-in for ``target`` that calls it under a span named ``name``."""

    def __init__(self, key: str, name: str, target, tracer: Tracer):
        self.key = key
        self.name = name
        self.target = target
        self.tracer = tracer

    def __reduce__(self):
        return (_resolve, (self.key, self.target))

    def describe(self, args, result):
        return None

    def __call__(self, *args, **kwargs):
        return self.tracer.call(self.name, self.target, args, kwargs, self.describe)


class SolveProbe(Probe):
    """``run_me_fsc``: info is (fallback events, element masses)."""

    def describe(self, args, result):
        return (len(result.fallback_events), result.partition.masses)


class OracleProbe(Probe):
    """An oracle: the call and its result are kept so it can be timed again."""

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        tracer.oracle_depth += 1
        try:
            result = super().__call__(*args, **kwargs)
        finally:
            tracer.oracle_depth -= 1
        if not tracer.oracle_depth:
            tracer.oracle_call = (self.target, args, kwargs, result)
        return result


class GramSchmidtProbe(Probe):
    """``orthogonalize``: info is (elements, candidates, nodes, masked rows)."""

    def describe(self, args, result):
        n_el, m, q = args[0].shape
        return (n_el, m, q, result.kept.size - int(result.kept.sum()))


class BatchProbe(Probe):
    """``run_elements``: info is (element-steps, bytes of the stored series).

    In a worker process the batch's spans are spooled to a file before the
    result goes back to the parent.
    """

    def describe(self, args, result):
        steps = sum(series.times.size - 1 for series in result)
        stored = sum(series.mean.nbytes + series.variance.nbytes for series in result)
        return (steps, stored)

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        first = len(tracer.spans)
        result = super().__call__(*args, **kwargs)
        if os.getpid() != tracer.pid:
            batch = tracer.spans[first:]
            del tracer.spans[first:]
            path = tracer.spool / f"{os.getpid()}-{batch[0].id[1]}.pkl"
            with open(path, "wb") as handle:
                pickle.dump(batch, handle)
        return result


class ModelProbe(Probe):
    """A model's ``rhs`` or ``derivative_chain``.

    Under an oracle it only counts node evaluations. Elsewhere a chain
    span's info is the number of derivative levels computed (order + 1).
    """

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        if tracer.oracle_depth:
            tracer.oracle_node_evals += args[1].shape[0]
            return self.target(*args, **kwargs)
        return super().__call__(*args, **kwargs)

    def describe(self, args, result):
        return (args[3] + 1,) if len(args) > 3 else None


@contextmanager
def instrument(tracer: Tracer, full: bool):
    """Probe the solve and the oracles, and with ``full`` every layer."""
    probes: list[Probe] = []

    def probe(cls, module, attr, name):
        p = cls(f"{module.__name__}.{attr}", name, getattr(module, attr), tracer)
        probes.append(p)
        return (module, attr, p)

    patches = [probe(SolveProbe, bench_cli, "run_me_fsc", "aggregate.run_me_fsc")]
    patches += [probe(OracleProbe, bench_cli, o, f"reference.{o}") for o in ORACLES]
    if full:
        patches += [
            probe(Probe, bench_cli, "parse_config", "bench_cli.parse_config"),
            probe(Probe, bench_cli, "error_metrics", "reference.error_metrics"),
            probe(BatchProbe, aggregate, "run_elements", "fsc_element.run_elements"),
            probe(GramSchmidtProbe, fsc_element, "orthogonalize", "basis.orthogonalize"),
            probe(Probe, fsc_element, "fill_germs", "flowmap.fill_germs"),
            probe(Probe, fsc_element, "build_quadrature", "measures.build_quadrature"),
        ]
        models = {}
        for name, model in bench_cli.MODELS.items():
            rhs = ModelProbe(f"models.{name}.rhs", "models.rhs", model.rhs, tracer)
            chain = ModelProbe(
                f"models.{name}.derivative_chain",
                "models.derivative_chain",
                model.derivative_chain,
                tracer,
            )
            probes += [rhs, chain]
            models[name] = dataclasses.replace(model, rhs=rhs, derivative_chain=chain)
        patches.append((bench_cli, "MODELS", models))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, value in patches:
        setattr(module, attr, value)
    _PROBES.update((p.key, p) for p in probes)
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
        _PROBES.clear()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> dict:
    """Each span's duration minus the time its child spans cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if e > span.start and s < span.end
        )
        for span in spans
    }


def orthogonalize_flops(n_el: int, m: int, q: int) -> int:
    """Floating-point operations of ``basis.orthogonalize`` on (E, m, Q) input.

    Counted from its loop: per candidate i >= 1, two passes of two products
    of 2*E*Q*i flops and a subtraction, then the norm and the projector row;
    plus the weighted copies, norms and first projector row up front.
    """
    return n_el * q * (4 * m * (m - 1) + 9 * m - 5)


class MissingLayer(RuntimeError):
    """A layer that must run on the workload recorded no calls."""


def layer_metrics(
    spans: list[Span], oracle_node_evals: int, required=(), nonzero=()
) -> dict[str, float]:
    """Per-layer metrics of one traced round (see README.md for the list).

    Raises :class:`MissingLayer` when a span name in ``required`` was never
    recorded or a metric in ``nonzero`` is zero.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    missing = sorted(set(required) - set(by_name))
    if missing:
        raise MissingLayer(f"no spans recorded for {missing}")
    own = self_times(spans)

    def busy(group):
        return sum(span.end - span.start for span in group)

    def self_s(name):
        return sum(own[span.id] for span in by_name[name])

    batches = by_name["fsc_element.run_elements"]
    steps = sum(span.info[0] for span in batches)
    gs = by_name["basis.orthogonalize"]
    gflop = 1e-9 * sum(orthogonalize_flops(*span.info[:3]) for span in gs)
    rows = sum(span.info[0] * span.info[1] for span in gs)
    masked = sum(span.info[3] for span in gs)
    # Model calls under an oracle record no span, so these are the solve's:
    # germ evaluation under fill_germs, and the Galerkin right-hand side
    # (rhs, or derivative_chain at order 0 for companion models) under
    # run_elements.
    by_id = {span.id: span for span in spans}
    model_calls = by_name.get("models.derivative_chain", []) + by_name.get("models.rhs", [])

    def called_from(name):
        return [s for s in model_calls if s.parent in by_id and by_id[s.parent].name == name]

    chains = called_from("flowmap.fill_germs")
    rhs = called_from("fsc_element.run_elements")
    oracle = [
        span for name in ORACLES for span in by_name.get(f"reference.{name}", ())
    ]
    metrics = {
        "fsc_element.self_s": self_s("fsc_element.run_elements"),
        "fsc_element.us_per_element_step": 1e6
        * self_s("fsc_element.run_elements")
        / steps,
        "fsc_element.element_steps": steps,
        "fsc_element.fallback_events": sum(
            span.info[0] for span in by_name["aggregate.run_me_fsc"]
        ),
        "basis.orthogonalize_s": busy(gs),
        "basis.orthogonalize_calls": len(gs),
        "basis.gflop": gflop,
        "basis.gflop_per_s": gflop / busy(gs),
        "basis.masked_germs": masked,
        "basis.kept_ratio": 1.0 - masked / rows,
        "models.chain_calls": len(chains),
        "models.chain_levels": sum(span.info[0] for span in chains),
        "models.chain_s": busy(chains),
        "models.rhs_calls": len(rhs),
        "models.rhs_s": busy(rhs),
        "flowmap.fill_germs_self_s": self_s("flowmap.fill_germs"),
        "aggregate.self_s": self_s("aggregate.run_me_fsc"),
        "aggregate.batches": len(batches),
        "aggregate.series_bytes": sum(span.info[1] for span in batches),
        "measures.build_quadrature_s": busy(by_name["measures.build_quadrature"]),
        "reference.oracle_s": busy(oracle),
        "reference.model_node_evals": oracle_node_evals,
        "reference.error_metrics_s": busy(by_name["reference.error_metrics"]),
        "bench_cli.output_s": self_s("bench_cli.main"),
    }
    zero = [name for name in nonzero if not metrics[name]]
    if zero:
        raise MissingLayer(f"zero counts for {zero}")
    return metrics
