"""Tests of the benchmark itself: its checks reject perturbed output, its
traced rounds record every layer, and BENCHMARK.json matches what run.py
prints.

    python3 -m pytest perfbench

Each workload runs once, on a shortened horizon, through the same probed
CLI round that run.py makes.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from mefsc import bench_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Short horizons: past the 1 s warm start where there is one, so the
# flow-driven basis runs.
SHORT = {"third-order-e8": 1.1, "three-mode-e64-w2": 0.1, "oscillator-e512": 1.05}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    """One traced round of a workload: (workload, tracer, output directory)."""
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    tracer = spans.Tracer(work)
    argv = workload.argv(seed=7, out=str(work / "csv"), duration=SHORT[workload.name])
    code = run.run_round(bench_cli, spans, tracer, argv, full=True, repeats=3)[0]
    assert code == 0
    return workload, tracer, work / "csv"


def _outputs(traced):
    workload, tracer, out = traced
    moments, _ = checks.read_csv(out / "moments.csv")
    errors, global_row = checks.read_csv(out / "errors.csv")
    solve = next(s for s in tracer.spans if s.name == "aggregate.run_me_fsc")
    return workload, moments, errors, global_row, solve.info[1].copy()


def _results(workload, moments, errors, global_row, masses):
    steps = round(SHORT[workload.name] / workload.dt)
    return dict(
        (name, (value, limit))
        for name, value, limit in checks.common(
            moments, errors, global_row, masses, steps, workload.dt
        )
        + checks.WORKLOAD_CHECKS[workload.name](moments, workload.mc_samples)
    )


def _shift(column, amount, at=slice(None)):
    def perturb(moments, errors, global_row, masses):
        moments[column] = moments[column].copy()
        moments[column][at] += amount(moments) if callable(amount) else amount

    return perturb


def _scale(column, factor, at=slice(None)):
    def perturb(moments, errors, global_row, masses):
        moments[column] = moments[column].copy()
        moments[column][at] *= factor

    return perturb


def _mc_se(column, n=100_000):
    """Ten standard errors of the Monte Carlo oracle at every step."""
    if column.startswith("mean_"):
        return lambda m: 10.0 * np.sqrt(m["ref_var_" + column[5:]] / n)
    return lambda m: 10.0 * np.sqrt(3.0 * m["ref_" + column] / n)


def _mass_shift(moments, errors, global_row, masses):
    masses[0] += 1e-12


def _mass_swap(moments, errors, global_row, masses):
    masses[0] += 1e-9
    masses[1] -= 1e-9


def _global_scale(moments, errors, global_row, masses):
    global_row[0] = repr(float(global_row[0]) * 1.001)


COMMON = {
    "time grid is k*dt for every step": _shift("t", 1e-9, at=-1),
    "element masses sum to 1": _mass_shift,
    "element masses are 1/E": _mass_swap,
    "errors.csv GLOBAL row is the time average (relative)": _global_scale,
}

PERTURBATIONS = {
    "third-order-e8": {
        "variances are >= 0": _shift("var_u", -1.0, at=0),
        "errors.csv is |solver - reference|": _shift("mean_u", 1e-6),
        "solver mean vs own solution": _shift("mean_dudt", 1e-6),
        "solver variance vs own solution": _scale("var_u", 1.001),
        "quasi-exact mean vs own solution": _shift("ref_mean_d2udt2", 1e-6),
        "quasi-exact variance vs own solution": _scale("ref_var_dudt", 1.001),
    },
    "oscillator-e512": {
        "variances are >= 0": _shift("ref_var_dudt", -1.0, at=0),
        "errors.csv is |solver - reference|": _shift("ref_mean_u", 1e-6),
        "solver mean vs own solution": _shift("mean_u", 1e-6),
        "solver variance vs own solution": _scale("var_dudt", 1.001),
        "closed form mean vs own solution": _shift("ref_mean_dudt", 1e-6),
        "closed form variance vs own solution": _scale("ref_var_u", 1.001),
    },
    "three-mode-e64-w2": {
        "variances are >= 0": _shift("var_u2", -1.0, at=0),
        "errors.csv is |solver - reference|": _shift("mean_u3", 1e-6),
        "solver E[u1], E[u2] are 0": _shift("mean_u2", 1e-6),
        "solver sum Var + E^2 is 1": _scale("var_u3", 1.001),
        "Monte Carlo conserves its mean |u|^2": _scale("ref_var_u1", 1.001, at=-1),
        "solver vs Monte Carlo mean, |z|": _shift("mean_u3", _mc_se("mean_u3")),
        "solver vs Monte Carlo variance, |z|": _shift("var_u1", _mc_se("var_u1")),
    },
}


def test_every_check_passes_on_the_program_output(traced):
    results = _results(*_outputs(traced))
    assert {n: v for n, v in results.items() if not v[0] <= v[1]} == {}


def test_every_check_has_a_perturbation_it_rejects(traced):
    workload = traced[0]
    cases = {**COMMON, **PERTURBATIONS[workload.name]}
    names = set(_results(*_outputs(traced)))
    assert set(cases) == names
    for name, perturb in cases.items():
        workload, moments, errors, global_row, masses = _outputs(traced)
        perturb(moments, errors, global_row, masses)
        value, limit = _results(workload, moments, errors, global_row, masses)[name]
        assert not value <= limit, name


def test_traced_round_records_every_layer(traced):
    workload, tracer, _ = traced
    metrics = spans.layer_metrics(
        tracer.spans, tracer.oracle_node_evals, workload.required_spans, workload.nonzero
    )
    assert metrics["fsc_element.element_steps"] > 0
    assert metrics["aggregate.batches"] == workload.workers


def test_a_layer_without_spans_is_reported(traced):
    workload, tracer, _ = traced
    kept = [s for s in tracer.spans if s.name != "basis.orthogonalize"]
    with pytest.raises(spans.MissingLayer, match="basis.orthogonalize"):
        spans.layer_metrics(kept, 0, workload.required_spans, workload.nonzero)


def test_worker_spans_hang_under_the_solve(traced):
    workload, tracer, _ = traced
    batches = [s for s in tracer.spans if s.name == "fsc_element.run_elements"]
    solve = next(s for s in tracer.spans if s.name == "aggregate.run_me_fsc")
    assert {s.parent for s in batches} == {solve.id}
    assert len({s.id[0] for s in batches}) == workload.workers


def test_probes_are_removed_after_the_round(traced):
    assert not isinstance(bench_cli.run_me_fsc, spans.Probe)
    assert not any(isinstance(m.rhs, spans.Probe) for m in bench_cli.MODELS.values())
    assert spans._PROBES == {}


def test_untraced_round_repeats_the_oracle_and_compares(tmp_path):
    workload = WORKLOADS["oscillator-e512"]
    tracer = spans.Tracer(tmp_path)
    argv = workload.argv(seed=7, out=str(tmp_path / "csv"), duration=0.05)
    code, _, repeated = run.run_round(bench_cli, spans, tracer, argv, full=False, repeats=3)
    assert code == 0 and repeated.same
    assert len(repeated.oracle_s) == len(repeated.probe_s) == 3
    assert min(repeated.oracle_s + repeated.probe_s) > 0
    fn, args, kwargs, first = tracer.oracle_call
    assert fn is bench_cli.exact_problem1_moments
    first.mean[0, -1] += 1e-12
    assert run.repeat_oracle(tracer, 1).same is False


def test_covered_merges_overlaps():
    assert spans.covered([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)]) == 3.0
    assert spans.covered([]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span((1, 0), None, "p", 0.0, 10.0, None)
    kids = [
        spans.Span((1, 1), (1, 0), "a", 1.0, 3.0, None),
        spans.Span((2, 1), (1, 0), "b", 2.0, 4.0, None),
        spans.Span((2, 2), (1, 0), "c", 9.0, 12.0, None),
    ]
    assert spans.self_times([parent, *kids])[(1, 0)] == pytest.approx(6.0)


def test_horizons_are_whole_numbers_of_steps():
    for workload in WORKLOADS.values():
        assert workload.steps * workload.dt == pytest.approx(workload.duration, abs=0)
        assert abs(workload.duration / workload.dt - workload.steps) < 1e-9


def test_benchmark_json_matches_the_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
