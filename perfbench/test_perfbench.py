"""Tests of the benchmark's correctness gates and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import queries
import run
from tracer import PER_LAYER, Tracer, merge, per_layer_metrics

sys.path.insert(0, str(run.SRC))
import kgcert  # noqa: E402

INPUTS = [((1, 2, 0), 8), ((2, 2, 1), 8)]


def _result(verdict="pass", kg=2, sha="a"):
    return {"verdict": verdict, "kg": kg, "sha256": sha, "certify_s": 1.0, "maxrss_kb": 1}


def _good_pass():
    return [_result(kg=2, sha="a"), _result(kg=1, sha="b")]


def test_passing_certificates_count_no_failure():
    attempted, failed, digests = run.tally_certificates(INPUTS, [_good_pass(), _good_pass()])
    assert (attempted, failed) == (4, 0)
    assert digests == {((1, 2, 0), 8): "a", ((2, 2, 1), 8): "b"}


@pytest.mark.parametrize(
    "bad",
    [
        _result(verdict="fail", kg=2, sha="a"),  # flipped verdict
        _result(kg=1, sha="a"),  # wrong kg: r < n must give 2
        _result(kg=2, sha="c"),  # other bytes than the first pass
        None,  # the worker crashed or timed out
    ],
)
def test_bad_certificate_counts_in_failed(bad):
    second = _good_pass()
    second[0] = bad
    attempted, failed, _ = run.tally_certificates(INPUTS, [_good_pass(), second])
    assert (attempted, failed) == (4, 1)


def test_wrong_kg_for_equal_r_and_n_fails():
    assert not run.certificate_ok((2, 2, 1), _result(kg=2))
    assert run.certificate_ok((2, 2, 1), _result(kg=1))


@pytest.fixture(scope="module")
def stream():
    return queries.generate(kgcert, seed=7, count=60)


def test_queries_pass_the_gate(stream):
    _, _, failed = queries.run_pass(kgcert.functors, stream)
    assert failed == 0


def test_query_generation_depends_only_on_the_seed(stream):
    assert queries.generate(kgcert, seed=7, count=60) == stream
    assert queries.generate(kgcert, seed=8, count=60) != stream


def test_wrong_support_answer_counts_in_failed(stream, monkeypatch):
    monkeypatch.setattr(kgcert.functors, "support_region", lambda t, F: {})
    _, _, failed = queries.run_pass(kgcert.functors, stream)
    assert failed > 0


def test_wrong_pointwise_value_fails_the_gate(stream):
    q = next(q for q in stream if any(q.at))
    a = queries.answer(kgcert.functors, q)
    assert queries.answer_ok(q, a)
    assert not queries.answer_ok(q, replace(a, dims=tuple(1 - min(d, 1) for d in a.dims)))


def test_tracer_restores_every_attribute_and_keeps_certificate_bytes():
    kg = kgcert
    owners = [
        kg.regions,
        kg.regions.Region,
        kg.presentation.GentleTriple,
        kg.model,
        kg.functors,
        kg.engine.WindowEngine,
        kg._kernels,
        kg.certifier,
        kg.certifier._Session,
    ]
    before = [dict(vars(o)) for o in owners]
    t = kg.validate_triple(1, 1, 0)
    window = kg.Window(-4, 4, -4, 4)
    plain = kg.certifier.certify(t, window, 3).to_json_text()
    kg.engine.get_engine.cache_clear()  # let the traced run build its own cubes
    tracer = Tracer()
    tracer.install(kg)
    try:
        tracer.start_phases()
        traced = kg.certifier.certify(t, window, 3).to_json_text()
    finally:
        tracer.restore()
    assert traced == plain
    assert [dict(vars(o)) for o in owners] == before
    metrics = per_layer_metrics(merge([tracer.snapshot()]), overhead=1.0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["certifier.phase.inf_simple1.s"] > 0
    assert metrics["engine.image_cube.calls"] >= metrics["engine.image_cube.distinct"] > 0
    assert metrics["engine.cube.bytes"] >= metrics["engine.cube.built"] > 0
    assert 0 < metrics["regions.enumerate_points.yield"] <= 1


def test_traced_counts_repeat(stream):
    def counts():
        tracer = Tracer()
        tracer.install(kgcert)
        try:
            queries.run_pass(kgcert.functors, stream)
        finally:
            tracer.restore()
        return tracer.snapshot()["calls"]

    first = counts()
    assert first == counts()
    assert first["functors.eval_fp"] == len(stream) * queries.EVAL_POINTS
    assert not any(first.get(n) for n in first if n.startswith(("engine.", "certifier.")))


def test_speed_sampler_restores_the_alarm_and_subtracts_its_time():
    import signal

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    _, ref_s, raw_s = speed.measure(lambda: sum(range(3_000_000)))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert raw_s > 0 and ref_s > 0


def test_benchmark_json_lists_the_reported_metrics():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
