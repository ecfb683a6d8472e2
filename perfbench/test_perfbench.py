"""Tests of the benchmark itself: names, reference parsers, tracer."""

import copy
import json

from perfbench import run
from perfbench.reference import ROOT, Reference, load_fig08, load_fig12, load_pinned
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, result_stats, sweep_point_stats
from repro.apps import jacobi
from repro.bench import default_config, run_sweep
from repro.bench.parallel import shutdown_pool

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["paths"] == ["perfbench"]


def test_reference_parsers_read_results():
    fig08 = load_fig08()
    assert sorted(fig08) == [1, 2, 4, 8, 16, 32]
    assert fig08[4]["total_time"] == "659190817"
    fig12 = load_fig12()
    assert sorted(fig12["points"]) == [1, 2, 4, 8, 16, 32]
    assert fig12["points"][1] == {"total_time": 22266168, "shares": "31%/0%/13%/56%"}
    assert (fig12["breakup"], fig12["potential"]) == ("32%", "132%")


def test_pinned_reference_agrees_with_results():
    ref = Reference()
    pinned = load_pinned()
    assert sorted(pinned) == sorted(WORKLOADS)
    figure = {"breakup": 0.3241981489895811, "potential": 1.3229611490652515}
    for name, points in pinned.items():
        bad = ref.check(name, points, figure)
        assert all(not msgs for msgs in bad.values()), bad


def test_reference_reports_every_mismatch():
    ref = Reference()
    points = copy.deepcopy(load_pinned()["tsp-lock"])
    points[4]["total_time"] += 1
    points[4]["protocol"]["faults"] += 1
    del points[4]["cache"]
    msgs = ref.check("tsp-lock", points, {})[4]
    text = "\n".join(msgs)
    for field in ("total_time", "protocol.faults", "cache: missing"):
        assert field in text
    assert "results/ total_time" in text


def _small_run():
    params = jacobi.JacobiParams(n=32, iterations=4)
    return result_stats(jacobi.run(default_config(2, 8), params).result)


def _small_sweep():
    params = jacobi.JacobiParams(n=32, iterations=2)
    sweep = run_sweep(jacobi, params=params, total_processors=4, jobs=2, cache=False)
    shutdown_pool()
    return [sweep_point_stats(p) for p in sweep.points]


def test_tracer_observes_and_restores():
    plain_run, plain_sweep = _small_run(), _small_sweep()
    tracer = Tracer()
    tracer.install()
    try:
        originals = [(t, n, o) for t, n, o in tracer._patches]
        assert originals
        traced_run, traced_sweep = _small_run(), _small_sweep()
    finally:
        tracer.uninstall()
        shutdown_pool()
    assert traced_run == plain_run
    assert traced_sweep == plain_sweep
    for target, name, original in originals:
        assert vars(target)[name] is original, f"{target}.{name} not restored"
    # One Runtime.run per point, including those shipped back from workers.
    assert len(tracer.runs) == 1 + len(plain_sweep)
    assert tracer.calls["Machine.send"] > 0 and tracer.words[0] > 0
    assert {"sim", "protocol", "hw", "env", "runner"} <= set(tracer.self_ns)
    points = [s for s in tracer.spans if s["name"] == "point"]
    jobs = {s["id"]: s for s in tracer.spans if s["name"] == "job"}
    assert len(points) == 1 + len(plain_sweep)
    # Worker spans link back to the parent's parallel_map span.
    (pmap,) = [s for s in tracer.spans if s["name"] == "parallel_map"]
    assert all(j["parent"] == pmap["id"] for j in jobs.values())


def test_layer_metrics_cover_per_layer_names():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("rep", "bench"):
            _small_run()
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer, 1.0, 0.5, 0)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["bench.points"] == 1 and metrics["trace.overhead_s"] == 0.5
