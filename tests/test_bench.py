"""Tests for the benchmark harness: sweeps, rendering, Table 4 helpers."""

import pytest

from repro.apps import matmul
from repro.bench import (
    FIGURES,
    bench_params,
    default_config,
    render_breakdown_figure,
    render_lock_figure,
    render_metrics,
    render_table,
    run_sweep,
)
from repro.bench.table4 import PAPER_TABLE4
from repro.metrics import ClusterSweep, SweepPoint


def tiny_sweep():
    return run_sweep(
        matmul,
        params=matmul.MatmulParams(n=8, compute_per_mac=10),
        total_processors=4,
    )


def test_run_sweep_covers_all_cluster_sizes():
    sweep = tiny_sweep()
    assert [p.cluster_size for p in sweep.points] == [1, 2, 4]
    assert all(p.total_time > 0 for p in sweep.points)
    assert sweep.app == "matmul"


def test_run_sweep_validates_output():
    # require_valid is on by default: a sweep that completes proves the
    # app matched its golden run at every cluster size.
    sweep = tiny_sweep()
    assert sweep.points


def test_render_table_alignment():
    out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)


def test_render_breakdown_figure_mentions_each_cluster_size():
    sweep = tiny_sweep()
    text = render_breakdown_figure(sweep, "title")
    for c in (1, 2, 4):
        assert f"C={c:>2}" in text
    assert "legend" in text


def test_render_metrics_includes_paper_columns():
    sweep = tiny_sweep()
    text = render_metrics(sweep, paper_breakup=0.16, paper_potential=1.07,
                          paper_curvature="convex")
    assert "16%" in text
    assert "107%" in text
    assert "convex" in text


def test_render_lock_figure():
    points = [
        SweepPoint(cluster_size=c, total_time=1, breakdown={}, lock_hit_ratio=c / 4)
        for c in (1, 2, 4)
    ]
    sweep = ClusterSweep(app="x", total_processors=4, points=points)
    text = render_lock_figure([sweep], "fig")
    assert "0.25" in text and "1.00" in text


def test_default_config_matches_paper_platform():
    config = default_config(4)
    assert config.total_processors == 32
    assert config.cluster_size == 4
    assert config.inter_ssmp_delay == 1000
    assert config.page_size == 1024


def test_bench_params_cover_every_figure():
    for spec in FIGURES.values():
        params = bench_params(spec.app)
        assert params is not None
    with pytest.raises(KeyError):
        bench_params("nonesuch")


def test_paper_table4_has_all_apps():
    from repro.apps import ALL_APPS, SYNTHETIC_APPS

    assert set(PAPER_TABLE4) == set(ALL_APPS) - SYNTHETIC_APPS


def _smoke_report(jacobi_time=8905975, events_per_sec=27468):
    from repro.bench.perfsmoke import SCHEMA

    return {
        "schema": SCHEMA,
        "quick": False,
        "benchmarks": {
            "jacobi_fast": {
                "total_time": jacobi_time,
                "events": 44012,
                "events_per_sec": events_per_sec,
            }
        },
    }


def test_perfsmoke_check_passes_an_identical_run():
    from repro.bench.perfsmoke import check_against_baseline

    assert check_against_baseline(_smoke_report(), _smoke_report()) == []


def test_perfsmoke_check_flags_a_changed_simulated_run():
    from repro.bench.perfsmoke import check_against_baseline

    failures = check_against_baseline(
        _smoke_report(jacobi_time=8905976), _smoke_report()
    )
    assert len(failures) == 1
    assert failures[0].startswith("jacobi_fast.total_time changed")


def test_perfsmoke_check_flags_a_throughput_regression():
    from repro.bench.perfsmoke import check_against_baseline

    failures = check_against_baseline(
        _smoke_report(events_per_sec=10000), _smoke_report()
    )
    assert len(failures) == 1
    assert failures[0].startswith("jacobi_fast.events_per_sec regressed")


def test_committed_perfsmoke_baseline_has_every_checked_field():
    import json
    from pathlib import Path

    from repro.bench.perfsmoke import DETERMINISTIC, GATES, SCHEMA

    path = Path(__file__).resolve().parent.parent / "BENCH_perfsmoke.json"
    baseline = json.loads(path.read_text())
    assert baseline["schema"] == SCHEMA
    benches = baseline["benchmarks"]
    for bench, (metric, _) in GATES.items():
        assert metric in benches[bench], bench
    for bench, keys in DETERMINISTIC.items():
        for key in keys:
            assert key in benches[bench], (bench, key)
