"""Self-time arithmetic, metric names and the tail definition."""

import json
import os

import measure
import run
import tracing


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40).
    assert tracing.covered_ns(0, 100, [(10, 40), (30, 60)]) == 50
    assert tracing.self_time_ns(0, 100, [(10, 40), (30, 60)]) == 50


def test_self_time_clips_children_to_the_parent_and_ignores_empty_ones():
    assert tracing.self_time_ns(0, 100, [(-20, 10), (90, 150), (50, 50)]) == 80
    assert tracing.self_time_ns(0, 100, [(0, 100), (20, 30)]) == 0
    assert tracing.self_time_ns(0, 100, []) == 100


def test_nested_children_count_once():
    assert tracing.covered_ns(0, 100, [(10, 90), (20, 30), (40, 50)]) == 80


def test_span_table_self_and_busy_time():
    tracer = tracing.Tracer()
    outer = tracer.add_span("chase.run", 0, 1000)
    tracer.add_span("chase.check", 100, 300, parent=outer)
    tracer.add_span("chase.check", 250, 400, parent=outer)
    inner = tracer.add_span("chase.run", 500, 600, parent=outer)
    tracer.add_span("chase.apply.td", 520, 540, parent=inner)
    table = tracing.SpanTable(tracer)
    # The outer run's children cover [100, 400) and [500, 600).
    assert table.self_ms("chase.run") == (600 + 80) / 1e6
    # The nested run is inside the outer one, so busy time counts it once.
    assert table.busy_ms("chase.run") == 1000 / 1e6
    assert table.busy_ms("chase.check") == 350 / 1e6
    assert table.calls("chase.check") == 2


def test_wrapped_calls_record_spans_under_their_caller():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda x: x + 1)
    outer = tracer.wrap("a.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    table = tracing.SpanTable(tracer)
    (outer_id,) = table.ids("a.outer")
    (inner_id,) = table.ids("b.inner")
    assert tracer.parent[inner_id] == outer_id
    assert tracer.parent[outer_id] == -1


def test_install_restores_every_wrapped_callable():
    from repro.api import Solver
    from repro.chase import ChaseEngine

    before = (Solver.problem, Solver.__init__, ChaseEngine.run)
    with tracing.install(tracing.Tracer()):
        assert Solver.problem is not before[0]
    assert (Solver.problem, Solver.__init__, ChaseEngine.run) == before


def test_every_metric_name_is_well_formed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(tracing.layer_metrics(tracing.Tracer()))
    names += [name for name, _ in run.PER_LAYER]
    for name in names:
        assert measure.METRIC_NAME_RE.match(name), name
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) == (
        len(spec["end_to_end"]) + len(spec["per_layer"]))


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, percentile, samples = measure.tail(values)
    assert value == 90 and percentile == 90.0 and samples == 100
    assert sum(v > value for v in values) == measure.TAIL_BEYOND
    assert measure.tail([5, 1]) == (5, 100.0, 2)


def test_segmented_tail_is_the_median_of_segment_tails():
    segment = list(range(1, 201))
    burst = [1] * 189 + [1000] * 11
    values = segment + burst + segment
    value, percentile, samples = measure.segmented_tail(values, 3)
    assert value == 190 and samples == 200 and percentile == 95.0


def test_short_runs_report_the_whole_run_tail():
    values = list(range(1, 61))
    assert measure.segmented_tail(values, 3) == measure.tail(values) == (50, 100.0 * 50 / 60, 60)
