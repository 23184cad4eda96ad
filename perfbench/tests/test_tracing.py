import json
import math
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

import tracing

import socksort
import socksort.cli  # noqa: F401
from socksort import patterns, stack_machine

NAMES = ["cli", "a", "b", "gen", "c"]


def span_set(rows):
    """rows: (name, parent, run, start, end, busy, size, count, failed)"""
    arrays = {field: array(code) for field, code in tracing.FIELDS}
    for row in rows:
        for (field, _), value in zip(tracing.FIELDS, row):
            arrays[field].append(value)
    return arrays


def test_self_time_on_a_nested_tree_with_a_generator():
    rows = [
        (0, -1, 0, 0.0, 10.0, 10.0, 0, 0, 0),  # root
        (1, 0, 0, 1.0, 6.0, 5.0, 0, 0, 0),  # a under root
        (2, 1, 0, 2.0, 4.0, 2.0, 0, 0, 0),  # b under a
        (3, 0, 0, 6.0, 9.5, 1.0, 0, 4, 0),  # generator: busy only when resumed
        (4, 3, 0, 7.0, 7.5, 0.5, 0, 0, 0),  # c, opened while gen was resumed
        (1, 0, 1, 9.5, 9.9, 0.4, 0, 0, 0),  # a again, under root
    ]
    spans = tracing.Spans(NAMES, span_set(rows))
    assert spans.self_s("cli") == pytest.approx(10 - 5 - 1 - 0.4)
    assert spans.self_s("a") == pytest.approx(3 + 0.4)
    assert spans.self_s("b") == pytest.approx(2)
    assert spans.self_s("gen") == pytest.approx(0.5)
    assert spans.self_s("c") == pytest.approx(0.5)
    assert sum(spans.self_s(n) for n in NAMES) == pytest.approx(spans.wall_s()) == 10
    assert spans.calls("a") == 2


def test_recursive_calls_count_once():
    rows = [
        (0, -1, 0, 0.0, 4.0, 4.0, 0, 0, 0),
        (1, 0, 0, 0.0, 3.0, 3.0, 5, 0, 1),
        (1, 1, 0, 1.0, 2.0, 1.0, 4, 0, 1),  # a inside a
    ]
    spans = tracing.Spans(NAMES, span_set(rows))
    assert spans.calls("a") == 1
    assert spans.total("a", "size") == 5
    assert spans.failed("a") == 1
    assert spans.self_s("a") == pytest.approx(3)


def test_growth_compares_time_per_sock_at_the_extreme_lengths():
    rows = [
        (0, -1, 0, 0.0, 9.0, 9.0, 0, 0, 0),
        (1, 0, 0, 0.0, 1.0, 1.0, 100, 0, 0),  # family x: 0.01 s per sock
        (1, 0, 1, 0.0, 8.0, 8.0, 200, 0, 0),  # family x: 0.04 s per sock
        (1, 0, 2, 0.0, 1.0, 1.0, 100, 0, 0),  # family y: linear
        (1, 0, 3, 0.0, 2.0, 2.0, 200, 0, 0),
    ]
    spans = tracing.Spans(NAMES, span_set(rows))
    assert spans.growth("a", {0: "x", 1: "x", 2: "y", 3: "y"}) == pytest.approx(4.0)
    assert spans.growth("b", {}) == 0.0


def test_yield_ratio_and_hit_ratio():
    # staircase(8, 2): 8 singleton socks and one sock twice
    assert tracing.raw_arrangements(tuple(range(8)) + (8, 8)) == math.factorial(10) // 2
    assert tracing.raw_arrangements({0: 2, 1: 1}) == 3
    names = ["cli", "preimage_fertility.preimages_of", "core.enumerate_multiset_arrangements"]
    rows = [
        (0, -1, 0, 0.0, 3.0, 3.0, 0, 0, 0),
        (1, 0, 0, 0.0, 2.0, 2.0, 10, 9, 0),  # preimages_of: 9 found
        (2, 1, 0, 0.0, 1.0, 1.0, 1814400, 45, 0),  # 45 classes of 10!/2! arrangements
    ]
    spans = tracing.Spans(names, span_set(rows))
    metrics = tracing.layer_metrics(spans, {}, 0, 3.0, Counter())
    assert metrics["core.enumerate_multiset_arrangements.yield_ratio"]["value"] == 45 / 1814400
    assert metrics["preimage_fertility.preimages_of.hit_ratio"]["value"] == 9 / 45
    assert [m for m, _ in tracing.PER_LAYER] == list(metrics)


def test_legality_checks_count_pushes_and_forced_pops():
    aba = frozenset({patterns.ABA_CLASSICAL})
    # a, b pushed; the second a forces b out (1 check), then is pushed
    assert tracing.legality_checks([(((0, 1, 0), aba), {})], stack_machine.phi_trace) == 4
    assert tracing.legality_checks([(((0, 1, 0), aba), {})] * 2, stack_machine.phi_trace) == 8


def bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "socksort" or name.startswith("socksort.")
            for attr, value in vars(mod).items()}


def test_install_wraps_every_binding_and_restore_puts_them_back(tmp_path):
    before = bindings()
    original_phi = stack_machine.phi
    tracer = tracing.Tracer()
    replaced = tracer.install(socksort)
    try:
        assert replaced > 0
        assert stack_machine.phi is not original_phi
        assert socksort.phi is stack_machine.phi  # the package binding too
        assert patterns.standardize is socksort.core.standardize  # imported bindings too
        tracer.begin_root()
        assert stack_machine.is_one_stack_sortable((0, 1, 0), {patterns.ABA_CLASSICAL})
        assert list(socksort.core.enumerate_standardized(3))[-1] == (0, 1, 2)
        tracer.end_root()
    finally:
        tracer.restore()
    assert bindings() == before

    path = tmp_path / "spans.bin"
    tracer.save(path, {"test": True})
    header, arrays = tracing.load(path)
    assert header["meta"] == {"test": True}
    spans = tracing.Spans(header["names"], arrays)
    (phi_span,) = spans.by_name["stack_machine.phi"]
    parent = spans.a["parent"][phi_span]
    assert header["names"][spans.a["name"][parent]] == "stack_machine.is_one_stack_sortable"
    (gen,) = spans.by_name["core.enumerate_standardized"]
    assert spans.a["count"][gen] == 5
    assert spans.total("stack_machine.phi", "size") == 3
    assert len(tracer.recorded["stack_machine.phi"]) == 1
    assert sum(spans.self_s(n) for n in header["names"]) == pytest.approx(spans.wall_s())


def test_restore_runs_when_the_traced_code_raises():
    before = bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        tracer.install(socksort)
        try:
            tracer.begin_root()
            socksort.core.enumerate_standardized(-1).__next__()
        finally:
            tracer.restore()
    assert bindings() == before
    (span,) = [i for i, n in enumerate(tracer.arrays["name"])
               if tracer.names[n] == "core.enumerate_standardized"]
    assert tracer.arrays["failed"][span] == 1


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m for m, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in tracing.PER_LAYER]
