"""Tests of the benchmark's own helpers (collected by the repo's pytest run)."""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

from layers import END_TO_END, PER_LAYER, compare_probes
from measure import schedule_lateness, tail_percentile
from openloop import REPEAT_EVERY, REPEAT_LAG, build_schedule
from spans import Probe, Span, SpanRecorder, instrument, self_time_by_name, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90, 90, 100)
    assert tail_percentile(range(1, 21)) == (50, 10, 20)
    assert tail_percentile(range(1, 20)) is None
    # 70 samples: p85 is rank 60 with 10 beyond; p86 (rank 61) leaves 9.
    assert tail_percentile([0.5] * 69 + [9.0]) == (85, 0.5, 70)


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: only 4..6 is new
        Span("leaf", 1.5, 2.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # runs past the root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.5, 3.0, 0.5, 3.0])
    assert self_time_by_name(spans + [Span("leaf", 0.0, 1.0)])["leaf"] == pytest.approx(1.5)


def test_schedule_lateness_never_negative():
    assert schedule_lateness([0.0, 1.0, 2.0], [0.1, 0.9, 2.5]) == pytest.approx([0.1, 0.0, 0.5])


def test_schedule_is_seeded_open_loop_with_lagged_repeats():
    first = build_schedule(7, rate=2.0, seconds=30)
    assert [r.payload for r in first] == [r.payload for r in build_schedule(7, 2.0, 30)]
    assert [r.payload for r in first] != [r.payload for r in build_schedule(8, 2.0, 30)]
    assert [r.due for r in first] == [i / 2.0 for i in range(60)]
    repeats = [r for r in first if r.repeat_of is not None]
    assert len(repeats) == (60 - REPEAT_LAG) // REPEAT_EVERY
    for repeat in repeats:
        assert repeat.index - repeat.repeat_of >= REPEAT_LAG
        assert repeat.payload == first[repeat.repeat_of].payload
    fresh_seeds = [r.payload["params"]["seed"] for r in first if r.repeat_of is None]
    assert len(set(fresh_seeds)) == len(fresh_seeds)


class _Owner:
    def method(self, value):
        return value * 2


def test_instrument_records_spans_and_restores_originals():
    module = types.SimpleNamespace()
    module.__dict__["work"] = lambda value: _Owner().method(value) + 1
    originals = (vars(module)["work"], vars(_Owner)["method"])
    recorder = SpanRecorder("test")
    probes = [
        Probe(module, "work", "outer"),
        Probe(_Owner, "method", lambda self, value: f"inner.{value}",
              observe=lambda span, args, result, token: span.counts.update(doubled=result)),
    ]
    with instrument(probes, recorder) as outcome:
        assert module.work(3) == 7
    assert outcome.restored and not outcome.not_restored
    assert (vars(module)["work"], vars(_Owner)["method"]) == originals
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", None), ("inner.3", 0)]
    assert recorder.spans[1].counts == {"doubled": 6}

    with pytest.raises(ZeroDivisionError):
        with instrument(probes, recorder):
            module.work(1) / 0
    assert (vars(module)["work"], vars(_Owner)["method"]) == originals


def test_compare_probes_resolve_and_restore():
    pytest.importorskip("repro")
    probes = compare_probes()
    before = [vars(probe.owner)[probe.attribute] for probe in probes]
    with instrument(probes, SpanRecorder("probe-check")) as outcome:
        pass
    assert outcome.restored
    assert [vars(probe.owner)[probe.attribute] for probe in probes] == before


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(entry) for entry in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == ["compare-cold", "compare-warm", "gateway-open"]
