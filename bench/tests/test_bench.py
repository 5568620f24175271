"""Tests of the benchmark itself: generator, span arithmetic, per-thread
stacks, and a smoke run that prints every declared metric with its unit.

    python3 -m pytest bench/tests
"""

import io
import json
import os
import threading
from contextlib import redirect_stdout

import pytest

import workloads
from spans import Span, Tracer, adopt_pool_spans, outermost, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tree(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    workloads.write_inputs(wl, 5, str(tmp_path / "a"))
    workloads.write_inputs(wl, 5, str(tmp_path / "b"))
    workloads.write_inputs(wl, 6, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("family", [0, 1, 2, 3])
def test_titles_are_distinct_and_families_share_word_and_noun(family):
    titles = workloads.titles(60, 9, family)
    assert len(titles) == len(set(titles)) == 60
    if family:
        stems = {}
        for t in titles:
            stems.setdefault(t.rsplit(" ", 1)[0], []).append(t)
        assert all(len(members) == family for members in stems.values())


def test_self_time_of_nested_spans():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 2, "a.x", 2.0, 3.0),
        Span(4, 1, "b", 5.0, 9.0),
        # two overlapping children (two pool threads) count once
        Span(5, 4, "b.p", 5.5, 7.5),
        Span(6, 4, "b.q", 6.5, 8.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 2.0, 6: 1.5})
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)  # the overlap is counted twice


def test_outermost_skips_nested_names():
    spans = [
        Span(1, None, "neg", 0.0, 4.0),
        Span(2, 1, "sub", 1.0, 3.0),
        Span(3, 2, "pos", 1.5, 2.5),
        Span(4, None, "pos", 5.0, 6.0),
    ]
    assert [s.id for s in outermost(spans, ("pos", "neg"))] == [1, 4]


def test_pool_spans_are_adopted_by_the_waiting_main_span():
    main, pool = 1, 2
    spans = [
        Span(1, None, "learn", 0.0, 10.0, thread=main),
        Span(2, 1, "score", 2.0, 6.0, thread=main),
        Span(3, None, "covers", 2.5, 4.0, thread=pool),
        Span(4, None, "covers", 7.0, 8.0, thread=pool),
        Span(5, 3, "subsume", 3.0, 3.5, thread=pool),
    ]
    adopt_pool_spans(spans, main)
    assert [s.parent for s in spans] == [None, 1, 2, 1, 3]


def test_span_stacks_are_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(tag):
        outer = tracer.begin(f"{tag}.outer")
        barrier.wait()  # both threads hold an open span here
        inner = tracer.begin(f"{tag}.inner")
        barrier.wait()
        tracer.end(inner)
        tracer.end(outer)

    threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_name = {s.name: s for s in tracer.spans}
    for tag in ("a", "b"):
        assert by_name[f"{tag}.outer"].parent is None
        assert by_name[f"{tag}.inner"].parent == by_name[f"{tag}.outer"].id
        assert by_name[f"{tag}.inner"].thread == by_name[f"{tag}.outer"].thread


def test_timed_scales_wall_time_by_the_kernel_times_around_the_call(monkeypatch):
    import calibrate
    import run

    kernel_times = iter([calibrate.REFERENCE_S, 3 * calibrate.REFERENCE_S])
    monkeypatch.setattr(calibrate, "sample", lambda: next(kernel_times))
    out, wall, scaled, cpu = run.timed(lambda: sum(range(100000)))
    assert out == sum(range(100000))
    assert wall > 0 and cpu >= 0
    # the host ran at half the reference speed on average around the call
    assert scaled == pytest.approx(wall / 2)


def test_rescore_catches_stats_the_coverage_tests_do_not_give(tmp_path):
    import dataclasses

    import run
    from dlearn import learner

    wl = dataclasses.replace(workloads.SMOKE, cfd=False, threads=1)
    inputs = run.load(workloads.write_inputs(wl, 3, str(tmp_path)))
    cfg = run.config(wl)
    db, mds, cfds, _, _ = inputs
    train_p, train_n, _, _ = run.split(inputs, 3)
    definition = learner.learn(db, mds, cfds, train_p, train_n, cfg)
    assert definition.clauses
    assert run.rescore(inputs, 3, cfg, definition) == []
    lc = definition.clauses[0]
    lc.stats = dataclasses.replace(lc.stats, neg=lc.stats.neg + 1)
    assert any("on the training split" in p for p in run.rescore(inputs, 3, cfg, definition))


@pytest.fixture()
def smoke_run(tmp_path, monkeypatch):
    import run

    monkeypatch.setitem(workloads.WORKLOADS, "smoke", workloads.SMOKE)
    monkeypatch.setattr(run, "WORK", str(tmp_path))

    def go(trace: int) -> tuple[int, dict]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "3",
                             "--trace", str(trace)])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])
    return go


def test_smoke_prints_every_declared_metric_with_its_unit(smoke_run):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = smoke_run(trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared[key]} == \
            {name: v["unit"] for name, v in result["metrics"].items()}
