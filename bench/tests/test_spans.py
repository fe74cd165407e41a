import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, SpanRecorder, covered, self_times


def _span(id, start, end, parent=None):
    return Span(id, f"s{id}", start, end, parent, 0, 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(2.0)
    # nested and touching intervals count once
    assert covered([(1.0, 5.0), (2.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    # clipped to the parent's interval
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_subtracts_union_of_overlapping_children():
    # two pool children overlap on [3, 5]; the parent is covered on [2, 7]
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 5.0, 0), _span(2, 3.0, 7.0, 0),
             _span(3, 4.0, 4.5, 2)]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.5)
    assert own[3] == pytest.approx(0.5)
    # summed child durations exceed the covered time: the overlap is not
    # subtracted twice
    assert sum(own.values()) == pytest.approx(12.0)


def test_pool_thread_spans_are_parented_to_the_open_request_span():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def leaf(x):
        barrier.wait(timeout=10)
        return x

    def child(x):
        return rec.call("leaf", leaf, (x,), {})

    def experiment():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(child, [1, 2]))

    rec.begin_request(7)
    out = rec.call("request", lambda: rec.call("experiment", experiment, (), {}), (), {})
    assert out == [1, 2]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (request,) = by_name["request"]
    (exp,) = by_name["experiment"]
    assert request.parent is None and exp.parent == request.id
    leaves = by_name["leaf"]
    assert len(leaves) == 2
    assert all(s.parent == exp.id and s.request == 7 for s in leaves)
    assert len({s.thread for s in leaves}) == 2
    # both leaves ran at once, so the experiment's self time is its duration
    # minus one union interval, not minus the summed leaf durations
    own = self_times(rec.spans)
    union = covered([(s.start, s.end) for s in leaves], exp.start, exp.end)
    assert own[exp.id] == pytest.approx((exp.end - exp.start) - union)
    assert union < sum(s.end - s.start for s in leaves)


def test_recorder_keeps_every_span_under_contention():
    rec = SpanRecorder()
    rec.begin_request(0)

    def work(i):
        for _ in range(200):
            rec.call("w", lambda: i, (), {})

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(rec.spans) == 1600
    assert len({s.id for s in rec.spans}) == 1600


def test_on_return_runs_after_the_span_closes():
    rec = SpanRecorder()
    seen = []
    rec.call("f", lambda a: a * 2, (3,), {},
             on_return=lambda args, kwargs, result: seen.append((args, result, len(rec.spans))))
    assert seen == [((3,), 6, 1)]
