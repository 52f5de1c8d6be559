"""Tests of the benchmark's own arithmetic, checks and tracing.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import math

import numpy as np
import pytest

import checks
import measure
import spans
import workloads
from curveann import Curve, CurveIndex, dictionary, geometry


def test_percentile_interpolates_between_ranks():
    xs = [4, 1, 3, 2]
    assert measure.percentile(xs, 0) == 1
    assert measure.percentile(xs, 100) == 4
    assert measure.percentile(xs, 50) == 2.5
    assert measure.percentile(xs, 25) == 1.75
    assert measure.percentile([7], 99) == 7
    ys = list(np.random.default_rng(0).normal(size=1001))
    assert measure.percentile(ys, 99) == pytest.approx(float(np.percentile(ys, 99)), abs=1e-12)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert measure.trimmed_mean([5.0]) == 5.0
    assert measure.trimmed_mean([1.0, 2.0, 3.0, 4.0]) == 2.5  # a tenth of 4 rounds to 0
    assert measure.trimmed_mean(list(range(1, 10)) + [1000.0]) == pytest.approx(5.5)
    assert measure.trimmed_mean([1.0, 2.0, 3.0, 100.0], share=0.25) == 2.5
    with pytest.raises(ValueError):
        measure.trimmed_mean([])


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(999)), 99)
    assert measure.tail_percentile(list(range(1001)), 99) == 990


def test_self_time_subtracts_the_union_of_children():
    #        0: [0, 100]   children 1: [10, 30], 2: [20, 50] overlap -> 40 covered
    #        1 has child 3: [12, 18]; 4: [90, 120] is clipped to the parent
    start = [0, 10, 20, 12, 90]
    end = [100, 30, 50, 18, 120]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    assert list(got) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def test_bytes_per_entry_matches_the_file_layout(tmp_path):
    curves = [Curve("a", [[0.0, 0.0], [3.0, 0.0]]), Curve("bb", [[50.0, 0.0], [53.0, 0.0]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric="dfd").fit(curves)
    path = tmp_path / "x.annc"
    idx.save(path)
    n = measure.entries(idx)
    (L,) = idx.dicts_
    payload = sum(len(cid) for _, cid in idx.dicts_[L].items())
    size = (dictionary._HEADER.size + 8 + n * (8 * L * 2 + 4) + payload
            + 4 + 8 + sum(4 + len(c.id) + 8 + 8 * len(c) * c.dim for c in curves))
    assert n == sum(sum(v.values()) for v in idx.stats_["candidates"].values())
    assert measure.bytes_per_entry(path, n) == size / n


@pytest.mark.parametrize("p", [math.inf, 1.0, 2.0])
def test_exact_distances_agree_with_the_kernel(p):
    rng = np.random.default_rng(1)
    curves = [Curve(f"c{i}", rng.normal(size=(4, 2))) for i in range(6)]
    q = Curve("q", rng.normal(size=(3, 2)))
    got = checks.exact_distances(q, curves, p)
    want = [geometry.distance(c, q, p) for c in curves]
    assert got == pytest.approx(want, rel=1e-12)


def test_nn_checker_flags_wrong_answers():
    dists = {"near": 0.5, "mid": 1.2, "far": 1.6}
    assert checks.nn_answer_ok("near", dists, 1.0, 1.5)
    assert checks.nn_answer_ok("mid", dists, 1.0, 1.5)
    assert not checks.nn_answer_ok("far", dists, 1.0, 1.5)  # beyond (1 + eps) r
    assert not checks.nn_answer_ok(None, dists, 1.0, 1.5)  # a curve within r was missed
    assert not checks.nn_answer_ok("gone", dists, 1.0, 1.5)  # not a live curve
    assert checks.nn_answer_ok(None, {"mid": 1.2, "far": 1.6}, 1.0, 1.5)


def test_count_checker_flags_off_by_one():
    dists = {"a": 0.2, "b": 0.9, "c": 1.3, "d": 1.7}
    assert checks.count_ok(2, dists, 1.0, 1.5)
    assert checks.count_ok(3, dists, 1.0, 1.5)
    assert not checks.count_ok(1, dists, 1.0, 1.5)
    assert not checks.count_ok(4, dists, 1.0, 1.5)


def test_rejected_answers_on_a_real_index():
    wl = workloads.asym_dfd(0, n=2, updates=1, n_queries=40)
    idx = CurveIndex(**wl.params).fit(wl.curves)
    table = checks.DistanceTable(wl.queries, wl.curves + wl.extras, math.inf)
    live = {c.id for c in wl.curves}
    answers = [res.match for res in idx.predict(wl.queries)]
    assert answers[0] is not None and answers[-1] is None  # near first, then far
    assert checks.rejected_answers(answers, table, live, "asym", 1.0, 1.5) == []
    wrong = list(answers)
    wrong[0] = None  # a miss on a near query
    wrong[-1] = wl.curves[0].id  # a far curve returned as a match
    assert checks.rejected_answers(wrong, table, live, "asym", 1.0, 1.5) == [0, len(wrong) - 1]
    # after deleting the curve of the first answer, that answer is wrong
    assert 0 in checks.rejected_answers(answers, table, live - {answers[0]}, "asym", 1.0, 1.5)


def test_short_key_sets_flags_a_curve_below_the_bound():
    c = Curve("a", [[0.0, 0.0], [4.0, 0.0]])
    edge = checks.proven_edge(math.inf, 2, 2, 2, 0.5, 1.0)
    idx = CurveIndex(epsilon=0.5, r=1.0, metric="dfd").fit([c])
    stored = sum(idx.stats_["candidates"]["a"].values())
    assert checks.short_key_sets([c], {"a": stored}, 2, edge, 1.25, math.inf) == []
    assert checks.short_key_sets([c], {"a": 10}, 2, edge, 1.25, math.inf) == ["a"]


def test_proven_edge_is_the_index_grid():
    c = Curve("a", [[0.0], [3.0], [7.0], [10.0]])
    for metric, p in (("dfd", math.inf), ("dtw", 1.0)):
        idx = CurveIndex(epsilon=0.5, r=1.0, metric=metric, query_lengths=[2, 4]).fit([c])
        for L, g in idx.grids_.items():
            assert g.edge == pytest.approx(checks.proven_edge(p, L, 4, 1, 0.5, 1.0), rel=1e-12)


def test_skip_certificates():
    three = np.array([[0, 0], [0.1, 0], [5, 0], [5.1, 0], [10, 0], [10.1, 0]], dtype=float)
    four = np.vstack([three, [[15, 0], [15.1, 0]]])
    assert checks.min_cover_size(three, 1.0) == 3
    assert checks.min_cover_size(four, 1.0) == 4
    curves = [Curve("three", three), Curve("four", four)]
    assert checks.uncertified_skips(curves, {"four"}, 3, 1.0) == []
    assert checks.uncertified_skips(curves, {"three", "four"}, 3, 1.0) == ["three"]


def test_workloads_are_seeded():
    for make in workloads.WORKLOADS.values():
        a, b, c = make(5), make(5), make(6)
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a.queries, b.queries))
        assert not np.array_equal(a.curves[0].points, c.curves[0].points)


def test_tracer_spans_and_layer_metrics(tmp_path):
    wl = workloads.asym_dfd(0, n=5, updates=1, n_queries=20)
    tracer = spans.Tracer()
    originals = {name: getattr(owner, attr) for owner, attr, name, _ in spans.TRACED}
    tracer.install()
    try:
        tracer.begin("fit")
        idx = CurveIndex(**wl.params).fit(wl.curves)
        tracer.begin("query")
        idx.predict(wl.queries)
        tracer.begin("save")
        for _ in range(3):
            idx.save(tmp_path / "x.annc")
    finally:
        tracer.uninstall()
    for owner, attr, name, _ in spans.TRACED:
        assert getattr(owner, attr) == originals[name]
    assert "lookup" not in dictionary.HashedDictionary.__dict__

    view = spans.SpanView(tracer)
    stored = sum(sum(v.values()) for v in idx.stats_["candidates"].values())
    assert view.sizes("candidates.enumerate", "fit").sum() == stored
    assert view.calls("simplify.simplify", "fit") == 5
    assert (view.sizes("simplify.simplify", "fit") < 0).sum() == len(idx.stats_["skipped"]) == 1
    fit = view.mask("index.fit", "fit")
    kids = sum(view.dur[view.mask(s, "fit")].sum() for s in ("candidates.enumerate", "simplify.simplify"))
    assert view.self_dur[fit].sum() == view.dur[fit].sum() - kids
    assert view.calls("grid.snap", "query") == view.calls("index.query", "query") == 20
    # every query span sits inside the one predict span
    pred = np.flatnonzero(view.mask("index.predict", "query"))
    assert set(view.parent[view.mask("index.query", "query")]) == set(pred)
    writes = view.dur[view.mask("dictionary.write", "save")]
    assert len(writes) == 3  # one block per save: asym has one query length
    assert view.per_call_s("dictionary.write", "index.save", "save") == float(np.median(writes)) / 1e9
