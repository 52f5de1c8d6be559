import gc
import hashlib
import importlib.util
import io
import itertools
import math
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from curveann import CurveIndex, candidates, dictionary, geometry, grid, oracle, simplify
from curveann.errors import (
    CapacityExceeded,
    CorruptFile,
    DimensionMismatch,
    FormatError,
    ModeMismatch,
    UnsupportedLength,
)
from lattice_keys import pack, unpack

Curve = geometry.Curve


def walk(rng, m, d, r=1.0, spread=4.0):
    start = rng.uniform(-spread * r, spread * r, size=d)
    if m == 1:
        return start[None]
    steps = rng.uniform(-1.5 * r, 1.5 * r, size=(m - 1, d))
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def dataset(rng, n, m, d, r=1.0):
    return [Curve(f"c{i}", walk(rng, m, d, r)) for i in range(n)]


def test_build_example_single_point_curve():
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit([Curve("only", [[0.0]])])
    dct = idx.dicts_[1]
    assert sorted(unpack(k, 1) for k, _ in dct.items()) == [((-1,),), ((0,),), ((1,),)]
    assert all(payload == "only" for _, payload in dct.items())


def test_first_wins_on_identical_curves():
    curves = [Curve("first", [[0.0], [1.0]]), Curve("second", [[0.0], [1.0]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit(curves)
    assert all(payload == "first" for _, payload in idx.dicts_[2].items())


def test_counting_on_identical_curves():
    curves = [Curve("a", [[0.0], [1.0]]), Curve("b", [[0.0], [1.0]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="count").fit(curves)
    assert all(payload == 2 for _, payload in idx.dicts_[2].items())
    assert idx.count(Curve("q", [[0.0], [1.0]])) == 2


def test_query_examples():
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit([Curve("only", [[0.0]])])
    assert idx.query(Curve("q", [[0.3]])).match == "only"
    assert not idx.query(Curve("q", [[2.6]])).found
    res = idx.query(Curve("q", [[0.0]]))
    assert res.found and res.guarantee == 2.0


def test_count_soundness_directions():
    curves = [Curve("near", [[0.5]]), Curve("far", [[40.0]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="count").fit(curves)
    assert idx.count(Curve("q", [[0.0]])) == 1
    assert idx.count(Curve("q", [[20.0]])) == 0


def test_mode_and_length_errors():
    idx = CurveIndex(epsilon=1.0, r=1.0).fit([Curve("a", [[0.0], [1.0]])])
    with pytest.raises(ModeMismatch):
        idx.count(Curve("q", [[0.0], [1.0]]))
    with pytest.raises(UnsupportedLength):
        idx.query(Curve("q", [[0.0], [1.0], [2.0]]))
    with pytest.raises(DimensionMismatch):
        idx.query(Curve("q", [[0.0, 0.0], [1.0, 1.0]]))


def test_param_validation():
    with pytest.raises(ValueError):
        CurveIndex(epsilon=0.0).fit([Curve("a", [[0.0]])])
    with pytest.raises(ValueError):
        CurveIndex(r=-1.0).fit([Curve("a", [[0.0]])])
    # an infinite radius made an infinite grid edge, and NaN failed untyped
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            CurveIndex(r=r).fit([Curve("a", [[0.0]])])
    with pytest.raises(ValueError):
        CurveIndex(mode="asym", metric=1.0, k=2).fit([Curve("a", [[0.0]])])
    with pytest.raises(ValueError):
        CurveIndex(mode="asym", metric=math.inf).fit([Curve("a", [[0.0]])])
    # no query length would build no dictionary, and no query could be answered
    with pytest.raises(ValueError, match="at least one query length is required"):
        CurveIndex(query_lengths=[]).fit([Curve("a", [[0.0]])])
    # the asymmetric mode answers length-k queries only, and would ignore them
    with pytest.raises(ValueError, match="query_lengths is not for the asymmetric mode"):
        CurveIndex(mode="asym", k=2, query_lengths=[3]).fit([Curve("a", np.zeros((4, 1)))])


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_k_is_refused_outside_the_asymmetric_mode(mode):
    """k sets the query length of the asymmetric mode only. Another mode
    rejects it rather than build for the input lengths and ignore it."""
    idx = CurveIndex(mode=mode, k=2)
    with pytest.raises(ValueError, match="asymmetric mode only"):
        idx.fit([Curve("a", [[0.0], [1.0], [2.0]])])
    with pytest.raises(RuntimeError):
        idx.query(Curve("q", [[0.0], [1.0]]))


def test_get_set_params():
    idx = CurveIndex(epsilon=0.5, r=2.0)
    params = idx.get_params()
    assert params["epsilon"] == 0.5 and params["r"] == 2.0
    idx.set_params(epsilon=1.0)
    assert idx.epsilon == 1.0
    with pytest.raises(ValueError):
        idx.set_params(bogus=1)


def test_set_params_drops_the_fitted_structure(tmp_path):
    """The grids of an index fitted with eps=1 are too coarse for eps=0.25:
    an insert on them missed a query at distance 0.95 <= r."""
    idx = CurveIndex(epsilon=1.0, r=1.0).fit([Curve("a", [[0.0]])])
    idx.set_params(epsilon=0.25)
    q = Curve("q", [[9.45]])
    for call in (lambda: idx.insert_curve(Curve("b", [[10.4]])), lambda: idx.query(q),
                 lambda: idx.predict([q]), lambda: idx.count(q),
                 lambda: idx.delete_curve("a"), lambda: idx.save(tmp_path / "x.annc")):
        with pytest.raises(RuntimeError):
            call()
    idx.fit([Curve("a", [[0.0]])])
    idx.insert_curve(Curve("b", [[10.4]]))
    assert idx.query(q).match == "b"


def test_every_stored_key_satisfies_the_predicate():
    rng = np.random.default_rng(71)
    curves = dataset(rng, 6, 3, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit(curves)
    g = idx.grids_[3]
    threshold = 1.5  # (1 + eps/2) r
    for key, payload in idx.dicts_[3].items():
        pts = grid.key_to_points(key, g)
        assert geometry.distance(idx.registry_[payload].points, pts, math.inf) <= threshold


@pytest.mark.parametrize("p", [math.inf, 1.0, 2.0])
def test_end_to_end_vs_oracle(p):
    """Completeness and soundness against the linear-scan oracle."""
    rng = np.random.default_rng(72)
    r, eps = 1.0, 1.0
    curves = dataset(rng, 12, 3, 1, r)
    idx = CurveIndex(epsilon=eps, r=r, metric=p).fit(curves)
    for j in range(120):
        if j % 2 == 0:
            base = curves[int(rng.integers(len(curves)))].points
            q = Curve(f"q{j}", base + rng.uniform(-0.2, 0.2, size=base.shape))
        else:
            q = Curve(f"q{j}", rng.uniform(-30, 30, size=(3, 1)))
        res = idx.query(q)
        truth = oracle.linear_scan_nn(curves, q, p)
        if truth.nearest_distance <= r:
            assert res.found, f"missed a true neighbor at {truth.nearest_distance}"
        if res.found:
            assert geometry.distance(idx.registry_[res.match].points, q.points, p) <= (1 + eps) * r + 1e-9


def test_counting_sandwich_vs_oracle():
    rng = np.random.default_rng(73)
    r, eps = 1.0, 1.0
    curves = dataset(rng, 12, 2, 1, r)
    idx = CurveIndex(epsilon=eps, r=r, metric=1.0, mode="count").fit(curves)
    for j in range(100):
        base = curves[int(rng.integers(len(curves)))].points
        q = Curve(f"q{j}", base + rng.uniform(-0.6, 0.6, size=base.shape))
        got = idx.count(q)
        lo = oracle.count_within(curves, q, 1.0, r)
        hi = oracle.count_within(curves, q, 1.0, (1 + eps) * r)
        assert lo <= got <= hi


def test_multiple_query_lengths_for_dfd():
    rng = np.random.default_rng(74)
    curves = [Curve("s", walk(rng, 2, 1)), Curve("l", walk(rng, 4, 1))]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit(curves)
    assert sorted(idx.dicts_) == [2, 4]
    assert idx.query(Curve("q", curves[0].points)).found
    assert idx.query(Curve("q", curves[1].points)).found


def test_explicit_query_lengths():
    rng = np.random.default_rng(75)
    curves = dataset(rng, 4, 3, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, query_lengths=[1, 2, 3]).fit(curves)
    assert sorted(idx.dicts_) == [1, 2, 3]
    # a short query hits when it stays near one input curve
    q = Curve("q", curves[0].points[:2])
    res = idx.query(q)
    if res.found:
        assert geometry.distance(idx.registry_[res.match].points, q.points, math.inf) <= 2.0 + 1e-9


def test_asymmetric_mode():
    pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
    curves = [Curve("good", pts), Curve("far", pts + 100.0)]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=2).fit(curves)
    for cid, pi in idx.simplifications_.items():
        assert geometry.distance(idx.registry_[cid].points, pi, math.inf) <= 2.0
    res = idx.query(Curve("q", [[0.05], [5.05]]))
    assert res.match == "good"


def test_asymmetric_skips_unsimplifiable_curves():
    spread = np.arange(0.0, 24.0, 3.0).reshape(-1, 1)
    tight = np.zeros((8, 1))
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=2).fit(
        [Curve("wide", spread), Curve("tight", tight)]
    )
    assert idx.stats_["skipped"] == ["wide"]
    assert idx.query(Curve("q", [[0.0], [0.0]])).match == "tight"


def test_a_loaded_asymmetric_index_reports_the_fitted_simplifications(tmp_path):
    rng = np.random.default_rng(86)
    curves = [Curve(f"c{i}", walk(rng, 5, 2, spread=2.0) * 0.4) for i in range(4)]
    curves.insert(2, Curve("wide", np.arange(0.0, 15.0, 3.0)[:, None] * np.ones(2)))
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=2).fit(curves)
    path = tmp_path / "asym.annc"
    idx.save(path)
    loaded = CurveIndex.load(path)
    assert loaded.stats_["skipped"] == idx.stats_["skipped"] == ["wide"]
    assert list(loaded.simplifications_) == list(idx.simplifications_)
    for cid, pi in idx.simplifications_.items():
        assert np.array_equal(loaded.simplifications_[cid], pi)


@pytest.mark.parametrize("reload", [False, True])
def test_a_skipped_curve_takes_no_orphan(tmp_path, reload):
    """``s`` has no 1-vertex curve within r (its best lies 1.25 away) and is
    skipped, but the lattice point 1 lies within (1 + eps/2) r of both it
    and ``x``: the key must not pass to ``s`` when ``x`` is deleted."""
    x, s = Curve("x", [[1.2], [1.3]]), Curve("s", [[0.0], [2.5]])
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=1).fit([x, s])
    if reload:
        path = tmp_path / "asym.annc"
        idx.save(path)
        idx = CurveIndex.load(path)
    assert idx.stats_["skipped"] == ["s"]
    assert idx.dicts_[1].lookup(pack(((1,),))) == "x"
    idx.delete_curve("x")
    assert len(idx.dicts_[1]) == 0


def lattice_box(points, radius, edge):
    """Every lattice point in the bounding box of ``points`` grown by
    ``radius``: a superset of the vertices of any curve within ``radius``."""
    lo = np.floor((points.min(axis=0) - radius) / edge).astype(int)
    hi = np.ceil((points.max(axis=0) + radius) / edge).astype(int)
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def check_equals_a_fresh_fit(idx, live):
    """Every block of ``idx`` equals that of a fresh fit over ``live``, the
    surviving curves in insertion order. An asymmetric index has the one
    length k, which it takes from its parameters."""
    lengths = None if idx.mode == "asym" else sorted(idx.dicts_)
    fresh = CurveIndex(**{**idx.get_params(), "query_lengths": lengths}).fit(live)
    assert sorted(fresh.dicts_) == sorted(idx.dicts_)
    for L, dct in idx.dicts_.items():
        assert list(dct.items()) == list(fresh.dicts_[L].items())


def check_asym_keys(idx, live):
    """Each curve of ``live`` (in insertion order) with a k-vertex
    simplification stores exactly the length-k grid curves within
    (1 + eps/2) r of it, found by brute force; the others store nothing."""
    k, g = idx.k, idx.grids_[idx.k]
    radius = (1 + idx.epsilon / 2) * idx.r
    owners, skipped = {}, []
    for c in live:
        if simplify.simplify_curve(c.points, k, idx.r, eps=1.0) is None:
            skipped.append(c.id)
            continue
        pool = lattice_box(c.points, radius, g.edge)
        for key in oracle.brute_candidates(c, pool, k, radius, math.inf, g):
            owners.setdefault(pack(key), []).append(c.id)
    assert idx.stats_["skipped"] == skipped
    assert set(idx.simplifications_) == {c.id for c in live} - set(skipped)
    assert dict(idx.dicts_[k].items()) == {key: ids[0] for key, ids in owners.items()}
    check_equals_a_fresh_fit(idx, live)
    return skipped


@pytest.mark.parametrize("eps,k,d", [(1.0, 1, 1), (1.0, 2, 1), (0.5, 2, 1), (1.0, 1, 2)])
def test_asymmetric_keys_are_the_plain_candidates_of_the_curve(tmp_path, eps, k, d):
    rng = np.random.default_rng(84)
    wide = Curve("wide", np.arange(0.0, 15.0, 3.0)[:, None] * np.ones(d))
    curves = [Curve(f"c{i}", walk(rng, 4, d, spread=2.0) * 0.5) for i in range(4)]
    curves.insert(1, wide)
    idx = CurveIndex(epsilon=eps, r=1.0, metric=math.inf, mode="asym", k=k).fit(curves[:-1])
    assert "wide" in check_asym_keys(idx, curves[:-1])
    extra = Curve("wide2", wide.points + 1.0)
    for c in (curves[-1], extra):
        idx.insert_curve(c)
    live = curves + [extra]
    assert check_asym_keys(idx, live)[-1] == "wide2"
    path = tmp_path / "asym.annc"
    idx.save(path)
    loaded = CurveIndex.load(path)
    for gone in ("c0", "wide"):
        loaded.delete_curve(gone)
        live = [c for c in live if c.id != gone]
        check_asym_keys(loaded, live)


def test_one_lookup_per_query():
    rng = np.random.default_rng(76)
    curves = dataset(rng, 5, 2, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0).fit(curves)
    before = idx.stats_["lookups"]
    for j in range(25):
        idx.query(Curve(f"q{j}", rng.uniform(-5, 5, size=(2, 1))))
    assert idx.stats_["lookups"] == before + 25
    idx.predict([Curve(f"p{j}", rng.uniform(-5, 5, size=(2, 1))) for j in range(25)])
    assert idx.stats_["lookups"] == before + 50


def test_predict_equals_a_query_loop():
    rng = np.random.default_rng(83)
    curves = dataset(rng, 4, 3, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, query_lengths=[1, 2, 3]).fit(curves)
    queries = []
    for j in range(60):
        L = 1 + j % 3
        base = curves[j % 4].points[:L]
        shift = rng.uniform(-0.4, 0.4) if j % 2 else rng.uniform(5, 30)
        queries.append(Curve(f"q{j}", base + shift))

    def answers_and_lookups(answer):
        before = idx.stats_["lookups"]
        return answer(), idx.stats_["lookups"] - before

    looped = answers_and_lookups(lambda: [idx.query(q) for q in queries])
    assert answers_and_lookups(lambda: idx.predict(queries)) == looped
    assert any(res.found for res in looped[0]) and not all(res.found for res in looped[0])

    for bad, error in ((Curve("long", np.zeros((4, 1))), UnsupportedLength),
                       (Curve("wide", np.zeros((2, 2))), DimensionMismatch)):
        batch = queries[:7] + [bad] + queries[7:]
        raised = []
        for run in (lambda: [idx.query(q) for q in batch], lambda: idx.predict(batch)):
            before = idx.stats_["lookups"]
            with pytest.raises(error):
                run()
            raised.append(idx.stats_["lookups"] - before)
        assert raised == [7, 7]

    with pytest.raises(RuntimeError):
        CurveIndex().predict(queries)
    counting = CurveIndex(epsilon=1.0, r=1.0, mode="count").fit(curves)
    with pytest.raises(ModeMismatch):
        counting.predict(queries[:1])


def test_a_failed_build_leaves_the_index_as_it_was():
    """A point at 0.5 has 4 lattice points within 1.5 on the unit grid and
    one at 0.0 has 3, so max_candidates=3 stops a fit or insert at curve x.
    A refit also stops at a repeated id or at a curve of another dimension,
    after it has added the curves before it to its staged structure."""
    q = Curve("q", [[0.0]])
    fresh = CurveIndex(epsilon=1.0, r=1.0, max_candidates=3)
    with pytest.raises(CapacityExceeded):
        fresh.fit([Curve("a", [[0.0]]), Curve("x", [[10.5]])])
    with pytest.raises(RuntimeError):
        fresh.query(q)
    with pytest.raises(RuntimeError):
        fresh.predict([q])

    idx = CurveIndex(epsilon=1.0, r=1.0, max_candidates=3).fit([Curve("a", [[0.0]])])
    entries = dict(idx.dicts_[1].items())
    for curves, error, match in (
        ([Curve("b", [[5.0]]), Curve("x", [[10.5]])], CapacityExceeded, "anchor 'x' needs 4"),
        ([Curve("b", [[5.0]]), Curve("b", [[8.0]])], ValueError, "duplicate curve id 'b'"),
        ([Curve("b", [[5.0]]), Curve("y", [[8.0, 0.0]])], DimensionMismatch, "'y' is 2-dim"),
    ):
        with pytest.raises(error, match=match):
            idx.fit(curves)
        assert idx.query(q).match == "a"
        assert not idx.query(Curve("q", [[5.0]])).found
        assert dict(idx.dicts_[1].items()) == entries
        assert list(idx.registry_) == ["a"]
        assert idx.stats_["candidates"] == {"a": {1: 3}}

    with pytest.raises(CapacityExceeded):
        idx.insert_curve(Curve("x", [[10.5]]))
    assert "x" not in idx.registry_
    assert dict(idx.dicts_[1].items()) == entries
    idx.insert_curve(Curve("b", [[5.0]]))
    idx.delete_curve("a")
    assert idx.query(Curve("q", [[5.0]])).match == "b"
    assert not idx.query(q).found


def test_insert_then_delete_restores_empty():
    idx = CurveIndex(epsilon=1.0, r=1.0).fit([Curve("seed", [[50.0]])])
    idx.delete_curve("seed")
    assert len(idx.dicts_[1]) == 0
    idx.insert_curve(Curve("a", [[0.0]]))
    assert idx.query(Curve("q", [[0.0]])).match == "a"
    idx.delete_curve("a")
    assert len(idx.dicts_[1]) == 0


def test_counting_insert_twice_delete_once():
    base = Curve("a", [[0.0], [1.0]])
    idx = CurveIndex(epsilon=1.0, r=1.0, mode="count").fit([base])
    single = dict(idx.dicts_[2].items())
    idx.insert_curve(Curve("b", [[0.0], [1.0]]))
    idx.delete_curve("b")
    assert dict(idx.dicts_[2].items()) == single


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_updates_keep_the_build_stats(mode):
    idx = CurveIndex(epsilon=1.0, r=1.0, mode=mode).fit([Curve("a", [[0.0]])])
    assert idx.stats_["candidates"] == {"a": {1: 3}}
    assert idx.stats_["dict_sizes"] == {1: 3}
    idx.insert_curve(Curve("b", [[10.0]]))
    assert idx.stats_["candidates"] == {"a": {1: 3}, "b": {1: 3}}
    assert idx.stats_["dict_sizes"] == {1: 6}
    idx.delete_curve("a")
    assert idx.stats_["candidates"] == {"b": {1: 3}}
    assert idx.stats_["dict_sizes"] == {1: 3}


def test_delete_reassigns_overlapping_keys(tmp_path):
    """A cluster around ``base``: the orphans of ``a0`` pass to ``a1``, to
    later curves that ``a1`` does not hold them for (``b``, whose first
    vertex lies more than (1 + eps/2) r from ``a0``'s, and ``a2``), or to
    none. After each delete the index equals a fresh fit over the rest,
    for every metric and backend, fitted or loaded."""
    base = np.array([[0.0], [1.0], [2.0]])
    curves = [
        Curve("a0", base),
        Curve("a1", base + 0.3),
        Curve("z", base + 50.0),
        Curve("b", base + [[2.0], [0.0], [0.0]]),
        Curve("a2", base - 0.3),
    ]
    path = tmp_path / "idx.annc"
    for metric, backend, reload in itertools.product(
            [math.inf, 1.0, 2.0], ["hash", "trie"], [False, True]):
        idx = CurveIndex(epsilon=0.5, r=1.0, metric=metric, backend=backend).fit(curves)
        if reload:
            idx.save(path)
            idx = CurveIndex.load(path, backend=backend)
        owned = [key for key, cid in idx.dicts_[3].items() if cid == "a0"]
        live = curves
        for gone in ("a0", "a1", "b", "z"):
            idx.delete_curve(gone)
            live = [c for c in live if c.id != gone]
            check_equals_a_fresh_fit(idx, live)
            if gone == "a0":
                heirs = {idx.dicts_[3].lookup(key) for key in owned}
                assert {"a1", "b", "a2", None} <= heirs, (metric, backend, reload)


def test_a_delete_makes_no_per_key_dictionary_call(tmp_path, monkeypatch):
    """A near-neighbor delete releases the curve's keys as one batch and
    hands the orphans on as batches: ``lookup``, ``remove`` and ``replace``
    raise if called. Covers nn and asym, both backends, fitted and loaded,
    and the hand-offs of ``test_delete_reassigns_overlapping_keys``."""
    base = np.array([[0.0], [1.0], [2.0]])
    overlapping = [
        Curve("a0", base),
        Curve("a1", base + 0.3),
        Curve("z", base + 50.0),
        Curve("b", base + [[2.0], [0.0], [0.0]]),
        Curve("a2", base - 0.3),
    ]
    rng = np.random.default_rng(86)
    configs = [
        (dict(epsilon=0.5, r=1.0, metric=math.inf), overlapping, ["a0", "a1", "b"]),
        (dict(epsilon=0.5, r=1.0, metric=2.0), overlapping, ["a0", "z"]),
        (dict(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=2),
         [Curve(f"c{i}", walk(rng, 4, 2, spread=1.0) * 0.5) for i in range(4)], ["c0", "c2"]),
    ]

    def refuse(*args):
        raise AssertionError("a per-key dictionary call during a delete")

    path = tmp_path / "idx.annc"
    for (params, curves, gone), backend, reload in itertools.product(
            configs, ["hash", "trie"], [False, True]):
        idx = CurveIndex(**params, backend=backend).fit(curves)
        if reload:
            idx.save(path)
            idx = CurveIndex.load(path, backend=backend)
        live = curves
        for cid in gone:
            with monkeypatch.context() as m:
                for cls in (dictionary.HashedDictionary, dictionary.PrefixTreeDictionary):
                    for name in ("lookup", "remove", "replace"):
                        m.setattr(cls, name, refuse, raising=False)
                idx.delete_curve(cid)
            live = [c for c in live if c.id != cid]
            check_equals_a_fresh_fit(idx, live)


def test_dynamic_interleaving_matches_fresh_build():
    """Counting mode: arbitrary insert/delete order equals a fresh build."""
    rng = np.random.default_rng(77)
    pool = dataset(rng, 8, 2, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0, mode="count").fit(pool[:4])
    idx.insert_curve(pool[4])
    idx.delete_curve("c1")
    idx.insert_curve(pool[5])
    idx.delete_curve("c4")
    survivors = [pool[0], pool[2], pool[3], pool[5]]
    fresh = CurveIndex(epsilon=1.0, r=1.0, mode="count").fit(survivors)
    assert dict(idx.dicts_[2].items()) == dict(fresh.dicts_[2].items())


def test_dynamic_nn_payloads_stay_valid():
    rng = np.random.default_rng(78)
    pool = dataset(rng, 8, 2, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit(pool[:5])
    idx.delete_curve("c2")
    idx.insert_curve(pool[6])
    g = idx.grids_[2]
    for key, payload in idx.dicts_[2].items():
        pts = grid.key_to_points(key, g)
        assert geometry.distance(idx.registry_[payload].points, pts, math.inf) <= 1.5 + 1e-12


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(79)
    curves = dataset(rng, 6, 3, 2)
    idx = CurveIndex(epsilon=0.5, r=1.0, metric=math.inf).fit(curves)
    path = tmp_path / "idx.annc"
    idx.save(path)
    loaded = CurveIndex.load(path)
    assert sorted(loaded.dicts_) == sorted(idx.dicts_)
    for L in idx.dicts_:
        assert list(loaded.dicts_[L].items()) == list(idx.dicts_[L].items())
    assert set(loaded.registry_) == set(idx.registry_)
    q = Curve("q", curves[0].points)
    assert loaded.query(q).match == idx.query(q).match


@pytest.mark.parametrize("params", [
    dict(metric="dfd", query_lengths=[2, 3]),
    dict(metric="dtw"),
    dict(metric="dtw", mode="count"),
    dict(metric="dfd", mode="asym", k=2),
], ids=["nn-dfd", "nn-dtw", "count-dtw", "asym"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_a_loaded_index_has_the_fitted_grids(tmp_path, backend, params):
    """Every grid of a loaded index equals the one ``fit`` made for its
    length, the finite-p pair bound included."""
    rng = np.random.default_rng(81)
    idx = CurveIndex(epsilon=1.0, r=1.0, backend=backend, **params).fit(dataset(rng, 4, 3, 1))
    path = tmp_path / "idx.annc"
    idx.save(path)
    loaded = CurveIndex.load(path, backend=backend)
    assert loaded.grids_ == idx.grids_


def test_load_with_param_expectations(tmp_path):
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf).fit([Curve("a", [[0.0]])])
    path = tmp_path / "idx.annc"
    idx.save(path)
    CurveIndex.load(path, expect={"epsilon": 1.0, "r": 1.0, "metric": "dfd"})
    from curveann.errors import FormatError

    with pytest.raises(FormatError):
        CurveIndex.load(path, expect={"epsilon": 0.5})
    with pytest.raises(FormatError):
        CurveIndex.load(path, expect={"metric": "dtw"})


def test_dynamic_updates_after_load(tmp_path):
    rng = np.random.default_rng(80)
    curves = dataset(rng, 4, 2, 1)
    idx = CurveIndex(epsilon=1.0, r=1.0).fit(curves)
    path = tmp_path / "idx.annc"
    idx.save(path)
    loaded = CurveIndex.load(path)
    loaded.delete_curve("c0")
    loaded.insert_curve(Curve("new", walk(rng, 2, 1)))
    fresh = CurveIndex(epsilon=1.0, r=1.0).fit(
        [curves[1], curves[2], curves[3], loaded.registry_["new"]]
    )
    got = {k for k, _ in loaded.dicts_[2].items()}
    want = {k for k, _ in fresh.dicts_[2].items()}
    assert got == want


def test_deleting_an_unknown_id_enumerates_nothing(tmp_path, monkeypatch):
    rng = np.random.default_rng(85)
    path = tmp_path / "idx.annc"
    CurveIndex(epsilon=1.0, r=1.0).fit(dataset(rng, 3, 2, 1)).save(path)
    loaded = CurveIndex.load(path)
    calls = []
    enumerate_candidates = candidates.enumerate_candidates
    monkeypatch.setattr(candidates, "enumerate_candidates",
                        lambda req: calls.append(req) or enumerate_candidates(req))
    with pytest.raises(KeyError):
        loaded.delete_curve("nope")
    assert calls == []
    loaded.delete_curve("c0")
    assert calls  # the delete enumerates through the module


def test_a_delete_after_load_enumerates_only_the_curve(tmp_path, monkeypatch):
    """Curves 10 apart share no key, so deleting one of them enumerates its
    own candidate set at each query length and no other curve's."""
    curves = [Curve(f"c{i}", [[10.0 * i], [10.0 * i + 1]]) for i in range(4)]
    path = tmp_path / "idx.annc"
    CurveIndex(epsilon=1.0, r=1.0, query_lengths=[1, 2]).fit(curves).save(path)
    loaded = CurveIndex.load(path)
    calls = []
    enumerate_candidates = candidates.enumerate_candidates
    monkeypatch.setattr(candidates, "enumerate_candidates",
                        lambda req: calls.append(req.anchor.id) or enumerate_candidates(req))
    for gone in ("c1", "c0"):
        loaded.delete_curve(gone)
        assert calls == [gone, gone]
        calls.clear()
    check_equals_a_fresh_fit(loaded, curves[2:])


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_a_delete_stops_once_every_released_key_is_stored_again(backend, monkeypatch):
    """Three identical curves: ``a1`` takes back every key ``a0`` released,
    so deleting ``a0`` enumerates ``a0`` and ``a1`` at each query length and
    never ``a2``."""
    curves = [Curve(f"a{i}", [[0.0], [1.0]]) for i in range(3)]
    idx = CurveIndex(epsilon=1.0, r=1.0, query_lengths=[1, 2], backend=backend).fit(curves)
    calls = []
    enumerate_candidates = candidates.enumerate_candidates
    monkeypatch.setattr(candidates, "enumerate_candidates",
                        lambda req: calls.append(req.anchor.id) or enumerate_candidates(req))
    idx.delete_curve("a0")
    assert calls == ["a0", "a1", "a0", "a1"]
    check_equals_a_fresh_fit(idx, curves[1:])
    assert {cid for dct in idx.dicts_.values() for _, cid in dct.items()} == {"a1"}


def test_dtw_short_queries_keep_the_guarantee():
    """Length-1 queries over length-6 inputs: snapping error must be budgeted
    over the 6 pairs their alignments have, not over 2 * (query length)."""
    rng = np.random.default_rng(82)
    r, eps = 1.0, 1.0
    centers = rng.uniform(-20, 20, size=10)
    curves = [
        Curve(f"c{i}", c + rng.uniform(-0.08, 0.08, size=(6, 1)))
        for i, c in enumerate(centers)
    ]
    idx = CurveIndex(epsilon=eps, r=r, metric="dtw", query_lengths=[1]).fit(curves)
    hits = 0
    for j in range(3000):
        q = Curve(f"q{j}", [[centers[j % 10] + rng.uniform(-0.5, 0.5)]])
        res = idx.query(q)
        truth = oracle.linear_scan_nn(curves, q, 1.0)
        if truth.nearest_distance <= r:
            assert res.found, f"missed a true neighbor at {truth.nearest_distance}"
        if res.found:
            hits += 1
            real = geometry.distance(idx.registry_[res.match].points, q.points, 1.0)
            assert real <= (1 + eps) * r + 1e-9, f"false positive at distance {real}"
    assert hits > 0


@pytest.mark.parametrize("reload", [False, True])
def test_insert_rejects_curves_beyond_the_pair_bound(tmp_path, reload):
    """A finite-p grid sized for length-2 inputs and queries budgets 2 pairs;
    a length-3 input has non-redundant alignments of 3 pairs with them."""
    curves = [Curve("a", [[0.0], [1.0]]), Curve("b", [[5.0], [6.0]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric="dtw").fit(curves)
    if reload:
        path = tmp_path / "idx.annc"
        idx.save(path)
        idx = CurveIndex.load(path)
    before = dict(idx.dicts_[2].items())
    with pytest.raises(UnsupportedLength):
        idx.insert_curve(Curve("long", [[0.0], [0.5], [1.0]]))
    assert "long" not in idx.registry_
    assert dict(idx.dicts_[2].items()) == before
    idx.insert_curve(Curve("short", [[3.0]]))
    assert idx.query(Curve("q", [[3.0], [3.0]])).match == "short"


def test_load_rejects_a_grid_too_coarse_for_its_curves(tmp_path):
    """An index whose finite-p grid budgets fewer pairs than its own curves
    need (as the 2 * (query length) sizing did) cannot keep the guarantee."""
    curves = [Curve("a", np.zeros((6, 1)))]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric="dtw", query_lengths=[1]).fit(curves)
    path = tmp_path / "idx.annc"
    idx.save(path)
    assert CurveIndex.load(path).grids_[1].pairs == 6
    idx.grids_[1] = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1, p=1.0, pairs=2)
    idx.save(path)
    with pytest.raises(FormatError):
        CurveIndex.load(path)


# Inputs whose saved indexes pin the bytes of format version 1. The ids have
# 0, 1, 3, 3 and 7 UTF-8 bytes, so runs of equal-length ids start and stop
# inside the nn and asym blocks.
GOLDEN_CURVES = [
    ("", [[0.0], [1.0], [2.1]]),
    ("a", [[0.3], [1.2], [1.9]]),
    ("é1", [[0.1], [1.4]]),
    ("c10", [[-0.2], [0.9], [2.2]]),
    ("curve-4", [[0.2], [1.1], [0.4]]),
]
GOLDEN = {  # configuration -> (parameters, SHA-256 of the saved file)
    "nn": (dict(epsilon=1.0, r=1.0, metric="dfd", query_lengths=[1, 2, 3]),
           "78f706a551112de6fbb3362e3e9f78769e23533e5a79df4ae5823fd35c8b2a3f"),
    "count": (dict(epsilon=1.0, r=1.0, metric="dtw", mode="count"),
              "26a469531c0bf3006da11533920d35e5c38a0e36cc2d2f769b2a45153e5d0f10"),
    "asym": (dict(epsilon=1.0, r=1.0, metric="dfd", mode="asym", k=2),
             "a5380f4e111b39a3310298c48ba7e89b231fab5a100e611d353cd36cb671c48a"),
}


@pytest.mark.parametrize("chunk", [dictionary._CHUNK, 5])
@pytest.mark.parametrize("backend", ["hash", "trie"])
@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_saved_files_keep_the_version_1_bytes(tmp_path, monkeypatch, config, backend, chunk):
    """The same bytes after fit and save, and after a load with the other
    backend and save, also when blocks take many chunks (5 entries each)."""
    monkeypatch.setattr(dictionary, "_CHUNK", chunk)
    params, digest = GOLDEN[config]
    curves = [Curve(cid, pts) for cid, pts in GOLDEN_CURVES]
    path = tmp_path / "idx.annc"
    CurveIndex(backend=backend, **params).fit(curves).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    CurveIndex.load(path, backend="trie" if backend == "hash" else "hash").save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mode, backend", [("nn", "hash"), ("count", "trie")])
def test_corrupt_files_raise_format_errors(tmp_path, mode, backend):
    """Truncate a small index at every offset, and flip bit 0 and bit 7 of
    every byte. Each truncated file fails with CorruptFile; a flipped one
    either loads or fails with FormatError (CorruptFile is one): no id that
    is not UTF-8, length field beyond the end of the file or empty registry
    curve raises anything else. A registry that holds an id twice is
    corrupt too."""
    shape = np.array([[0.0], [1.0]])
    curves = [Curve("c0", shape), Curve("c1", shape + 0.3), Curve("bcd", shape - 0.4)]
    metric = "dtw" if mode == "count" else "dfd"
    CurveIndex(epsilon=1.0, r=1.0, metric=metric, mode=mode).fit(curves).save(tmp_path / "idx")
    data = (tmp_path / "idx").read_bytes()
    path = tmp_path / "bad"
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(CorruptFile):
            CurveIndex.load(path, backend=backend)
    for at, bit in itertools.product(range(len(data)), (0, 7)):
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        path.write_bytes(flipped)
        try:
            CurveIndex.load(path, backend=backend)
        except FormatError:
            pass
    at = data.rindex(b"c1")  # in the registry, which comes last
    path.write_bytes(data[:at] + b"c0" + data[at + 2 :])
    with pytest.raises(CorruptFile, match="twice"):
        CurveIndex.load(path, backend=backend)


def _saved_parts(tmp_path, curves, **params):
    """The blocks and the registry of a saved index of ``curves``, as bytes."""
    path = tmp_path / "parts.annc"
    CurveIndex(**params).fit([Curve(cid, pts) for cid, pts in curves]).save(path)
    f = io.BytesIO(path.read_bytes())
    blocks, start = [], 0
    while f.read(4) == dictionary.MAGIC:
        f.seek(-4, io.SEEK_CUR)
        dictionary.read_block(f)
        blocks.append(f.getvalue()[start : f.tell()])
        start = f.tell()
    return blocks, f.getvalue()[start:]


LINE = [[0.0, 0.0], [1.0, 0.0]]
DFD_1 = dict(epsilon=1.0, r=1.0, metric="dfd")


@pytest.mark.parametrize("case", ["min-max edge", "id not in the registry", "two blocks of one length",
                                  "two asymmetric blocks", "registry of another d",
                                  "infinite r and edge"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_load_rejects_files_whose_parts_disagree(tmp_path, backend, case):
    """Each of these files is well-formed bytes that would load an index
    breaking its guarantee or its own registry: a min-max edge ten times
    the grid's (a query at distance 6 then matched, against a guarantee of
    2), a block whose id the registry does not hold, two blocks for one
    length, an asymmetric file of two lengths, registry curves of another
    dimension than the blocks', and a header whose r and edge are both inf
    (inf is the min-max edge of r = inf; that index matched every query)."""
    (block,), registry = _saved_parts(tmp_path, [("a", LINE)], **DFD_1)
    path = tmp_path / "idx.annc"
    path.write_bytes(block + registry)
    assert CurveIndex.load(path, backend=backend).query(Curve("q", LINE)).match == "a"
    if case == "min-max edge":
        at = dictionary._HEADER.size - 8  # the f64 edge
        (edge,) = struct.unpack_from("<d", block, at)
        data = block[:at] + struct.pack("<d", 10 * edge) + block[at + 8 :] + registry
    elif case == "id not in the registry":
        (other,), _ = _saved_parts(tmp_path, [("zz", LINE)], **DFD_1)
        data = other + registry
    elif case == "two blocks of one length":
        data = block + block + registry
    elif case == "infinite r and edge":
        at = dictionary._HEADER.size - 24  # the f64 r, before d, L and the edge
        data = bytearray(block + registry)
        struct.pack_into("<d", data, at, math.inf)
        struct.pack_into("<d", data, at + 16, math.inf)
    elif case == "two asymmetric blocks":
        three = [("a", [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])]
        blocks = [_saved_parts(tmp_path, three, mode="asym", k=k, **DFD_1)[0][0] for k in (2, 3)]
        data = b"".join(blocks) + _saved_parts(tmp_path, three, mode="asym", k=2, **DFD_1)[1]
    else:
        data = block + _saved_parts(tmp_path, [("a", [[0.0], [1.0]])], **DFD_1)[1]
    path.write_bytes(data)
    match = {"min-max edge": "min-max edge", "id not in the registry": "not in the registry",
             "two blocks of one length": "two blocks", "two asymmetric blocks": "asymmetric",
             "registry of another d": "2-dim", "infinite r and edge": "positive and finite"}[case]
    with pytest.raises(CorruptFile, match=match):
        CurveIndex.load(path, backend=backend)


@pytest.mark.parametrize("out_len", [2**32 - 1, 2**31 + 2])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_an_empty_block_whose_keys_numpy_cannot_hold_is_corrupt(tmp_path, backend, out_len):
    """An asym index whose only curve is skipped saves an empty block. Its
    header's L, set so that a key's 8 L d bytes exceed numpy's largest
    record, makes the file corrupt; it does not load a dictionary whose
    ``items`` then fails inside numpy."""
    idx = CurveIndex(epsilon=1.0, r=1.0, metric=math.inf, mode="asym", k=1)
    idx.fit([Curve("s", [[0.0], [2.5]])])
    assert idx.stats_["skipped"] == ["s"]
    path = tmp_path / "idx.annc"
    idx.save(path)
    data = bytearray(path.read_bytes())
    at = dictionary._HEADER.size - 12  # the u32 L, before the f64 edge
    assert data[at : at + 4] == (1).to_bytes(4, "little")
    data[at : at + 4] = out_len.to_bytes(4, "little")
    path.write_bytes(data)
    with pytest.raises(CorruptFile, match="key shape"):
        CurveIndex.load(path, backend=backend)


def _chunked_dtw_index(mode, backend="trie"):
    """A DTW index of one block of over 50,000 entries, more than six
    chunks of a block."""
    shape = np.array([[0.0], [0.4], [0.8], [0.4]])
    curves = [Curve("c0", shape), Curve("c1", shape + 0.03)]
    idx = CurveIndex(epsilon=0.5, r=1.0, metric="dtw", mode=mode, backend=backend).fit(curves)
    (dct,) = idx.dicts_.values()
    assert len(dct) >= 50_000 > 6 * dictionary._CHUNK
    return idx, dct


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_save_and_load_hold_a_few_chunks_at_a_time(tmp_path, mode):
    """Blocks are encoded and decoded a chunk at a time. Beyond what the
    loaded index keeps, a load holds at its peak no more than two chunks'
    arrays, key tuples and lists, taken at 256 bytes an entry; beyond the
    size of a list of every entry, ``list(items())``, neither does a save.
    A reader or writer that works on a whole block at once holds more on
    this index (7 chunks)."""
    idx, dct = _chunked_dtw_index(mode)
    budget = 2 * dictionary._CHUNK * 256
    path = tmp_path / "idx.annc"
    tracemalloc.start()
    try:
        items = list(dct.items())
        items_size = tracemalloc.get_traced_memory()[0]
        del items
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        idx.save(path)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = CurveIndex.load(path, backend="trie")
        kept, load_peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert list(loaded.dicts_[4].items()) == list(dct.items())
    assert save_peak < items_size + budget, (save_peak, items_size, budget)
    assert load_peak - kept < budget, (load_peak, kept, budget)


@pytest.mark.parametrize("backend", ["hash", "trie"])
@pytest.mark.parametrize("mode", ["nn", "count"])
def test_items_streams_its_entries_a_chunk_at_a_time(mode, backend):
    """``items()`` sorts when it is called and then yields the entries a
    chunk at a time: summing the payloads through it holds at its peak the
    ``_ordered`` arrays and one chunk's entries, taken at 256 bytes an
    entry, but no list of every entry (on this index, more than 6 MiB). An
    update after the call does not show in what it yields."""
    _, dct = _chunked_dtw_index(mode, backend)
    rows, payloads, order = dct._ordered()
    bound = rows.nbytes + sys.getsizeof(payloads) + order.nbytes + dictionary._CHUNK * 256
    del rows, payloads, order
    size = int if mode == "count" else len
    want = list(dct.items())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total = sum(size(payload) for _, payload in dct.items())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert total == sum(size(payload) for _, payload in want)
    assert peak < bound, (peak, bound)
    entries = dct.items()
    key, payload = want[0]
    if mode == "count":
        dct.decrement_all((key,) * payload)
    else:
        dct.release((key,), payload)
    assert list(entries) == want
    assert list(dct.items()) == want[1:]
    empty = dictionary.make_dictionary(backend, dct.mode, out_len=dct.out_len, d=dct.d)
    assert list(empty.items()) == []


def _bench_workload(name, seed):
    """The benchmark's inputs of workload ``name`` for ``seed``
    (bench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name](seed)


def _count_dtw_workload(seed):
    """The benchmark's count-dtw inputs for ``seed``."""
    return _bench_workload("count-dtw", seed)


def test_a_fitted_trie_holds_under_100_bytes_an_entry():
    """A trie entry is a slot in the dict of its key's last level, with no
    object of its own: an index over the count-dtw inputs holds under 100
    bytes an entry after ``fit``. A node object per entry, with a dict of
    children each, takes about 175."""
    wl = _count_dtw_workload(7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = CurveIndex(**dict(wl.params, backend="trie")).fit(wl.curves)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(map(len, idx.dicts_.values()))
    assert entries > 50_000
    assert held < 100 * entries, held / entries


@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_a_dictionary_holds_no_more_after_inserts_and_deletes(backend, mode):
    """Inserting and then deleting a curve far from the fitted one leaves a
    dictionary of the same entries and about the same bytes, 200 times
    over. A trie's table of every last vertex ever folded held about 2 KB
    more a pair here. A dict keeps its size once emptied, so the bytes are
    compared from after two pairs, which size the root (and the hash
    table's one leaf) for one such curve."""
    base = Curve("a", [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])

    def churn(i):
        far = Curve(f"x{i}", base.points + 100.0 * (i + 1))
        idx.insert_curve(far)
        idx.delete_curve(far.id)

    gc.collect()
    tracemalloc.start()
    try:
        idx = CurveIndex(epsilon=1.0, r=1.0, mode=mode, backend=backend).fit([base])
        entries = dict(idx.dicts_[3].items())
        churn(0)
        churn(1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for i in range(2, 202):
            churn(i)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert len(entries) > 3000
    assert dict(idx.dicts_[3].items()) == entries
    assert list(idx.registry_) == ["a"]
    assert grown < 4096, grown


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_fit_times_its_enumeration_and_fold(mode):
    curves = [Curve("a", [[0.0], [0.5]]), Curve("b", [[0.2], [0.6]])]
    idx = CurveIndex(epsilon=1.0, r=1.0, metric="dtw", mode=mode).fit(curves)
    stats = idx.stats_
    assert stats["enumerate_seconds"] >= 0 and stats["fold_seconds"] >= 0
    assert stats["enumerate_seconds"] + stats["fold_seconds"] <= stats["build_seconds"]
    # the timers describe fit; updates leave them as they are
    timers = {k: stats[k] for k in ("enumerate_seconds", "fold_seconds", "build_seconds")}
    idx.insert_curve(Curve("c", [[0.1], [0.4]]))
    idx.delete_curve("c")
    assert {k: idx.stats_[k] for k in timers} == timers


def _tracked_growth(build):
    """``build()`` and the growth of the objects the cyclic garbage
    collector tracks, with the collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        built = build()
        return built, len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.mark.parametrize("workload", ["asym-dfd", "count-dtw"])
def test_a_hash_index_holds_no_tracked_object_per_entry(tmp_path, workload):
    """Keys are bytes and payloads are strings or ints, which the cyclic
    garbage collector does not track: fitting or loading a hash-backend
    index adds fewer tracked objects than 1% of its entries, so a large
    block sets off no full collection. Tuple keys added one an entry."""
    wl = _bench_workload(workload, 7)
    params = dict(wl.params, backend="hash")
    idx, fitted = _tracked_growth(lambda: CurveIndex(**params).fit(wl.curves))
    entries = sum(map(len, idx.dicts_.values()))
    assert entries > 50_000
    path = tmp_path / "idx.annc"
    idx.save(path)
    loaded, read = _tracked_growth(lambda: CurveIndex.load(path))
    assert (list(loaded.dicts_[max(loaded.dicts_)].items())
            == list(idx.dicts_[max(idx.dicts_)].items()))
    assert fitted < entries / 100 and read < entries / 100, (fitted, read, entries)
