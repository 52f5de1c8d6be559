import itertools
import math

import numpy as np
import pytest

from curveann import CurveIndex, candidates, geometry, grid, oracle, simplify
from curveann.errors import (
    CapacityExceeded,
    DimensionMismatch,
    FormatError,
    ModeMismatch,
    UnsupportedLength,
)

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
    assert sorted(k for k, _ in dct.items()) == [((-1,),), ((0,),), ((1,),)]
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
    with pytest.raises(ValueError):
        CurveIndex(mode="asym", metric=1.0, k=2).fit([Curve("a", [[0.0]])])
    with pytest.raises(ValueError):
        CurveIndex(mode="asym", metric=math.inf).fit([Curve("a", [[0.0]])])


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


def lattice_box(points, radius, edge):
    """Every lattice point in the bounding box of ``points`` grown by
    ``radius``: a superset of the vertices of any curve within ``radius``."""
    lo = np.floor((points.min(axis=0) - radius) / edge).astype(int)
    hi = np.ceil((points.max(axis=0) + radius) / edge).astype(int)
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


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
            owners.setdefault(key, []).append(c.id)
    assert idx.stats_["skipped"] == skipped
    assert set(idx.simplifications_) == {c.id for c in live} - set(skipped)
    assert dict(idx.dicts_[k].items()) == {key: ids[0] for key, ids in owners.items()}
    if idx.owners_[k] is not None:
        assert idx.owners_[k] == owners
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
    one at 0.0 has 3, so max_candidates=3 stops a fit or insert at curve x."""
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
    with pytest.raises(CapacityExceeded):
        idx.fit([Curve("b", [[5.0]]), Curve("x", [[10.5]])])
    assert idx.query(q).match == "a"
    assert not idx.query(Curve("q", [[5.0]])).found
    assert dict(idx.dicts_[1].items()) == entries
    assert list(idx.registry_) == ["a"]

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


def test_delete_reassigns_overlapping_keys():
    a = Curve("a", [[0.0], [1.0]])
    b = Curve("b", [[0.1], [1.1]])
    idx = CurveIndex(epsilon=1.0, r=1.0).fit([a, b])
    idx.delete_curve("a")
    rebuilt = CurveIndex(epsilon=1.0, r=1.0).fit([b])
    assert dict(idx.dicts_[2].items()) == dict(rebuilt.dicts_[2].items())


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
        assert loaded.dicts_[L].items() == idx.dicts_[L].items()
    assert set(loaded.registry_) == set(idx.registry_)
    q = Curve("q", curves[0].points)
    assert loaded.query(q).match == idx.query(q).match


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
    assert calls  # the owner rebuild and the delete enumerate through the module


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
    idx.grids_[1] = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1, p=1.0, m_norm=1)
    idx.save(path)
    with pytest.raises(FormatError):
        CurveIndex.load(path)
