import gc
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from curveann import candidates, geometry, grid, oracle
from curveann.errors import CapacityExceeded, ModeMismatch
from lattice_keys import pack, unpack_all

Curve = geometry.Curve


def make_grid(edge, d=1, p=math.inf, epsilon=1.0):
    return grid.GridSpec(edge=edge, epsilon=epsilon, r=1.0, d=d, p=p)


def request(anchor, out_len, radius, g, **kw):
    return candidates.CandidateRequest(
        anchor=anchor, out_len=out_len, enum_radius=radius, grid=g, **kw
    )


def test_vertex_pool_examples():
    g = make_grid(1.0)
    assert candidates.vertex_pool(Curve("a", [[0.0]]), 1.0, g) == [(-1,), (0,), (1,)]
    assert candidates.vertex_pool(Curve("a", [[0.0], [0.0]]), 1.0, g) == [(-1,), (0,), (1,)]
    pool = candidates.vertex_pool(Curve("a", [[0.0], [10.0]]), 1.0, g)
    assert pool == [(-1,), (0,), (1,), (9,), (10,), (11,)]


def test_enumerate_dfd_examples():
    g = make_grid(1.0)
    a = Curve("a", [[0.0]])
    assert list(candidates.enumerate_dfd(request(a, 1, 1.5, g))) == [
        pack(((-1,),)), pack(((0,),)), pack(((1,),))]
    assert list(candidates.enumerate_dfd(request(a, 1, 0.4, g))) == [pack(((0,),))]
    keys = candidates.enumerate_dfd(request(Curve("a", [[0.0], [3.0]]), 2, 1.0, g))
    expect = {pack(((x,), (y,))) for x in (-1, 0, 1) for y in (2, 3, 4)}
    assert set(keys) == expect


def test_enumerate_lp_examples():
    a = Curve("a", [[0.0]])
    keys = candidates.enumerate_lp(request(a, 1, 1.0, make_grid(0.25, p=1.0)))
    assert set(keys) == {pack(((z,),)) for z in range(-4, 5)}
    zz = Curve("z", [[0.0], [0.0]])
    keys = candidates.enumerate_lp(request(zz, 2, 1e-12, make_grid(1.0, p=1.0)))
    assert list(keys) == [pack(((0,), (0,)))]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_chunks_are_views_that_join_to_the_rows(p, chunk, monkeypatch):
    """``chunks`` yields ``rows`` ``_CHUNK`` at a time, every chunk but the
    last full, as views of ``rows`` that, joined, are ``rows``; the keys
    are those of the rows, in order. A set with no key has no chunk."""
    monkeypatch.setattr(candidates, "_CHUNK", chunk)
    g = grid.GridSpec.create(epsilon=0.5, r=1.0, d=1, p=p, pairs=4)
    cands = candidates.enumerate_candidates(request(Curve("a", [[0.0], [0.7]]), 2, 1.25, g))
    chunks = list(cands.chunks())
    assert len(cands) == len(cands.rows) > 3 * chunk
    assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= chunk
    assert all(np.shares_memory(c, cands.rows) for c in chunks)
    assert np.array_equal(np.concatenate(chunks), cands.rows)
    assert list(cands) == [cands.pool[row].tobytes() for row in cands.rows]
    # no lattice point within 0.1 of 0.5: an empty pool and an empty set
    empty = candidates.enumerate_candidates(request(Curve("a", [[0.5]] * 2), 2, 0.1,
                                                    make_grid(1.0, p=p)))
    assert empty.rows.shape == (0, 2) and len(empty) == 0
    assert list(empty.chunks()) == [] and list(empty) == []


def test_enumerate_lp_fractional_edge_vs_oracle():
    g = make_grid(0.5, p=1.0)
    a = Curve("a", [[0.0], [1.0]])
    keys = candidates.enumerate_lp(request(a, 2, 0.5, g))
    pool = candidates.vertex_pool(a, 0.5, g)
    expect = oracle.brute_candidates(a, pool, 2, 0.5, 1.0, g)
    assert unpack_all(keys, 1) == expect


def test_oracle_equivalence_random():
    """Both enumerators match cartesian brute force on small random anchors."""
    rng = np.random.default_rng(31)
    for trial in range(25):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        out_len = int(rng.integers(1, 4))
        p = (math.inf, 1.0, 2.0)[trial % 3]
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=d, p=p, pairs=2 * out_len)
        anchor = Curve(f"t{trial}", rng.uniform(-1.5, 1.5, size=(m, d)))
        radius = float(rng.uniform(0.3, 1.2))
        req = request(anchor, out_len, radius, g)
        got = candidates.enumerate_candidates(req)
        pool = candidates.vertex_pool(anchor, radius, g)
        if len(pool) ** out_len > 10**6:
            continue
        expect = oracle.brute_candidates(anchor, pool, out_len, radius, p, g)
        assert unpack_all(got, d) == expect, f"trial {trial}: p={p} m={m} d={d}"
        assert len(set(got)) == len(got)


@pytest.mark.parametrize("out_len", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_enumerate_lp_matches_brute_force(p, out_len):
    """Anchors of m = 2 vertices, so the output is shorter than, as long
    as and longer than the anchor; d = 2 only where brute force is small."""
    rng = np.random.default_rng([35, int(p), out_len])
    for d in (1, 2) if out_len < 3 else (1,):
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=d, p=p,
                                 pairs=geometry.max_non_redundant_pairs(2, out_len))
        for trial in range(3):
            anchor = Curve(f"t{trial}", rng.uniform(-1, 1, size=(2, d)))
            radius = float(rng.uniform(0.5, 1.2))
            got = candidates.enumerate_lp(request(anchor, out_len, radius, g))
            pool = candidates.vertex_pool(anchor, radius, g)
            expect = oracle.brute_candidates(anchor, pool, out_len, radius, p, g)
            assert len(got) == len(expect) and unpack_all(got, d) == expect, (d, trial)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_enumerate_lp_in_many_steps(p, monkeypatch):
    """With a per-step bound far below the pool size, the first vertex and
    every extension take several steps; the key set stays the same."""
    anchor = Curve("a", [[0.0, 0.0], [0.8, -0.3], [1.2, 0.5]])
    g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=2, p=p,
                             pairs=geometry.max_non_redundant_pairs(3, 2))
    req = request(anchor, 2, 1.2, g)
    whole = candidates.enumerate_lp(req)
    pool = candidates.vertex_pool(anchor, 1.2, g)
    monkeypatch.setattr(candidates, "_STEP_PAIRS", 5)
    assert len(pool) > 5 * 5
    steps = candidates.enumerate_lp(req)
    expect = oracle.brute_candidates(anchor, pool, 2, 1.2, p, g)
    assert len(steps) == len(whole) == len(expect)
    assert set(steps) == set(whole) and unpack_all(steps, 2) == expect


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_enumerate_lp_on_spread_anchors_matches_brute_force(p, monkeypatch):
    """Anchors of m = 3 vertices 3 to 5 apart, where a pool vertex near one
    anchor vertex is far from the others: the first and the last vertex of
    a key are tried only near the first and the last anchor vertex. Keys
    are shorter than (none is within the radius), as long as and longer
    than the anchor; steps of the default size and of 5 pairs."""
    rng = np.random.default_rng([36, int(p)])
    g = make_grid(0.5, p=p)
    for out_len in (2, 3, 4):
        for trial in range(2):
            gaps = rng.uniform(3, 5, size=(2, 1)) * rng.choice([-1, 1], size=(2, 1))
            anchor = Curve(f"s{trial}", np.vstack([[0.0], np.cumsum(gaps, axis=0)]))
            radius = float(rng.uniform(1.0, 1.3))
            pool = candidates.vertex_pool(anchor, radius, g)
            expect = oracle.brute_candidates(anchor, pool, out_len, radius, p, g)
            for step_pairs in (candidates._STEP_PAIRS, 5):
                monkeypatch.setattr(candidates, "_STEP_PAIRS", step_pairs)
                got = candidates.enumerate_lp(request(anchor, out_len, radius, g))
                assert len(got) == len(expect) and unpack_all(got, 1) == expect, (out_len, trial)


def test_the_last_vertex_is_tried_only_near_the_last_anchor_vertex(monkeypatch):
    """The last vertex of a key pairs with the last anchor vertex. On a
    spread anchor, trying it only where that cost leaves room in the budget
    builds under half the last-level rows that trying every vertex near
    some anchor vertex builds (624,656 rows for these 35,850 keys)."""
    g = grid.GridSpec.create(epsilon=0.5, r=1.0, d=1, p=1.0,
                             pairs=geometry.max_non_redundant_pairs(4, 4))
    req = request(Curve("s", [[0.0], [4.0], [8.0], [12.0]]), 4, 1.25, g)
    rows = []
    settle = candidates._LpSteps.settle

    def counted(self, new, prefix, src, vtx):
        if prefix.shape[0] + 1 == self.req.out_len:
            rows.append(new.shape[1])
        return settle(self, new, prefix, src, vtx)

    monkeypatch.setattr(candidates._LpSteps, "settle", counted)
    keys = candidates.enumerate_lp(req)
    assert len(keys) == len(set(keys)) == 35_850
    assert sum(rows) < 624_656 // 2, sum(rows)


def test_every_key_respects_the_distance_condition():
    rng = np.random.default_rng(32)
    g = make_grid(0.5, d=2)
    anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
    for p in (math.inf, 1.0):
        gp = grid.GridSpec.create(epsilon=1.0, r=1.0, d=2, p=p, pairs=4)
        keys = candidates.enumerate_candidates(request(anchor, 2, 1.0, gp))
        for key in keys:
            pts = grid.key_to_points(key, gp)
            assert geometry.distance(anchor.points, pts, p) <= 1.0


def test_completeness_witness():
    """A snapped perturbation of the anchor always shows up in the output."""
    rng = np.random.default_rng(33)
    for p in (math.inf, 1.0, 2.0):
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=2, p=p, pairs=6)
        anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
        keys = set(candidates.enumerate_candidates(request(anchor, 3, 1.0, g)))
        for _ in range(10):
            w = grid.snap_curve(anchor.points + rng.uniform(-0.05, 0.05, size=(3, 2)), g)
            pts = grid.key_to_points(w, g)
            if geometry.distance(anchor.points, pts, p) <= 1.0:
                assert w in keys


def test_halving_epsilon_grows_the_set():
    anchor = Curve("a", [[0.0], [2.0]])
    sizes = []
    for eps in (1.0, 0.5, 0.25):
        g = grid.GridSpec.create(epsilon=eps, r=1.0, d=1, p=math.inf)
        req = request(anchor, 2, (1 + eps / 2) * 1.0, g)
        sizes.append(len(candidates.enumerate_dfd(req)))
    assert sizes[0] < sizes[1] < sizes[2]


def test_determinism():
    rng = np.random.default_rng(34)
    anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
    g = grid.GridSpec.create(epsilon=0.5, r=1.0, d=2, p=math.inf)
    req = request(anchor, 3, 1.0, g)
    keys = list(candidates.enumerate_dfd(req))
    assert keys and keys == list(candidates.enumerate_dfd(req))


def test_capacity_guard_names_the_anchor():
    g = grid.GridSpec.create(epsilon=0.25, r=1.0, d=2, p=math.inf)
    anchor = Curve("huge", np.zeros((4, 2)))
    with pytest.raises(CapacityExceeded) as exc:
        candidates.enumerate_dfd(request(anchor, 4, 1.125, g, max_candidates=100))
    assert "huge" in str(exc.value)


# a min-max anchor of 12 vertices within 0.35 of each other: its 45 pool
# vertices fall into 13 closeness classes, one of them with 32 vertices
WIGGLE = [[0.03 * i, 0.05 * (i % 2)] for i in range(12)]


@pytest.mark.parametrize("step_pairs", [None, 64])
@pytest.mark.parametrize("p, points", [
    (math.inf, [[0.0, 0.0], [0.7, 0.2]]),
    (1.0, [[0.0, 0.0], [0.7, 0.2]]),
    (2.0, [[0.0, 0.0], [0.7, 0.2]]),
    (math.inf, WIGGLE),
], ids=["inf", "1.0", "2.0", "inf-wiggle"])
def test_capacity_guard_at_its_boundary(p, points, step_pairs, monkeypatch):
    if step_pairs is not None:
        monkeypatch.setattr(candidates, "_STEP_PAIRS", step_pairs)
    g = grid.GridSpec.create(epsilon=0.5, r=1.0, d=2, p=p, pairs=4)
    anchor = Curve("edge", points)
    keys = candidates.enumerate_candidates(request(anchor, 2, 1.25, g))
    n = len(keys)
    assert n > 100
    exact = candidates.enumerate_candidates(request(anchor, 2, 1.25, g, max_candidates=n))
    assert set(exact) == set(keys)
    with pytest.raises(CapacityExceeded) as exc:
        candidates.enumerate_candidates(request(anchor, 2, 1.25, g, max_candidates=n - 1))
    assert "edge" in str(exc.value)
    # the keys the anchor needs: the exact count for min-max, and for finite
    # p the count where the guard fired, which is n at the boundary
    assert needed(exc.value) == (n, p != math.inf)
    with pytest.raises(CapacityExceeded) as exc:
        candidates.enumerate_candidates(request(anchor, 2, 1.25, g, max_candidates=10))
    count, at_least = needed(exc.value)
    assert at_least == (p != math.inf)
    assert count == n if p == math.inf else 10 < count <= n


def needed(exc):
    """The number of keys a ``CapacityExceeded`` says the anchor needs, and
    whether it is only a lower bound."""
    match = re.search(r"needs (at least )?(\d+) keys", str(exc))
    return int(match.group(2)), match.group(1) is not None


def test_a_hopeless_anchor_raises_in_bounded_memory():
    """p = 1, m = 4, d = 2, eps = 0.5 has over 10^9 keys per curve. The
    guard fires holding at most the allowed keys, one step's batch more,
    and the arrays of one step at each depth."""
    m, eps, limit = 4, 0.5, 5_000
    radius = 1 + eps / 2
    anchor = Curve("hopeless", [[0.0, 0.0], [1.0, 0.5], [2.0, -0.5], [3.0, 0.0]])
    g = grid.GridSpec.create(epsilon=eps, r=1.0, d=2, p=1.0,
                             pairs=geometry.max_non_redundant_pairs(m, m))
    assert oracle.key_count_lower_bound(anchor.points, m, radius, g.edge, 1.0) > 10**9
    pool = len(candidates.vertex_pool(anchor, radius, g))
    step = candidates._STEP_PAIRS
    budget = (
        pool * (6 * 8 * m + 200)  # pool vertices, their cost tables and orders
        + m * step * 8 * (8 * m + 8)  # the arrays of one step at each depth
        + (limit + step) * (sys.getsizeof((None,) * m) + 8)  # keys and list slots
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded) as exc:
            candidates.enumerate_lp(request(anchor, m, radius, g, max_candidates=limit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "hopeless" in str(exc.value)
    assert peak < budget, (peak, budget)
    count, at_least = needed(exc.value)
    assert at_least and limit < count <= limit + step


def test_a_hopeless_min_max_anchor_raises_before_building_keys():
    """m = 6, d = 2, eps = 0.25 has over 10^12 keys per curve. The guard is
    decided from the exact count, so it fires holding far less memory than
    the allowed 10^6 keys would take."""
    m, eps, limit = 6, 0.25, 10**6
    radius = 1 + eps / 2
    anchor = Curve("hopeless", [[0.3 * i, 0.2 * (i % 2)] for i in range(m)])
    g = grid.GridSpec.create(epsilon=eps, r=1.0, d=2)
    bound = oracle.key_count_lower_bound(anchor.points, m, radius, g.edge, math.inf)
    assert bound > 10**12
    keys_size = limit * (sys.getsizeof((None,) * m) + 8)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded) as exc:
            candidates.enumerate_dfd(request(anchor, m, radius, g, max_candidates=limit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "hopeless" in str(exc.value)
    assert peak < keys_size / 50, (peak, keys_size)
    count, at_least = needed(exc.value)
    assert not at_least and count >= bound


def test_a_long_min_max_anchor_matches_brute_force():
    """70 anchor vertices: a closeness mask needs more than 64 bits."""
    rng = np.random.default_rng(36)
    anchor = Curve("long", rng.uniform(-1, 1, size=(70, 1)))
    g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1)
    keys = candidates.enumerate_dfd(request(anchor, 2, 1.2, g))
    pool = candidates.vertex_pool(anchor, 1.2, g)
    expect = oracle.brute_candidates(anchor, pool, 2, 1.2, math.inf, g)
    assert expect and len(keys) == len(expect) and unpack_all(keys, 1) == expect


@pytest.mark.parametrize("p", [math.inf, 1.0])
def test_returned_keys_are_held_by_the_caller_only(p):
    """No reference cycle inside the enumerator keeps its key list alive
    once the caller drops it."""
    g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1, p=p, pairs=4)
    req = request(Curve("a", [[0.0], [1.0]]), 2, 1.5, g)
    gc.disable()
    try:
        keys = candidates.enumerate_candidates(req)
        assert keys
        assert sys.getrefcount(keys) == 2
    finally:
        gc.enable()


def test_metric_dispatch_errors():
    g = make_grid(1.0)
    a = Curve("a", [[0.0]])
    with pytest.raises(ModeMismatch):
        candidates.enumerate_dfd(request(a, 1, 1.0, make_grid(1.0, p=1.0)))
    with pytest.raises(ModeMismatch):
        candidates.enumerate_lp(request(a, 1, 1.0, g))
