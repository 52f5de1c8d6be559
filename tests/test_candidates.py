import math

import numpy as np
import pytest

from curveann import candidates, geometry, grid, oracle
from curveann.errors import CapacityExceeded, ModeMismatch

Curve = geometry.Curve


def make_grid(edge, d=1, p=math.inf, epsilon=1.0):
    return grid.GridSpec(edge=edge, epsilon=epsilon, r=1.0, d=d, m_norm=1, p=p)


def request(anchor, out_len, radius, g, p=math.inf, **kw):
    return candidates.CandidateRequest(
        anchor=anchor, out_len=out_len, enum_radius=radius, grid=g, p=p, **kw
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
    assert candidates.enumerate_dfd(request(a, 1, 1.5, g)) == [((-1,),), ((0,),), ((1,),)]
    assert candidates.enumerate_dfd(request(a, 1, 0.4, g)) == [((0,),)]
    keys = candidates.enumerate_dfd(request(Curve("a", [[0.0], [3.0]]), 2, 1.0, g))
    expect = {((x,), (y,)) for x in (-1, 0, 1) for y in (2, 3, 4)}
    assert set(keys) == expect


def test_enumerate_lp_examples():
    a = Curve("a", [[0.0]])
    keys = candidates.enumerate_lp(request(a, 1, 1.0, make_grid(0.25, p=1.0), p=1.0))
    assert set(keys) == {((z,),) for z in range(-4, 5)}
    zz = Curve("z", [[0.0], [0.0]])
    keys = candidates.enumerate_lp(request(zz, 2, 1e-12, make_grid(1.0, p=1.0), p=1.0))
    assert keys == [((0,), (0,))]


def test_enumerate_lp_fractional_edge_vs_oracle():
    g = make_grid(0.5, p=1.0)
    a = Curve("a", [[0.0], [1.0]])
    keys = candidates.enumerate_lp(request(a, 2, 0.5, g, p=1.0))
    pool = candidates.vertex_pool(a, 0.5, g)
    expect = oracle.brute_candidates(a, pool, 2, 0.5, 1.0, g)
    assert set(keys) == expect


def test_oracle_equivalence_random():
    """Both enumerators match cartesian brute force on small random anchors."""
    rng = np.random.default_rng(31)
    for trial in range(25):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        out_len = int(rng.integers(1, 4))
        p = (math.inf, 1.0, 2.0)[trial % 3]
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=d, m_norm=out_len, p=p)
        anchor = Curve(f"t{trial}", rng.uniform(-1.5, 1.5, size=(m, d)))
        radius = float(rng.uniform(0.3, 1.2))
        req = request(anchor, out_len, radius, g, p=p)
        got = candidates.enumerate_candidates(req)
        pool = candidates.vertex_pool(anchor, radius, g)
        if len(pool) ** out_len > 10**6:
            continue
        expect = oracle.brute_candidates(anchor, pool, out_len, radius, p, g)
        assert set(got) == expect, f"trial {trial}: p={p} m={m} d={d}"
        assert len(set(got)) == len(got)


def test_every_key_respects_the_distance_condition():
    rng = np.random.default_rng(32)
    g = make_grid(0.5, d=2)
    anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
    for p in (math.inf, 1.0):
        gp = grid.GridSpec.create(epsilon=1.0, r=1.0, d=2, m_norm=2, p=p)
        keys = candidates.enumerate_candidates(request(anchor, 2, 1.0, gp, p=p))
        for key in keys:
            pts = grid.key_to_points(key, gp)
            assert geometry.distance(anchor.points, pts, p) <= 1.0


def test_completeness_witness():
    """A snapped perturbation of the anchor always shows up in the output."""
    rng = np.random.default_rng(33)
    for p in (math.inf, 1.0, 2.0):
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=2, m_norm=3, p=p)
        anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
        keys = set(candidates.enumerate_candidates(request(anchor, 3, 1.0, g, p=p)))
        for _ in range(10):
            w = grid.snap_curve(anchor.points + rng.uniform(-0.05, 0.05, size=(3, 2)), g)
            pts = grid.key_to_points(w, g)
            if geometry.distance(anchor.points, pts, p) <= 1.0:
                assert w in keys


def test_halving_epsilon_grows_the_set():
    anchor = Curve("a", [[0.0], [2.0]])
    sizes = []
    for eps in (1.0, 0.5, 0.25):
        g = grid.GridSpec.create(epsilon=eps, r=1.0, d=1, m_norm=2, p=math.inf)
        req = request(anchor, 2, (1 + eps / 2) * 1.0, g)
        sizes.append(len(candidates.enumerate_dfd(req)))
    assert sizes[0] < sizes[1] < sizes[2]


def test_determinism():
    rng = np.random.default_rng(34)
    anchor = Curve("a", rng.uniform(-1, 1, size=(3, 2)))
    g = grid.GridSpec.create(epsilon=0.5, r=1.0, d=2, m_norm=3, p=math.inf)
    req = request(anchor, 3, 1.0, g)
    assert candidates.enumerate_dfd(req) == candidates.enumerate_dfd(req)


def test_capacity_guard_names_the_anchor():
    g = grid.GridSpec.create(epsilon=0.25, r=1.0, d=2, m_norm=4, p=math.inf)
    anchor = Curve("huge", np.zeros((4, 2)))
    with pytest.raises(CapacityExceeded) as exc:
        candidates.enumerate_dfd(request(anchor, 4, 1.125, g, max_candidates=100))
    assert "huge" in str(exc.value)


def test_metric_dispatch_errors():
    g = make_grid(1.0)
    a = Curve("a", [[0.0]])
    with pytest.raises(ModeMismatch):
        candidates.enumerate_dfd(request(a, 1, 1.0, g, p=1.0))
    with pytest.raises(ModeMismatch):
        candidates.enumerate_lp(request(a, 1, 1.0, g, p=math.inf))
