import math

import numpy as np
import pytest

from curveann import candidates, geometry, grid, oracle
from curveann.errors import CapacityExceeded

Curve = geometry.Curve


def test_linear_scan_single():
    c = Curve("only", [[1.0], [2.0]])
    ans = oracle.linear_scan_nn([c], Curve("q", [[1.0], [2.0]]))
    assert ans.nearest_id == "only"
    assert ans.nearest_distance == 0.0


def test_linear_scan_order_and_ties():
    a = Curve("a", [[1.0]])
    b = Curve("b", [[2.0]])
    q = Curve("q", [[0.0]])
    ans = oracle.linear_scan_nn([a, b], q)
    assert ans.nearest_id == "a"
    tie = oracle.linear_scan_nn([Curve("x", [[1.0]]), Curve("y", [[-1.0]])], q)
    assert tie.nearest_id == "x"


def test_linear_scan_within_radius():
    curves = [Curve("a", [[0.0]]), Curve("b", [[1.0]]), Curve("c", [[5.0]])]
    ans = oracle.linear_scan_nn(curves, Curve("q", [[0.2]]), radius=1.0)
    assert ans.within == ("a", "b")


def test_linear_scan_empty():
    with pytest.raises(ValueError):
        oracle.linear_scan_nn([], Curve("q", [[0.0]]))


def test_count_within():
    curves = [Curve("a", [[0.0]]), Curve("b", [[3.0]])]
    assert oracle.count_within(curves, Curve("q", [[0.0]]), math.inf, 1.0) == 1
    assert oracle.count_within(curves, Curve("q", [[1.5]]), math.inf, 2.0) == 2


def test_brute_candidates_examples():
    g = grid.GridSpec(edge=1.0, epsilon=1.0, r=1.0, d=1, p=math.inf)
    a = Curve("a", [[0.0]])
    pool = [(-1,), (0,), (1,)]
    assert oracle.brute_candidates(a, pool, 1, 1.5, math.inf, g) == {((-1,),), ((0,),), ((1,),)}
    assert oracle.brute_candidates(a, pool, 1, 0.4, math.inf, g) == {((0,),)}
    two = oracle.brute_candidates(a, pool, 2, 1.0, math.inf, g)
    assert two <= {(x, y) for x in pool for y in pool}
    assert all(
        geometry.distance(a.points, np.asarray(k, dtype=float), math.inf) <= 1.0 for k in two
    )


def test_brute_candidates_guard():
    g = grid.GridSpec(edge=1.0, epsilon=1.0, r=1.0, d=1, p=math.inf)
    pool = [(i,) for i in range(40)]
    with pytest.raises(CapacityExceeded):
        oracle.brute_candidates(Curve("a", [[0.0]]), pool, 5, 1.0, math.inf, g)


def test_key_count_lower_bound_examples():
    # one point at the origin, radius 1.5 on the unit lattice: 3 lattice points
    assert oracle.key_count_lower_bound([[0.0]], 1, 1.5, 1.0, math.inf) == 3
    assert oracle.key_count_lower_bound([[0.0]], 2, 1.5, 1.0, math.inf) == 9
    assert oracle.key_count_lower_bound([[0.0]], 1, 0.4, 1.0, 1.0) == 1
    # two vertices matched to one grid vertex: costs add up under DTW
    assert oracle.key_count_lower_bound([[0.0], [0.0]], 1, 1.5, 1.0, 1.0) == 1
    assert oracle.key_count_lower_bound([[0.0], [0.0]], 1, 1.5, 1.0, math.inf) == 3
    # no lattice point within reach
    assert oracle.key_count_lower_bound([[0.5]], 1, 0.2, 1.0, math.inf) == 0


def test_key_count_lower_bound_never_exceeds_brute_force():
    rng = np.random.default_rng(62)
    checked = equal = 0
    for trial in range(80):
        p = (math.inf, 1.0, 2.0)[trial % 3]
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        out_len = m if trial % 2 == 0 else int(rng.integers(1, m + 1))
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=d, p=p, pairs=2 * out_len)
        anchor = rng.uniform(-1.5, 1.5, size=(m, d))
        radius = float(rng.uniform(0.4, 1.5))
        pool = candidates.vertex_pool(anchor, radius, g)
        if len(pool) ** out_len > 10**4:
            continue
        brute = len(oracle.brute_candidates(anchor, pool, out_len, radius, p, g))
        bound = oracle.key_count_lower_bound(anchor, out_len, radius, g.edge, p)
        assert bound <= brute
        checked += 1
        equal += bound == brute
    assert checked >= 40
    # the bound is usually tight on such small anchors
    assert equal >= checked // 2


def test_exact_meb_examples():
    center, radius = oracle.exact_meb([[-1.0], [1.0]])
    assert center == pytest.approx([0.0])
    assert radius == pytest.approx(1.0)
    _, radius = oracle.exact_meb([[7.0, 7.0]])
    assert radius == 0.0
    center, radius = oracle.exact_meb([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert center == pytest.approx([0.5, 0.5])
    assert radius == pytest.approx(math.sqrt(2) / 2)


def test_exact_meb_is_minimal():
    """No sampled alternative center does better than the reported ball."""
    rng = np.random.default_rng(61)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-2, 2, size=(rng.integers(1, 9), d))
        center, radius = oracle.exact_meb(pts)
        assert np.linalg.norm(pts - center, axis=1).max() <= radius + 1e-9
        for _ in range(40):
            alt = center + rng.normal(scale=0.3, size=d)
            alt_r = np.linalg.norm(pts - alt, axis=1).max()
            assert alt_r >= radius - 1e-9


def test_exact_meb_rejects_high_dimension():
    with pytest.raises(ValueError):
        oracle.exact_meb(np.zeros((2, 4)))
