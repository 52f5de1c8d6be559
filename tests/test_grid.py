import math

import numpy as np
import pytest

from curveann import geometry, grid
from curveann.errors import DimensionMismatch
from lattice_keys import pack


def make_grid(edge, d=1, p=math.inf):
    return grid.GridSpec(edge=edge, epsilon=1.0, r=1.0, d=d, p=p)


def test_edge_derivation_dfd():
    g = grid.GridSpec.create(epsilon=0.5, r=2.0, d=4, p=math.inf)
    assert g.edge == pytest.approx(0.5 * 2.0 / 2.0)


def test_edge_derivation_finite_p():
    g = grid.GridSpec.create(epsilon=0.5, r=2.0, d=4, p=1.0, pairs=6)
    assert g.edge == pytest.approx(0.5 * 2.0 / (6.0 * 2.0))
    g2 = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1, p=2.0, pairs=4)
    assert g2.edge == pytest.approx(1.0 / math.sqrt(4.0))
    g3 = grid.GridSpec.create(epsilon=0.5, r=2.0, d=4, p=1.0, pairs=4)
    assert g3.edge == pytest.approx(0.5 * 2.0 / (4.0 * 2.0))
    assert g3.pairs == 4
    g4 = grid.GridSpec.create(epsilon=1.0, r=1.0, d=1, p=2.0, pairs=6)
    assert g4.edge == pytest.approx(1.0 / math.sqrt(6.0))
    # the pair bound is recovered from a stored edge
    assert grid.GridSpec.from_edge(g4.edge, 1.0, 1.0, 1, 2.0) == g4
    with pytest.raises(ValueError):
        grid.GridSpec.from_edge(0.45, 1.0, 1.0, 1, 2.0)
    # the finite-p edge depends on the pair bound, which has no default
    with pytest.raises(ValueError, match="pair bound"):
        grid.GridSpec.create(epsilon=0.5, r=2.0, d=4, p=1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_radius_or_edge_that_is_not_finite_is_rejected(bad):
    """``create`` made edge inf from r = inf; NaN passed every check."""
    for p, pairs in ((math.inf, None), (2.0, 4)):
        with pytest.raises(ValueError, match="edge must be positive and finite"):
            grid.GridSpec.create(1.0, bad, 1, p, pairs)
    with pytest.raises(ValueError, match="edge must be positive and finite"):
        make_grid(bad)
    with pytest.raises(ValueError, match="r must be positive and finite"):
        grid.GridSpec(edge=1.0, epsilon=1.0, r=bad, d=1, p=math.inf)


def test_a_min_max_edge_is_checked_too():
    """The min-max edge has no free parameter: from_edge accepts only the
    edge ``create`` derives, up to the relative tolerance of finite p."""
    g = grid.GridSpec.create(epsilon=0.5, r=2.0, d=3)
    assert grid.GridSpec.from_edge(g.edge * (1 + 1e-12), 0.5, 2.0, 3, math.inf).edge \
        == g.edge * (1 + 1e-12)
    for edge in (g.edge * 10, g.edge / 2, g.edge * (1 + 1e-6)):
        with pytest.raises(ValueError, match="min-max"):
            grid.GridSpec.from_edge(edge, 0.5, 2.0, 3, math.inf)


def test_snap_examples():
    assert grid.snap_point([0.4], make_grid(1.0)) == (0,)
    # half-way coordinates round toward +inf
    assert grid.snap_point([0.5], make_grid(1.0)) == (1,)
    assert grid.snap_point([0.3, -0.7], make_grid(0.5, d=2)) == (1, -1)


def test_snap_curve_examples():
    g = make_grid(1.0)
    assert grid.snap_curve([[0.0], [1.0]], g) == pack(((0,), (1,)))
    assert grid.snap_curve([[0.4], [0.6]], g) == pack(((0,), (1,)))
    g2 = make_grid(0.5, d=2)
    assert grid.snap_curve([[0.25, 0.25]], g2) == pack(((1, 1),))


def test_snap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        grid.snap_point([0.0, 0.0], make_grid(1.0))


def test_snap_error_bound_and_tightness():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        g = make_grid(0.7, d=d)
        bound = g.edge * math.sqrt(d) / 2
        for _ in range(300):
            x = rng.uniform(-20, 20, size=d)
            z = grid.snap_point(x, g)
            err = np.linalg.norm(x - grid.lattice_to_point(z, g))
            assert err <= bound + 1e-12
        # the all-half-offsets point achieves the bound exactly
        worst = np.full(d, g.edge / 2)
        z = grid.snap_point(worst, g)
        assert np.linalg.norm(worst - grid.lattice_to_point(z, g)) == pytest.approx(bound)


def test_snap_idempotent_on_grid_points():
    rng = np.random.default_rng(22)
    g = make_grid(0.3, d=3)
    for _ in range(100):
        z = tuple(int(v) for v in rng.integers(-50, 50, size=3))
        assert grid.snap_point(grid.lattice_to_point(z, g), g) == z


def test_ball_examples():
    assert len(grid.grid_points_in_ball([0.0], 1.5, make_grid(0.5))) == 7
    assert grid.grid_points_in_ball([0.0], 0.0, make_grid(1.0)) == [(0,)]
    pts = grid.grid_points_in_ball([0.0, 0.0], 1.0, make_grid(1.0, d=2))
    assert len(pts) == 5
    assert pts == sorted(pts)  # lexicographic order


def test_ball_is_exact_filter():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = rng.integers(1, 4)
        g = make_grid(rng.uniform(0.2, 1.0), d=d)
        center = rng.uniform(-3, 3, size=d)
        radius = rng.uniform(0, 2.5)
        got = set(grid.grid_points_in_ball(center, radius, g))
        lo = np.floor((center - radius) / g.edge).astype(int) - 1
        hi = np.ceil((center + radius) / g.edge).astype(int) + 1
        expect = set()
        for z in np.ndindex(*(hi - lo + 1)):
            z = tuple(int(v) for v in (np.array(z) + lo))
            if np.linalg.norm(np.array(z) * g.edge - center) <= radius:
                expect.add(z)
        assert got == expect


def test_ball_count_volume_bound():
    """Lattice point count is at most the volume of the inflated ball."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = make_grid(rng.uniform(0.3, 1.2), d=d)
        center = rng.uniform(-2, 2, size=d)
        radius = rng.uniform(0, 3)
        count = len(grid.grid_points_in_ball(center, radius, g))
        rr = radius / g.edge + math.sqrt(d)
        volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * rr**d
        assert count <= volume


def test_ball_contains_snap_of_center():
    rng = np.random.default_rng(25)
    for d in (1, 2, 3):
        g = make_grid(0.6, d=d)
        threshold = g.edge * math.sqrt(d) / 2
        for _ in range(50):
            x = rng.uniform(-5, 5, size=d)
            pts = grid.grid_points_in_ball(x, threshold, g)
            assert grid.snap_point(x, g) in pts


def test_key_round_trip():
    g = make_grid(0.5, d=2)
    key = pack(((1, -1), (0, 2)))
    pts = grid.key_to_points(key, g)
    assert grid.snap_curve(pts, g) == key


def test_overflow_rejected():
    g = make_grid(1e-3)
    with pytest.raises(ValueError):
        grid.snap_point([1e19], g)


def reference_snap(points, g):
    """Lattice key by the original per-coordinate numpy snap, kept as the
    reference the snap rule must reproduce exactly."""
    key = []
    for v in points:
        x = np.atleast_1d(np.asarray(v, dtype=float))
        if x.shape != (g.d,):
            raise DimensionMismatch(f"point has shape {x.shape}, grid is {g.d}-dim")
        out = []
        for c in x:
            if abs(c) > g.edge * 2**62:
                raise ValueError("coordinate too large for this grid edge")
            out.append(math.floor(c / g.edge + 0.5))
        key.append(tuple(out))
    return tuple(key)


def awkward_coordinates(rng, shape, edge):
    """Random coordinates mixed with the values where rounding is decided:
    half-lattice positions and their neighbouring doubles, -0.0, and values
    at and just inside the coordinate limit."""
    limit = edge * 2**62
    z = int(rng.integers(-1000, 1000))
    half = (z + 0.5) * edge
    special = [half, np.nextafter(half, -np.inf), np.nextafter(half, np.inf), -0.0,
               limit, -limit, np.nextafter(limit, 0.0), -np.nextafter(limit, 0.0)]
    pts = rng.uniform(-50, 50, size=shape)
    pick = rng.random(shape) < 0.5
    pts[pick] = rng.choice(special, size=int(pick.sum()))
    return pts


@pytest.mark.parametrize("p", [math.inf, 1.0, 2.0])
def test_snap_matches_the_reference_bit_for_bit(p):
    rng = np.random.default_rng(26)
    for d in range(1, 5):
        for m in range(1, 13):
            for eps, r in ((1.0, 1.0), (0.5, 0.7), (0.25, 3.0)):
                g = grid.GridSpec.create(eps, r, d, p, pairs=None if p == math.inf else 2 * m + 1)
                pts = awkward_coordinates(rng, (m, d), g.edge)
                want = reference_snap(pts, g)
                assert grid.snap_curve(geometry.Curve("c", pts), g) == pack(want)
                assert grid.snap_curve(pts.tolist(), g) == pack(want)
                assert tuple(grid.snap_point(v, g) for v in pts) == want
                assert tuple(grid.snap_point(v.tolist(), g) for v in pts) == want


def test_snap_rejects_coordinates_beyond_the_limit_and_wrong_dimensions():
    g = grid.GridSpec.create(0.5, 1.0, 2, math.inf)
    beyond = np.nextafter(g.edge * 2**62, np.inf)
    for c in (beyond, -beyond):
        pts = np.array([[0.0, 0.0], [1.0, c]])
        with pytest.raises(ValueError):
            reference_snap(pts, g)
        with pytest.raises(ValueError):
            grid.snap_curve(geometry.Curve("c", pts), g)
        with pytest.raises(ValueError):
            grid.snap_curve(pts.tolist(), g)
        with pytest.raises(ValueError):
            grid.snap_point(pts[1], g)
    for pts in ([[0.0], [1.0]], [[0.0, 0.0, 0.0]]):
        with pytest.raises(DimensionMismatch):
            grid.snap_curve(geometry.Curve("c", pts), g)
        with pytest.raises(DimensionMismatch):
            grid.snap_curve(pts, g)
        with pytest.raises(DimensionMismatch):
            grid.snap_point(pts[0], g)


def test_snap_curve_packs_the_int64_coordinates():
    """The key bytes equal an independent numpy snap of the whole curve, on
    random curves with exact halves and negative coordinates; past the
    coordinate limit the snap raises ValueError."""
    rng = np.random.default_rng(27)
    for d in (1, 2, 3):
        g = make_grid(0.3, d=d)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            pts = rng.uniform(-40, 40, size=(m, d))
            halves = rng.random((m, d)) < 0.3
            pts[halves] = (rng.integers(-100, 100, int(halves.sum())) + 0.5) * g.edge
            want = np.floor(pts / g.edge + 0.5).astype("<i8").tobytes()
            assert grid.snap_curve(pts, g) == want
            assert len(want) == 8 * m * d
        pts = np.zeros((2, d))
        pts[1, -1] = -np.nextafter(g.edge * 2**62, np.inf)
        with pytest.raises(ValueError, match="too large"):
            grid.snap_curve(pts, g)
