import math

import numpy as np
import pytest

from curveann import geometry
from curveann.errors import CapacityExceeded, DimensionMismatch, InvalidAlignment

TOL = 1e-9


def rand_curve(rng, m, d, scale=3.0):
    return rng.uniform(-scale, scale, size=(m, d))


def test_alignment_cost_examples():
    # single identical points
    assert geometry.alignment_cost([(1, 1)], [[0.0]], [[0.0]], math.inf) == 0.0
    # only alignment of a (2,1) pair, DTW sum 0 + 1
    assert geometry.alignment_cost([(1, 1), (2, 1)], [[0.0], [1.0]], [[0.0]], 1.0) == pytest.approx(1.0)
    # max of two unit gaps
    cost = geometry.alignment_cost(
        [(1, 1), (2, 2)], [[0.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [2.0, 1.0]], math.inf
    )
    assert cost == pytest.approx(1.0)


def test_alignment_cost_rejects_bad_shapes():
    with pytest.raises(InvalidAlignment):
        geometry.alignment_cost([(1, 1), (3, 1)], [[0.0], [1.0], [2.0]], [[0.0]], 1.0)
    with pytest.raises(InvalidAlignment):
        geometry.alignment_cost([(2, 1)], [[0.0], [1.0]], [[0.0]], 1.0)
    with pytest.raises(DimensionMismatch):
        geometry.alignment_cost([(1, 1)], [[0.0]], [[0.0, 0.0]], 1.0)


def test_distance_examples():
    assert geometry.distance([[0.0], [1.0]], [[0.0], [1.0]], math.inf) == 0.0
    assert geometry.distance([[0.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [2.0, 1.0]], math.inf) == pytest.approx(1.0)
    assert geometry.distance([[0.0], [2.0], [4.0]], [[0.0], [4.0]], 1.0) == pytest.approx(2.0)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geometry.distance([[0.0]], [[0.0, 1.0]], math.inf)


def test_enumerate_alignments_counts():
    assert len(geometry.enumerate_alignments(1, 1, False)) == 1
    assert len(geometry.enumerate_alignments(2, 2, False)) == 3
    assert len(geometry.enumerate_alignments(3, 3, True)) <= 6


def test_enumerate_alignments_guard():
    with pytest.raises(CapacityExceeded):
        geometry.enumerate_alignments(13, 12, False)


def test_alignments_are_structurally_valid():
    for tau in geometry.enumerate_alignments(3, 4, False):
        assert tau[0] == (1, 1)
        assert tau[-1] == (3, 4)
        for (i1, j1), (i2, j2) in zip(tau, tau[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1), (1, 1)}


def test_distance_matches_alignment_minimum():
    """DP distance equals the minimum alignment cost on small random pairs."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        m1, m2 = rng.integers(1, 5), rng.integers(1, 5)
        d = rng.integers(1, 4)
        P, Q = rand_curve(rng, m1, d), rand_curve(rng, m2, d)
        for p in (math.inf, 1.0, 2.0):
            best = min(
                geometry.alignment_cost(tau, P, Q, p)
                for tau in geometry.enumerate_alignments(m1, m2, False)
            )
            assert abs(geometry.distance(P, Q, p) - best) <= TOL


def test_dfd_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = rng.integers(1, 3)
        P = rand_curve(rng, rng.integers(1, 5), d)
        Q = rand_curve(rng, rng.integers(1, 5), d)
        R = rand_curve(rng, rng.integers(1, 5), d)
        dpq = geometry.distance(P, Q, math.inf)
        assert dpq == pytest.approx(geometry.distance(Q, P, math.inf), abs=TOL)
        assert geometry.distance(P, R, math.inf) <= dpq + geometry.distance(Q, R, math.inf) + TOL


def test_dfd_lower_bounds_finite_p():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = rng.integers(1, 3)
        P = rand_curve(rng, rng.integers(1, 5), d)
        Q = rand_curve(rng, rng.integers(1, 5), d)
        base = geometry.distance(P, Q, math.inf)
        for p in (1.0, 2.0, 3.0):
            assert base <= geometry.distance(P, Q, p) + TOL


def test_non_redundant_count_bound():
    for m in (2, 3, 4, 5):
        got = len(geometry.enumerate_alignments(m, m, True))
        assert got <= math.comb(2 * m - 2, m - 1)
    # the longest non-redundant alignment has exactly max(m1, m2, m1+m2-2) pairs
    for m1 in range(1, 7):
        for m2 in range(1, 7):
            longest = max(len(tau) for tau in geometry.enumerate_alignments(m1, m2, True))
            assert longest == max(m1, m2, m1 + m2 - 2)
            assert geometry.max_non_redundant_pairs(m1, m2) == longest


def test_removing_redundant_pair_never_increases_cost():
    rng = np.random.default_rng(14)
    for m1, m2 in ((3, 3), (4, 3), (4, 4)):
        P, Q = rand_curve(rng, m1, 2), rand_curve(rng, m2, 2)
        full = geometry.enumerate_alignments(m1, m2, False)
        slim = set(geometry.enumerate_alignments(m1, m2, True))
        for tau in full:
            if tau in slim:
                continue
            k = geometry.redundant_pair_index(tau)
            shorter = tau[:k] + tau[k + 1:]
            for p in (math.inf, 1.0, 2.0):
                assert geometry.alignment_cost(shorter, P, Q, p) <= geometry.alignment_cost(tau, P, Q, p) + TOL


def test_length_one_curves_are_legal():
    assert geometry.distance([[5.0]], [[1.0], [2.0], [3.0]], math.inf) == pytest.approx(4.0)
    assert geometry.distance([[5.0]], [[1.0], [2.0]], 1.0) == pytest.approx(7.0)


def test_parse_metric():
    assert geometry.parse_metric("dfd") == math.inf
    assert geometry.parse_metric("dtw") == 1.0
    assert geometry.parse_metric("p=2.5") == 2.5
    assert geometry.parse_metric(2) == 2.0
    with pytest.raises(ValueError):
        geometry.parse_metric("p=0.5")
    with pytest.raises(ValueError):
        geometry.parse_metric("nope")


@pytest.mark.parametrize("cid", [None, 5, ("a",), b"a"], ids=["None", "int", "tuple", "bytes"])
def test_curve_ids_are_str(cid):
    """An id is a payload of an index, where ``None`` reads as no match,
    and a UTF-8 string of its file."""
    with pytest.raises(TypeError, match="curve id must be a str"):
        geometry.Curve(cid, [[0.0]])


def test_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        geometry.Curve("x", [])
    with pytest.raises(ValueError):
        geometry.Curve("x", [[float("nan")]])
