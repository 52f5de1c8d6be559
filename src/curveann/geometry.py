"""Curves, alignments, and exact distance kernels.

The distance between two polygonal curves is the minimum over all monotone
alignments of the lp norm of the matched pairwise Euclidean distances.
``p = inf`` gives the discrete Frechet distance (min-max), ``p = 1`` gives
dynamic time warping (min-sum).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, DimensionMismatch, InvalidAlignment

DFD = math.inf
DTW = 1.0

# Largest m1 + m2 accepted by enumerate_alignments.
_ENUM_GUARD = 24


def as_points(points):
    """Validate and return an (m, d) float array of curve vertices."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("a curve must be a non-empty sequence of points")
    if not np.all(np.isfinite(arr)):
        raise ValueError("curve coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Curve:
    """An identified polygonal curve: an ordered sequence of d-dim points."""

    id: str
    points: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"a curve id must be a str, not {type(self.id).__name__}")
        pts = as_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def check_p(p):
    p = float(p)
    if not p >= 1:
        raise ValueError(f"metric exponent must be >= 1, got {p}")
    return p


def parse_metric(text):
    """Parse a metric name: 'dfd', 'dtw', or a numeric exponent p >= 1."""
    if isinstance(text, (int, float)):
        return check_p(text)
    t = text.strip().lower()
    if t in ("dfd", "frechet", "inf", "infinity"):
        return DFD
    if t == "dtw":
        return DTW
    if t.startswith("p="):
        t = t[2:]
    return check_p(float(t))


def metric_name(p):
    if p == DFD:
        return "dfd"
    if p == DTW:
        return "dtw"
    return f"p={p:g}"


def pairwise_dists(A, B):
    """Euclidean distance matrix between the vertices of two point arrays."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def _curve_points(C):
    if isinstance(C, Curve):
        return C.points
    return as_points(C)


def validate_alignment(pairs, m1, m2):
    """Check the monotone step conditions for a 1-based alignment."""
    if len(pairs) == 0:
        raise InvalidAlignment("alignment is empty")
    if tuple(pairs[0]) != (1, 1):
        raise InvalidAlignment("alignment must start at (1, 1)")
    if tuple(pairs[-1]) != (m1, m2):
        raise InvalidAlignment(f"alignment must end at ({m1}, {m2})")
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        di, dj = i1 - i0, j1 - j0
        if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
            raise InvalidAlignment(f"illegal step from ({i0},{j0}) to ({i1},{j1})")


def alignment_cost(pairs, P, Q, p=DFD):
    """Cost of one alignment: lp norm of the matched pair distances."""
    A, B = _curve_points(P), _curve_points(Q)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch("curves have different dimensions")
    p = check_p(p)
    validate_alignment(pairs, A.shape[0], B.shape[0])
    dists = [float(np.linalg.norm(A[i - 1] - B[j - 1])) for i, j in pairs]
    if p == DFD:
        return max(dists)
    if p == 1:
        return sum(dists)
    return sum(d**p for d in dists) ** (1.0 / p)


def distance(P, Q, p=DFD):
    """Exact curve distance by the standard O(m1*m2) dynamic program."""
    A, B = _curve_points(P), _curve_points(Q)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch("curves have different dimensions")
    p = check_p(p)
    D = pairwise_dists(A, B)
    if p == DFD:
        return _dp_minmax(D)
    acc = _dp_minsum(D if p == 1 else D**p)
    return acc if p == 1 else acc ** (1.0 / p)


def _dp_minmax(D):
    m1, m2 = D.shape
    row = [0.0] * m2
    row[0] = D[0, 0]
    for j in range(1, m2):
        row[j] = max(row[j - 1], D[0, j])
    for i in range(1, m1):
        prev = row
        row = [0.0] * m2
        row[0] = max(prev[0], D[i, 0])
        for j in range(1, m2):
            row[j] = max(min(prev[j], prev[j - 1], row[j - 1]), D[i, j])
    return float(row[-1])


def _dp_minsum(W):
    m1, m2 = W.shape
    row = [0.0] * m2
    row[0] = W[0, 0]
    for j in range(1, m2):
        row[j] = row[j - 1] + W[0, j]
    for i in range(1, m1):
        prev = row
        row = [0.0] * m2
        row[0] = prev[0] + W[i, 0]
        for j in range(1, m2):
            row[j] = min(prev[j], prev[j - 1], row[j - 1]) + W[i, j]
    return float(row[-1])


def enumerate_alignments(m1, m2, non_redundant_only=False):
    """All monotone alignments of an (m1, m2) index grid.

    With ``non_redundant_only``, alignments containing a redundant pair
    (one whose removal leaves a valid alignment of no greater cost) are
    dropped. Intended for small sizes only.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("curve lengths must be >= 1")
    if m1 + m2 > _ENUM_GUARD:
        raise CapacityExceeded(f"m1 + m2 = {m1 + m2} exceeds guard {_ENUM_GUARD}")
    out = []
    path = [(1, 1)]

    def rec(i, j):
        if i == m1 and j == m2:
            if not (non_redundant_only and _has_redundant_pair(path)):
                out.append(tuple(path))
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni <= m1 and nj <= m2:
                path.append((ni, nj))
                rec(ni, nj)
                path.pop()

    rec(1, 1)
    return out


def redundant_pair_index(pairs):
    """Index of some redundant pair in ``pairs``, or None.

    A pair is redundant when it sits between (i, j-1) and (i+1, j), or
    between (i-1, j) and (i, j+1): dropping it leaves a valid alignment and
    never increases the cost for any p.
    """
    for k, ((i0, j0), (i1, j1), (i2, j2)) in enumerate(zip(pairs, pairs[1:], pairs[2:]), start=1):
        if i0 == i1 and j1 == j0 + 1 and i2 == i1 + 1 and j2 == j1:
            return k
        if j0 == j1 and i1 == i0 + 1 and j2 == j1 + 1 and i2 == i1:
            return k
    return None


def max_non_redundant_pairs(m1, m2):
    """Most pairs in a non-redundant alignment of curves of lengths m1, m2.

    With h horizontal, v vertical and g diagonal steps, an alignment has
    ``m1 + m2 - 1 - g`` pairs. A horizontal step next to a vertical one
    makes the pair between them redundant, so a non-redundant alignment
    with both kinds needs a diagonal step (g >= 1, at most m1 + m2 - 2
    pairs); with at most one kind, g = min(m1, m2) - 1 and it has
    max(m1, m2) pairs.
    """
    return max(m1, m2, m1 + m2 - 2)


def _has_redundant_pair(path):
    return redundant_pair_index(path) is not None
