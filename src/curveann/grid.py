"""Uniform grid discretization: snapping, lattice keys, and ball enumeration.

The grid origin is the coordinate origin and the edge length is derived from
the approximation parameters: ``eps*r/sqrt(d)`` for the min-max metric and
``eps*r/(N**(1/p) * sqrt(d))`` for finite p, where N bounds the number of
pairs in the alignments the guarantee rests on.

Snapping moves each vertex by at most ``edge*sqrt(d)/2``, which for finite p
is ``eps*r/(2*N**(1/p))``. Along one alignment of N' <= N pairs the lp norm
of those moves is at most ``eps*r/2``, so the alignment's cost changes by at
most that much. Only some optimal alignment has to be budgeted: dropping a
redundant pair never raises the cost (``geometry.redundant_pair_index``), so
an optimal alignment without one exists, and a non-redundant alignment of
curves of lengths M and L has at most ``max(M, L, M+L-2)`` pairs
(``geometry.max_non_redundant_pairs``). An index answering length-L queries
over curves of length at most M therefore sizes its grid with
``N = max(M, L, M+L-2)``. Without an explicit N, ``create`` falls back to
``2*m_norm``, which covers inputs of length at most
``min(2*m_norm, m_norm + 2)``.

One rule snaps a coordinate ``c`` to its lattice coordinate, and
``snap_point`` and ``snap_curve`` share it: ``floor(c / edge + 0.5)`` in
IEEE-754 double arithmetic, the nearest lattice point with halves rounded
toward +inf. A coordinate with ``|c| > edge * 2**62`` is rejected with
``ValueError``, which keeps lattice coordinates within signed 64 bits.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .errors import DimensionMismatch

# Lattice coordinates are kept within signed-64-bit-safe territory.
_COORD_LIMIT = 2**62


@dataclass(frozen=True)
class GridSpec:
    edge: float
    epsilon: float
    r: float
    d: int
    m_norm: int
    p: float
    # alignment pairs the finite-p edge budgets snapping error for; None
    # for the min-max metric, whose edge does not depend on it
    pairs: Optional[int] = None

    def __post_init__(self):
        if self.edge <= 0:
            raise ValueError("grid edge must be positive")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.d < 1 or self.m_norm < 1:
            raise ValueError("d and m_norm must be >= 1")
        if self.pairs is not None and self.pairs < 1:
            raise ValueError("pairs must be >= 1")

    @classmethod
    def create(cls, epsilon, r, d, p=geometry.DFD, m_norm=1, pairs=None):
        p = geometry.check_p(p)
        if p == geometry.DFD:
            edge = epsilon * r / math.sqrt(d)
            pairs = None
        else:
            if pairs is None:
                pairs = 2 * m_norm
            edge = epsilon * r / (pairs ** (1.0 / p) * math.sqrt(d))
        return cls(edge=edge, epsilon=epsilon, r=r, d=d, m_norm=m_norm, p=p, pairs=pairs)

    @classmethod
    def from_edge(cls, edge, epsilon, r, d, p, m_norm):
        """The spec ``create`` makes with the given edge, recovering N for finite p."""
        spec = cls(edge=edge, epsilon=epsilon, r=r, d=d, m_norm=m_norm, p=geometry.check_p(p))
        if spec.p == geometry.DFD:
            return spec
        try:
            pairs = round((epsilon * r / (edge * math.sqrt(d))) ** spec.p)
        except OverflowError:
            pairs = 0
        if pairs < 1 or not math.isclose(
            cls.create(epsilon, r, d, spec.p, m_norm, pairs).edge, edge, rel_tol=1e-9
        ):
            raise ValueError(f"edge {edge!r} matches no pair bound")
        return dataclasses.replace(spec, pairs=pairs)


def _snap_rows(rows, edge):
    """Lattice key of ``rows``, a list of vertices given as lists of Python
    floats: the snap rule of the module docstring, per coordinate."""
    limit = edge * _COORD_LIMIT
    floor = math.floor
    key = []
    for row in rows:
        z = []
        for c in row:
            if abs(c) > limit:
                raise ValueError("coordinate too large for this grid edge")
            z.append(floor(c / edge + 0.5))
        key.append(tuple(z))
    return tuple(key)


def snap_point(x, grid):
    """Nearest lattice point, per coordinate, rounding half toward +inf."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.d,):
        raise DimensionMismatch(f"point has shape {x.shape}, grid is {grid.d}-dim")
    return _snap_rows([x.tolist()], grid.edge)[0]


def snap_curve(C, grid):
    """Per-vertex snap; returns a lattice curve key (tuple of lattice points)."""
    pts = C.points if isinstance(C, geometry.Curve) else geometry.as_points(C)
    if pts.shape[1] != grid.d:
        raise DimensionMismatch(
            f"curve has {pts.shape[1]}-dim vertices, grid is {grid.d}-dim"
        )
    return _snap_rows(pts.tolist(), grid.edge)


def lattice_to_point(z, grid):
    """Physical position of a lattice point."""
    return np.asarray(z, dtype=float) * grid.edge


def key_to_points(key, grid):
    """Physical (m, d) array for a lattice curve key."""
    return np.asarray(key, dtype=float) * grid.edge


def grid_points_in_ball(center, radius, grid):
    """All lattice points within Euclidean ``radius`` of ``center``.

    Scans the bounding box with per-axis pruning on the remaining squared
    budget; output is in lexicographic order.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (grid.d,):
        raise DimensionMismatch(f"center has shape {c.shape}, grid is {grid.d}-dim")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    edge = grid.edge
    out = []
    point = [0] * grid.d

    def rec(axis, budget):
        cc = c[axis]
        half = math.sqrt(budget)
        lo = math.ceil((cc - half) / edge)
        hi = math.floor((cc + half) / edge)
        last = axis == grid.d - 1
        for z in range(lo, hi + 1):
            delta = z * edge - cc
            rem = budget - delta * delta
            if rem < 0:
                continue
            point[axis] = z
            if last:
                out.append(tuple(point))
            else:
                rec(axis + 1, rem)

    rec(0, radius * radius)
    return out
