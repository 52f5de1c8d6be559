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
``N = max(M, L, M+L-2)``, which ``create`` takes as ``pairs``.

One rule snaps a coordinate ``c`` to its lattice coordinate, and
``snap_point`` and ``snap_curve`` share it: ``floor(c / edge + 0.5)`` in
IEEE-754 double arithmetic, the nearest lattice point with halves rounded
toward +inf. A coordinate with ``|c| > edge * 2**62`` is rejected with
``ValueError``, which keeps lattice coordinates within signed 64 bits.

A lattice curve key is a ``bytes`` string of ``8 * L * d`` bytes: the
little-endian int64 coordinates of its L vertices, vertex after vertex.
These are the bytes an index file stores for a key. ``snap_curve`` packs
them directly, ``keys_of`` makes them from int64 rows, one key per row, and
``rows_of`` reads keys back as rows.
"""

import dataclasses
import math
import struct
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
    p: float
    # alignment pairs the finite-p edge budgets snapping error for; None
    # for the min-max metric, whose edge does not depend on it
    pairs: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.edge < math.inf:
            raise ValueError("grid edge must be positive and finite")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.pairs is not None and self.pairs < 1:
            raise ValueError("pairs must be >= 1")

    @classmethod
    def create(cls, epsilon, r, d, p=geometry.DFD, pairs=None):
        """The spec of these parameters. Finite p requires ``pairs``, the
        pair bound N (module docstring); the min-max metric ignores it."""
        p = geometry.check_p(p)
        if p == geometry.DFD:
            edge = epsilon * r / math.sqrt(d)
            pairs = None
        else:
            if pairs is None:
                raise ValueError("a finite-p grid requires a pair bound")
            edge = epsilon * r / (pairs ** (1.0 / p) * math.sqrt(d))
        return cls(edge=edge, epsilon=epsilon, r=r, d=d, p=p, pairs=pairs)

    @classmethod
    def from_edge(cls, edge, epsilon, r, d, p):
        """The spec ``create`` makes with the given edge, recovering N for
        finite p; ValueError if no spec of these parameters has that edge."""
        spec = cls(edge=edge, epsilon=epsilon, r=r, d=d, p=geometry.check_p(p))
        if spec.p == geometry.DFD:
            if not math.isclose(cls.create(epsilon, r, d).edge, edge, rel_tol=1e-9):
                raise ValueError(f"edge {edge!r} is not the min-max edge")
            return spec
        try:
            pairs = round((epsilon * r / (edge * math.sqrt(d))) ** spec.p)
        except OverflowError:
            pairs = 0
        if pairs < 1 or not math.isclose(
            cls.create(epsilon, r, d, spec.p, pairs).edge, edge, rel_tol=1e-9
        ):
            raise ValueError(f"edge {edge!r} matches no pair bound")
        return dataclasses.replace(spec, pairs=pairs)


def _snap(coords, edge):
    """Lattice coordinates of ``coords``, a list of Python floats: the snap
    rule of the module docstring, per coordinate."""
    limit = edge * _COORD_LIMIT
    floor = math.floor
    out = []
    for c in coords:
        if abs(c) > limit:
            raise ValueError("coordinate too large for this grid edge")
        out.append(floor(c / edge + 0.5))
    return out


# packers of keys, by their number of coordinates
_PACKERS = {}


def _packer(width):
    pack = _PACKERS[width] = struct.Struct(f"<{width}q").pack
    return pack


def snap_point(x, grid):
    """Nearest lattice point, per coordinate, rounding half toward +inf."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.d,):
        raise DimensionMismatch(f"point has shape {x.shape}, grid is {grid.d}-dim")
    return tuple(_snap(x.tolist(), grid.edge))


def snap_curve(C, grid):
    """Per-vertex snap; returns the lattice curve key (see the module
    docstring) of the snapped vertices."""
    pts = C.points if isinstance(C, geometry.Curve) else geometry.as_points(C)
    if pts.shape[1] != grid.d:
        raise DimensionMismatch(
            f"curve has {pts.shape[1]}-dim vertices, grid is {grid.d}-dim"
        )
    coords = _snap(pts.ravel().tolist(), grid.edge)
    return (_PACKERS.get(len(coords)) or _packer(len(coords)))(*coords)


def keys_of(rows):
    """The keys of an array of lattice coordinates, one key per entry of its
    first axis: a row of coordinates, or an (L, d) array of vertices."""
    width = math.prod(rows.shape[1:])
    rows = np.ascontiguousarray(rows, dtype="<i8").reshape(len(rows), width)
    return rows.view(f"V{8 * width}").ravel().tolist()


def rows_of(keys, width, count=None):
    """The ``width`` int64 coordinates of each key of ``keys`` as the rows
    of an array. ``keys`` is a key, keys concatenated, or an iterable of
    ``count`` keys (by default its length)."""
    if isinstance(keys, bytes):
        return np.frombuffer(keys, "<i8").reshape(-1, width)
    count = len(keys) if count is None else count
    # copied into a fixed-width array: ``bytes.join`` would hold an 80-byte
    # buffer record per key while it runs
    return np.fromiter(keys, f"S{8 * width}", count).view("<i8").reshape(count, width)


def lattice_to_point(z, grid):
    """Physical position of a lattice point."""
    return np.asarray(z, dtype=float) * grid.edge


def key_to_points(key, grid):
    """Physical (m, d) array for a lattice curve key."""
    return rows_of(key, grid.d) * grid.edge


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
    out = []
    _ball_points(c.tolist(), grid.edge, 0, radius * radius, [0] * grid.d, out)
    return out


def _ball_points(center, edge, axis, budget, point, out):
    """Append to ``out`` each lattice point that keeps ``point[:axis]`` and
    whose coordinates from ``axis`` on lie within squared distance
    ``budget`` of ``center``'s. A module function, not a nested closure
    that calls itself: such a closure is a reference cycle, which keeps
    ``out`` alive until the cyclic garbage collector runs."""
    cc = center[axis]
    half = math.sqrt(budget)
    lo = math.ceil((cc - half) / edge)
    hi = math.floor((cc + half) / edge)
    last = axis == len(center) - 1
    for z in range(lo, hi + 1):
        delta = z * edge - cc
        rem = budget - delta * delta
        if rem < 0:
            continue
        point[axis] = z
        if last:
            out.append(tuple(point))
        else:
            _ball_points(center, edge, axis + 1, rem, point, out)
