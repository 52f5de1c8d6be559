"""Output-sensitive enumeration of candidate grid curves.

For an anchor curve and a threshold radius, the candidate set holds every
grid curve of a requested length within that radius of the anchor. The
enumeration is a depth-first construction, one vertex at a time, pruned by
the alignment-feasibility dynamic program of the metric itself:

* min-max metric: the reachable set of anchor prefixes whose alignment with
  the partial candidate keeps every matched pair within the radius;
* finite p: the row of minimal partial p-th-power costs over anchor prefixes.

A branch dies as soon as the reachable set empties (or the row minimum
exceeds the budget); a completed curve is accepted exactly when the full
alignment DP admits it, which is the same decision as
``geometry.distance(anchor, candidate) <= radius`` on identical floats.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry, grid as gridmod
from .errors import CapacityExceeded, ModeMismatch
from .geometry import DFD

DEFAULT_MAX_CANDIDATES = 10**8


@dataclass(frozen=True)
class CandidateRequest:
    anchor: geometry.Curve
    out_len: int
    enum_radius: float
    grid: gridmod.GridSpec
    p: float = DFD
    max_candidates: int = DEFAULT_MAX_CANDIDATES

    def __post_init__(self):
        if self.out_len < 1:
            raise ValueError("out_len must be >= 1")
        if self.enum_radius <= 0:
            raise ValueError("enum_radius must be positive")


def vertex_pool(anchor, radius, grid):
    """Deduplicated union of the grid balls around the anchor's vertices."""
    pts = anchor.points if isinstance(anchor, geometry.Curve) else geometry.as_points(anchor)
    pool = set()
    for v in pts:
        pool.update(gridmod.grid_points_in_ball(v, radius, grid))
    return sorted(pool)


def enumerate_candidates(req):
    """Dispatch to the min-max or finite-p enumerator."""
    if req.p == DFD:
        return enumerate_dfd(req)
    return enumerate_lp(req)


def _pool_and_dists(req):
    """The anchor's points, the candidate vertex pool and its distance table
    to the anchor.

    Any vertex of a candidate within the enumeration radius must lie within
    that radius of some anchor vertex (each candidate vertex is matched to at
    least one anchor vertex, and no matched pair can exceed the total cost).
    """
    anchor = req.anchor.points if isinstance(req.anchor, geometry.Curve) else geometry.as_points(req.anchor)
    pool = vertex_pool(anchor, req.enum_radius, req.grid)
    if not pool:
        return anchor, [], None
    phys = np.asarray(pool, dtype=float) * req.grid.edge
    return anchor, pool, geometry.pairwise_dists(phys, anchor)


def _guard(req, count):
    if count > req.max_candidates:
        raise CapacityExceeded(
            f"candidate set for anchor {getattr(req.anchor, 'id', '?')!r} exceeds "
            f"max_candidates={req.max_candidates}"
        )


# ---------------------------------------------------------------------------
# min-max metric (reachability bitmasks)
# ---------------------------------------------------------------------------

def _step_mask(S_prev, close, first):
    """Reachable anchor prefixes after appending a vertex with closeness bits."""
    if first:
        # against a single candidate vertex, the alignment matches every
        # anchor prefix vertex to it: the reachable set is the trailing run.
        low0 = (close + 1) & ~close
        return close & (low0 - 1)
    S = (S_prev | (S_prev << 1)) & close
    while True:
        grown = S | ((S << 1) & close)
        if grown == S:
            return S
        S = grown


def enumerate_dfd(req):
    """All grid curves of the requested length within the min-max radius."""
    if req.p != DFD:
        raise ModeMismatch("enumerate_dfd requires the min-max metric")
    anchor, pool, adist = _pool_and_dists(req)
    if not pool:
        return []
    m = anchor.shape[0]
    amask = [int(sum(1 << i for i in range(m) if adist[idx, i] <= req.enum_radius))
             for idx in range(len(pool))]

    by_anchor_bit = [[] for _ in range(m)]
    for idx, mask in enumerate(amask):
        for i in range(m):
            if mask >> i & 1:
                by_anchor_bit[i].append(idx)
    window_cache = {}

    def viable(window):
        got = window_cache.get(window)
        if got is None:
            merged = set()
            for i in range(m):
                if window >> i & 1:
                    merged.update(by_anchor_bit[i])
            got = sorted(merged)
            window_cache[window] = got
        return got

    out = []
    goal = 1 << (m - 1)
    prefix = [None] * req.out_len

    def rec(j, S):
        first = j == 0
        idxs = range(len(pool)) if first else viable(S | (S << 1))
        last = j == req.out_len - 1
        for idx in idxs:
            S2 = _step_mask(S, amask[idx], first)
            if not S2:
                continue
            prefix[j] = pool[idx]
            if last:
                if S2 & goal:
                    out.append(tuple(prefix))
                    _guard(req, len(out))
            else:
                rec(j + 1, S2)

    rec(0, 0)
    return out


# ---------------------------------------------------------------------------
# finite p (partial-cost DP rows)
# ---------------------------------------------------------------------------

def enumerate_lp(req):
    """All grid curves of the requested length within the finite-p radius."""
    if req.p == DFD:
        raise ModeMismatch("enumerate_lp requires a finite metric exponent")
    anchor, pool, adist = _pool_and_dists(req)
    if not pool:
        return []
    m = anchor.shape[0]
    p = req.p
    pw = adist if p == 1 else adist**p
    budget = req.enum_radius if p == 1 else req.enum_radius**p
    # slight slack so DP-row pruning can never drop a boundary candidate that
    # the exact acceptance test below would admit
    budget_slack = budget * (1 + 1e-9) + 1e-300
    mind = pw.min(axis=1)
    order = sorted(range(len(pool)), key=lambda idx: (mind[idx], idx))

    out = []
    prefix = [None] * req.out_len
    INF = float("inf")

    def rec(j, row, row_min):
        last = j == req.out_len - 1
        for idx in order:
            if row_min + mind[idx] > budget_slack:
                break
            w = pw[idx]
            if j == 0:
                new = []
                acc = 0.0
                for i in range(m):
                    acc += w[i]
                    new.append(acc)
            else:
                new = [0.0] * m
                new[0] = w[0] + row[0]
                for i in range(1, m):
                    best = row[i]
                    if row[i - 1] < best:
                        best = row[i - 1]
                    if new[i - 1] < best:
                        best = new[i - 1]
                    new[i] = w[i] + best
            if last:
                total = new[m - 1]
                cost = total if p == 1 else total ** (1.0 / p)
                if cost <= req.enum_radius:
                    prefix[j] = pool[idx]
                    out.append(tuple(prefix))
                    _guard(req, len(out))
            else:
                nmin = min(new)
                if nmin <= budget_slack:
                    prefix[j] = pool[idx]
                    rec(j + 1, new, nmin)

    rec(0, None, 0.0)
    return out
