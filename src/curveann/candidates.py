"""Output-sensitive enumeration of candidate grid curves.

For an anchor curve and a threshold radius, the candidate set holds every
grid curve of a requested length within that radius of the anchor. The
enumeration is a depth-first construction, one vertex at a time, pruned by
the alignment-feasibility dynamic program of the metric itself:

* min-max metric: the reachable set of anchor prefixes whose alignment with
  the partial candidate keeps every matched pair within the radius, a
  bitmask per prefix, extended one mask class of pool vertices at a time;
* finite p: the row of minimal partial p-th-power costs over anchor
  prefixes. Prefixes advance in chunks: each step extends a bounded number
  of (prefix, pool vertex) pairs at once, with numpy arrays, by the same
  double operations as the scalar recurrence. A step's pairs belong to a
  contiguous range of the chunk's prefixes, so it builds them with
  ``repeat`` and ``take``, with no search per pair and no fancy indexing;
  where the bound cuts a chunk changes neither the pairs nor their order.
  The first and the last vertex of a candidate are tried only where their
  cost to the first and the last anchor vertex, which they must pair with,
  leaves room in the budget.

A branch dies as soon as the reachable set empties (or the row minimum
exceeds the budget); a completed curve is accepted exactly when the full
alignment DP admits it, which is the same decision as
``geometry.distance(anchor, candidate) <= radius`` on identical floats. For
finite p the p-th root of an accepted total is taken on Python floats.

Candidates are returned as a ``CandidateSet``: the pool's int64 lattice
points and one array with, per key, a row of L pool indices. The min-max
enumerator allocates that array at the exact key count and writes the
Cartesian product of each accepted sequence of mask classes into it by
broadcasting. The finite-p enumerator keeps the accepted pairs of each
last-level step, at most ``_STEP_PAIRS`` rows, and joins them once at the
end. No key is made as bytes (the form of ``grid``) until a consumer asks
for it: a dictionary folds the rows one run of a shared head at a time,
making the bytes of a chunk's heads and tails together, and a tail of one
vertex is one shared object per pool vertex (``dictionary._DictBase._runs``).

``CapacityExceeded`` is raised exactly when the key set exceeds
``max_candidates``, and says how many keys the anchor needs. For min-max it
is decided from the exact key count, before any key is built; for finite p
it is checked after each step, holding at most one step's rows beyond the
limit, and the count it reports is a lower bound.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, grid as gridmod
from .errors import CapacityExceeded, ModeMismatch
from .geometry import DFD

DEFAULT_MAX_CANDIDATES = 10**8

# index rows a consumer of a candidate set takes at once, whose keys it
# makes together
_CHUNK = 1 << 13


@dataclass(frozen=True)
class CandidateRequest:
    anchor: geometry.Curve
    out_len: int
    enum_radius: float
    grid: gridmod.GridSpec
    max_candidates: int = DEFAULT_MAX_CANDIDATES

    def __post_init__(self):
        if not isinstance(self.anchor, geometry.Curve):
            raise TypeError("the anchor must be a Curve")
        if self.out_len < 1:
            raise ValueError("out_len must be >= 1")
        if self.enum_radius <= 0:
            raise ValueError("enum_radius must be positive")


class CandidateSet:
    """The keys of one candidate request, as rows of pool indices.

    ``pool`` is an (n, d) int64 array of distinct lattice points, and
    ``rows`` a (k, L) integer array with one row per key: the pool index of
    each of the key's L vertices. The key itself is the bytes of
    ``pool[row]`` (``grid`` module docstring), made only when asked for.
    ``len`` is the number of keys, and iterating yields their bytes in
    order. Two rows are the same key exactly when they are equal, as the
    pool points are distinct.
    """

    __slots__ = ("pool", "rows", "out_len")

    def __init__(self, pool, rows, out_len):
        self.pool = pool
        self.rows = rows
        self.out_len = out_len

    @classmethod
    def of(cls, keys, out_len, d):
        """The set of a sequence of keys, each ``8 * out_len * d`` bytes,
        in their order."""
        size = 8 * d
        index = {}  # the bytes of each distinct vertex -> its pool index
        rows = [index.setdefault(key[start : start + size], len(index))
                for key in keys for start in range(0, len(key), size)]
        pool = gridmod.rows_of(list(index), d, len(index))
        return cls(pool, np.array(rows, np.intp).reshape(len(keys), out_len), out_len)

    def __len__(self):
        return len(self.rows)

    def chunks(self):
        """The index rows in order, ``_CHUNK`` at a time, as views of
        ``rows``."""
        rows = self.rows
        return (rows[start : start + _CHUNK] for start in range(0, len(rows), _CHUNK))

    def __iter__(self):
        """The keys' bytes, in order, made a chunk at a time."""
        return itertools.chain.from_iterable(gridmod.keys_of(self.pool[rows])
                                             for rows in self.chunks())


def vertex_pool(anchor, radius, grid):
    """Deduplicated union of the grid balls around the anchor's vertices."""
    pts = anchor.points if isinstance(anchor, geometry.Curve) else geometry.as_points(anchor)
    pool = set()
    for v in pts:
        pool.update(gridmod.grid_points_in_ball(v, radius, grid))
    return sorted(pool)


def enumerate_candidates(req):
    """Dispatch to the min-max or finite-p enumerator."""
    if req.grid.p == DFD:
        return enumerate_dfd(req)
    return enumerate_lp(req)


def _pool_and_dists(req):
    """The candidate vertex pool, as an int64 array of lattice points, and
    its distance table to the anchor.

    Any vertex of a candidate within the enumeration radius must lie within
    that radius of some anchor vertex (each candidate vertex is matched to at
    least one anchor vertex, and no matched pair can exceed the total cost).
    An empty pool has an empty table, from which an enumerator makes the
    empty set by its general path.
    """
    pool = np.asarray(vertex_pool(req.anchor, req.enum_radius, req.grid), dtype=np.int64)
    pool = pool.reshape(len(pool), req.grid.d)
    return pool, geometry.pairwise_dists(pool * req.grid.edge, req.anchor.points)


def _guard(req, count, exact=True):
    """Raise CapacityExceeded if ``count`` keys, the exact number or, when
    not ``exact``, a lower bound, exceed the request's limit."""
    if count > req.max_candidates:
        raise CapacityExceeded(
            f"candidate set for anchor {req.anchor.id!r} needs "
            f"{'' if exact else 'at least '}{count} keys, more than "
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
    """All grid curves of the requested length within the min-max radius.

    A pool vertex acts on the reachable set only through its closeness mask,
    so each accepted sequence of mask classes contributes the Cartesian
    product of its classes' members. The guard is decided on the exact key
    count, these products' sizes summed by a DP, before any key is built.
    The products are then broadcast, one after another, into one index
    array of that count: the rows of the returned set.
    """
    if req.grid.p != DFD:
        raise ModeMismatch("enumerate_dfd requires the min-max metric")
    pool, adist = _pool_and_dists(req)
    # masks are Python ints, one bit per anchor vertex however many there are
    bits = np.packbits(adist <= req.enum_radius, axis=1, bitorder="little")
    members = {}  # a class's members, as pool indices
    for i, row in enumerate(bits):
        members.setdefault(int.from_bytes(row.tobytes(), "little"), []).append(i)
    members = {mask: np.array(vs, np.intp) for mask, vs in members.items()}
    goal = 1 << (len(req.anchor) - 1)
    last = req.out_len - 1

    # DP over (level, reachable set): ways[S] counts the prefixes that reach
    # S, and steps[j][S] lists the (next set, class) edges out of S
    ways = {0: 1}
    steps = []
    for j in range(last):
        nxt, edges = {}, {}
        for S, n in ways.items():
            edges[S] = [(S2, vs) for mask, vs in members.items()
                        if (S2 := _step_mask(S, mask, j == 0))]
            for S2, vs in edges[S]:
                nxt[S2] = nxt.get(S2, 0) + n * len(vs)
        steps.append(edges)
        ways = nxt
    # the vertices that end a prefix, by its reachable set; a reachable set
    # lies within the last mask, so only masks with the goal bit are tried
    ends = {S: np.concatenate([vs for mask, vs in members.items()
                               if mask & goal and _step_mask(S, mask, last == 0) & goal]
                              or [np.arange(0)])
            for S in ways}
    count = sum(n * len(ends[S]) for S, n in ways.items())
    _guard(req, count)
    rows = np.empty((count, req.out_len), np.intp)
    if not last:
        rows[:, 0] = ends[0]
        return CandidateSet(pool, rows, req.out_len)

    pos = 0
    chosen = [None] * req.out_len
    # (level, edges left); a recursive closure would keep ``rows`` in a cycle
    stack = [(0, iter(steps[0][0]))]
    while stack:
        j, left = stack[-1]
        for S2, vs in left:
            chosen[j] = vs
            if j + 1 < last:
                stack.append((j + 1, iter(steps[j + 1][S2])))
                break
            chosen[last] = ends[S2]
            n = math.prod(map(len, chosen))
            _product(chosen, rows[pos : pos + n])
            pos += n
        else:
            stack.pop()
    return CandidateSet(pool, rows, req.out_len)


def _product(classes, out):
    """Write into ``out`` the Cartesian product of ``classes``, arrays of
    pool indices, one row per tuple in the order of ``itertools.product``,
    by broadcasting each class along its axis."""
    shape = [len(c) for c in classes]
    tuples = out.reshape(*shape, len(classes))
    for j, c in enumerate(classes):
        tuples[..., j] = c.reshape([-1 if i == j else 1 for i in range(len(classes))])


# ---------------------------------------------------------------------------
# finite p (partial-cost DP rows, a chunk of prefixes per step)
# ---------------------------------------------------------------------------

# (prefix, pool vertex) pairs one step of the finite-p enumerator extends at
# most. It bounds the step's arrays, whatever the size of the key set;
# larger steps measured no faster and left more freed memory behind a build.
_STEP_PAIRS = 1 << 11


def enumerate_lp(req):
    """All grid curves of the requested length within the finite-p radius.

    Depth-first over chunks of prefixes. A chunk of length-j prefixes is
    held as pool-index columns, the DP rows of partial p-th-power costs over
    anchor prefixes (one column of ``rows`` per prefix) and their minima. A
    step pairs each prefix with every pool vertex ``v`` such that
    ``row_min + mind[v]`` is within the slack budget, where ``mind[v]`` is
    the cost of ``v`` to its nearest anchor vertex; the first vertex is
    tested by its cost to the first anchor vertex, and the last vertex,
    which pairs with the last anchor vertex, by ``row_min + cost[m-1, v]``.
    The pairs of a chunk are taken in order, prefix after prefix, and a step
    extends at most ``_STEP_PAIRS`` of them: a contiguous range of
    prefixes, found by two scalar searches, whose first and last pair
    counts are clipped to the step. Its prefix columns and DP rows are
    repeated once per pair (``np.repeat``) and its pool costs taken per
    pair (``take``), so the pairs and their order do not depend on the
    bound. A step computes the new rows column by column with the double
    operations of the scalar recurrence: a sequential sum for the first
    vertex, then
    ``w[i] + min(row[i], row[i-1], new[i-1])``. Prefixes whose new row
    minimum exceeds the slack budget die; the others form the next chunk. A
    completed row is accepted when its total is at most the radius (p = 1),
    or, for other p, when its total passes the slack budget and its p-th
    root, taken on Python floats, is at most the radius: the same decision
    as ``geometry.distance(anchor, candidate, p) <= radius``. The accepted
    pairs of one last-level step are joined into index rows, one part; the
    pairs that fail are never joined. The parts are joined once, into the
    rows of the returned set.
    """
    if req.grid.p == DFD:
        raise ModeMismatch("enumerate_lp requires a finite metric exponent")
    pool, adist = _pool_and_dists(req)
    return _LpSteps(req, pool, adist).run()


class _LpSteps:
    """One finite-p enumeration. Its steps are methods, not nested closures
    that call each other: such closures form a reference cycle that would
    keep the returned set alive until the cyclic garbage collector runs."""

    def __init__(self, req, pool, adist):
        self.req = req
        self.p = req.grid.p
        pw = adist if self.p == 1 else adist**self.p
        budget = req.enum_radius if self.p == 1 else req.enum_radius**self.p
        # slight slack so DP-row pruning can never drop a boundary candidate
        # that the exact acceptance test would admit
        self.budget_slack = budget * (1 + 1e-9) + 1e-300
        # pool vertices by their cost to the nearest anchor vertex: the
        # vertices a prefix can take are a leading run of this order
        mind = pw.min(axis=1)
        order = np.argsort(mind, kind="stable")
        self.mind = mind[order]
        self.cost = np.ascontiguousarray(pw[order].T)  # cost[i, v]: anchor vertex i to pool vertex v
        # the last vertex of a key pairs with the last anchor vertex: the
        # pool in the order of that cost
        self.last_order = np.argsort(self.cost[-1], kind="stable")
        self.last_cost = self.cost[-1][self.last_order]
        self.pool = pool[order]
        # the accepted rows, one part per last-level step; the first part,
        # empty, gives the join its row shape when no key is accepted
        self.parts = [np.empty((0, req.out_len), np.intp)]
        self.count = 0

    def run(self):
        # first vertex: its row is the running sum of its costs, so its row
        # minimum is its cost to the first anchor vertex, which it pairs with
        first = np.cumsum(self.cost, axis=0)
        order = np.argsort(self.cost[0], kind="stable")
        n_first = int(np.searchsorted(self.cost[0][order], self.budget_slack, side="right"))
        for lo in range(0, n_first, _STEP_PAIRS):
            vtx = order[lo : lo + _STEP_PAIRS]
            self.settle(first.take(vtx, axis=1), np.empty((0, 1), np.intp),
                        np.zeros(len(vtx), np.intp), vtx)
        return CandidateSet(self.pool, np.concatenate(self.parts), self.req.out_len)

    def extend(self, rows, row_min, prefix):
        """Append one vertex to each prefix of a chunk, in bounded steps."""
        # the vertices with row_min + mind[v] <= budget_slack, and perhaps a
        # few more: the margin covers the rounding of that sum. A pair past
        # the test makes a row whose minimum exceeds the slack budget. The
        # last vertex of a key pairs with the last anchor vertex, so the
        # total of its row is at least row_min + cost[m-1, v]: at the last
        # level that cost replaces mind[v] in the test.
        reach = self.budget_slack - row_min + self.budget_slack * 1e-12
        last = prefix.shape[0] + 1 == self.req.out_len
        counts = np.searchsorted(self.last_cost if last else self.mind, reach, side="right")
        ends = np.cumsum(counts)
        starts = ends - counts  # the first pair of each prefix
        n_pairs = int(ends[-1])
        m = rows.shape[0]
        for lo in range(0, n_pairs, _STEP_PAIRS):
            hi = min(lo + _STEP_PAIRS, n_pairs)
            # the step's pairs belong to the prefixes s0 to s1 - 1, whose
            # first and last counts are clipped to the step
            s0 = int(np.searchsorted(ends, lo, side="right"))
            s1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
            taken = counts[s0:s1].copy()
            taken[0] -= lo - starts[s0]
            taken[-1] -= ends[s1 - 1] - hi
            src = np.repeat(np.arange(s0, s1), taken)
            vtx = np.arange(lo, hi) - np.repeat(starts[s0:s1], taken)
            if last:
                vtx = self.last_order.take(vtx)
            prev = np.repeat(rows[:, s0:s1], taken, axis=1)
            best = np.minimum(prev[1:], prev[:-1])
            new = self.cost.take(vtx, axis=1)
            new[0] += prev[0]
            for i in range(1, m):
                np.minimum(best[i - 1], new[i - 1], out=best[i - 1])
                new[i] += best[i - 1]
            self.settle(new, prefix, src, vtx)

    def settle(self, new, prefix, src, vtx):
        """Accept completed rows, or pass the live ones to the next step.
        Column c of ``new`` is the row of prefix ``prefix[:, src[c]]``, a
        column of pool indices, extended by pool vertex ``vtx[c]``; only
        the pairs that are kept are joined into index rows."""
        req = self.req
        if prefix.shape[0] + 1 == req.out_len:
            total = new[-1]
            if self.p == 1:
                hit = np.flatnonzero(total <= req.enum_radius)
            else:
                hit = np.flatnonzero(total <= self.budget_slack)
                root = 1.0 / self.p
                hit = hit[np.array([t ** root <= req.enum_radius for t in total[hit].tolist()],
                                   dtype=bool)]
            if len(hit):
                part = np.empty((len(hit), req.out_len), np.intp)
                part[:, :-1] = prefix.take(src.take(hit), axis=1).T
                part[:, -1] = vtx.take(hit)
                self.parts.append(part)
                self.count += len(hit)
                _guard(req, self.count, exact=False)
            return
        row_min = new.min(axis=0)
        live = np.flatnonzero(row_min <= self.budget_slack)
        if len(live):
            self.extend(new.take(live, axis=1), row_min.take(live),
                        np.vstack([prefix.take(src.take(live), axis=1), vtx.take(live)]))
