"""Answer checks that share no code with the index, grid, candidate or
dictionary modules.

Distances come from this file's own exact dynamic program, vectorised over
all curves of one length; key-count lower bounds and exact minimum
enclosing balls come from ``curveann.oracle``. A check returns what it
rejects (answers or curve ids), so the caller can count failed operations.
"""

import math

import numpy as np

from curveann import oracle

# relative slack at the r and (1 + eps) r boundaries, for the last bits in
# which this DP may round differently from the index's own kernel
TOL = 1e-9


def exact_distances(query, curves, p):
    """Exact lp curve distance (p = inf: discrete Frechet) from ``query``
    to each of ``curves``, all of one length: the standard DP over pairs of
    vertex prefixes, run on every curve at once."""
    A = np.stack([c.points for c in curves])  # (n, m1, d)
    B = np.asarray(query.points, dtype=float)  # (m2, d)
    diff = A[:, :, None, :] - B[None, None, :, :]
    D = np.sqrt((diff * diff).sum(-1))  # (n, m1, m2)
    if p != math.inf and p != 1:
        D = D**p
    join = np.maximum if p == math.inf else np.add
    m1, m2 = D.shape[1:]
    acc = np.empty_like(D)
    for i in range(m1):
        for j in range(m2):
            if i == 0 and j == 0:
                acc[:, 0, 0] = D[:, 0, 0]
                continue
            best = np.full(len(curves), np.inf)
            if i:
                best = np.minimum(best, acc[:, i - 1, j])
            if j:
                best = np.minimum(best, acc[:, i, j - 1])
            if i and j:
                best = np.minimum(best, acc[:, i - 1, j - 1])
            acc[:, i, j] = join(best, D[:, i, j])
    out = acc[:, -1, -1]
    return out if p in (math.inf, 1) else out ** (1.0 / p)


class DistanceTable:
    """Exact distance from every query to every curve a workload can hold."""

    def __init__(self, queries, curves, p):
        self.ids = [c.id for c in curves]
        by_len = {}
        for j, c in enumerate(curves):
            by_len.setdefault(len(c), []).append(j)
        self.dist = np.empty((len(queries), len(curves)))
        for qi, q in enumerate(queries):
            for cols in by_len.values():
                self.dist[qi, cols] = exact_distances(q, [curves[j] for j in cols], p)

    def row(self, qi, live):
        """{curve id: distance} over the ``live`` ids for query ``qi``."""
        return {cid: d for cid, d in zip(self.ids, self.dist[qi]) if cid in live}


def nn_answer_ok(match, dists, r, guarantee):
    """A near-neighbor answer keeps the guarantee: a returned curve is live
    and within (1 + eps) r, and a query with a live curve within r gets
    one. ``dists`` maps each live curve id to its exact distance."""
    if match is None:
        return not any(d <= r * (1 - TOL) for d in dists.values())
    return match in dists and dists[match] <= guarantee * (1 + TOL)


def count_ok(count, dists, r, guarantee):
    """count_within(r) <= count <= count_within((1 + eps) r)."""
    lo = sum(d <= r * (1 - TOL) for d in dists.values())
    hi = sum(d <= guarantee * (1 + TOL) for d in dists.values())
    return lo <= count <= hi


def rejected_answers(answers, table, live, mode, r, guarantee):
    """Indices of the answers that break the guarantee over ``live``."""
    ok = count_ok if mode == "count" else nn_answer_ok
    return [qi for qi, a in enumerate(answers) if not ok(a, table.row(qi, live), r, guarantee)]


def proven_edge(p, L, M, d, eps, r):
    """Grid edge of the soundness proof for length-L queries over inputs of
    length at most M: for finite p the snapping error is budgeted over the
    max(M, L, M+L-2) pairs of a non-redundant alignment."""
    if p == math.inf:
        return eps * r / math.sqrt(d)
    return eps * r / (max(M, L, M + L - 2) ** (1.0 / p) * math.sqrt(d))


def short_key_sets(curves, key_counts, L, edge, radius, p):
    """Ids of curves that store fewer keys than the oracle's lower bound on
    the grid curves of length L within ``radius`` of them."""
    return [
        c.id for c in curves
        if key_counts[c.id] < oracle.key_count_lower_bound(c.points, L, radius, edge, p)
    ]


def min_cover_size(points, r):
    """Fewest vertices of a curve within discrete Frechet distance r of
    ``points``: the greedy cover by maximal runs whose exact minimum
    enclosing ball has radius at most r (a run's best vertex is its ball's
    centre, and a maximal first run never hurts)."""
    n, start, size = len(points), 0, 0
    while start < n:
        end = start + 1
        while end < n and oracle.exact_meb(points[start:end + 1])[1] <= r * (1 - TOL):
            end += 1
        start, size = end, size + 1
    return size


def uncertified_skips(curves, skipped, k, r):
    """Skipped ids whose curve does have a k-vertex curve within r. (A kept
    curve may have none: the simplification only promises 2r.)"""
    return [c.id for c in curves if c.id in skipped and min_cover_size(c.points, r) <= k]
