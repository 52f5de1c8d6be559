"""A seeded property test of the dynamic index.

Random sequences of ``fit``, ``insert_curve``, ``delete_curve`` and
``save`` then ``load``, where each load switches backend, in every mode,
for p in {inf, 1, 1.5, 2, 3}, d in {1, 2} and explicit query lengths that
include 1. After every step each answer is checked by brute force: a
returned curve is live and within (1 + eps) r, no live curve within r is
missed, and a count lies between the exact counts at r and at (1 + eps) r.
At the end the saved bytes equal those of a fresh fit of the survivors in
insertion order.
"""

import math

import numpy as np
import pytest

from curveann import CurveIndex, geometry, oracle

Curve = geometry.Curve

# (mode, metric, d, query lengths or k, epsilon). Finite-p curves all have
# one length, as the grid a fit sizes depends on the longest curve: a fresh
# fit of the survivors then has the grid of the updated index.
CONFIGS = [
    ("nn", math.inf, 1, [1, 3], 0.5),
    ("nn", math.inf, 2, [1, 2, 3], 1.0),
    ("nn", 1.0, 1, [1, 3], 1.0),
    ("nn", 1.0, 2, [1, 2], 1.0),
    ("nn", 2.0, 1, [1, 2, 3], 1.0),
    ("nn", 2.0, 2, [1, 2], 1.0),
    ("count", math.inf, 1, [1, 2], 0.5),
    ("count", math.inf, 2, [1, 3], 1.0),
    ("count", 1.0, 1, [1, 3], 1.0),
    ("count", 1.0, 2, [1, 2], 1.0),
    ("count", 2.0, 1, [1, 2], 1.0),
    ("count", 2.0, 2, [1, 2], 1.0),
    ("asym", math.inf, 1, 1, 1.0),
    ("asym", math.inf, 2, 2, 1.0),
    # appended, so the configurations above keep their seeds
    ("nn", 1.5, 2, [1, 2], 1.0),
    ("nn", 3.0, 1, [1, 3], 1.0),
    ("count", 1.5, 1, [1, 3], 1.0),
    ("count", 3.0, 2, [1, 2], 1.0),
]

R = 1.0


def draw_curve(rng, name, live, d, length):
    """A random walk, or half the time a copy of a live curve moved by up
    to 0.3 per coordinate, so that candidate sets overlap."""
    if live and rng.random() < 0.5:
        base = live[int(rng.integers(len(live)))].points
        if len(base) != length:
            base = base[np.sort(rng.integers(len(base), size=length))]
        return Curve(name, base + rng.uniform(-0.3, 0.3, size=base.shape))
    start = rng.uniform(-3, 3, size=d)
    steps = rng.uniform(-1, 1, size=(length - 1, d))
    return Curve(name, np.vstack([start, start + np.cumsum(steps, axis=0)]))


def queries(rng, live, lengths, d):
    """Per length: queries near live curves (vertices picked in order and
    moved) and a few random ones."""
    out = []
    for L in lengths:
        for j in range(6):
            if j < 4 and live:
                base = live[int(rng.integers(len(live)))].points
                pts = base[np.sort(rng.integers(len(base), size=L))]
                out.append(Curve(f"q{L}.{j}", pts + rng.uniform(-0.6, 0.6, size=pts.shape)))
            else:
                out.append(Curve(f"q{L}.{j}", rng.uniform(-4, 4, size=(L, d))))
    return out


def check_answers(idx, live, rng, mode, p, lengths, eps):
    guarantee = (1 + eps) * R
    by_id = {c.id: c for c in live}
    for q in queries(rng, live, lengths, idx._d):
        dist = {c.id: geometry.distance(c.points, q.points, p) for c in live}
        if mode == "count":
            lo = oracle.count_within(live, q, p, R)
            hi = oracle.count_within(live, q, p, guarantee)
            assert lo <= idx.count(q) <= hi, (q.id, lo, hi)
            continue
        res = idx.query(q)
        if res.found:
            assert res.match in by_id, (q.id, res.match)
            assert dist[res.match] <= guarantee + 1e-9, (q.id, res.match, dist[res.match])
        if min(dist.values(), default=math.inf) <= R:
            assert res.found, (q.id, min(dist.values()))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode, p, d, lengths, eps", CONFIGS,
                         ids=[f"{m}-{p}-d{d}" for m, p, d, _, _ in CONFIGS])
def test_random_updates_keep_the_guarantee_and_the_bytes(mode, p, d, lengths, eps, seed,
                                                          tmp_path):
    rng = np.random.default_rng([51, CONFIGS.index((mode, p, d, lengths, eps)), seed])
    params = dict(epsilon=eps, r=R, metric=p, mode=mode)
    if mode == "asym":
        params["k"] = lengths
        lengths = [lengths]
    else:
        params["query_lengths"] = lengths
    longest = 3 if d == 1 else 2

    def length():
        return longest if p != math.inf else int(rng.integers(1, longest + 1))

    names = (f"c{i}" for i in range(1000))
    path = tmp_path / "idx.annc"
    backend = "hash"
    ops = ["insert", "insert", "insert", "delete", "delete", "reload", "reload", "fit"]
    ops = ["fit"] + [ops[int(i)] for i in rng.permutation(len(ops))]
    seen = set()
    for op in ops:
        if op == "delete" and len(live) < 2:
            op = "insert"
        seen.add(op)
        if op == "fit":
            live = []
            for _ in range(int(rng.integers(2, 5))):
                live.append(draw_curve(rng, next(names), live, d, length()))
            idx = CurveIndex(**params, backend=backend).fit(live)
        elif op == "insert":
            curve = draw_curve(rng, next(names), live, d, length())
            idx.insert_curve(curve)
            live.append(curve)
        elif op == "delete":
            gone = live.pop(int(rng.integers(len(live))))
            idx.delete_curve(gone.id)
        else:
            idx.save(path)
            backend = "trie" if backend == "hash" else "hash"
            idx = CurveIndex.load(path, backend=backend)
        check_answers(idx, live, rng, mode, p, lengths, eps)
    assert seen == {"fit", "insert", "delete", "reload"}
    idx.save(path)
    fresh = tmp_path / "fresh.annc"
    CurveIndex(**params, backend=backend).fit(live).save(fresh)
    assert path.read_bytes() == fresh.read_bytes()
