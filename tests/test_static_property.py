"""A seeded property test of static indexes over real exponents p.

``--metric p=<real>`` accepts any p >= 1, so each p in {1.5, 3, 8, 40}
is checked with d in {1, 2}, r in {0.5, 1, 2} and eps in {0.5, 1}, in
``nn`` and ``count`` mode. An index is fitted over a few curves of mixed
lengths up to 3 with one explicit query length, and each answer is
checked by brute force: a returned curve is within (1 + eps) r, no curve
within r is missed, and a count lies between the exact counts at r and
at (1 + eps) r. A configuration whose fit is refused by the capacity
guard is skipped, so the summary line says how many were.
"""

import itertools

import numpy as np
import pytest

from curveann import CurveIndex, geometry, oracle
from curveann.errors import CapacityExceeded

Curve = geometry.Curve

CONFIGS = list(itertools.product(["nn", "count"], [1.5, 3.0, 8.0, 40.0], [1, 2],
                                 [0.5, 1.0, 2.0], [0.5, 1.0]))


def draw_curves(rng, d, r):
    """Random walks of 1 to 3 vertices with steps up to r per coordinate;
    half of them copies of an earlier curve moved by up to r / 2."""
    curves = []
    for i in range(int(rng.integers(3, 6))):
        length = int(rng.integers(1, 4))
        if curves and rng.random() < 0.5:
            base = curves[int(rng.integers(len(curves)))].points
            base = base[np.sort(rng.integers(len(base), size=length))]
            pts = base + rng.uniform(-r / 2, r / 2, size=base.shape)
        else:
            start = rng.uniform(-3 * r, 3 * r, size=d)
            steps = rng.uniform(-r, r, size=(length - 1, d))
            pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
        curves.append(Curve(f"c{i}", pts))
    return curves


def queries(rng, curves, L, d, r):
    """Length-L queries near the curves (vertices picked in order and
    moved by up to r) and a few random ones."""
    out = []
    for j in range(12):
        if j < 9:
            base = curves[int(rng.integers(len(curves)))].points
            pts = base[np.sort(rng.integers(len(base), size=L))]
            out.append(Curve(f"q{j}", pts + rng.uniform(-r, r, size=pts.shape)))
        else:
            out.append(Curve(f"q{j}", rng.uniform(-4 * r, 4 * r, size=(L, d))))
    return out


@pytest.mark.parametrize("mode, p, d, r, eps", CONFIGS,
                         ids=[f"{m}-p{p}-d{d}-r{r}-eps{e}" for m, p, d, r, e in CONFIGS])
def test_static_indexes_keep_the_guarantee(mode, p, d, r, eps):
    rng = np.random.default_rng([52, CONFIGS.index((mode, p, d, r, eps))])
    curves = draw_curves(rng, d, r)
    L = int(rng.integers(1, 4))
    try:
        idx = CurveIndex(epsilon=eps, r=r, metric=p, mode=mode, query_lengths=[L]).fit(curves)
    except CapacityExceeded as exc:
        pytest.skip(f"blocked by the capacity guard: {exc}")
    guarantee = (1 + eps) * r
    for q in queries(rng, curves, L, d, r):
        dist = {c.id: geometry.distance(c.points, q.points, p) for c in curves}
        if mode == "count":
            lo = oracle.count_within(curves, q, p, r)
            hi = oracle.count_within(curves, q, p, guarantee)
            assert lo <= idx.count(q) <= hi, (q.id, lo, hi)
            continue
        res = idx.query(q)
        if res.found:
            assert dist[res.match] <= guarantee + 1e-9, (q.id, res.match, dist[res.match])
        if min(dist.values()) <= r:
            assert res.found, (q.id, min(dist.values()))
