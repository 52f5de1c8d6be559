"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1, 2 and 7 build every configuration of their parameter grids under
an explicit per-curve capacity guard. Some configurations have key sets
whose cardinality is exponential in m*d and independent of r (up to 10^11
keys per curve); no build can hold them, and the storage bound does not
promise that they fit under the guard. A blocked configuration therefore
passes only with a certificate that the guard had to fire: a lower bound
on the key set of some input curve (``oracle.key_count_lower_bound``,
computed on the grid edge of the soundness proof) that exceeds the guard.
Each blocked configuration is named in the verdict line with its bound; an
uncertified block fails the criterion. In the other direction, every built
curve must store at least its lower bound of keys, so a configuration whose
bound exceeds the guard but that builds anyway is a violation.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from curveann import (
    CurveIndex,
    candidates,
    dictionary,
    geometry,
    grid,
    oracle,
    simplify,
)
from curveann.errors import CapacityExceeded
from lattice_keys import pack, unpack_all

Curve = geometry.Curve

DIST_TOL = 1e-9
MAX_CANDIDATES_PER_CURVE = 200_000


def report(number, title, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {title}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def random_walk(rng, m, d, r):
    start = rng.uniform(-5 * r, 5 * r, size=d)
    if m == 1:
        return start[None]
    steps = rng.uniform(-1.5 * r, 1.5 * r, size=(m - 1, d))
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def make_queries(rng, curves, m, d, r, p, count=200):
    """Half near (perturbation keeping the true distance under r), half far."""
    per_vertex = 0.9 * r if p == math.inf else 0.9 * r / m ** (1.0 / p)
    queries = []
    for j in range(count):
        if j % 2 == 0:
            base = curves[int(rng.integers(len(curves)))].points
            noise = rng.normal(size=(m, d))
            norms = np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
            noise *= rng.uniform(0, per_vertex, size=(m, 1)) / norms
            queries.append(Curve(f"q{j}", base + noise))
        else:
            queries.append(Curve(f"q{j}", rng.uniform(-40 * r, 40 * r, size=(m, d))))
    return queries


def proven_edge(p, L, M, d, eps, r):
    """Grid edge of the soundness proof for length-L queries over inputs of
    length at most M: for finite p, snapping error is budgeted over the
    max(M, L, M+L-2) pairs a non-redundant alignment can have."""
    if p == math.inf:
        return eps * r / math.sqrt(d)
    pairs = max(M, L, M + L - 2)
    return eps * r / (pairs ** (1.0 / p) * math.sqrt(d))


def key_bounds(curves, out_len, eps, r, edge, p):
    """Per-curve lower bounds on the key set within (1 + eps/2) r."""
    return {
        c.id: oracle.key_count_lower_bound(c.points, out_len, (1 + eps / 2) * r, edge, p)
        for c in curves
    }


def short_key_sets(idx, bounds, out_len):
    """Built curves that store fewer keys than their lower bound."""
    stored = idx.stats_["candidates"]
    return sum(1 for cid, bound in bounds.items() if stored[cid][out_len] < bound)


def blocked_verdict(violations, blocked):
    """(ok, detail) for a grid with capacity-blocked configurations, each a
    (name, bound) pair; a block is certified when its bound exceeds the guard."""
    uncertified = sum(1 for _, bound in blocked if bound <= MAX_CANDIDATES_PER_CURVE)
    detail = (f"violations={violations}, uncertified={uncertified}, "
              f"capacity-blocked configs={len(blocked)}")
    if blocked:
        detail += ": " + "; ".join(f"{name} (bound={bound})" for name, bound in blocked)
    return violations == 0 and uncertified == 0, detail


def run_symmetric_config(p, m, d, eps, mode):
    """Build one configuration and exercise 200 queries against the oracle.

    Returns (violations, bound), or (None, bound) when the guard fired;
    ``bound`` is the largest per-curve key-count lower bound.
    """
    r = 1.0
    rng = np.random.default_rng(zlib.crc32(f"{mode}/{p}/{m}/{d}/{eps}".encode()))
    curves = [Curve(f"c{i}", random_walk(rng, m, d, r)) for i in range(20)]
    bounds = key_bounds(curves, m, eps, r, proven_edge(p, m, m, d, eps, r), p)
    try:
        idx = CurveIndex(
            epsilon=eps, r=r, metric=p, mode=mode,
            max_candidates=MAX_CANDIDATES_PER_CURVE,
        ).fit(curves)
    except CapacityExceeded:
        return None, max(bounds.values())
    violations = short_key_sets(idx, bounds, m)
    for q in make_queries(rng, curves, m, d, r, p):
        if mode == "count":
            got = idx.count(q)
            lo = oracle.count_within(curves, q, p, r)
            hi = oracle.count_within(curves, q, p, (1 + eps) * r)
            if not lo <= got <= hi:
                violations += 1
        else:
            res = idx.query(q)
            truth = oracle.linear_scan_nn(curves, q, p)
            if truth.nearest_distance <= r and not res.found:
                violations += 1
            if res.found:
                real = geometry.distance(idx.registry_[res.match].points, q.points, p)
                if real > (1 + eps) * r + DIST_TOL:
                    violations += 1
    return violations, max(bounds.values())


SYMMETRIC_CONFIGS = list(itertools.product(
    (math.inf, 1.0, 2.0), (2, 3, 4), (1, 2), (0.25, 0.5, 1.0)
))


def sweep(mode):
    violations = 0
    blocked = []
    for p, m, d, eps in SYMMETRIC_CONFIGS:
        v, bound = run_symmetric_config(p, m, d, eps, mode)
        if v is None:
            blocked.append((f"p={p} m={m} d={d} eps={eps}", bound))
        else:
            violations += v
    return blocked_verdict(violations, blocked)


def test_criterion_01_completeness_and_soundness():
    report(1, "completeness & soundness over the full parameter grid", *sweep("nn"))


def clustered_curve(rng, cid, m, k, d, r):
    """m vertices in k consecutive tight clusters, so a k-point curve fits."""
    centers = np.cumsum(rng.uniform(3 * r, 6 * r, size=(k, d)) * rng.choice([-1, 1], size=(k, d)), axis=0)
    sizes = [m // k + (1 if i < m % k else 0) for i in range(k)]
    pts = np.vstack([
        centers[i] + rng.uniform(-0.2 * r, 0.2 * r, size=(sizes[i], d))
        for i in range(k)
    ])
    return Curve(cid, pts), centers


def test_criterion_02_asymmetric_suite():
    m, r = 8, 1.0
    violations = 0
    blocked = []
    bad_simplifications = 0
    for k, d, eps in itertools.product((2, 3), (1, 2), (0.25, 0.5, 1.0)):
        rng = np.random.default_rng(zlib.crc32(f"asym/{k}/{d}/{eps}".encode()))
        data = [clustered_curve(rng, f"c{i}", m, k, d, r) for i in range(20)]
        curves = [c for c, _ in data]
        idx = CurveIndex(
            epsilon=eps, r=r, metric=math.inf, mode="asym", k=k,
            max_candidates=MAX_CANDIDATES_PER_CURVE,
        )
        try:
            idx.fit(curves)
            built = True
        except CapacityExceeded:
            built = False
        # only curves with a k-vertex simplification have keys to store; a
        # build stopped by the guard keeps no state, so the curves are
        # simplified here with the index's parameters
        kept = [c for c in curves if simplify.simplify_curve(c.points, k, r, eps=1.0) is not None]
        bounds = key_bounds(kept, k, eps, r, proven_edge(math.inf, k, m, d, eps, r), math.inf)
        if not built:
            blocked.append((f"k={k} d={d} eps={eps}", max(bounds.values(), default=0)))
            continue
        if set(idx.simplifications_) != set(bounds):
            bad_simplifications += 1
        violations += short_key_sets(idx, bounds, k)
        for cid, pi in idx.simplifications_.items():
            if geometry.distance(idx.registry_[cid].points, pi, math.inf) > 2 * r + DIST_TOL:
                bad_simplifications += 1
        for j in range(200):
            if j % 2 == 0:
                _, centers = data[int(rng.integers(len(data)))]
                noise = rng.normal(size=(k, d))
                norms = np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
                noise *= rng.uniform(0, 0.45 * r, size=(k, 1)) / norms
                q = Curve(f"q{j}", centers + noise)
            else:
                q = Curve(f"q{j}", rng.uniform(-80 * r, 80 * r, size=(k, d)))
            res = idx.query(q)
            truth = oracle.linear_scan_nn(curves, q, math.inf)
            if truth.nearest_distance <= r and not res.found:
                violations += 1
            if res.found:
                real = geometry.distance(idx.registry_[res.match].points, q.points, math.inf)
                if real > (1 + eps) * r + DIST_TOL:
                    violations += 1
    ok, detail = blocked_verdict(violations, blocked)
    report(2, "asymmetric short-query suite (m=8, k in {2,3})",
           ok and bad_simplifications == 0,
           f"bad simplifications={bad_simplifications}, {detail}")


def test_criterion_03_candidate_sets_equal_brute_force():
    rng = np.random.default_rng(90)
    mismatches = 0
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        out_len = int(rng.integers(1, 4))
        p = (math.inf, 1.0, 2.0)[checked % 3]
        g = grid.GridSpec.create(epsilon=1.0, r=1.0, d=d, p=p, pairs=2 * out_len)
        anchor = Curve(f"a{checked}", rng.uniform(-1.5, 1.5, size=(m, d)))
        radius = float(rng.uniform(0.4, 1.5))
        pool = candidates.vertex_pool(anchor, radius, g)
        if len(pool) ** out_len > 10**6:
            continue
        req = candidates.CandidateRequest(
            anchor=anchor, out_len=out_len, enum_radius=radius, grid=g
        )
        got = unpack_all(candidates.enumerate_candidates(req), d)
        want = oracle.brute_candidates(anchor, pool, out_len, radius, p, g)
        if got != want:
            mismatches += 1
        checked += 1
    report(3, "candidate enumeration equals brute force on 50 anchors",
           mismatches == 0, f"mismatches={mismatches}")


def test_criterion_04_alignment_counts():
    counts = [len(geometry.enumerate_alignments(m, m, False)) for m in (2, 3)]
    bounds_ok = all(
        len(geometry.enumerate_alignments(m, m, True)) <= bound
        for m, bound in ((2, 2), (3, 6), (4, 20), (5, 70))
    )
    ok = counts == [3, 13] and bounds_ok
    report(4, "alignment combinatorics (3, 13; non-redundant bounds)",
           ok, f"all-alignment counts={counts}")


def test_criterion_05_distance_kernels_vs_enumeration():
    rng = np.random.default_rng(91)
    worst = 0.0
    for trial in range(500):
        m1, m2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        P = rng.uniform(-3, 3, size=(m1, d))
        Q = rng.uniform(-3, 3, size=(m2, d))
        p = (math.inf, 1.0, 2.0)[trial % 3]
        best = min(
            geometry.alignment_cost(tau, P, Q, p)
            for tau in geometry.enumerate_alignments(m1, m2, False)
        )
        worst = max(worst, abs(geometry.distance(P, Q, p) - best))
    report(5, "DP distance equals enumerated alignment minimum (500 pairs)",
           worst <= DIST_TOL, f"worst deviation={worst:.2e}")


def test_criterion_06_grid_bounds():
    rng = np.random.default_rng(92)
    count_ok = True
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = grid.GridSpec(edge=float(rng.uniform(0.3, 1.0)), epsilon=1.0, r=1.0,
                          d=d, p=math.inf)
        center = rng.uniform(-2, 2, size=d)
        radius = float(rng.uniform(0, 3))
        n_pts = len(grid.grid_points_in_ball(center, radius, g))
        rr = radius / g.edge + math.sqrt(d)
        volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * rr**d
        if n_pts > volume:
            count_ok = False
    snap_ok = True
    for d in (1, 2, 3):
        g = grid.GridSpec(edge=0.37, epsilon=1.0, r=1.0, d=d, p=math.inf)
        bound = g.edge * math.sqrt(d) / 2
        pts = rng.uniform(-50, 50, size=(10_000, d))
        for x in pts:
            z = grid.snap_point(x, g)
            if np.linalg.norm(x - grid.lattice_to_point(z, g)) > bound + 1e-12:
                snap_ok = False
    report(6, "lattice ball volume bound and snapping error bound",
           count_ok and snap_ok, f"ball bound ok={count_ok}, snap bound ok={snap_ok}")


def test_criterion_07_range_counting_sandwich():
    report(7, "range counting sandwich over the full parameter grid", *sweep("count"))


def exact_meb_oracle(points, eps=None):
    return oracle.exact_meb(points)


def minimal_cover_length(pts, r):
    n = len(pts)
    best = [0] + [n + 1] * n
    for j in range(1, n + 1):
        for i in range(j):
            if oracle.exact_meb(pts[i:j])[1] <= r * (1 + 1e-12):
                best[j] = min(best[j], best[i] + 1)
    return best[n]


def test_criterion_08_simplification():
    rng = np.random.default_rng(93)
    r, eps = 1.0, 1.0
    distance_ok = True
    minimal_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 13))
        pts = rng.uniform(-3, 3, size=(m, d))
        pi = simplify.simplify_curve(pts, None, r, eps=eps)
        if geometry.distance(pts, pi, math.inf) > (1 + eps) * r + DIST_TOL:
            distance_ok = False
        exact_pi = simplify.simplify_curve(pts, None, r, eps=0.0, meb=exact_meb_oracle)
        if len(exact_pi) != minimal_cover_length(pts, r):
            minimal_ok = False
    report(8, "greedy simplification: distance guarantee and minimality",
           distance_ok and minimal_ok,
           f"distance ok={distance_ok}, minimal ok={minimal_ok}")


def test_criterion_09_backend_equivalence_and_persistence(tmp_path):
    rng = np.random.default_rng(94)
    agree = True
    for mode in ("nn", "count"):
        a = dictionary.make_dictionary("hash", mode=mode, out_len=2, d=2)
        b = dictionary.make_dictionary("trie", mode=mode, out_len=2, d=2)
        for i in range(5_000):
            key = pack(rng.integers(-4, 5, size=(2, 2)))
            for dct in (a, b):
                if mode == "count":
                    dct.increment_all((key,))
                else:
                    dct.insert_all_first_wins((key,), f"c{i}")
            if (a.lookup(key), len(a)) != (b.lookup(key), len(b)):
                agree = False
            probe = pack(rng.integers(-4, 5, size=(2, 2)))
            if a.lookup(probe) != b.lookup(probe):
                agree = False
        if list(a.items()) != list(b.items()):
            agree = False
        path = tmp_path / f"{mode}.annc"
        header = dictionary.DictHeader(mode=mode, p=float("inf"), epsilon=1.0,
                                       r=1.0, d=2, out_len=2, edge=1.0)
        dictionary.save(path, header, a)
        _, loaded = dictionary.load(path)
        if list(loaded.items()) != list(a.items()):
            agree = False
    report(9, "backend equivalence on 10^4 operations and persistence identity",
           agree)


def test_criterion_10_deterministic_cli_runs(tmp_path):
    rng = np.random.default_rng(95)
    data = tmp_path / "curves.jsonl"
    queries = tmp_path / "queries.jsonl"
    with open(data, "w") as f:
        for i in range(10):
            pts = random_walk(rng, 3, 1, 1.0)
            f.write(json.dumps({"id": f"c{i}", "points": pts.tolist()}) + "\n")
    with open(queries, "w") as f:
        for j in range(20):
            pts = rng.uniform(-8, 8, size=(3, 1))
            f.write(json.dumps({"id": f"q{j}", "points": pts.tolist()}) + "\n")

    # the CLI runs the package these tests import, wherever it was found
    src = os.path.dirname(os.path.dirname(os.path.abspath(dictionary.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def one_run():
        out = tmp_path / "idx.annc"
        build = subprocess.run(
            [sys.executable, "-m", "curveann.cli", "build", "--input", str(data),
             "--radius", "1", "--epsilon", "1", "--backend", "trie", "--out", str(out)],
            capture_output=True, check=True, env=env,
        )
        query = subprocess.run(
            [sys.executable, "-m", "curveann.cli", "query", "--index", str(out),
             "--queries", str(queries), "--backend", "trie"],
            capture_output=True, check=True, env=env,
        )
        return build.stdout, query.stdout, out.read_bytes()

    first = one_run()
    second = one_run()
    same = all(x == y for x, y in zip(first, second))
    report(10, "byte-identical build+query runs with the prefix-tree backend", same)
