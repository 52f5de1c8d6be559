"""Command-line front end: build, query, count, simplify, bench.

Curve files are line-delimited JSON records:

    {"id": "c1", "points": [[0.0, 1.0], [2.0, 3.0]]}

Exit codes: 0 success, 2 parse/usage error or a file that cannot be read
or written, 3 capacity exceeded, 4 bad index file format.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import geometry, oracle, simplify as simpmod
from .errors import CapacityExceeded, CurveAnnError, FormatError, ParseError
from .index import CurveIndex

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_FORMAT = 4


def read_curve_file(path):
    """Parse a line-delimited curve file; dimension must be uniform."""
    curves = []
    dim = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                curve = geometry.Curve(str(rec["id"]), rec["points"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"{path}:{lineno}: bad record: {exc}", line=lineno) from exc
            if dim is None:
                dim = curve.dim
            elif curve.dim != dim:
                raise ParseError(
                    f"{path}:{lineno}: dimension {curve.dim} != file dimension {dim}",
                    line=lineno,
                )
            curves.append(curve)
    if not curves:
        raise ParseError(f"{path}: no curves in file")
    return curves


def _fmt(x):
    return f"{x:.12g}"


def _index_from_args(args):
    mode = "asym" if (args.mode == "nn" and args.k is not None) else args.mode
    try:
        idx = CurveIndex(
            epsilon=args.epsilon,
            r=args.radius,
            metric=geometry.parse_metric(args.metric),
            mode=mode,
            k=args.k,
            backend=args.backend,
            max_candidates=args.max_candidates,
            query_lengths=args.lengths,
        )
        idx._validated()
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return idx


def _file_beside(path):
    """A new empty file in the directory of ``path``, with the permissions
    a new ``path`` would get; ParseError if that directory takes no file."""
    try:
        fd, name = tempfile.mkstemp(prefix=".curveann-", dir=os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(name, 0o666 & ~umask)
    return name


# the build's stage timers, and what each covers
_STAGES = (
    ("build", "simplify, enumerate and fold"),
    ("enumerate", "candidate sets, as rows of pool indices"),
    ("fold", "dictionary updates; the hash backend makes the key bytes here"),
)


def cmd_build(args):
    curves = read_curve_file(args.input)
    idx = _index_from_args(args)
    # the index goes to a file beside --out, renamed onto it once saved: an
    # --out that cannot be written fails before fit, and a failed build
    # leaves an existing --out as it was
    tmp = _file_beside(args.out)
    try:
        idx.fit(curves)
        for cid in idx.registry_:
            per_len = idx.stats_["candidates"].get(cid, {})
            total = sum(per_len.values())
            print(f"candidates\t{cid}\t{total}")
        for cid in idx.stats_["skipped"]:
            print(f"skipped\t{cid}\tno {idx.k}-point simplification within 2r")
        for L in sorted(idx.dicts_):
            print(f"dictionary\tL={L}\t{len(idx.dicts_[L])}")
        idx.save(tmp)
        os.replace(tmp, args.out)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    print(f"index\t{args.out}")
    # wall time is run-dependent; keep stdout byte-reproducible
    for stage, what in _STAGES:
        print(f"{stage} seconds: {idx.stats_[stage + '_seconds']:.3f} ({what})", file=sys.stderr)
    # headroom under the capacity guard: the most keys one curve needed
    for L in sorted(idx.dicts_):
        counts = [(keys[L], cid) for cid, keys in idx.stats_["candidates"].items() if L in keys]
        most, cid = max(counts, key=lambda c: c[0], default=(0, None))
        who = "no curve" if cid is None else f"curve {cid}"
        print(f"capacity L={L}: largest {most} keys ({who}) "
              f"of max_candidates {idx.max_candidates}", file=sys.stderr)
    return 0


def _answer_each(args, method, show):
    """Load the index, answer each query with ``method`` and print its id
    and ``show(answer)``; a query the index cannot answer gets an error
    line on stderr. ParseError, before any query is read, if the index
    answers the other command."""
    idx = CurveIndex.load(args.index, backend=args.backend)
    if idx._serves != method:
        raise ParseError(f"{args.index} is an index of mode {idx.mode}: use curveann {idx._serves}")
    answer = getattr(idx, method)
    for q in read_curve_file(args.queries):
        try:
            got = answer(q)
        except CurveAnnError as exc:
            print(f"{q.id}\tERROR\t{exc}", file=sys.stderr)
            continue
        print(f"{q.id}\t{show(got)}")
    return 0


def cmd_query(args):
    return _answer_each(args, "query",
                        lambda res: f"{res.match if res.found else 'NO'}\t{_fmt(res.guarantee)}")


def cmd_count(args):
    return _answer_each(args, "count", str)


def cmd_simplify(args):
    for c in read_curve_file(args.input):
        pi = simpmod.simplify_curve(c.points, args.k, args.radius, eps=args.epsilon)
        if pi is None:
            print(f"{c.id}\tINFEASIBLE")
        else:
            pts = [[float(x) for x in row] for row in pi]
            print(f"{c.id}\t{json.dumps(pts)}")
    return 0


def _bench_workload(rng, n, m, d, r, k=None):
    """Random dataset plus near/far queries with a known ground truth."""
    curves = []
    qlen = k or m
    for i in range(n):
        start = rng.uniform(-10 * r, 10 * r, size=d)
        steps = rng.uniform(-2 * r, 2 * r, size=(m - 1, d)) if m > 1 else np.empty((0, d))
        pts = np.vstack([start, start + np.cumsum(steps, axis=0)]) if m > 1 else start[None]
        curves.append(geometry.Curve(f"c{i}", pts))
    queries = []
    for j in range(200):
        if j % 2 == 0:
            base = curves[rng.integers(len(curves))].points
            if k is not None:
                take = np.sort(rng.choice(m, size=qlen, replace=False))
                base = base[take]
            noise = rng.normal(size=(qlen, d))
            noise *= 0.45 * r / np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
            queries.append(geometry.Curve(f"q{j}", base + noise))
        else:
            pts = rng.uniform(-40 * r, 40 * r, size=(qlen, d))
            queries.append(geometry.Curve(f"q{j}", pts))
    return curves, queries


def cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    idx = _index_from_args(args)
    p = geometry.parse_metric(args.metric)
    curves, queries = _bench_workload(rng, args.n, args.m, args.d, args.radius, k=args.k)
    idx.fit(curves)
    mode = idx.mode

    violations = false_pos = mismatches = 0
    times = []
    guarantee = (1 + args.epsilon) * args.radius
    for q in queries:
        t0 = time.perf_counter()
        if mode == "count":
            got = idx.count(q)
        else:
            got = idx.query(q)
        times.append((time.perf_counter() - t0) * 1e6)
        if mode == "count":
            lo = oracle.count_within(curves, q, p, args.radius)
            hi = oracle.count_within(curves, q, p, guarantee)
            if not lo <= got <= hi:
                mismatches += 1
        else:
            ans = oracle.linear_scan_nn(curves, q, p)
            if ans.nearest_distance <= args.radius and not got.found:
                violations += 1
            if got.found and geometry.distance(idx.registry_[got.match], q, p) > guarantee:
                false_pos += 1

    times.sort()
    p50 = times[len(times) // 2]
    p99 = times[min(len(times) - 1, int(len(times) * 0.99))]
    print(f"violations: {violations}")
    print(f"false_positives: {false_pos}")
    print(f"count_mismatches: {mismatches}")
    print(f"p50_us: {p50:.1f}  p99_us: {p99:.1f}")
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["workload", "metric", "eps", "r", "n", "m", "d",
                        "violations", "false_pos", "p50_us", "p99_us"])
            w.writerow([f"seed{args.seed}", geometry.metric_name(p), args.epsilon,
                        args.radius, args.n, args.m, args.d,
                        violations, false_pos, f"{p50:.1f}", f"{p99:.1f}"])
    return 0 if violations == false_pos == mismatches == 0 else 1


def _add_common(sp):
    sp.add_argument("--metric", default="dfd", help="dfd | dtw | p=<real>")
    sp.add_argument("--epsilon", type=float, default=1.0)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--backend", choices=["hash", "trie"], default="hash")
    sp.add_argument("--max-candidates", type=int, default=10**8, dest="max_candidates")


def build_parser():
    ap = argparse.ArgumentParser(prog="curveann", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and persist an index")
    _add_common(b)
    b.add_argument("--input", required=True)
    b.add_argument("--mode", choices=["nn", "count"], default="nn")
    b.add_argument("--k", type=int, default=None, help="asymmetric query length")
    b.add_argument("--lengths", type=int, nargs="*", default=None,
                   help="explicit query lengths to support")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer near-neighbor queries")
    q.add_argument("--index", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--backend", choices=["hash", "trie"], default="hash")
    q.set_defaults(func=cmd_query)

    c = sub.add_parser("count", help="answer range-counting queries")
    c.add_argument("--index", required=True)
    c.add_argument("--queries", required=True)
    c.add_argument("--backend", choices=["hash", "trie"], default="hash")
    c.set_defaults(func=cmd_count)

    s = sub.add_parser("simplify", help="greedy min-vertex simplification")
    s.add_argument("--input", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--epsilon", type=float, default=1.0)
    s.set_defaults(func=cmd_simplify)

    be = sub.add_parser("bench", help="oracle-checked benchmark")
    _add_common(be)
    be.add_argument("--mode", choices=["nn", "count"], default="nn")
    be.add_argument("--n", type=int, default=20)
    be.add_argument("--m", type=int, default=3)
    be.add_argument("--d", type=int, default=1)
    be.add_argument("--k", type=int, default=None)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", default=None, help="CSV output path")
    be.set_defaults(func=cmd_bench, lengths=None)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
