"""The curveann benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload count-dtw --seed 1 --seconds 60 --trace 0

Runs from the repository root, imports ``curveann`` from ``src/`` and uses
one thread. A run makes the workload's inputs from ``--seed`` and then
repeats whole rounds of five phases for ``--seconds``: ``fit``; QUERY_PASSES
passes over the query set (one call per query, then the set as one batch);
``save`` and ``CurveIndex.load``, PERSIST_REPEATS times each; churn on the
last loaded index, where each delete and insert is followed by the query set
as one batch. A round starts only if it should end within ``--seconds`` of
the program's start, and a run makes at least MIN_ROUNDS rounds. Every
answer is checked, outside the timed sections, against ``checks.py``; a
wrong answer is a failed operation and fails the run (exit code 1).

Every round does the same operations, so each metric's samples are spread
over the whole run. ``setup_s`` is the median of the ``fit`` times; the
other timings are trimmed means (``measure.trimmed_mean``) of their samples,
which follow a machine that changes speed during a run more smoothly than a
median does.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the rounds run under ``spans.py``
tracing, with one pass over the query set per round, and the result holds
the per-layer metrics. Each traced round is followed by an untraced fit and
query pass, and the difference between the two is the tracing overhead.
The spans are written to ``.bench_out/spans-<workload>.tsv``.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from curveann import CurveIndex, geometry  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
QUERY_PASSES = 3
PERSIST_REPEATS = 2


class Run:
    """A workload's rounds: the timing samples, and the tallies of
    operations attempted and failed."""

    def __init__(self, wl, path, tracer=None, like=None):
        self.wl = wl
        self.path = path
        self.tracer = tracer
        self.p = geometry.parse_metric(wl.params["metric"])
        self.r = wl.params["r"]
        self.eps = wl.params["epsilon"]
        self.guarantee = (1 + self.eps) * self.r
        self.counting = wl.mode == "count"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {name: [] for name in ("fit", "latency", "pass_p50", "pass_p99", "qps",
                                              "save", "load", "churn", "round_update")}
        self.expected = None  # the checked answers of the first query pass
        self.wrong = set()
        if like is None:
            self.table = checks.DistanceTable(wl.queries, wl.curves + wl.extras, self.p)
            # key counts of the churn curves, from an index over them alone
            self.extra_keys = self._key_counts(CurveIndex(**wl.params).fit(wl.extras), wl.extras)
        else:
            self.table, self.extra_keys = like.table, like.extra_keys

    # -- bookkeeping --------------------------------------------------------

    def phase(self, kind, rep=0):
        if self.tracer is not None:
            self.tracer.begin(kind, rep)

    def reject(self, what, n=1):
        if n:
            self.failed += n
            self.problems.append(what)

    def _key_counts(self, idx, curves):
        """Keys each curve stored, by id; curves the index skipped are absent."""
        cands = idx.stats_["candidates"]
        return {c.id: sum(cands[c.id].values()) for c in curves if c.id in cands}

    def _stored_count_sum(self, idx):
        return sum(n for dct in idx.dicts_.values() for _, n in dct.items())

    def _answers(self, results):
        return list(results) if self.counting else [res.match for res in results]

    def _batch(self, idx):
        if self.counting:
            return [idx.count(q) for q in self.wl.queries]
        return idx.predict(self.wl.queries)

    def check_answers(self, what, answers, live):
        bad = checks.rejected_answers(answers, self.table, live,
                                      self.wl.mode, self.r, self.guarantee)
        self.reject(f"{what}: {len(bad)} answers break the guarantee (first query "
                    f"{bad[:1]})", len(bad))
        return set(bad)

    def figures(self):
        s = self.samples
        avg = measure.trimmed_mean
        return {
            "setup_s": statistics.median(s["fit"]),
            "query_p50_us": avg(s["pass_p50"]) / 1e3,
            "query_p99_us": avg(s["pass_p99"]) / 1e3,
            "query_qps": avg(s["qps"]),
            "save_s": avg(s["save"]),
            "load_s": avg(s["load"]),
            "churn_s": avg(s["churn"]),
            "update_p50_ms": avg(s["round_update"]) * 1e3,
        }

    # -- phases -------------------------------------------------------------

    def round(self, rep, query_passes=QUERY_PASSES):
        """fit, queries, save, load and churn; returns the resident memory
        that ``fit`` added."""
        idx, fit_rss = self.fit(rep)
        self.queries(idx, rep, query_passes)
        self.save(idx, rep)
        if rep == 0:
            self.entries = measure.entries(idx)
            self.file_bytes = os.path.getsize(self.path)
            self.bytes_per_entry = measure.bytes_per_entry(self.path, self.entries)
        idx = None
        self.load_and_churn(rep)
        return fit_rss

    def fit(self, rep):
        gc.collect()
        rss0 = measure.rss_mb()
        self.phase("fit", rep)
        t0 = time.perf_counter()
        idx = CurveIndex(**self.wl.params).fit(self.wl.curves)
        self.samples["fit"].append(time.perf_counter() - t0)
        self.phase("checks")
        fit_rss = measure.rss_mb() - rss0
        self.attempted += 1
        if rep == 0:
            self.check_build(idx)
        return idx, fit_rss

    def check_build(self, idx):
        wl = self.wl
        keys = self._key_counts(idx, wl.curves)
        M = max(len(c) for c in wl.curves)
        d = wl.curves[0].dim
        for L, g in idx.grids_.items():
            edge = checks.proven_edge(self.p, L, M, d, self.eps, self.r)
            if not math.isclose(g.edge, edge, rel_tol=1e-12):
                self.reject(f"grid edge {g.edge} for length {L} is not the proven {edge}")
            for group, counts in ((wl.curves, keys), (wl.extras, self.extra_keys)):
                kept = [c for c in group if c.id in counts]
                short = checks.short_key_sets(kept, counts, L, edge,
                                              (1 + self.eps / 2) * self.r, self.p)
                self.reject(f"curves {short} store fewer keys than the oracle bound", len(short))
        if wl.mode == "asym":
            skipped = set(idx.stats_["skipped"])
            for group in (wl.curves, wl.extras):
                bad = checks.uncertified_skips(group, skipped, wl.params["k"], self.r)
                self.reject(f"skipped curves {bad} have a k-vertex curve within r", len(bad))
        if self.counting:
            stored = self._stored_count_sum(idx)
            if stored != sum(keys.values()):
                self.reject(f"stored counts sum to {stored}, candidates to {sum(keys.values())}")
        self.base_keys = keys

    def queries(self, idx, rep, passes):
        """``passes`` passes over the query set, one call per query and then
        the set as one batch."""
        call = idx.count if self.counting else idx.query
        live = {c.id for c in self.wl.curves}
        for _ in range(passes):
            self.phase("query", rep)
            results = []
            for q in self.wl.queries:
                t0 = time.perf_counter_ns()
                res = call(q)
                t1 = time.perf_counter_ns()
                self.samples["latency"].append(t1 - t0)
                results.append(res)
            latencies = self.samples["latency"][-len(results):]
            self.samples["pass_p50"].append(statistics.median(latencies))
            self.samples["pass_p99"].append(measure.tail_percentile(latencies, 99))
            t0 = time.perf_counter_ns()
            batch = self._batch(idx)
            t1 = time.perf_counter_ns()
            self.samples["qps"].append(len(batch) / ((t1 - t0) / 1e9))
            self.phase("checks")
            got = self._answers(results)
            self.attempted += len(got) + len(batch)
            if self.expected is None:
                self.expected = got
                self.wrong = self.check_answers("queries", got, live)
                repeats = [self._answers(batch)]
            else:
                repeats = [got, self._answers(batch)]
            for answers in repeats:
                differ = sum(a != b or i in self.wrong
                             for i, (a, b) in enumerate(zip(answers, self.expected)))
                self.reject(f"query pass in round {rep}: {differ} answers are wrong or "
                            f"differ from the first pass", differ)

    def save(self, idx, rep):
        for _ in range(PERSIST_REPEATS):
            gc.collect()
            self.phase("save", rep)
            t0 = time.perf_counter()
            idx.save(self.path)
            self._sample("save", t0)
            self.attempted += 1

    def load_and_churn(self, rep):
        """``CurveIndex.load`` PERSIST_REPEATS times, checking each loaded
        index; then churn on the last one."""
        for _ in range(PERSIST_REPEATS):
            idx = None
            gc.collect()
            self.phase("load", rep)
            t0 = time.perf_counter()
            idx = CurveIndex.load(self.path, backend=self.wl.params["backend"])
            self._sample("load", t0)
            got = self._answers(self._batch(idx))
            self.attempted += 1 + len(got)
            differ = sum(a != b for a, b in zip(got, self.expected))
            self.reject(f"loaded index answers {differ} queries differently", differ)
        gc.collect()
        self.phase("churn", rep)
        self.churn(idx)

    def _sample(self, name, t0):
        """Record the time since ``t0`` as a sample of ``name`` and leave
        the timed phase."""
        self.samples[name].append(time.perf_counter() - t0)
        self.phase("checks")

    def churn(self, idx):
        """Delete and insert one curve at a time, answering the query set as
        one batch after each update. The round's update sample is the median
        of its updates, which leaves out the owner rebuild that the first
        delete after ``load`` pays (that counts in ``churn_s``) and, where
        a round has one delete and one insert, is their mean."""
        wl = self.wl
        live = {c.id for c in wl.curves}
        states = []
        updates = []
        t_start = time.perf_counter()
        for gone, new in zip(wl.deletes, wl.extras):
            t0 = time.perf_counter()
            idx.delete_curve(gone)
            updates.append(time.perf_counter() - t0)
            live = live - {gone}
            states.append((live, self._batch(idx)))
            t0 = time.perf_counter()
            idx.insert_curve(new)
            updates.append(time.perf_counter() - t0)
            live = live | {new.id}
            states.append((live, self._batch(idx)))
        self.samples["churn"].append(time.perf_counter() - t_start)
        self.samples["round_update"].append(statistics.median(updates))
        self.phase("checks")
        self.attempted += 2 * len(wl.extras)
        for step, (live, results) in enumerate(states):
            answers = self._answers(results)
            self.attempted += len(answers)
            self.check_answers(f"churn step {step}", answers, live)
        if self.counting:
            want = (sum(self.base_keys.values())
                    - sum(self.base_keys[cid] for cid in wl.deletes)
                    + sum(self.extra_keys.values()))
            stored = self._stored_count_sum(idx)
            if stored != want:
                self.reject(f"after churn the stored counts sum to {stored}, not {want}")


def whole_rounds(seconds, body):
    """Call ``body(rep)`` for rep = 0, 1, ... while the next round, if it
    takes as long as the last one, ends within ``seconds`` of the program's
    start; at least MIN_ROUNDS times. (Round 0 also makes the untimed build
    checks, so the minimum keeps it out of the estimate.)"""
    rep, last = 0, 0.0
    while rep < MIN_ROUNDS or time.perf_counter() + last - START <= seconds:
        t0 = time.perf_counter()
        body(rep)
        last = time.perf_counter() - t0
        rep += 1


def run_plain(wl, seconds, path):
    run = Run(wl, path)
    whole_rounds(seconds, run.round)
    figures = run.figures()
    figures["index_bytes_per_entry"] = run.bytes_per_entry
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [run], figures


def run_traced(wl, seconds, path):
    """Traced rounds, each followed by an untraced fit and query pass."""
    tracer = spans.Tracer()
    run = Run(wl, path, tracer)
    plain = Run(wl, path, like=run)
    fit_rss = []

    def traced_round(rep):
        tracer.install()
        try:
            fit_rss.append(run.round(rep, query_passes=1))
        finally:
            tracer.uninstall()
        idx, _ = plain.fit(rep)
        plain.queries(idx, rep, passes=1)

    whole_rounds(seconds, traced_round)
    tracer.write(OUT_DIR / f"spans-{wl.name}.tsv")
    values = spans.layer_metrics(spans.SpanView(tracer), wl.mode)
    traced, untraced = run.samples, plain.samples
    values.update({
        "index.fit_rss_mb": fit_rss[0],
        "dictionary.entries": run.entries,
        "dictionary.file_bytes": run.file_bytes,
        "trace.setup_overhead_s": statistics.median(traced["fit"])
        - statistics.median(untraced["fit"]),
        "trace.query_p50_overhead_us": (statistics.median(traced["latency"])
                                        - statistics.median(untraced["latency"])) / 1e3,
    })
    return [run, plain], values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time for the whole run, set-up included; whole rounds are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{wl.name}-{os.getpid()}.annc"
    try:
        if args.trace:
            runs, values = run_traced(wl, args.seconds, path)
        else:
            runs, values = run_plain(wl, args.seconds, path)
    finally:
        path.unlink(missing_ok=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{wl.name}  {name} = {m['value']} {m['unit']}")
    print(f"{wl.name}  attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
