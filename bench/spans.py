"""Spans around the calls the index makes into each module.

``Tracer.install`` replaces module functions and methods of ``curveann``
with timing wrappers, from outside the package, and ``uninstall`` puts the
originals back; only the traced run installs it. Each span records its
name, start, end, parent span, the phase of the benchmark it ran in and,
for calls that return a collection, the collection's size. Spans are kept
in memory and written out once, at the end of the run.
"""

import functools
import itertools
import statistics
import time

import numpy as np

from curveann import candidates, dictionary, grid, index, simplify


def _size(result):
    return -1 if result is None else len(result)


# (owner, attribute, span name, record the result's size)
TRACED = [
    (candidates, "enumerate_candidates", "candidates.enumerate", True),
    (candidates, "vertex_pool", "candidates.pool", True),
    (grid, "grid_points_in_ball", "grid.ball", False),
    (grid, "snap_curve", "grid.snap", False),
    (simplify, "simplify_curve", "simplify.simplify", True),
    (dictionary, "write_block", "dictionary.write", False),
    (dictionary, "read_block", "dictionary.read", False),
    (dictionary.HashedDictionary, "lookup", "dictionary.lookup", False),
    (dictionary.PrefixTreeDictionary, "lookup", "dictionary.lookup", False),
] + [
    (index.CurveIndex, m, f"index.{m}", False)
    for m in ("fit", "query", "predict", "count", "insert_curve", "delete_curve", "save", "load")
]


class Tracer:
    def __init__(self):
        self.names = []
        self.phases = [("setup", 0)]
        # (id, name id, phase id, start ns, end ns, parent id, size), in the
        # order the spans end
        self.records = []
        self._ids = itertools.count()
        self._open = []
        self._current = 0
        self._saved = []

    def begin(self, kind, rep=0):
        """Tag the spans that follow with a phase of the benchmark."""
        self.phases.append((kind, rep))
        self._current = len(self.phases) - 1

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, sized=False):
        nid = self._name_id(name)
        ids, open_, records, clock = self._ids, self._open, self.records, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # keep the work outside [t0, t1] small: the parent's self time
            # absorbs it
            parent = open_[-1] if open_ else -1
            sid = next(ids)
            open_.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                records.append((sid, nid, self._current, t0, t1, parent,
                                _size(result) if sized else -1))
            return result

        return traced

    def install(self):
        for owner, attr, name, sized in TRACED:
            raw = owner.__dict__.get(attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, sized)))
            else:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), sized))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            if raw is None:  # was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._saved = []

    def arrays(self):
        """The spans by id, as numpy arrays: name id, phase id, start, end,
        parent, size."""
        table = np.array(sorted(self.records), dtype=np.int64).reshape(-1, 7)
        return tuple(table[:, col] for col in range(1, 7))

    def write(self, path):
        with open(path, "w") as f:
            f.write("id\tname\tphase\trep\tstart_ns\tend_ns\tparent\tsize\n")
            for sid, nid, ph, t0, t1, parent, size in sorted(self.records):
                kind, rep = self.phases[ph]
                f.write(f"{sid}\t{self.names[nid]}\t{kind}\t{rep}\t{t0}\t{t1}\t{parent}\t{size}\n")


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    out = end - start
    kids = {}
    for sid in np.flatnonzero(parent >= 0):
        kids.setdefault(int(parent[sid]), []).append(int(sid))
    for pid, cs in kids.items():
        covered, reach = 0, start[pid]
        for s, e in sorted((max(start[c], start[pid]), min(end[c], end[pid])) for c in cs):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out[pid] -= covered
    return out


class SpanView:
    """Per-phase selections over a finished trace."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.name, self.phase, self.start, self.end, self.parent, self.size = tracer.arrays()
        self.dur = self.end - self.start
        self.self_dur = self_times(self.start, self.end, self.parent)

    def reps(self, kind):
        return sorted({rep for k, rep in self.tracer.phases if k == kind})

    def mask(self, span, kind, rep=None):
        if span not in self.tracer.names:
            return np.zeros(len(self.name), dtype=bool)
        phases = [i for i, (k, r) in enumerate(self.tracer.phases)
                  if k == kind and (rep is None or r == rep)]
        return (self.name == self.tracer.names.index(span)) & np.isin(self.phase, phases)

    def per_rep(self, kind, fn):
        """Median over a phase's repetitions of ``fn(rep)``."""
        return statistics.median(fn(rep) for rep in self.reps(kind))

    def total_s(self, span, kind, rep, self_only=False):
        d = self.self_dur if self_only else self.dur
        return float(d[self.mask(span, kind, rep)].sum()) / 1e9

    def median_us(self, span, kind, self_only=False):
        d = (self.self_dur if self_only else self.dur)[self.mask(span, kind)]
        return float(np.median(d)) / 1e3 if len(d) else 0.0

    def per_call_s(self, child, span, kind):
        """Median over the ``span`` calls of a phase of the time spent in
        their ``child`` spans."""
        kids = self.mask(child, kind)
        return statistics.median(float(self.dur[kids & (self.parent == sid)].sum()) / 1e9
                                 for sid in np.flatnonzero(self.mask(span, kind)))

    def sizes(self, span, kind, rep=None):
        return self.size[self.mask(span, kind, rep)]

    def calls(self, span, kind, rep=None):
        return int(self.mask(span, kind, rep).sum())


def layer_metrics(view, mode):
    """Per-layer figures of a traced run, by metric name."""
    keys = view.sizes("candidates.enumerate", "fit", 0)
    simplified = view.sizes("simplify.simplify", "fit", 0)
    enumerate_s = view.per_rep("fit", lambda r: view.total_s("candidates.enumerate", "fit", r))
    query = "index.count" if mode == "count" else "index.query"
    churn_self = lambda r: (view.total_s("index.insert_curve", "churn", r, self_only=True)
                            + view.total_s("index.delete_curve", "churn", r, self_only=True))
    return {
        "simplify.calls": len(simplified),
        "simplify.skipped": int((simplified < 0).sum()),
        "candidates.enumerate_s": enumerate_s,
        "candidates.keys": int(keys.sum()),
        "candidates.keys_per_curve_p50": float(np.median(keys)) if len(keys) else 0.0,
        "candidates.keys_per_curve_max": int(keys.max()) if len(keys) else 0,
        "candidates.keys_per_s": float(keys.sum()) / enumerate_s,
        "candidates.pool_s": view.per_rep("fit", lambda r: view.total_s("candidates.pool", "fit", r)),
        "candidates.pool_points": int(view.sizes("candidates.pool", "fit", 0).sum()),
        "grid.ball_s": view.per_rep("fit", lambda r: view.total_s("grid.ball", "fit", r)),
        "candidates.churn_calls": view.calls("candidates.enumerate", "churn", 0),
        "index.fit_self_s": view.per_rep(
            "fit", lambda r: view.total_s("index.fit", "fit", r, self_only=True)),
        "grid.snap_us": view.median_us("grid.snap", "query"),
        "dictionary.lookup_us": view.median_us("dictionary.lookup", "query"),
        "index.query_self_us": view.median_us(query, "query", self_only=True),
        "dictionary.write_s": view.per_call_s("dictionary.write", "index.save", "save"),
        "index.save_self_s": view.median_us("index.save", "save", self_only=True) / 1e6,
        "dictionary.read_s": view.per_call_s("dictionary.read", "index.load", "load"),
        "index.load_self_s": view.median_us("index.load", "load", self_only=True) / 1e6,
        "index.churn_self_s": view.per_rep("churn", churn_self),
    }
