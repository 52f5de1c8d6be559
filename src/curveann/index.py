"""The assembled near-neighbor / range-counting structure for curves.

``CurveIndex`` follows the estimator convention: constructor takes plain
parameters, ``fit`` ingests the curves and freezes the structure, ``query``
/ ``predict`` / ``count`` answer in one dictionary lookup each.

Modes:

* ``nn``    -- near-neighbor: each stored key remembers the first input
               curve whose candidate set produced it.
* ``count`` -- range counting: each stored key counts the input curves
               whose candidate sets produced it.
* ``asym``  -- near-neighbor for short queries of fixed length k: each
               input stores the length-k grid curves within (1 + eps/2) r
               of it. An input with no k-vertex simplification within 2r
               has no curve of length k within r, and stores nothing.
"""

import math
import struct
import time
from dataclasses import dataclass
from itertools import dropwhile, islice
from typing import Optional

import numpy as np

from . import candidates as candmod
from . import dictionary as dictmod
from . import geometry
from . import grid as gridmod
from . import simplify as simpmod
from .errors import (
    CorruptFile,
    DimensionMismatch,
    FormatError,
    ModeMismatch,
    UnsupportedLength,
)

_REGISTRY_MAGIC = b"REGY"


@dataclass(frozen=True)
class QueryResult:
    match: Optional[str]
    guarantee: float

    @property
    def found(self):
        return self.match is not None


class _Results(dict):
    """The ``QueryResult`` of each match, made on first use. Results are
    immutable and the guarantee is fixed when an index is fitted or loaded,
    so the queries with one match share one result."""

    def __init__(self, guarantee):
        super().__init__()
        self.guarantee = guarantee

    def __missing__(self, match):
        res = self[match] = QueryResult(match, self.guarantee)
        return res


class CurveIndex:
    """Approximate near-neighbor / range-counting index for curves."""

    def __init__(
        self,
        epsilon=1.0,
        r=1.0,
        metric=geometry.DFD,
        mode="nn",
        k=None,
        backend="hash",
        query_lengths=None,
        max_candidates=candmod.DEFAULT_MAX_CANDIDATES,
    ):
        self.epsilon = epsilon
        self.r = r
        self.metric = metric
        self.mode = mode
        self.k = k
        self.backend = backend
        self.query_lengths = query_lengths
        self.max_candidates = max_candidates

    # -- estimator plumbing -------------------------------------------------

    _PARAM_NAMES = (
        "epsilon", "r", "metric", "mode", "k", "backend",
        "query_lengths", "max_candidates",
    )

    # the method the fitted or loaded structure answers, "query" or
    # "count"; None until fit or load publishes a structure
    _serves = None

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params):
        """Change parameters. A fitted or loaded structure was built for the
        old ones, so it is dropped: the index must be fitted again."""
        for name in params:
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
        for name, value in params.items():
            setattr(self, name, value)
        self._serves = None
        return self

    @property
    def guarantee(self):
        return (1 + self.epsilon) * self.r

    def _validated(self):
        p = geometry.parse_metric(self.metric)
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        if self.mode not in ("nn", "count", "asym"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "asym":
            if p != geometry.DFD:
                raise ValueError("the asymmetric mode is defined for the min-max metric only")
            if self.k is None or self.k < 1:
                raise ValueError("the asymmetric mode requires k >= 1")
            if self.query_lengths is not None:
                raise ValueError("query_lengths is not for the asymmetric mode, which "
                                 "answers length-k queries only")
        elif self.k is not None:
            raise ValueError(f"k is for the asymmetric mode only, not mode {self.mode!r}")
        if self.query_lengths is not None:
            if not len(self.query_lengths):
                raise ValueError("at least one query length is required")
            if any(L < 1 for L in self.query_lengths):
                raise ValueError("query lengths must be >= 1")
        return p

    # -- build --------------------------------------------------------------

    def fit(self, curves):
        """Build the structure over ``curves`` (a sequence of Curve).

        Each curve is added by the step ``insert_curve`` takes (``_add``),
        on a staged index whose grids are sized for the longest curve. The
        staged structure replaces the fitted one only when every curve was
        added: a build that raises leaves the index as it was.
        """
        p = self._validated()
        curves = list(curves)
        if not curves:
            raise ValueError("at least one input curve is required")
        d, longest = curves[0].dim, max(len(c) for c in curves)
        lengths = self._build_lengths(curves, p)
        dict_mode = dictmod.MODE_COUNT if self.mode == "count" else dictmod.MODE_NN
        staged = type(self)(**self.get_params())
        staged._publish(p, d, {}, {L: self._grid_for(L, longest, d, p) for L in lengths},
                        {L: dictmod.make_dictionary(self.backend, dict_mode, out_len=L, d=d)
                         for L in lengths},
                        {}, {"lookups": 0, "candidates": {}, "dict_sizes": {}, "skipped": []})
        t0 = time.perf_counter()
        took = [staged._add(c) for c in curves]
        stats = staged.stats_
        stats["build_seconds"] = time.perf_counter() - t0
        stats["enumerate_seconds"], stats["fold_seconds"] = map(sum, zip(*took))
        self._publish(p, d, staged.registry_, staged.grids_, staged.dicts_,
                      staged.simplifications_, stats)
        return self

    def _publish(self, p, d, registry, grids, dicts, simplifications, stats):
        """Make a built or loaded structure the one this index answers from.
        ``registry`` maps each curve id to its curve, in insertion order."""
        self._p = p
        self._d = d
        self.registry_ = registry
        self.grids_ = grids
        self.dicts_ = dicts
        self.simplifications_ = simplifications
        self.stats_ = stats
        self._results = _Results(self.guarantee)
        self._serves = "count" if self.mode == "count" else "query"

    def _build_lengths(self, curves, p):
        if self.mode == "asym":
            return [self.k]
        if self.query_lengths is not None:
            return sorted(set(self.query_lengths))
        if p == geometry.DFD:
            return sorted({len(c) for c in curves})
        return [max(len(c) for c in curves)]

    def _grid_for(self, L, longest, d, p):
        """Grid for length-L queries over inputs of length at most ``longest``."""
        return gridmod.GridSpec.create(
            self.epsilon, self.r, d, p, pairs=geometry.max_non_redundant_pairs(longest, L))

    def _simplify(self, curves):
        """Split ``curves`` into those that store keys and those that do not.

        Returns the curves that store keys, their k-vertex simplifications
        by id, and the ids of the others, in input order. In the asymmetric
        mode a curve with no k-vertex simplification within 2r has no
        length-k curve within r, so it stores nothing. In the other modes
        every curve stores keys and nothing is simplified.
        """
        if self.mode != "asym":
            return list(curves), {}, []
        kept, simplifications, skipped = [], {}, []
        for c in curves:
            pi = simpmod.simplify_curve(c.points, self.k, self.r, eps=1.0)
            if pi is None:
                skipped.append(c.id)
            else:
                kept.append(c)
                simplifications[c.id] = pi
        return kept, simplifications, skipped

    def _candidates(self, curve, L, grid):
        """The candidate set (``candidates.CandidateSet``) of one input
        curve for length-L queries on ``grid``."""
        req = candmod.CandidateRequest(
            anchor=curve,
            out_len=L,
            enum_radius=(1 + self.epsilon / 2) * self.r,
            grid=grid,
            max_candidates=self.max_candidates,
        )
        return candmod.enumerate_candidates(req)

    def _fold(self, dct, curve_id, keys):
        """Fold a candidate set into ``dct``; in nn/asym mode, how many keys it stored."""
        if self.mode == "count":
            return dct.increment_all(keys)
        return dct.insert_all_first_wins(keys, curve_id)

    def _unfold(self, L, curve):
        """Undo ``_fold`` of ``curve``'s length-L candidate set.

        A counted key loses one count. Otherwise one pass over the set
        releases the keys ``curve`` holds, and the later curves that may
        share them fold their whole sets again, in insertion order, until as
        many keys were stored as were released. The index equals a fresh fit
        of its curves in insertion order (payloads are first-wins), so after
        the release a later curve's set misses released keys only: its fold
        stores exactly those, and each released key goes to the first later
        curve that holds it, or stays removed. Every alignment pairs first
        with first and last with last, and no pair costs more than the whole
        alignment, so a key's ends lie within (1 + eps/2) r of the ends of
        each curve that holds it: a curve can share a key with ``curve`` only
        if its first and last vertices are each within twice that of
        ``curve``'s.
        No re-fold leaves a delete half done: it cannot raise
        ``CapacityExceeded``, as the curve's enumeration already ran under
        this guard, or a stricter one (``load`` resets it to 10^8).
        """
        dct, grid = self.dicts_[L], self.grids_[L]
        keys = self._candidates(curve, L, grid)
        if self.mode == "count":
            dct.decrement_all(keys)
            return
        left = dct.release(keys, curve.id)
        # the slack keeps rounding from dropping a curve at the bound
        reach = 2 * (1 + self.epsilon / 2) * self.r * (1 + 1e-9)
        skipped = set(self.stats_["skipped"])
        for cid in islice(dropwhile(curve.id.__ne__, self.registry_), 1, None):
            if not left:
                break
            c = self.registry_[cid]
            if (cid in skipped or math.dist(c.points[0], curve.points[0]) > reach
                    or math.dist(c.points[-1], curve.points[-1]) > reach):
                continue
            left -= self._fold(dct, cid, self._candidates(c, L, grid))

    # -- queries ------------------------------------------------------------

    def _check_fitted(self):
        if self._serves is None:
            raise RuntimeError("index is not fitted; call fit() first")

    def _refuse(self, method):
        """Raise the error of calling ``method``, which this index does not serve."""
        self._check_fitted()
        if method == "query":
            raise ModeMismatch("query() is for near-neighbor modes; use count()")
        raise ModeMismatch("count() requires the counting mode")

    def _snap(self, Q):
        L = len(Q)
        grid = self.grids_.get(L)
        if grid is None:
            raise UnsupportedLength(
                f"query length {L} not supported (built for {sorted(self.dicts_)})"
            )
        return L, gridmod.snap_curve(Q, grid)

    def query(self, Q):
        """One snap and one dictionary lookup; never a false positive."""
        if self._serves != "query":
            self._refuse("query")
        L, key = self._snap(Q)
        self.stats_["lookups"] += 1
        return self._results[self.dicts_[L].lookup(key)]

    def predict(self, queries):
        return [self.query(Q) for Q in queries]

    def count(self, Q):
        """Stored count at the snapped key; sandwiched between the exact
        counts at radius r and (1 + eps) r."""
        if self._serves != "count":
            self._refuse("count")
        L, key = self._snap(Q)
        self.stats_["lookups"] += 1
        return self.dicts_[L].lookup(key) or 0

    # -- dynamic updates ----------------------------------------------------

    def insert_curve(self, curve):
        """Add one curve: enumerate its candidate sets and fold them in, by
        the step ``fit`` takes for each of its curves (``_add``).

        For finite p, a curve whose alignments with some supported query
        length can have more pairs than the grid was sized for is rejected
        with ``UnsupportedLength``: the grid would not bound its snapping
        error. All candidate sets are enumerated before the index changes,
        so an insert that raises leaves the index as it was.
        """
        self._check_fitted()
        self._check_pair_bound(curve)
        self._add(curve)

    def _add(self, curve):
        """Check, simplify and enumerate ``curve`` for every length, then
        register it and fold its candidate sets in. Nothing changes before
        the last enumeration returns. Returns the seconds spent enumerating
        and folding."""
        if curve.id in self.registry_:
            raise ValueError(f"duplicate curve id {curve.id!r}")
        if curve.dim != self._d:
            raise DimensionMismatch(f"curve {curve.id!r} is {curve.dim}-dim, not {self._d}-dim")
        kept, simplifications, skipped = self._simplify([curve])
        # enumerating makes each candidate set as rows of pool indices;
        # folding includes making its key bytes, which the hash backend does
        t0 = time.perf_counter()
        keys = {L: self._candidates(curve, L, g) for L, g in self.grids_.items()} if kept else {}
        t1 = time.perf_counter()
        self.simplifications_.update(simplifications)
        self.stats_["skipped"] += skipped
        self.registry_[curve.id] = curve
        for L, found in keys.items():
            self._fold(self.dicts_[L], curve.id, found)
        if keys:
            self.stats_["candidates"][curve.id] = {L: len(found) for L, found in keys.items()}
        self._count_entries()
        return t1 - t0, time.perf_counter() - t1

    def _count_entries(self):
        self.stats_["dict_sizes"] = {L: len(dct) for L, dct in self.dicts_.items()}

    def _check_pair_bound(self, curve):
        for L, g in self.grids_.items():
            need = geometry.max_non_redundant_pairs(len(curve), L)
            if g.pairs is not None and need > g.pairs:
                raise UnsupportedLength(
                    f"curve {curve.id!r} of length {len(curve)} has alignments of up "
                    f"to {need} pairs with length-{L} queries; the grid was sized "
                    f"for {g.pairs}"
                )

    def delete_curve(self, curve_id):
        """Remove one curve. In the near-neighbor modes the keys it owned are
        released in one pass over its candidate set; then the later curves
        whose endpoints lie within 2 (1 + eps/2) r of its own fold their sets
        again, until each released key is stored again by the first of them
        that holds it, or none is left (see ``_unfold``)."""
        self._check_fitted()
        curve = self.registry_.get(curve_id)
        if curve is None:
            raise KeyError(f"unknown curve id {curve_id!r}")
        skipped = self.stats_["skipped"]
        if curve_id in skipped:
            skipped.remove(curve_id)  # it stored no keys
        else:
            for L in self.dicts_:
                self._unfold(L, curve)
        del self.registry_[curve_id]
        self._results.pop(curve_id, None)
        self.simplifications_.pop(curve_id, None)
        self.stats_["candidates"].pop(curve_id, None)
        self._count_entries()

    # -- persistence --------------------------------------------------------

    def save(self, path):
        """Write all dictionary blocks plus the input-curve registry."""
        self._check_fitted()
        with open(path, "wb") as f:
            for L in sorted(self.dicts_):
                header = dictmod.DictHeader(
                    mode=self.mode,
                    p=self._p,
                    epsilon=self.epsilon,
                    r=self.r,
                    d=self._d,
                    out_len=L,
                    edge=self.grids_[L].edge,
                )
                dictmod.write_block(f, header, self.dicts_[L])
            f.write(_REGISTRY_MAGIC)
            f.write(struct.pack("<Q", len(self.registry_)))
            for cid, curve in self.registry_.items():
                raw = cid.encode("utf-8")
                f.write(struct.pack("<I", len(raw)) + raw)
                f.write(struct.pack("<II", len(curve), curve.dim))
                f.write(
                    np.ascontiguousarray(curve.points, dtype="<f8").tobytes()
                )

    @classmethod
    def load(cls, path, backend="hash", expect=None):
        """Load a persisted index; ``expect`` may pin epsilon/r/metric."""
        blocks = []
        with open(path, "rb") as f:
            while True:
                peek = f.read(4)
                if len(peek) < 4:
                    raise CorruptFile("missing registry section")
                if peek == _REGISTRY_MAGIC:
                    break
                if peek != dictmod.MAGIC:
                    raise FormatError(f"bad magic {peek!r}")
                f.seek(-4, 1)
                ids = set()  # the block's distinct curve ids
                blocks.append((*dictmod.read_block(f, backend, ids), ids))
            (n,) = struct.unpack("<Q", dictmod._read_exact(f, 8))
            registry = {}
            for _ in range(n):
                (idlen,) = struct.unpack("<I", dictmod._read_exact(f, 4))
                raw = dictmod._read_exact(f, idlen)
                m, d = struct.unpack("<II", dictmod._read_exact(f, 8))
                pts = np.frombuffer(
                    dictmod._read_exact(f, 8 * m * d), dtype="<f8"
                ).reshape(m, d)
                try:
                    cid = raw.decode("utf-8")
                    curve = geometry.Curve(cid, pts)
                except ValueError as exc:  # an id that is not UTF-8, or bad points
                    raise CorruptFile(f"registry curve {len(registry)}: {exc}") from exc
                if cid in registry:
                    raise CorruptFile(f"registry holds {cid!r} twice")
                registry[cid] = curve
        if not blocks:
            raise FormatError("no dictionary blocks in file")
        h0 = blocks[0][0]
        for h, _, _ in blocks[1:]:
            if (h.mode, h.p, h.epsilon, h.r, h.d) != (h0.mode, h0.p, h0.epsilon, h0.r, h0.d):
                raise FormatError("inconsistent block headers")
        if len({h.out_len for h, _, _ in blocks}) < len(blocks):
            raise CorruptFile("two blocks for one query length")
        if h0.mode == dictmod.MODE_ASYM and len(blocks) > 1:
            raise CorruptFile(f"an asymmetric index has one block, not {len(blocks)}")
        if any(curve.dim != h0.d for curve in registry.values()):
            raise CorruptFile(f"a registry curve is not {h0.d}-dim, as the blocks are")
        for h, _, ids in blocks:
            if not ids <= registry.keys():
                raise CorruptFile(f"block for length {h.out_len} holds ids not in the "
                                  f"registry, such as {min(ids - registry.keys())!r}")
        if expect is not None:
            for name, attr in (("epsilon", "epsilon"), ("r", "r")):
                if name in expect and not math.isclose(expect[name], getattr(h0, attr)):
                    raise FormatError(f"index {name}={getattr(h0, attr)} != expected {expect[name]}")
            if "metric" in expect and geometry.parse_metric(expect["metric"]) != h0.p:
                raise FormatError("metric mismatch between index file and request")

        idx = cls(
            epsilon=h0.epsilon,
            r=h0.r,
            metric=h0.p,
            mode=h0.mode,
            k=h0.out_len if h0.mode == dictmod.MODE_ASYM else None,
            backend=backend,
        )
        grids = {}
        dicts = {}
        for h, dct, _ in blocks:
            try:
                grids[h.out_len] = gridmod.GridSpec.from_edge(h.edge, h.epsilon, h.r, h.d, h.p)
            except ValueError as exc:
                raise CorruptFile(f"block for length {h.out_len}: {exc}") from exc
            dicts[h.out_len] = dct
        _, simplifications, skipped = idx._simplify(registry.values())
        idx._publish(
            h0.p, h0.d, registry, grids, dicts,
            simplifications=simplifications,
            stats={
                "lookups": 0,
                "candidates": {},
                "dict_sizes": {L: len(dct) for L, dct in dicts.items()},
                "skipped": skipped,
            },
        )
        if registry:
            # a grid too coarse for the stored curves cannot keep the guarantee
            try:
                idx._check_pair_bound(max(registry.values(), key=len))
            except UnsupportedLength as exc:
                raise FormatError(f"index must be rebuilt: {exc}") from exc
        return idx
