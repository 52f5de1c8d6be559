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
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.mode not in ("nn", "count", "asym"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "asym":
            if p != geometry.DFD:
                raise ValueError("the asymmetric mode is defined for the min-max metric only")
            if self.k is None or self.k < 1:
                raise ValueError("the asymmetric mode requires k >= 1")
        return p

    # -- build --------------------------------------------------------------

    def fit(self, curves):
        """Build the structure over ``curves`` (a sequence of Curve).

        The new structure replaces the fitted one only when the build
        succeeds: a build that raises leaves the index as it was.
        """
        p = self._validated()
        curves = list(curves)
        if not curves:
            raise ValueError("at least one input curve is required")
        dims = {c.dim for c in curves}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed input dimensions {sorted(dims)}")
        ids = [c.id for c in curves]
        if len(set(ids)) != len(ids):
            raise ValueError("curve ids must be unique")
        d = dims.pop()

        lengths = self._build_lengths(curves, p)
        longest = max(len(c) for c in curves)
        grids = {L: self._grid_for(L, longest, d, p) for L in lengths}
        dict_mode = dictmod.MODE_COUNT if self.mode == "count" else dictmod.MODE_NN
        dicts = {
            L: dictmod.make_dictionary(self.backend, dict_mode, out_len=L, d=d)
            for L in lengths
        }
        owners = {L: {} for L in lengths} if dict_mode == dictmod.MODE_NN else None

        t0 = time.perf_counter()
        kept, simplifications, skipped = self._simplify(curves)
        stats = {"lookups": 0, "candidates": {}, "dict_sizes": {}, "skipped": skipped}
        for c in kept:
            for L in lengths:
                keys = self._candidates(c, L, grids[L])
                stats["candidates"].setdefault(c.id, {})[L] = len(keys)
                self._fold(dicts[L], owners and owners[L], c.id, keys)
        for L in lengths:
            stats["dict_sizes"][L] = len(dicts[L])
        stats["build_seconds"] = time.perf_counter() - t0
        self._publish(p, d, {c.id: c for c in curves}, ids, grids, dicts, owners,
                      simplifications, stats)
        return self

    def _publish(self, p, d, registry, order, grids, dicts, owners, simplifications, stats):
        """Make a built or loaded structure the one this index answers from."""
        self._p = p
        self._d = d
        self.registry_ = registry
        self._order = order
        self.grids_ = grids
        self.dicts_ = dicts
        self.owners_ = owners
        self.simplifications_ = simplifications
        self.stats_ = stats
        self._results = _Results(self.guarantee)
        self._serves = "count" if self.mode == "count" else "query"

    def _build_lengths(self, curves, p):
        if self.mode == "asym":
            return [self.k]
        if self.query_lengths is not None:
            lengths = sorted(set(self.query_lengths))
            if any(L < 1 for L in lengths):
                raise ValueError("query lengths must be >= 1")
            return lengths
        if p == geometry.DFD:
            return sorted({len(c) for c in curves})
        return [max(len(c) for c in curves)]

    def _grid_for(self, L, longest, d, p):
        """Grid for length-L queries over inputs of length at most ``longest``."""
        return gridmod.GridSpec.create(
            self.epsilon, self.r, d, p, m_norm=L,
            pairs=geometry.max_non_redundant_pairs(longest, L),
        )

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
        """Candidate keys of one input curve for length-L queries on ``grid``."""
        req = candmod.CandidateRequest(
            anchor=curve,
            out_len=L,
            enum_radius=(1 + self.epsilon / 2) * self.r,
            grid=grid,
            p=grid.p,
            max_candidates=self.max_candidates,
        )
        return candmod.enumerate_candidates(req)

    def _fold(self, dct, owners, curve_id, keys):
        if self.mode == "count":
            for key in keys:
                dct.increment(key)
        else:
            for key in keys:
                dct.insert_first_wins(key, curve_id)
                owners.setdefault(key, []).append(curve_id)

    def _unfold(self, dct, owners, curve_id, keys):
        """Undo ``_fold``: a key that loses its owner passes to the next
        curve, in insertion order, that stored it."""
        if self.mode == "count":
            for key in keys:
                dct.decrement(key)
        else:
            for key in keys:
                lst = owners[key]
                lst.remove(curve_id)
                if not lst:
                    del owners[key]
                    dct.remove(key)
                elif dct.lookup(key) == curve_id:
                    dct.replace(key, lst[0])

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
        """Add one curve: enumerate its candidate sets and fold them in.

        For finite p, a curve whose alignments with some supported query
        length can have more pairs than the grid was sized for is rejected
        with ``UnsupportedLength``: the grid would not bound its snapping
        error. All candidate sets are enumerated before the index changes,
        so an insert that raises leaves the index as it was.
        """
        self._check_fitted()
        if curve.id in self.registry_:
            raise ValueError(f"duplicate curve id {curve.id!r}")
        if curve.dim != self._d:
            raise DimensionMismatch("curve dimension mismatch")
        self._check_pair_bound(curve)
        self._ensure_owners()
        kept, simplifications, skipped = self._simplify([curve])
        keys = {L: self._candidates(curve, L, g) for L, g in self.grids_.items()} if kept else {}
        self.simplifications_.update(simplifications)
        self.stats_["skipped"] += skipped
        self.registry_[curve.id] = curve
        self._order.append(curve.id)
        for L, found in keys.items():
            self._fold(self.dicts_[L], self.owners_ and self.owners_[L], curve.id, found)

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
        """Remove one curve, re-deriving its candidate contributions."""
        self._check_fitted()
        curve = self.registry_.get(curve_id)
        if curve is None:
            raise KeyError(f"unknown curve id {curve_id!r}")
        self._ensure_owners()
        skipped = self.stats_["skipped"]
        if curve_id in skipped:
            skipped.remove(curve_id)  # it stored no keys
        else:
            for L, dct in self.dicts_.items():
                self._unfold(dct, self.owners_ and self.owners_[L], curve_id,
                             self._candidates(curve, L, self.grids_[L]))
        del self.registry_[curve_id]
        self._results.pop(curve_id, None)
        self._order.remove(curve_id)
        self.simplifications_.pop(curve_id, None)

    # -- persistence --------------------------------------------------------

    def save(self, path):
        """Write all dictionary blocks plus the input-curve registry."""
        self._check_fitted()
        mode_name = {
            "nn": dictmod.MODE_NN,
            "count": dictmod.MODE_COUNT,
            "asym": dictmod.MODE_ASYM,
        }[self.mode]
        with open(path, "wb") as f:
            for L in sorted(self.dicts_):
                header = dictmod.DictHeader(
                    mode=mode_name,
                    p=self._p,
                    epsilon=self.epsilon,
                    r=self.r,
                    d=self._d,
                    out_len=L,
                    edge=self.grids_[L].edge,
                )
                dictmod.write_block(f, header, self.dicts_[L])
            f.write(_REGISTRY_MAGIC)
            f.write(struct.pack("<Q", len(self._order)))
            for cid in self._order:
                curve = self.registry_[cid]
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
                blocks.append(dictmod.read_block(f, backend))
            (n,) = struct.unpack("<Q", dictmod._read_exact(f, 8))
            order = []
            registry = {}
            for _ in range(n):
                (idlen,) = struct.unpack("<I", dictmod._read_exact(f, 4))
                cid = dictmod._read_exact(f, idlen).decode("utf-8")
                m, d = struct.unpack("<II", dictmod._read_exact(f, 8))
                pts = np.frombuffer(
                    dictmod._read_exact(f, 8 * m * d), dtype="<f8"
                ).reshape(m, d)
                order.append(cid)
                registry[cid] = geometry.Curve(cid, pts)
        if not blocks:
            raise FormatError("no dictionary blocks in file")
        h0 = blocks[0][0]
        for h, _ in blocks[1:]:
            if (h.mode, h.p, h.epsilon, h.r, h.d) != (h0.mode, h0.p, h0.epsilon, h0.r, h0.d):
                raise FormatError("inconsistent block headers")
        mode = {"nn": "nn", "count": "count", "asym": "asym"}[h0.mode]
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
            mode=mode,
            k=h0.out_len if mode == "asym" else None,
            backend=backend,
        )
        grids = {}
        dicts = {}
        for h, dct in blocks:
            try:
                grids[h.out_len] = gridmod.GridSpec.from_edge(
                    h.edge, h.epsilon, h.r, h.d, h.p,
                    m_norm=h.out_len if h.p != geometry.DFD else 1,
                )
            except ValueError as exc:
                raise CorruptFile(f"block for length {h.out_len}: {exc}") from exc
            dicts[h.out_len] = dct
        idx._publish(
            h0.p, h0.d, registry, order, grids, dicts,
            owners=None if mode == "count" else {L: None for L in dicts},
            simplifications={},
            stats={
                "lookups": 0,
                "candidates": {},
                "dict_sizes": {L: len(dct) for L, dct in dicts.items()},
                "skipped": [],
            },
        )
        if registry:
            # a grid too coarse for the stored curves cannot keep the guarantee
            try:
                idx._check_pair_bound(max(registry.values(), key=len))
            except UnsupportedLength as exc:
                raise FormatError(f"index must be rebuilt: {exc}") from exc
        return idx

    def _ensure_owners(self):
        """Recompute owner lists after a load (needed for deletions)."""
        if self.owners_ is None:
            return
        if all(v is not None for v in self.owners_.values()):
            return
        # a load records no simplifications either: make them here
        kept, self.simplifications_, self.stats_["skipped"] = self._simplify(
            [self.registry_[cid] for cid in self._order])
        for L in self.dicts_:
            owners = {}
            for c in kept:
                for key in self._candidates(c, L, self.grids_[L]):
                    owners.setdefault(key, []).append(c.id)
            self.owners_[L] = owners
