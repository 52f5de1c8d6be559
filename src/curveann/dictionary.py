"""Dictionaries over lattice curve keys, with binary persistence.

Two observationally equivalent backends: a hashed map (expected constant
operations) and a prefix tree of two levels. A key is the ``8 * L * d``
bytes of its vertices' little-endian int64 coordinates, vertex after vertex
(``grid`` module docstring): the bytes a block stores for it. A dictionary
takes its key shape, L vertices of d coordinates, when it is made. Payloads
are either a curve id (near-neighbor mode) or a counter (counting mode).
The tree's root maps a key's head, the bytes of its first L - 1 vertices,
to a leaf that maps its last vertex, the final ``8 * d`` bytes, to the
payload; both are plain dicts. ``items`` and blocks list the entries in
lexicographic order of the keys' coordinates as integers, which is not the
order of their bytes, from one sort of their rows (``_ordered``); ``items``
makes the key bytes of a chunk of them at a time.

Each batch call (``insert_all_first_wins``, ``increment_all``,
``decrement_all``, ``release``) takes a ``candidates.CandidateSet``, the
keys of one candidate request as one array of rows of pool indices, or an
iterable of keys, which ``_DictBase._batch`` makes into the set of its
rows. ``insert_all_first_wins`` returns how many keys it stored and
``release`` how many it removed; neither copies a key it stores or frees.
Both backends fold candidate sets only. The hash map folds a set's
key bytes, made a chunk of rows at a time. The tree folds the rows by
head: a run of rows whose first L - 1 indices are equal shares one head,
made as bytes once, and each pool vertex is made as bytes once per set, so
no key is made per entry.

Index file layout, format version 1, little-endian with no padding: a block
per supported query length L, then the curve registry. A block is the
``_HEADER`` fields (magic ``ANNC``, u16 version, u8 mode: 0 nn, 1 count,
2 asym; f64 p, 0 for p = inf; f64 epsilon, f64 r, u32 d, u32 L, f64 edge), a
u64 entry count and, per entry in lexicographic key order, the L*d int64 key
coordinates and a u64 count (count mode) or a u32 length and a UTF-8 id. The
registry (``CurveIndex.save``) is ``REGY``, a u64 curve count and per curve,
in insertion order, a u32 id length, the UTF-8 id, u32 m, u32 d and the m*d
f64 coordinates.

The entries of a block are encoded and decoded ``_CHUNK`` at a time with
numpy, from and to the key bytes held in the dictionary; the bytes are the
same as if they were packed one by one. Writer and reader share one int64
sort key per entry (``_sort_key``): the key's coordinates in mixed radix,
with dense ranks where it would pass 2^62 values. A writer argsorts it. A
reader requires it to increase within a chunk, and each chunk to start
above the last key before it, so keys out of order or repeated are
rejected. It views an nn/asym block in runs of one id length, which have
one stride, and decodes the first id of a stretch of equal ids only.
"""

import io
import struct
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from . import grid as gridmod
from .candidates import CandidateSet
from .errors import CorruptFile, FormatError, ModeMismatch

MAGIC = b"ANNC"
FORMAT_VERSION = 1

MODE_NN = "nn"
MODE_COUNT = "count"
MODE_ASYM = "asym"

_MODE_BYTES = {MODE_NN: 0, MODE_COUNT: 1, MODE_ASYM: 2}
_BYTE_MODES = {v: k for k, v in _MODE_BYTES.items()}

_HEADER = struct.Struct("<4sHBdddII d".replace(" ", ""))

_CHUNK = 1 << 13  # entries decoded or encoded per step
_PROBE = 1 << 6  # entries of an nn/asym block a run's first probe views
# the most bytes of a key: numpy holds no longer record (void dtype V2147483647)
_LONGEST_KEY = (1 << 31) - 1
# the most distinct values one int64 sort key of ``_sort_key`` takes
_SORT_SPAN = 1 << 62
# the payload ``release`` finds at an absent key: equal to no curve id
_ABSENT = object()


def _ranked(values):
    """The dense rank of each of ``values``, and the number of ranks."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, len(distinct)


def _order(rows):
    """The order of distinct int64 rows, compared as integers
    lexicographically: one argsort of their ``_sort_key``. Distinct rows
    get distinct sort keys, so an unstable argsort is enough. No rows, no
    pass over their columns."""
    return np.argsort(_sort_key(rows)) if len(rows) else np.arange(0)


def _sort_key(rows):
    """One int64 per row of a non-empty array of int64 rows, which orders
    and ties as the rows do, compared as integers lexicographically.

    The sort key is the row's columns in mixed radix, a column entering as
    ``col - col.min()`` with the key so far scaled by the column's span. It
    stays below ``_SORT_SPAN``: where a column would take it past, the key
    so far is first replaced by its dense rank (at most one value per row),
    and a column that is still too wide, such as one spanning the whole
    int64 range, enters by its own rank. Ranks keep the order and the ties.
    """
    key, span = np.zeros(len(rows), np.int64), 1
    for col in rows.T:
        low = int(col.min())
        size = int(col.max()) - low + 1
        if span * size > _SORT_SPAN:
            key, span = _ranked(key)
        if span * size > _SORT_SPAN:
            col, size = _ranked(col)
            low = 0
        # in place, with no array per column: int64 arithmetic wraps, so a
        # sum that leaves the int64 range on the way still ends exact
        key *= size
        key += col
        key -= low
        span *= size
    return key


class _DictBase:
    """Shared mode and key-shape bookkeeping for both backends. A key is
    the ``8 * out_len * d`` bytes of its int64 coordinates (``grid`` module
    docstring); every key of a dictionary has that shape."""

    def __init__(self, mode=MODE_NN, *, out_len, d):
        if mode not in (MODE_NN, MODE_COUNT):
            raise ValueError(f"unknown mode {mode!r}")
        if out_len < 1 or d < 1:
            raise ValueError(f"bad key shape {out_len} x {d}")
        self.mode = mode
        self.out_len = out_len
        self.d = d

    @property
    def counting(self):
        return self.mode == MODE_COUNT

    def _require(self, counting, what):
        if self.counting != counting:
            mode = "counting" if counting else "near-neighbor"
            raise ModeMismatch(f"{what} requires {mode} mode")

    def lookup(self, key):
        return self._get(key)

    # batches, the only calls that change a dictionary. A batch is a
    # ``candidates.CandidateSet``, the key set of one candidate request as
    # rows of pool indices, or an iterable of keys, which ``_batch`` makes
    # into a set: the backends fold sets only. A batch folds its keys in
    # its order, so a key it repeats is folded once per time it appears.

    def _batch(self, keys):
        """``keys``, a candidate set or an iterable of keys, as a candidate
        set. An iterable is read once, so a one-shot iterator is a batch
        too. ValueError if its keys have another shape than this
        dictionary's."""
        if isinstance(keys, CandidateSet):
            if (keys.out_len, keys.pool.shape[1]) != (self.out_len, self.d):
                raise ValueError(f"a key of this dictionary has {self.out_len} vertices "
                                 f"of {self.d} coordinates")
            return keys
        keys = list(keys)
        size = 8 * self.out_len * self.d
        for key in keys:
            if not isinstance(key, bytes) or len(key) != size:
                raise ValueError(f"a key of this dictionary is a bytes string of length {size}")
        return CandidateSet.of(keys, self.out_len, self.d)

    def insert_all_first_wins(self, keys, curve_id):
        """Store ``curve_id`` at each key of a batch that is absent; a
        stored payload is never overwritten. Returns how many keys it
        stored."""
        self._require(False, "insert_all_first_wins")
        return self._insert_all(self._batch(keys), curve_id)

    def increment_all(self, keys):
        """Counting mode: add 1 to the count of each key of a batch, an
        absent key taking count 1."""
        self._require(True, "increment_all")
        self._increment_all(self._batch(keys))

    def decrement_all(self, keys):
        """Counting mode: take 1 from the count of each key of a batch,
        removing a key whose count reaches 0. KeyError at the first absent
        key, after the keys before it are decremented."""
        self._require(True, "decrement_all")
        self._decrement_all(self._batch(keys))

    def release(self, keys, curve_id):
        """Remove the keys of a batch whose payload is ``curve_id``, in one
        pass over the batch; returns how many it removed. Keys that are
        absent or held by another curve are left as they are."""
        self._require(False, "release")
        return self._release(self._batch(keys), curve_id)

    def _ordered(self):
        """The entries as int64 key rows and payloads, both in the order the
        backend holds them, and the order of the keys' coordinates, compared
        as integers lexicographically: one argsort of one int64 sort key
        per row (``_order``). An empty dictionary sorts nothing, although
        an empty block read from a file may claim 2^28 - 1 columns."""
        rows, payloads = self._entries()
        return rows, payloads, _order(rows)

    def items(self):
        """An iterator over the entries as (key, payload), in lexicographic
        order of the keys' integer coordinates, sorted when it is called (an
        update after the call does not show in it). It holds the ``_ordered``
        arrays (rows, payloads and order) and one ``_CHUNK``'s keys, but no
        list per entry."""
        rows, payloads, order = self._ordered()
        parts = (order[start : start + _CHUNK] for start in range(0, len(order), _CHUNK))
        return chain.from_iterable(
            zip(gridmod.keys_of(rows[part]), map(payloads.__getitem__, part.tolist()))
            for part in parts)


class HashedDictionary(_DictBase):
    """Hash-map backend: the keys as they are, in one dict. A batch makes
    its keys' bytes a chunk at a time as it folds them
    (``CandidateSet.__iter__``)."""

    def __init__(self, mode=MODE_NN, *, out_len, d):
        super().__init__(mode, out_len=out_len, d=d)
        self._map = {}

    def _get(self, key):
        return self._map.get(key)

    def _insert_all(self, cands, payload):
        stored, size = self._map, len(self._map)
        put = stored.setdefault
        for key in cands:
            put(key, payload)
        return len(stored) - size

    def _increment_all(self, cands):
        stored = self._map
        get = stored.get
        for key in cands:
            stored[key] = get(key, 0) + 1

    def _decrement_all(self, cands):
        stored = self._map
        for key in cands:
            count = stored[key]
            if count > 1:
                stored[key] = count - 1
            else:
                del stored[key]

    def _release(self, cands, curve_id):
        # each key is looked up and deleted in one step, while its slot is
        # still in cache
        stored, size = self._map, len(self._map)
        get = stored.get
        for key in cands:
            if get(key, _ABSENT) == curve_id:
                del stored[key]
        return size - len(stored)

    def _append_sorted(self, rows, payloads):
        """Store a chunk of a block, whose keys are distinct and absent."""
        self._map.update(zip(gridmod.keys_of(rows), payloads))

    def _entries(self):
        """The int64 key rows and the payloads, in one order."""
        rows = gridmod.rows_of(self._map.keys(), self.out_len * self.d, len(self._map))
        return rows, list(self._map.values())

    def __len__(self):
        return len(self._map)


class PrefixTreeDictionary(_DictBase):
    """Prefix-tree backend of two levels.

    The root is a plain dict from a key's head, the bytes of its first
    ``out_len - 1`` vertices (``b""`` when ``out_len`` is 1), to a leaf: a
    plain dict from the key's last vertex, its final ``8 * d`` bytes, to
    the payload. A lookup is two probes. Every leaf holds at least one
    entry: a leaf that empties is deleted from the root. Last vertices are
    shared objects, one per pool vertex of a batch or per distinct vertex
    of a load chunk, so an entry costs no object beyond its slot in a leaf.
    A batch is folded from its rows of pool indices: the keys of a run of
    rows with one head share a leaf, which the run looks up once, and no
    key is made per entry. A block is written from int64 rows read off the
    heads and the leaves' vertices, again with no key made per entry.
    """

    def __init__(self, mode=MODE_NN, *, out_len, d):
        super().__init__(mode, out_len=out_len, d=d)
        self._root = {}
        self._size = 0
        self._cut = 8 * d * (out_len - 1)  # the length of a head

    def _get(self, key):
        cut = self._cut
        leaf = self._root.get(key[:cut])
        return None if leaf is None else leaf.get(key[cut:])

    def _runs(self, cands):
        """The runs of a batch's keys that share a head, a chunk of
        ``CandidateSet.chunks`` at a time: per chunk, the head of each run
        as bytes, the run's length, and the pool index of each key's last
        vertex. Heads are compared as rows of pool indices."""
        pool = cands.pool
        for rows in cands.chunks():
            if not self._cut:
                yield [b""], [len(rows)], rows[:, 0].tolist()
                continue
            heads = rows[:, :-1]
            fresh = (heads[1:] != heads[:-1]).any(axis=1)
            bounds = np.flatnonzero(np.concatenate(([True], fresh, [True])))
            yield (gridmod.keys_of(pool[heads[bounds[:-1]]]), np.diff(bounds).tolist(),
                   rows[:, -1].tolist())

    def _slots(self, cands):
        """The leaf, made if absent, and the last vertex of each key of a
        batch, in order. The keys of the batch share one object per pool
        vertex as their last vertices."""
        root, lasts = self._root, gridmod.keys_of(cands.pool)
        return chain.from_iterable(
            zip(chain.from_iterable(map(repeat, [root.setdefault(h, {}) for h in heads], sizes)),
                map(lasts.__getitem__, ends))
            for heads, sizes, ends in self._runs(cands))

    def _insert_all(self, cands, payload):
        added = 0
        for leaf, last in self._slots(cands):
            if last not in leaf:
                leaf[last] = payload
                added += 1
        self._size += added
        return added

    def _increment_all(self, cands):
        added = 0
        for leaf, last in self._slots(cands):
            count = leaf.get(last)
            if count is None:
                leaf[last] = 1
                added += 1
            else:
                leaf[last] = count + 1
        self._size += added

    # A batch that removes entries looks up the leaf of each run of keys
    # that share a head once, when it reaches the run. A leaf that empties
    # is deleted from the root but stays the run's leaf, which is right:
    # nothing is added during the batch, so every later key of the run is
    # absent, and a later run of the same head finds no leaf.

    def _run_leaves(self, cands):
        """Each run of a batch's keys that share a head: the head, its leaf
        (an empty dict if absent) and the run's last vertices."""
        root, lasts = self._root, gridmod.keys_of(cands.pool)
        for heads, sizes, ends in self._runs(cands):
            ends = map(lasts.__getitem__, ends)
            for head, size in zip(heads, sizes):
                yield head, root.get(head, {}), islice(ends, size)

    def _decrement_all(self, cands):
        root = self._root
        for head, leaf, lasts in self._run_leaves(cands):
            for last in lasts:
                count = leaf.get(last)
                if count is None:
                    raise KeyError(head + last)
                if count > 1:
                    leaf[last] = count - 1
                    continue
                del leaf[last]
                self._size -= 1
                if not leaf:
                    del root[head]

    def _release(self, cands, curve_id):
        root, removed = self._root, 0
        for head, leaf, lasts in self._run_leaves(cands):
            for last in lasts:
                if leaf.get(last, _ABSENT) == curve_id:
                    del leaf[last]
                    removed += 1
                    if not leaf:
                        del root[head]
        self._size -= removed
        return removed

    def _append_sorted(self, rows, payloads):
        """Store a chunk of a block, whose keys are distinct and absent.
        Keys whose head is that of the key before them share its leaf,
        which only the first key of such a run looks up, and the chunk's
        keys share one object per distinct last vertex."""
        rows = np.ascontiguousarray(rows)
        parts = rows.view([("head", f"V{self._cut}"), ("last", f"V{8 * self.d}")])[:, 0]
        head = parts["head"]
        starts = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1])))
        root = self._root
        leaves = [root.setdefault(key, {}) for key in head[starts].tolist()]
        sizes = np.diff(starts, append=len(rows)).tolist()
        intern = {}.setdefault
        for leaf, last, payload in zip(chain.from_iterable(map(repeat, leaves, sizes)),
                                       parts["last"].tolist(), payloads):
            leaf[intern(last, last)] = payload
        self._size += len(payloads)

    def _entries(self):
        """The int64 key rows and the payloads, in one order: the leaves in
        the root's order, each in its own. The head columns are the root's
        heads, each repeated once per entry of its leaf, and the last
        columns the leaves' vertices; no key is made."""
        root, count = self._root, self._size
        rows = np.empty((count, self.out_len * self.d), np.int64)
        cut = self._cut // 8  # the head's columns
        if cut:
            sizes = np.fromiter(map(len, root.values()), np.intp, len(root))
            rows[:, :cut] = np.repeat(gridmod.rows_of(root.keys(), cut, len(root)), sizes, axis=0)
        rows[:, cut:] = gridmod.rows_of(chain.from_iterable(root.values()), self.d, count)
        return rows, list(chain.from_iterable(map(dict.values, root.values())))

    def __len__(self):
        return self._size

    @property
    def node_count(self):
        """1 plus the number of distinct non-empty prefixes of the stored
        keys: the nodes of a trie with one node per prefix. The prefixes of
        whole vertices shorter than a key are prefixes of the heads."""
        size, cut = 8 * self.d, self._cut
        inner = {head[:end] for head in self._root for end in range(size, cut + 1, size)}
        return 1 + len(inner) + self._size


def make_dictionary(backend, mode=MODE_NN, *, out_len, d):
    """An empty dictionary of ``backend``, for keys of ``out_len`` vertices
    of ``d`` coordinates."""
    if backend == "hash":
        return HashedDictionary(mode, out_len=out_len, d=d)
    if backend == "trie":
        return PrefixTreeDictionary(mode, out_len=out_len, d=d)
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class DictHeader:
    """Grid/structure parameters persisted alongside the entries."""

    mode: str
    p: float  # inf encoded as 0 on disk
    epsilon: float
    r: float
    d: int
    out_len: int
    edge: float


def _remaining(f):
    """The number of bytes between the position of ``f`` and its end."""
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_exact(f, n):
    """The next ``n`` bytes of ``f``; CorruptFile when fewer remain. A read
    longer than one buffer is refused before it is made if the file is too
    short, so a corrupt length field cannot ask for gigabytes."""
    if n > io.DEFAULT_BUFFER_SIZE and n > _remaining(f):
        raise CorruptFile("file truncated")
    data = f.read(n)
    if len(data) != n:
        raise CorruptFile("file truncated")
    return data


def _counted(width):
    """The layout of a count-mode entry whose key has ``width`` coordinates."""
    return np.dtype([("key", "<i8", (width,)), ("count", "<u8")])


def write_block(f, header, dct):
    """Write one dictionary block (header + entries) to a binary stream.

    Entries are written in lexicographic key order, so identical contents
    always produce identical bytes regardless of backend.
    """
    if (header.out_len, header.d) != (dct.out_len, dct.d):
        raise ValueError("the header's key shape is not the dictionary's")
    p_enc = 0.0 if header.p == float("inf") else header.p
    f.write(
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            _MODE_BYTES[header.mode],
            p_enc,
            header.epsilon,
            header.r,
            header.d,
            header.out_len,
            header.edge,
        )
    )
    rows, payloads, order = dct._ordered()
    f.write(struct.pack("<Q", len(order)))
    width = header.out_len * header.d
    if header.mode == MODE_COUNT:
        counts = np.array(payloads, dtype="<u8")
        for start in range(0, len(order), _CHUNK):
            part = order[start : start + _CHUNK]
            entries = np.empty(len(part), _counted(width))
            entries["key"] = rows[part]
            entries["count"] = counts[part]
            f.write(entries.tobytes())
        return
    # each distinct id is coded once; an entry takes its id by number
    ids = list(dict.fromkeys(payloads))
    number = {cid: i for i, cid in enumerate(ids)}
    codes = np.fromiter(map(number.__getitem__, payloads), np.intp, len(payloads))
    raws = [cid.encode("utf-8") for cid in ids]
    lengths = np.array([len(raw) for raw in raws], dtype="<u4")
    longest = int(lengths.max(initial=0))
    padded = np.array(raws, dtype=f"V{longest}")  # zero-padded to the longest
    layout = np.dtype([("key", "<i8", (width,)), ("n", "<u4"), ("id", f"V{longest}")])
    # entries with shorter ids are cut out of their padded rows by a mask
    sizes = None if (lengths == longest).all() else 8 * width + 4 + lengths
    step = max(1, min(_CHUNK, _CHUNK * 64 // layout.itemsize))
    for start in range(0, len(order), step):
        part = order[start : start + step]
        which = codes[part]
        entries = np.empty(len(part), layout)
        entries["key"] = rows[part]
        entries["n"] = lengths[which]
        entries["id"] = padded[which]
        if sizes is not None:
            padded_rows = entries.view(np.uint8).reshape(len(part), layout.itemsize)
            entries = padded_rows[np.arange(layout.itemsize) < sizes[which][:, None]]
        f.write(entries.tobytes())


def read_block(f, backend="hash", ids=None):
    """Read one dictionary block; returns (header, dictionary).

    Raises CorruptFile when the key shape is empty or longer than numpy
    can hold as one record, the block overruns the file, an id is not
    UTF-8, a count is 0 or the keys do not strictly increase. ``ids``, if
    given, is a set to which the block's distinct curve ids are added.
    """
    raw = _read_exact(f, _HEADER.size)
    magic, version, mode_b, p_enc, epsilon, r, d, out_len, edge = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if mode_b not in _BYTE_MODES:
        raise FormatError(f"unknown mode byte {mode_b}")
    if d < 1 or out_len < 1 or 8 * out_len * d > _LONGEST_KEY:
        raise CorruptFile(f"bad key shape {out_len} x {d}")
    mode = _BYTE_MODES[mode_b]
    p = float("inf") if p_enc == 0.0 else p_enc
    header = DictHeader(mode=mode, p=p, epsilon=epsilon, r=r, d=d, out_len=out_len, edge=edge)
    counting = mode == MODE_COUNT
    (count,) = struct.unpack("<Q", _read_exact(f, 8))
    width = out_len * d
    if count * (8 * width + (8 if counting else 4)) > _remaining(f):
        raise CorruptFile("file truncated")
    dct = make_dictionary(backend, MODE_COUNT if counting else MODE_NN, out_len=out_len, d=d)
    names = {}  # the block's id table: the bytes of each distinct id -> its str
    chunks = _counted_chunks(f, count, width) if counting else _named_chunks(f, count, width, names)
    last = None  # the final key of the previous chunk
    for rows, payloads in chunks:
        last = _check_increasing(rows, last)
        dct._append_sorted(rows, payloads)
    if ids is not None:
        ids.update(names.values())
    return header, dct


def _counted_chunks(f, count, width):
    """The entries of a count-mode block, ``_CHUNK`` at a time, as (key
    rows, counts)."""
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        layout = _counted(width)
        entries = np.frombuffer(_read_exact(f, n * layout.itemsize), layout)
        if not entries["count"].all():
            raise CorruptFile("an entry with count 0")
        yield entries["key"], entries["count"].tolist()


def _named_chunks(f, count, width, names):
    """The entries of an nn/asym block, up to ``_CHUNK`` at a time, as (key
    rows, curve ids); ``names`` is the block's id table, which this fills.

    Entries whose ids have one byte length n have the fixed stride
    ``8 * width + 4 + n``, so a probe views many of them at once: a run
    ends at the first length field that differs from n, where the next run
    starts. A probe views ``_PROBE`` entries, twice as many each time the
    run outlasts it, also into the next chunk, and ``_PROBE`` again once
    the run ends: a block read stays linear in its size, and a block of
    one id length takes one view per chunk.
    """
    key_size = 8 * width
    end = f.tell() + _remaining(f)
    layouts = {}  # id length -> the layout of an entry
    buf, pos = b"", 0  # bytes read ahead, and where the next entry starts in them
    probe = _PROBE
    for start in range(0, count, _CHUNK):
        want = min(_CHUNK, count - start)
        keys, ids = [], []
        while want:
            buf, pos = _ahead(f, buf, pos, key_size + 4, end)
            n = int.from_bytes(buf[pos + key_size : pos + key_size + 4], "little")
            # the entry must fit in the file; a head cut short fails here too
            if key_size + 4 + n > len(buf) - pos + end - f.tell():
                raise CorruptFile("file truncated")
            if n not in layouts:
                layouts[n] = np.dtype([("key", "<i8", (width,)), ("n", "<u4"), ("id", f"V{n}")])
            layout = layouts[n]
            buf, pos = _ahead(f, buf, pos, min(want, probe) * layout.itemsize, end)
            k = min(want, probe, (len(buf) - pos) // layout.itemsize)
            entries = np.frombuffer(buf, layout, k, pos)
            # the first length field is n: argmax is 0 only if none differs
            run = int((entries["n"] != n).argmax()) or k
            probe = min(2 * probe, _CHUNK) if run == k else _PROBE
            keys.append(entries["key"][:run])
            _decode_ids(entries["id"][:run], names, ids)
            pos += run * layout.itemsize
            want -= run
        yield np.concatenate(keys), ids
    f.seek(pos - len(buf), io.SEEK_CUR)  # give back what was read ahead


def _ahead(f, buf, pos, size, end):
    """``buf[pos:]`` extended from ``f`` to ``size`` bytes, or to ``end``
    if the file is shorter, and the position it starts at. A read takes at
    least one buffer's worth, so short runs do not each read."""
    if len(buf) - pos >= size:
        return buf, pos
    more = max(size - (len(buf) - pos), io.DEFAULT_BUFFER_SIZE)
    return buf[pos:] + f.read(min(more, end - f.tell())), 0


def _decode_ids(raw, names, out):
    """Append to ``out`` the curve id of each of ``raw``, the id bytes of a
    run of entries: one compare of each id with the one before finds the
    stretches of equal ids, and only the first id of a stretch is looked up
    in ``names``, the block's id table. An id new to the table is decoded,
    so all entries of one id share one str."""
    starts = np.flatnonzero(np.concatenate(([True], raw[1:] != raw[:-1])))
    for first, size in zip(raw[starts].tolist(), np.diff(starts, append=len(raw)).tolist()):
        name = names.get(first)
        if name is None:
            try:
                name = names[first] = first.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptFile(f"curve id is not UTF-8: {exc}") from exc
        out += [name] * size


def _check_increasing(rows, last):
    """Raise CorruptFile unless the keys of a chunk's int64 rows strictly
    increase, from ``last``, the final key of the previous chunk as a tuple
    of ints (None at the start of a block); returns the chunk's final key
    so. Within the chunk, their sort keys (``_sort_key``) must increase."""
    key = _sort_key(rows)
    if (key[1:] <= key[:-1]).any() or (last is not None and tuple(rows[0].tolist()) <= last):
        raise CorruptFile("block keys are not strictly increasing")
    return tuple(rows[-1].tolist())


def save(path, header, dct):
    """Persist a single dictionary to ``path``."""
    with open(path, "wb") as f:
        write_block(f, header, dct)


def load(path, backend="hash"):
    """Load a dictionary persisted by :func:`save`."""
    with open(path, "rb") as f:
        return read_block(f, backend)
