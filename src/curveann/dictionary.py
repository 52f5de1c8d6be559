"""Dictionaries over lattice curve keys, with binary persistence.

Two observationally equivalent backends: a hashed map (expected constant
operations) and a prefix tree of two levels. A key is the ``8 * L * d``
bytes of its vertices' little-endian int64 coordinates, vertex after vertex
(``grid`` module docstring): the bytes a block stores for it. A dictionary
takes its key shape, L vertices of d coordinates, when it is made. Payloads
are either a curve id (near-neighbor mode) or a counter (counting mode).
Both backends keep one map of two levels (``_DictBase``): the root maps a
key's head to a leaf that maps the rest of the key, its tail, to the
payload; both are plain dicts. The tree's head is the bytes of the key's
first L - 1 vertices, so a tail is its last vertex. The hash map's head is
empty, so its one leaf, under ``b""``, maps each whole key. ``items`` and
blocks list the entries in lexicographic order of the keys' coordinates as
integers, which is not the order of their bytes, from one sort of their
rows (``_ordered``); ``items`` makes the key bytes of a chunk of them at a
time.

Each batch call (``insert_all_first_wins``, ``increment_all``,
``decrement_all``, ``release``) takes a ``candidates.CandidateSet``, the
keys of one candidate request as one array of rows of pool indices, or an
iterable of keys, which ``_DictBase._batch`` makes into the set of its
rows. ``insert_all_first_wins`` returns how many keys it stored and
``release`` how many it removed; neither copies a key it stores or frees.
A batch is folded one run of rows that share a head at a time: the run's
head is made as bytes once and its leaf looked up once. The tails of a
chunk of rows are made as one list, and a run's tails are a slice of it.
A hash-map run is a whole chunk of rows, whose keys are made together; a
tree run is the rows whose first L - 1 indices are equal, and its tails
are one shared object per pool vertex of the set, so no key is made per
entry. A count fold counts each run into its leaf in C
(``collections._count_elements``); the nn/asym folds keep a loop per key.

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
from collections import _count_elements
from dataclasses import dataclass
from itertools import chain, islice

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
    """The storage of both backends: a map of two levels. The root maps a
    key's head, its first ``_cut`` bytes, to a leaf, a plain dict that maps
    the rest of the key, its tail, to the payload. Every leaf holds at least
    one entry: a leaf that empties is deleted from the root. A key is the
    ``8 * out_len * d`` bytes of its int64 coordinates (``grid`` module
    docstring); every key of a dictionary has that shape. A backend is
    where it cuts a key, and its own ``_get``."""

    _cut = 0  # the bytes of a head

    def __init__(self, mode=MODE_NN, *, out_len, d):
        if mode not in (MODE_NN, MODE_COUNT):
            raise ValueError(f"unknown mode {mode!r}")
        if out_len < 1 or d < 1:
            raise ValueError(f"bad key shape {out_len} x {d}")
        self.mode = mode
        self.out_len = out_len
        self.d = d
        self._root = {}
        self._size = 0

    @property
    def counting(self):
        return self.mode == MODE_COUNT

    def _require(self, counting, what):
        if self.counting != counting:
            mode = "counting" if counting else "near-neighbor"
            raise ModeMismatch(f"{what} requires {mode} mode")

    def lookup(self, key):
        return self._get(key)

    def __len__(self):
        return self._size

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

    def _runs(self, cands):
        """The runs of a set's keys that share a head, in order, a chunk of
        ``CandidateSet.chunks`` at a time: each run's head as bytes and its
        tails as a list, a slice of one list of the chunk's tails. Heads
        are compared as rows of pool indices. Without a head a run is a
        whole chunk, and its tails are that list. A tail of one vertex is
        one shared object per pool vertex, so no key is made per entry."""
        pool, cut = cands.pool, self._cut // (8 * self.d)  # the head's vertices
        # the key of each pool vertex, when a tail is one vertex
        lasts = np.array(gridmod.keys_of(pool), object) if cut == self.out_len - 1 else None
        for rows in cands.chunks():
            if lasts is None:
                tails = gridmod.keys_of(pool[rows[:, cut:]])
            else:
                tails = lasts.take(rows[:, -1]).tolist()
            if not cut:
                yield b"", tails
                continue
            heads = rows[:, :cut]
            fresh = (heads[1:] != heads[:-1]).any(axis=1)
            bounds = np.flatnonzero(np.concatenate(([True], fresh, [True]))).tolist()
            for head, start, stop in zip(gridmod.keys_of(pool[heads[bounds[:-1]]]),
                                         bounds, bounds[1:]):
                yield head, tails[start:stop]

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

    def _insert_all(self, cands, payload):
        root, added = self._root, 0
        for head, tails in self._runs(cands):
            leaf = root.setdefault(head, {})
            size, put = len(leaf), leaf.setdefault
            for tail in tails:
                put(tail, payload)
            added += len(leaf) - size
        self._size += added
        return added

    def _increment_all(self, cands):
        root, added = self._root, 0
        for head, tails in self._runs(cands):
            leaf = root.setdefault(head, {})
            size = len(leaf)
            _count_elements(leaf, tails)
            added += len(leaf) - size
        self._size += added

    # A batch that removes entries looks up the leaf of each run once, when
    # it reaches the run. A leaf that empties is deleted from the root but
    # stays the run's leaf, which is right: nothing is added during the
    # batch, so every later key of the run is absent, and a later run of
    # the same head finds no leaf.

    def _decrement_all(self, cands):
        root = self._root
        for head, tails in self._runs(cands):
            leaf = root.get(head, {})
            for tail in tails:
                count = leaf.get(tail)
                if count is None:
                    raise KeyError(head + tail)
                if count > 1:
                    leaf[tail] = count - 1
                    continue
                del leaf[tail]
                self._size -= 1
                if not leaf:
                    del root[head]

    def _release(self, cands, curve_id):
        root, removed = self._root, 0
        for head, tails in self._runs(cands):
            leaf = root.get(head, {})
            for tail in tails:
                if leaf.get(tail, _ABSENT) == curve_id:
                    del leaf[tail]
                    removed += 1
                    if not leaf:
                        del root[head]
        self._size -= removed
        return removed

    def _append_sorted(self, rows, payloads):
        """Store a chunk of a block, whose keys are distinct and absent.
        Keys whose head is that of the key before them share its leaf,
        which only the first key of such a run looks up; the last run takes
        the rest of the chunk, so a chunk of one run is one ``update``.
        Behind a head, the chunk's keys share one object per distinct tail."""
        cut, size = self._cut, 8 * self.out_len * self.d
        parts = np.ascontiguousarray(rows).view([("head", f"V{cut}"), ("tail", f"V{size - cut}")])
        head, tails = parts["head"][:, 0], parts["tail"][:, 0].tolist()
        if cut:
            intern = {}.setdefault
            tails = map(intern, tails, tails)
        starts = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1])))
        entries, root = zip(tails, payloads), self._root
        for key, run in zip(head[starts].tolist(), np.diff(starts).tolist() + [None]):
            root.setdefault(key, {}).update(entries if run is None else islice(entries, run))
        self._size += len(payloads)

    def _entries(self):
        """The int64 key rows and the payloads, in one order: the leaves in
        the root's order, each in its own. The tail columns are the leaves'
        keys, and the head columns, if any, the root's heads, each repeated
        once per entry of its leaf; no key is made. Without a head the rows
        are the tails' own array, not a copy."""
        root, count, cut = self._root, self._size, self._cut // 8  # the head's columns
        width, tails = self.out_len * self.d, chain.from_iterable(root.values())
        if cut:
            rows = np.empty((count, width), np.int64)
            sizes = np.fromiter(map(len, root.values()), np.intp, len(root))
            rows[:, :cut] = np.repeat(gridmod.rows_of(root.keys(), cut, len(root)), sizes, axis=0)
            rows[:, cut:] = gridmod.rows_of(tails, width - cut, count)
        else:
            rows = gridmod.rows_of(tails, width, count)
        return rows, list(chain.from_iterable(map(dict.values, root.values())))

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
    """Hash-map backend: the head is empty, so the root's one leaf, under
    ``b""``, maps each whole key to its payload, and a lookup probes it
    with the key as it is."""

    def _get(self, key):
        try:
            return self._root[b""].get(key)
        except KeyError:  # an empty table has no leaf
            return None


class PrefixTreeDictionary(_DictBase):
    """Prefix-tree backend of two levels: a key's head is its first
    ``out_len - 1`` vertices (``b""`` when ``out_len`` is 1), and its tail
    the last vertex, its final ``8 * d`` bytes. A lookup is two probes.
    Tails are shared objects, one per pool vertex of a batch or per
    distinct vertex of a load chunk, so an entry costs no object beyond its
    slot in a leaf."""

    def __init__(self, mode=MODE_NN, *, out_len, d):
        super().__init__(mode, out_len=out_len, d=d)
        self._cut = 8 * d * (out_len - 1)

    def _get(self, key):
        cut = self._cut
        leaf = self._root.get(key[:cut])
        return None if leaf is None else leaf.get(key[cut:])

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
