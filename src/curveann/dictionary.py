"""Dictionaries over lattice curve keys, with binary persistence.

Two observationally equivalent backends: a hashed map (expected constant
operations) and a prefix tree whose levels follow the curve's vertices in
lexicographic child order (fully deterministic). Keys are tuples of lattice
vertices (tuples of ints), all of one length per dictionary; payloads are
either a curve id (near-neighbor mode) or a counter (counting mode). The
tree is nested plain dicts: each level maps a vertex to the dict of the
next, and the last level maps it to the payload.

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
numpy; the bytes are the same as if they were packed one by one, so the
layout above holds unchanged. Keys must strictly increase within a block: a
reader rejects a block with keys out of order or repeated.
"""

import io
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

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
_RUN = 1 << 10  # the most entries of one run of an nn/asym block decoded at once


def _check_key(key, out_len, d):
    if not key:
        raise ValueError("a key has at least one vertex")
    if out_len is not None and len(key) != out_len:
        raise ValueError(f"key length {len(key)} != dictionary length {out_len}")
    if d is not None and any(len(v) != d for v in key):
        raise ValueError("key vertex dimension mismatch")


class _DictBase:
    """Shared mode/length bookkeeping for both backends."""

    def __init__(self, mode=MODE_NN, out_len=None, d=None):
        if mode not in (MODE_NN, MODE_COUNT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.out_len = out_len
        self.d = d

    @property
    def counting(self):
        return self.mode == MODE_COUNT

    def _adopt(self, key):
        _check_key(key, self.out_len, self.d)
        if self.out_len is None:
            self.out_len = len(key)
        if self.d is None:
            self.d = len(key[0])

    def insert_first_wins(self, key, curve_id):
        """Insert only if absent; existing payloads are never overwritten."""
        before = len(self)
        self.insert_all_first_wins((key,), curve_id)
        return len(self) > before

    def increment(self, key):
        """Counting mode: absent -> 1, present -> count + 1."""
        self.increment_all((key,))
        return self._get(key)

    def decrement(self, key):
        """Counting mode: count -> count - 1, removing the key at 0; returns
        the new count. KeyError, changing nothing, when the key is absent."""
        self.decrement_all((key,))
        return self._get(key) or 0

    def lookup(self, key):
        return self._get(key)

    # batches, used by the dynamic index. A batch is the key set of one
    # candidate request, whose keys share one shape: its first key is
    # checked for all of them. Every key of a dictionary has the length
    # ``out_len`` (at least 1), which the trie's layout relies on: its
    # nodes are nested dicts down to the last level, where a vertex maps
    # to the payload.

    def insert_all_first_wins(self, keys, curve_id):
        """``insert_first_wins`` for each key of a batch."""
        if self.counting:
            raise ModeMismatch("insert_first_wins requires near-neighbor mode")
        if keys:
            self._adopt(keys[0])
        self._insert_all(keys, curve_id)

    def increment_all(self, keys):
        """``increment`` each key of a batch."""
        if not self.counting:
            raise ModeMismatch("increment requires counting mode")
        if keys:
            self._adopt(keys[0])
        self._increment_all(keys)

    def decrement_all(self, keys):
        """``decrement`` each key of a batch; KeyError at the first absent
        key, after the keys before it are decremented."""
        if not self.counting:
            raise ModeMismatch("decrement requires counting mode")
        self._decrement_all(keys)

    def replace(self, key, payload):
        if self._get(key) is None:
            raise KeyError(key)
        self._set(key, payload)


class HashedDictionary(_DictBase):
    """Hash-map backend."""

    def __init__(self, mode=MODE_NN, out_len=None, d=None):
        super().__init__(mode, out_len, d)
        self._map = {}

    def _get(self, key):
        return self._map.get(key)

    def _set(self, key, payload):
        self._map[key] = payload

    def _insert_all(self, keys, payload):
        put = self._map.setdefault
        for key in keys:
            put(key, payload)

    def _increment_all(self, keys):
        stored = self._map
        get = stored.get
        for key in keys:
            stored[key] = get(key, 0) + 1

    def _decrement_all(self, keys):
        stored = self._map
        for key in keys:
            count = stored[key]
            if count > 1:
                stored[key] = count - 1
            else:
                del stored[key]

    def remove(self, key):
        del self._map[key]

    def _append_sorted(self, keys, shared, payloads):
        """Store a chunk of a block, whose keys are distinct and absent."""
        self._map.update(zip(keys, payloads))

    def __len__(self):
        return len(self._map)

    def items(self):
        """Entries in lexicographic key order."""
        return sorted(self._map.items())


class PrefixTreeDictionary(_DictBase):
    """Prefix-tree backend: one level per curve vertex, ordered children.

    A node is a plain dict from a vertex to the node below it; at the last
    level the vertex maps to the payload itself. Every key has ``out_len``
    vertices, so no inner node holds a payload, and an entry costs no
    object beyond its slot in a last-level dict.
    """

    def __init__(self, mode=MODE_NN, out_len=None, d=None):
        super().__init__(mode, out_len, d)
        self._root = {}
        self._size = 0

    def _get(self, key):
        if len(key) != self.out_len:
            return None
        node = self._root
        for vertex in key:
            node = node.get(vertex)
            if node is None:
                return None
        return node

    def _set(self, key, payload):
        node = self._root
        for vertex in key[:-1]:
            node = node.setdefault(vertex, {})
        if key[-1] not in node:
            self._size += 1
        node[key[-1]] = payload

    # A candidate set lists the keys of one prefix one after another, so
    # the batch loops walk again only when a key's first out_len - 1
    # vertices differ from the previous key's.

    def _insert_all(self, keys, payload):
        root = self._root
        added = 0
        head = None
        for key in keys:
            if key[:-1] != head:
                head = key[:-1]
                node = root
                for vertex in head:
                    child = node.get(vertex)
                    if child is None:
                        child = node[vertex] = {}
                    node = child
            last = key[-1]
            if last not in node:
                node[last] = payload
                added += 1
        self._size += added

    def _increment_all(self, keys):
        root = self._root
        added = 0
        head = None
        for key in keys:
            if key[:-1] != head:
                head = key[:-1]
                node = root
                for vertex in head:
                    child = node.get(vertex)
                    if child is None:
                        child = node[vertex] = {}
                    node = child
            last = key[-1]
            count = node.get(last)
            if count is None:
                node[last] = 1
                added += 1
            else:
                node[last] = count + 1
        self._size += added

    def _fork(self, key):
        """``key``'s last-level node, and the deepest node on its path with
        another entry (the root if there is none) with the vertex below it:
        deleting that vertex drops the entry and the nodes that served only
        it. KeyError when there is no entry."""
        if len(key) != self.out_len:
            raise KeyError(key)
        node = fork = self._root
        below = key[0]
        for vertex in key:
            if len(node) > 1:
                fork, below = node, vertex
            leaf = node
            node = node.get(vertex)
            if node is None:
                raise KeyError(key)
        return leaf, fork, below

    def _decrement_all(self, keys):
        fork_of = self._fork
        for key in keys:
            leaf, fork, below = fork_of(key)
            count = leaf[key[-1]]
            if count > 1:
                leaf[key[-1]] = count - 1
            else:
                del fork[below]
                self._size -= 1

    def remove(self, key):
        _, fork, below = self._fork(key)
        del fork[below]
        self._size -= 1

    def _append_sorted(self, keys, shared, payloads):
        """Store a chunk of a block: ``keys`` strictly increase and follow
        every stored key, and key i has its first ``shared[i]`` vertices in
        common with the key before it. Only the vertices after those get
        new nodes."""
        if not keys:
            return
        last = self.out_len - 1
        path = [self._root]  # the nodes along the previous key
        for vertex in keys[0][: shared[0]]:
            path.append(path[-1][vertex])
        path += [None] * (last - shared[0])
        for key, depth, payload in zip(keys, shared, payloads):
            while depth < last:
                child = path[depth + 1] = {}
                path[depth][key[depth]] = child
                depth += 1
            path[last][key[last]] = payload
        self._size += len(keys)

    def __len__(self):
        return self._size

    @property
    def node_count(self):
        """1 plus the number of distinct non-empty prefixes of the stored
        keys: the nodes of a trie with one node per prefix."""
        count, level = 1, [self._root]
        for depth in range(self.out_len or 0):
            count += sum(map(len, level))
            if depth + 1 < self.out_len:
                level = [child for node in level for child in node.values()]
        return count

    def items(self):
        """Entries in lexicographic key order (natural traversal order)."""
        out = []
        _collect(self._root, (), self.out_len, out)
        return out


def _collect(node, prefix, levels, out):
    """Append the entries under ``node``, whose keys start with ``prefix``
    and have ``levels`` more vertices, to ``out`` in key order. A module
    function, not a closure, so that no reference cycle keeps ``out`` alive
    after ``items`` returns."""
    if levels == 1:
        out.extend([(prefix + (vertex,), node[vertex]) for vertex in sorted(node)])
        return
    for vertex in sorted(node):
        _collect(node[vertex], prefix + (vertex,), levels - 1, out)


def make_dictionary(backend, mode=MODE_NN, out_len=None, d=None):
    if backend == "hash":
        return HashedDictionary(mode, out_len, d)
    if backend == "trie":
        return PrefixTreeDictionary(mode, out_len, d)
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
    items = dct.items()
    f.write(struct.pack("<Q", len(items)))
    width = header.out_len * header.d
    pieces = {}  # curve id -> its u32 length and UTF-8 bytes
    for start in range(0, len(items), _CHUNK):
        keys, payloads = zip(*items[start : start + _CHUNK])
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(keys)), "<i8",
                           len(keys) * width)
        if header.mode == MODE_COUNT:
            entries = np.empty(len(keys), _counted(width))
            entries["key"] = flat.reshape(len(keys), width)
            entries["count"] = payloads
            f.write(entries.tobytes())
            continue
        for cid in set(payloads).difference(pieces):
            raw = cid.encode("utf-8")
            pieces[cid] = struct.pack("<I", len(raw)) + raw
        rows = flat.view(f"V{8 * width}").tolist()
        f.write(b"".join(chain.from_iterable(zip(rows, map(pieces.__getitem__, payloads)))))


def read_block(f, backend="hash"):
    """Read one dictionary block; returns (header, dictionary).

    Raises CorruptFile when the block overruns the file, an id is not UTF-8,
    a count is 0 or the keys do not strictly increase.
    """
    raw = _read_exact(f, _HEADER.size)
    magic, version, mode_b, p_enc, epsilon, r, d, out_len, edge = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if mode_b not in _BYTE_MODES:
        raise FormatError(f"unknown mode byte {mode_b}")
    if d < 1 or out_len < 1:
        raise CorruptFile(f"bad key shape {out_len} x {d}")
    mode = _BYTE_MODES[mode_b]
    p = float("inf") if p_enc == 0.0 else p_enc
    header = DictHeader(mode=mode, p=p, epsilon=epsilon, r=r, d=d, out_len=out_len, edge=edge)
    counting = mode == MODE_COUNT
    dct = make_dictionary(backend, MODE_COUNT if counting else MODE_NN, out_len=out_len, d=d)
    (count,) = struct.unpack("<Q", _read_exact(f, 8))
    width = out_len * d
    if count * (8 * width + (8 if counting else 4)) > _remaining(f):
        raise CorruptFile("file truncated")
    chunks = _counted_chunks(f, count, width) if counting else _named_chunks(f, count, width)
    last = None  # the final key of the previous chunk
    for rows, payloads in chunks:
        keys, shared = _keys(rows, last, out_len, d)
        dct._append_sorted(keys, shared, payloads)
        last = rows[-1].copy()
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


def _named_chunks(f, count, width):
    """The entries of an nn/asym block, up to ``_CHUNK`` at a time, as (key
    rows, curve ids).

    Entries whose ids have one byte length n have the fixed stride
    ``8 * width + 4 + n``, so up to ``_RUN`` of them are decoded at once: a
    run ends at the first length field that differs from n, where the next
    run starts.
    """
    key_size = 8 * width
    end = f.tell() + _remaining(f)
    layouts = {}  # id length -> the layout of an entry
    buf, pos = b"", 0  # bytes read ahead, and where the next entry starts in them
    for start in range(0, count, _CHUNK):
        want = min(_CHUNK, count - start)
        runs = []  # (id length, entries) per run of the chunk
        got = 0
        while got < want:
            buf, pos = _ahead(f, buf, pos, key_size + 4, end)
            n = int.from_bytes(buf[pos + key_size : pos + key_size + 4], "little")
            # the entry must fit in the file; a head cut short fails here too
            if key_size + 4 + n > len(buf) - pos + end - f.tell():
                raise CorruptFile("file truncated")
            if n not in layouts:
                layouts[n] = np.dtype([("key", "<i8", (width,)), ("n", "<u4"), ("id", f"V{n}")])
            layout = layouts[n]
            buf, pos = _ahead(f, buf, pos, min(want - got, _RUN) * layout.itemsize, end)
            k = min(want - got, _RUN, (len(buf) - pos) // layout.itemsize)
            entries = np.frombuffer(buf, layout, k, pos)
            # the first length field is n: argmax is 0 only if none differs
            run = int((entries["n"] != n).argmax()) or k
            runs.append((n, entries[:run]))
            pos += run * layout.itemsize
            got += run
        yield np.concatenate([entries["key"] for _, entries in runs]), _curve_ids(runs)
    f.seek(pos - len(buf), io.SEEK_CUR)  # give back what was read ahead


def _ahead(f, buf, pos, size, end):
    """``buf[pos:]`` extended from ``f`` to ``size`` bytes, or to ``end``
    if the file is shorter, and the position it starts at. A read takes at
    least one buffer's worth, so short runs do not each read."""
    if len(buf) - pos >= size:
        return buf, pos
    more = max(size - (len(buf) - pos), io.DEFAULT_BUFFER_SIZE)
    return buf[pos:] + f.read(min(more, end - f.tell())), 0


def _curve_ids(runs):
    """The ids of a chunk's runs, in entry order; each distinct id is
    decoded once."""
    lengths = np.repeat([n for n, _ in runs], [len(entries) for _, entries in runs])
    out = np.empty(len(lengths), dtype=object)
    for n in {n for n, _ in runs}:
        ids, which = np.unique(np.concatenate([e["id"] for m, e in runs if m == n]),
                               return_inverse=True)
        try:
            names = [raw.decode("utf-8") for raw in ids.tolist()]
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"curve id is not UTF-8: {exc}") from exc
        out[lengths == n] = np.array(names, dtype=object)[which]
    return out.tolist()


def _keys(rows, last, out_len, d):
    """The key tuples of a chunk's int64 rows, and for each key how many
    leading vertices it shares with the key before it, which for the first
    row is ``last`` (None at the start of a block). Raises CorruptFile
    unless the keys strictly increase."""
    before = rows[:-1] if last is None else np.vstack((last, rows[:-1]))
    after = rows[1:] if last is None else rows
    differ = after != before
    first = differ.argmax(axis=1)  # the first coordinate that differs
    i = np.arange(len(first))
    if not (differ[i, first] & (after[i, first] > before[i, first])).all():
        raise CorruptFile("block keys are not strictly increasing")
    shared = (first // d).tolist()
    if last is None:
        shared.insert(0, 0)
    cube = rows.reshape(len(rows), out_len, d)
    keys = list(zip(*[_vertex_column(cube[:, j, :]) for j in range(out_len)]))
    return keys, shared


def _vertex_column(col):
    """The vertices of one key position across a chunk, as tuples: one
    tuple object per distinct vertex, which the keys share."""
    order = np.lexsort(col.T[::-1])
    ranked = col[order]
    new = np.ones(len(col), bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(col), np.int64)
    which[order] = np.cumsum(new) - 1
    distinct = list(zip(*ranked[new].T.tolist()))
    return map(distinct.__getitem__, which.tolist())


def save(path, header, dct):
    """Persist a single dictionary to ``path``."""
    with open(path, "wb") as f:
        write_block(f, header, dct)


def load(path, backend="hash"):
    """Load a dictionary persisted by :func:`save`."""
    with open(path, "rb") as f:
        return read_block(f, backend)
