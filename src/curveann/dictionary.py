"""Dictionaries over lattice curve keys, with binary persistence.

Two observationally equivalent backends: a hashed map (expected constant
operations) and a prefix tree whose levels follow the curve's vertices in
lexicographic child order (fully deterministic). Keys are tuples of lattice
vertices (tuples of ints); payloads are either a curve id (near-neighbor
mode) or a counter (counting mode).

Index file layout, format version 1, little-endian with no padding: a block
per supported query length L, then the curve registry. A block is the
``_HEADER`` fields (magic ``ANNC``, u16 version, u8 mode: 0 nn, 1 count,
2 asym; f64 p, 0 for p = inf; f64 epsilon, f64 r, u32 d, u32 L, f64 edge), a
u64 entry count and, per entry in lexicographic key order, the L*d int64 key
coordinates and a u64 count (count mode) or a u32 length and a UTF-8 id. The
registry (``CurveIndex.save``) is ``REGY``, a u64 curve count and per curve,
in insertion order, a u32 id length, the UTF-8 id, u32 m, u32 d and the m*d
f64 coordinates.
"""

import struct
from dataclasses import dataclass

from .errors import CorruptFile, FormatError, ModeMismatch

MAGIC = b"ANNC"
FORMAT_VERSION = 1

MODE_NN = "nn"
MODE_COUNT = "count"
MODE_ASYM = "asym"

_MODE_BYTES = {MODE_NN: 0, MODE_COUNT: 1, MODE_ASYM: 2}
_BYTE_MODES = {v: k for k, v in _MODE_BYTES.items()}

_HEADER = struct.Struct("<4sHBdddII d".replace(" ", ""))


def _check_key(key, out_len, d):
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
        if self.d is None and key:
            self.d = len(key[0])

    def insert_first_wins(self, key, curve_id):
        """Insert only if absent; existing payloads are never overwritten."""
        if self.counting:
            raise ModeMismatch("insert_first_wins requires near-neighbor mode")
        self._adopt(key)
        return self._put_if_absent(key, curve_id)

    def increment(self, key):
        """Counting mode: absent -> 1, present -> count + 1."""
        if not self.counting:
            raise ModeMismatch("increment requires counting mode")
        self._adopt(key)
        return self._increment(key)

    def lookup(self, key):
        return self._get(key)

    # internal mutation used by the dynamic index. A batch is the key set
    # of one candidate request, whose keys share one shape: its first key
    # is checked for all of them.

    def insert_all_first_wins(self, keys, curve_id):
        """``insert_first_wins`` for each key of a batch."""
        if self.counting:
            raise ModeMismatch("insert_first_wins requires near-neighbor mode")
        if keys:
            self._adopt(keys[0])
        put = self._put_if_absent
        for key in keys:
            put(key, curve_id)

    def increment_all(self, keys):
        """``increment`` each key of a batch."""
        if not self.counting:
            raise ModeMismatch("increment requires counting mode")
        if keys:
            self._adopt(keys[0])
        inc = self._increment
        for key in keys:
            inc(key)

    def replace(self, key, payload):
        if self._get(key) is None:
            raise KeyError(key)
        self._set(key, payload)


class HashedDictionary(_DictBase):
    """Hash-map backend."""

    def __init__(self, mode=MODE_NN, out_len=None, d=None):
        super().__init__(mode, out_len, d)
        self._map = {}

    def _put_if_absent(self, key, payload):
        if key in self._map:
            return False
        self._map[key] = payload
        return True

    def _get(self, key):
        return self._map.get(key)

    def _set(self, key, payload):
        self._map[key] = payload

    def _increment(self, key):
        new = self._map.get(key, 0) + 1
        self._map[key] = new
        return new

    def decrement(self, key):
        cur = self._map[key]
        if cur <= 1:
            del self._map[key]
            return 0
        self._map[key] = cur - 1
        return cur - 1

    def remove(self, key):
        del self._map[key]

    def __len__(self):
        return len(self._map)

    def items(self):
        """Entries in lexicographic key order."""
        return sorted(self._map.items())


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children = {}
        self.terminal = None


class PrefixTreeDictionary(_DictBase):
    """Prefix-tree backend: one level per curve vertex, ordered children."""

    def __init__(self, mode=MODE_NN, out_len=None, d=None):
        super().__init__(mode, out_len, d)
        self._root = _Node()
        self._size = 0
        self._nodes = 1

    def _walk(self, key, create):
        node = self._root
        for vertex in key:
            child = node.children.get(vertex)
            if child is None:
                if not create:
                    return None
                child = _Node()
                node.children[vertex] = child
                self._nodes += 1
            node = child
        return node

    def _put_if_absent(self, key, payload):
        node = self._walk(key, create=True)
        if node.terminal is not None:
            return False
        node.terminal = payload
        self._size += 1
        return True

    def _get(self, key):
        node = self._walk(key, create=False)
        return None if node is None else node.terminal

    def _set(self, key, payload):
        node = self._walk(key, create=True)
        if node.terminal is None:
            self._size += 1
        node.terminal = payload

    def _increment(self, key):
        node = self._walk(key, create=True)
        if node.terminal is None:
            self._size += 1
            node.terminal = 1
        else:
            node.terminal += 1
        return node.terminal

    def _path(self, key):
        """The nodes from the root to the entry of ``key``; KeyError when
        there is no entry."""
        path = [self._root]
        node = self._root
        for vertex in key:
            node = node.children.get(vertex)
            if node is None:
                raise KeyError(key)
            path.append(node)
        if node.terminal is None:
            raise KeyError(key)
        return path

    def decrement(self, key):
        path = self._path(key)
        node = path[-1]
        if node.terminal <= 1:
            self._unlink(key, path)
            return 0
        node.terminal -= 1
        return node.terminal

    def remove(self, key):
        self._unlink(key, self._path(key))

    def _unlink(self, key, path):
        # drop the entry and the deepest branch that served only this key
        path[-1].terminal = None
        self._size -= 1
        for depth in range(len(key), 0, -1):
            child = path[depth]
            if child.children or child.terminal is not None:
                break
            del path[depth - 1].children[key[depth - 1]]
            self._nodes -= 1

    def __len__(self):
        return self._size

    @property
    def node_count(self):
        return self._nodes

    def items(self):
        """Entries in lexicographic key order (natural traversal order)."""
        out = []

        def rec(node, prefix):
            if node.terminal is not None:
                out.append((tuple(prefix), node.terminal))
            for vertex in sorted(node.children):
                prefix.append(vertex)
                rec(node.children[vertex], prefix)
                prefix.pop()

        rec(self._root, [])
        return out


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


def _read_exact(f, n):
    data = f.read(n)
    if len(data) != n:
        raise CorruptFile("file truncated")
    return data


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
    flat = struct.Struct(f"<{header.out_len * header.d}q")
    for key, payload in items:
        f.write(flat.pack(*(c for vertex in key for c in vertex)))
        if header.mode == MODE_COUNT:
            f.write(struct.pack("<Q", payload))
        else:
            raw = payload.encode("utf-8")
            f.write(struct.pack("<I", len(raw)) + raw)


def read_block(f, backend="hash"):
    """Read one dictionary block; returns (header, dictionary)."""
    raw = _read_exact(f, _HEADER.size)
    magic, version, mode_b, p_enc, epsilon, r, d, out_len, edge = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if mode_b not in _BYTE_MODES:
        raise FormatError(f"unknown mode byte {mode_b}")
    mode = _BYTE_MODES[mode_b]
    p = float("inf") if p_enc == 0.0 else p_enc
    header = DictHeader(mode=mode, p=p, epsilon=epsilon, r=r, d=d, out_len=out_len, edge=edge)
    dict_mode = MODE_COUNT if mode == MODE_COUNT else MODE_NN
    dct = make_dictionary(backend, dict_mode, out_len=out_len, d=d)
    (count,) = struct.unpack("<Q", _read_exact(f, 8))
    flat = struct.Struct(f"<{out_len * d}q")
    for _ in range(count):
        coords = flat.unpack(_read_exact(f, flat.size))
        key = tuple(tuple(coords[i * d : (i + 1) * d]) for i in range(out_len))
        if mode == MODE_COUNT:
            (cnt,) = struct.unpack("<Q", _read_exact(f, 8))
            dct._set(key, cnt)
        else:
            (idlen,) = struct.unpack("<I", _read_exact(f, 4))
            cid = _read_exact(f, idlen).decode("utf-8")
            dct._put_if_absent(key, cid)
    return header, dct


def save(path, header, dct):
    """Persist a single dictionary to ``path``."""
    with open(path, "wb") as f:
        write_block(f, header, dct)


def load(path, backend="hash"):
    """Load a dictionary persisted by :func:`save`."""
    with open(path, "rb") as f:
        return read_block(f, backend)
