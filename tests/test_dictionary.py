import io
import itertools
import struct

import numpy as np
import pytest

from curveann import candidates, dictionary
from curveann.candidates import CandidateSet
from curveann.dictionary import DictHeader, make_dictionary
from curveann.geometry import Curve
from curveann.grid import GridSpec
from curveann.errors import CorruptFile, FormatError, ModeMismatch
from lattice_keys import pack, unpack


def header(mode="nn", out_len=2, d=1, edge=1.0):
    return DictHeader(mode=mode, p=float("inf"), epsilon=1.0, r=1.0, d=d, out_len=out_len, edge=edge)


K1 = pack(((0,), (1,)))
K2 = pack(((1,), (1,)))
K3 = pack(((0,), (-2,)))


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_first_wins(backend):
    dct = make_dictionary(backend, out_len=2, d=1)
    dct.insert_all_first_wins((K1,), "A")
    assert (dct.lookup(K1), len(dct)) == ("A", 1)
    dct.insert_all_first_wins((K1,), "B")
    assert (dct.lookup(K1), len(dct)) == ("A", 1)
    dct.insert_all_first_wins((K2,), "B")
    assert (dct.lookup(K2), len(dct)) == ("B", 2)


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_increment(backend):
    dct = make_dictionary(backend, mode="count", out_len=2, d=1)
    for key, count, size in ((K1, 1, 1), (K1, 2, 1), (K2, 1, 2)):
        dct.increment_all((key,))
        assert (dct.lookup(key), len(dct)) == (count, size)
    assert dct.lookup(K3) is None


def test_mode_mismatch():
    dct = make_dictionary("hash", out_len=2, d=1)
    with pytest.raises(ModeMismatch):
        dct.increment_all((K1,))
    cdct = make_dictionary("trie", mode="count", out_len=2, d=1)
    with pytest.raises(ModeMismatch):
        cdct.insert_all_first_wins((K1,), "A")
    assert len(dct) == len(cdct) == 0


def test_key_length_enforced():
    dct = make_dictionary("hash", out_len=2, d=1)
    dct.insert_all_first_wins((K1,), "A")
    with pytest.raises(ValueError):
        dct.insert_all_first_wins((pack(((0,),)),), "B")
    assert list(dct.items()) == [(K1, "A")]


def test_backends_observationally_equivalent():
    """Identical random workloads give identical lookups on both backends."""
    rng = np.random.default_rng(41)
    for mode in ("nn", "count"):
        a = make_dictionary("hash", mode=mode, out_len=2, d=2)
        b = make_dictionary("trie", mode=mode, out_len=2, d=2)
        keys = [pack(rng.integers(-3, 4, size=(2, 2))) for _ in range(400)]
        for i, key in enumerate(keys):
            for dct in (a, b):
                if mode == "count":
                    dct.increment_all((key,))
                else:
                    dct.insert_all_first_wins((key,), f"c{i}")
            assert (a.lookup(key), len(a)) == (b.lookup(key), len(b))
        assert len(a) == len(b)
        for key in keys:
            assert a.lookup(key) == b.lookup(key)
        assert list(a.items()) == list(b.items())


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_batches_equal_one_key_at_a_time(backend):
    rng = np.random.default_rng(43)
    keys = [pack(rng.integers(-2, 3, size=(2, 1))) for _ in range(60)]
    for mode in ("nn", "count"):
        one, batch = (make_dictionary(backend, mode=mode, out_len=2, d=1) for _ in range(2))
        for i, part in enumerate((keys[:30], keys[30:])):
            if mode == "count":
                for key in part:
                    one.increment_all((key,))
                batch.increment_all(part)
            else:
                for key in part:
                    one.insert_all_first_wins((key,), f"c{i}")
                batch.insert_all_first_wins(part, f"c{i}")
        assert list(batch.items()) == list(one.items())
        assert (batch.out_len, batch.d) == (2, 1)
    counted = make_dictionary(backend, mode="count", out_len=2, d=1)
    counted.increment_all(keys)
    for key in keys:
        counted.decrement_all((key,))
    assert len(counted) == 0
    with pytest.raises(KeyError):
        counted.decrement_all((keys[0],))
    assert len(counted) == 0
    if backend == "trie":
        assert counted.node_count == 1


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_batches_check_the_shape_and_mode(backend):
    counted = make_dictionary(backend, mode="count", out_len=2, d=1)
    with pytest.raises(ValueError):
        counted.increment_all([pack(((0,),)), pack(((1,),))])
    with pytest.raises(ModeMismatch):
        counted.insert_all_first_wins([K1], "A")
    with pytest.raises(ModeMismatch):
        make_dictionary(backend, out_len=2, d=1).increment_all([K1])
    counted.increment_all([])
    assert len(counted) == 0


def four_batches(backend, feed, keys):
    """The entries after each of the four batch calls, each given its keys
    through ``feed``, and what the release returns."""
    nn = make_dictionary(backend, out_len=2, d=1)
    counted = make_dictionary(backend, mode="count", out_len=2, d=1)
    nn.insert_all_first_wins(feed(keys), "a")
    counted.increment_all(feed(keys))
    grown = list(nn.items()), list(counted.items())
    released = nn.release(feed(keys[::3]), "a")
    counted.decrement_all(feed(keys[::3]))
    return grown, released, list(nn.items()), list(counted.items())


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_batches_given_as_one_shot_iterators(backend):
    """Each batch call given a generator of keys, which can be read once,
    leaves what the same call given the list of those keys leaves."""
    rng = np.random.default_rng(44)
    keys = [pack(rng.integers(-2, 3, size=(2, 1))) for _ in range(40)]
    want = four_batches(backend, list, keys)
    assert four_batches(backend, lambda ks: (key for key in ks), keys) == want
    (nn, counted), released, nn_left, counted_left = want
    assert nn and counted and released and len(nn_left) < len(nn)
    assert sum(n for _, n in counted_left) < sum(n for _, n in counted)


def test_trie_node_count_bound():
    rng = np.random.default_rng(42)
    dct = make_dictionary("trie", out_len=3, d=2)
    stored = set()
    for i in range(300):
        key = pack(rng.integers(-2, 3, size=(3, 2)))
        dct.insert_all_first_wins((key,), f"c{i}")
        stored.add(key)
    # root excluded: every stored key contributes at most out_len nodes
    assert dct.node_count - 1 <= 3 * len(stored)


def test_trie_iteration_is_lexicographic():
    dct = make_dictionary("trie", out_len=2, d=1)
    for i, key in enumerate([K2, K3, K1]):
        dct.insert_all_first_wins((key,), f"c{i}")
    keys = [k for k, _ in dct.items()]
    assert keys == sorted(keys, key=lambda key: unpack(key, 1))


def test_trie_remove_unlinks_branches():
    dct = make_dictionary("trie", out_len=2, d=1)
    dct.insert_all_first_wins((K1,), "A")
    dct.insert_all_first_wins((K2,), "B")
    before = dct.node_count
    assert dct.release((K2,), dct.lookup(K2)) == 1
    assert dct.lookup(K2) is None
    assert dct.lookup(K1) == "A"
    assert dct.node_count < before
    after = dct.node_count
    assert dct.release((K2,), "B") == 0
    assert (list(dct.items()), dct.node_count) == ([(K1, "A")], after)


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_release_by_none_leaves_absent_keys(backend):
    """An absent key has no payload, not the payload ``None``: releasing
    it by ``None`` removes nothing, and a stored key is released only by
    its own payload."""
    dct = make_dictionary(backend, out_len=1, d=1)
    key, other = pack(((0,),)), pack(((-2,),))
    assert dct.release((key,), None) == 0
    assert dct.insert_all_first_wins((key, other, key), "A") == 2
    assert dct.release((key, pack(((5,),))), None) == 0
    assert list(dct.items()) == [(other, "A"), (key, "A")]
    assert dct.release((key,), "A") == 1
    assert list(dct.items()) == [(other, "A")] and len(dct) == 1


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_save_load_round_trip(backend, tmp_path):
    dct = make_dictionary(backend, out_len=2, d=1)
    for i, key in enumerate([K1, K2, K3]):
        dct.insert_all_first_wins((key,), f"curve-{i}")
    path = tmp_path / "d.annc"
    dictionary.save(path, header(), dct)
    hdr, loaded = dictionary.load(path, backend=backend)
    assert hdr == header()
    assert list(loaded.items()) == list(dct.items())


def test_save_load_empty(tmp_path):
    dct = make_dictionary("hash", out_len=2, d=1)
    path = tmp_path / "e.annc"
    dictionary.save(path, header(), dct)
    _, loaded = dictionary.load(path)
    assert len(loaded) == 0


def test_count_mode_round_trip(tmp_path):
    dct = make_dictionary("hash", mode="count", out_len=2, d=1)
    dct.increment_all((K1,))
    dct.increment_all((K1,))
    dct.increment_all((K3,))
    path = tmp_path / "c.annc"
    dictionary.save(path, header(mode="count"), dct)
    _, loaded = dictionary.load(path)
    assert loaded.lookup(K1) == 2
    assert loaded.lookup(K3) == 1


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.annc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        dictionary.load(path)


def test_truncated_file_rejected(tmp_path):
    dct = make_dictionary("hash", out_len=2, d=1)
    dct.insert_all_first_wins((K1,), "A")
    path = tmp_path / "t.annc"
    dictionary.save(path, header(), dct)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(CorruptFile):
        dictionary.load(path)


def test_serialized_bytes_identical_across_backends():
    a = make_dictionary("hash", out_len=2, d=1)
    b = make_dictionary("trie", out_len=2, d=1)
    for i, key in enumerate([K3, K1, K2]):
        a.insert_all_first_wins((key,), f"c{i}")
        b.insert_all_first_wins((key,), f"c{i}")
    fa, fb = io.BytesIO(), io.BytesIO()
    dictionary.write_block(fa, header(), a)
    dictionary.write_block(fb, header(), b)
    assert fa.getvalue() == fb.getvalue()


def block_bytes(mode, keys, payloads):
    """A block written from ``keys`` and payloads, through one-key batch
    calls: a count is that many ``increment_all`` calls."""
    dct = make_dictionary("hash", mode=mode, out_len=2, d=1)
    for key, payload in zip(keys, payloads):
        if mode == "count":
            for _ in range(payload):
                dct.increment_all((key,))
        else:
            dct.insert_all_first_wins((key,), payload)
    buf = io.BytesIO()
    dictionary.write_block(buf, header(mode=mode), dct)
    return buf.getvalue()


@pytest.mark.parametrize("chunk", [dictionary._CHUNK, 2])
@pytest.mark.parametrize("fault", ["swapped", "repeated"])
@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_blocks_out_of_key_order_are_rejected(backend, mode, fault, chunk, monkeypatch):
    """Keys must strictly increase, within a chunk and across chunks (with
    2 entries a chunk, the second and third entries are in different
    ones)."""
    monkeypatch.setattr(dictionary, "_CHUNK", chunk)
    payloads = [1, 2, 3] if mode == "count" else ["A", "B", "C"]
    data = block_bytes(mode, [K3, K1, K2], payloads)
    start = dictionary._HEADER.size + 8
    stride = (len(data) - start) // 3
    entries = [data[start + i * stride : start + (i + 1) * stride] for i in range(3)]
    dictionary.read_block(io.BytesIO(data), backend)  # the block as written is fine
    faulty = {
        "swapped": [entries[0], entries[2], entries[1]],
        "repeated": [entries[0], entries[1], entries[1]],
    }[fault]
    with pytest.raises(CorruptFile, match="strictly increasing"):
        dictionary.read_block(io.BytesIO(data[:start] + b"".join(faulty)), backend)


def test_a_zero_count_is_rejected():
    data = bytearray(block_bytes("count", [K3, K1], [1, 2]))
    data[-8:] = bytes(8)
    with pytest.raises(CorruptFile, match="count 0"):
        dictionary.read_block(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("chunk", [1, 3, 7, dictionary._CHUNK])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_blocks_round_trip_a_chunk_at_a_time(backend, chunk, monkeypatch):
    """Ids of several byte lengths, including the empty one and non-ASCII
    ones, make runs of equal-length ids start and stop anywhere in a chunk.
    The loaded dictionary equals one built a key at a time, node for node."""
    monkeypatch.setattr(dictionary, "_CHUNK", chunk)
    rng = np.random.default_rng(44)
    names = ["", "a", "é1", "c10", "curve-4", "x" * 300]
    keys = {pack(rng.integers(-300, 300, size=(3, 2))) for _ in range(150)}
    keys |= {pack(((0, 0), (1, 1), (2, j))) for j in range(40)}  # long shared prefixes
    for mode in ("nn", "count"):
        built = make_dictionary(backend, mode=mode, out_len=3, d=2)
        for key in sorted(keys, key=hash):
            if mode == "count":
                for _ in range(1 + int.from_bytes(key[-8:], "little", signed=True) % 3):
                    built.increment_all((key,))
            else:
                built.insert_all_first_wins((key,), names[int(rng.integers(len(names)))])
        buf = io.BytesIO()
        dictionary.write_block(buf, header(mode=mode, out_len=3, d=2), built)
        buf.seek(0)
        _, loaded = dictionary.read_block(buf, backend)
        assert list(loaded.items()) == list(built.items())
        assert len(loaded) == len(built)
        if backend == "trie":
            assert loaded.node_count == built.node_count
        again = io.BytesIO()
        dictionary.write_block(again, header(mode=mode, out_len=3, d=2), loaded)
        assert again.getvalue() == buf.getvalue()


def named_block(ids):
    """An nn block with key ((i,), (0,)) and id ``ids[i]`` for each i, as
    bytes: the keys are in order, so the ids are too."""
    return block_bytes("nn", [pack(((i,), (0,))) for i in range(len(ids))], ids)


def count_views(monkeypatch):
    """The bytes each ``np.frombuffer`` call views, from now on."""
    views, frombuffer = [], np.frombuffer

    def counted(buffer, dtype=float, count=-1, offset=0):
        out = frombuffer(buffer, dtype, count, offset)
        views.append(out.nbytes)
        return out

    monkeypatch.setattr(np, "frombuffer", counted)
    return views


class CountingReader(io.BytesIO):
    """A stream that counts the bytes its reads return."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_alternating_id_lengths_read_and_view_linear_bytes(backend, monkeypatch):
    """One chunk of one id length, then 4 chunks whose id lengths alternate
    entry by entry. The block round-trips; the reader reads under twice
    the block plus one buffer from a stream that goes on past it, and
    gives back what it read ahead; and its probes view under ``_PROBE + 2``
    times the block's bytes, since a probe starts over once its run ends."""
    monkeypatch.setattr(dictionary, "_CHUNK", 1000)
    ids = ["uniform"] * 1000 + ["x", "y" * 40] * 2000
    data = named_block(ids)
    f = CountingReader(data + bytes(len(data)))
    views = count_views(monkeypatch)
    _, loaded = dictionary.read_block(f, backend)
    assert [cid for _, cid in loaded.items()] == ids
    assert f.tell() == len(data)
    assert f.bytes_read < 2 * len(data) + io.DEFAULT_BUFFER_SIZE, (f.bytes_read, len(data))
    assert sum(views) < (dictionary._PROBE + 2) * len(data), (sum(views), len(data))
    again = io.BytesIO()
    dictionary.write_block(again, header(), loaded)
    assert again.getvalue() == data


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_a_block_of_one_id_length_takes_one_view_per_chunk(backend, monkeypatch):
    """The probe keeps its size from one chunk to the next: after the
    doublings of the first chunk, each chunk of a block whose ids all have
    one length is one view."""
    monkeypatch.setattr(dictionary, "_CHUNK", 1024)
    ids = [f"c{i // 300 % 10}" for i in range(4 * 1024)]
    data = named_block(ids)
    views = count_views(monkeypatch)
    _, loaded = dictionary.read_block(io.BytesIO(data), backend)
    assert [cid for _, cid in loaded.items()] == ids
    doublings = (dictionary._CHUNK // dictionary._PROBE).bit_length() - 1
    assert len(views) <= 4 + doublings, views


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_ids_that_differ_in_their_last_byte_split_into_stretches(backend, monkeypatch):
    """Stretches of equal ids of one length, from 1 to 70 entries long,
    whose ids differ only in their last byte, across chunks of 50: each
    entry gets its own id, and all entries of an id share one str."""
    monkeypatch.setattr(dictionary, "_CHUNK", 50)
    rng = np.random.default_rng(50)
    ids = []
    for size in [1, 1, 3, 70, 1, 2] + rng.integers(1, 20, size=30).tolist():
        ids += [f"curve-{len(ids) % 3}"] * size
    data = named_block(ids)
    _, loaded = dictionary.read_block(io.BytesIO(data), backend)
    got = [cid for _, cid in loaded.items()]
    assert got == ids
    assert len({id(cid) for cid in got}) == len(set(ids)) == 3


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_a_non_utf8_id_inside_a_long_run_is_corrupt(backend):
    """An id that is not UTF-8 in the middle of 3 chunks of one id
    length: the reader sees it, though it decodes only the first id of
    each stretch."""
    ids = ["abc"] * (3 * dictionary._CHUNK)
    data = bytearray(named_block(ids))
    at = data.index(pack(((len(ids) // 2,), (0,))) + struct.pack("<I", 3) + b"abc")
    data[at + 16 + 4 : at + 16 + 7] = b"\xff\xfe\xfd"
    with pytest.raises(CorruptFile, match="UTF-8"):
        dictionary.read_block(io.BytesIO(bytes(data)), backend)


@pytest.mark.parametrize("chunk", [dictionary._CHUNK, 2])
@pytest.mark.parametrize("fault", ["swapped", "repeated"])
@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_extreme_keys_out_of_order_are_rejected(backend, mode, fault, chunk, monkeypatch):
    """Keys at the ends of the int64 range, whose columns each span more
    than one sort key holds, so the reader's sort key ranks them: out of
    order or repeated, within a chunk or across two, they are rejected."""
    monkeypatch.setattr(dictionary, "_CHUNK", chunk)
    low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    keys = [pack(((low,), (5,))), pack(((low,), (high,))), pack(((high,), (low,)))]
    payloads = [1, 2, 3] if mode == "count" else ["A", "B", "C"]
    data = block_bytes(mode, keys, payloads)
    start = dictionary._HEADER.size + 8
    stride = (len(data) - start) // 3
    entries = [data[start + i * stride : start + (i + 1) * stride] for i in range(3)]
    _, dct = dictionary.read_block(io.BytesIO(data), backend)
    assert [key for key, _ in dct.items()] == keys
    faulty = {
        "swapped": [entries[0], entries[2], entries[1]],
        "repeated": [entries[0], entries[1], entries[1]],
    }[fault]
    with pytest.raises(CorruptFile, match="strictly increasing"):
        dictionary.read_block(io.BytesIO(data[:start] + b"".join(faulty)), backend)


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_items_follow_the_integer_order_of_the_coordinates(mode):
    """A key's bytes order differently from its coordinates: -1 packs to
    ff bytes, 256 to 00 01. After random inserts, increments, decrements
    and removes, both backends list the entries of a plain dict model
    sorted by the keys' integer coordinates."""
    rng = np.random.default_rng(46)
    hashed, tree = (make_dictionary(b, mode=mode, out_len=2, d=2) for b in ("hash", "trie"))
    model = {}
    for step in range(600):
        key = pack(rng.integers(-300, 300, size=(2, 2)) * rng.integers(1, 4))
        if model and rng.random() < 0.3:
            key = list(model)[int(rng.integers(len(model)))]
            for dct in (hashed, tree):
                if mode == "count":
                    dct.decrement_all((key,))
                else:
                    dct.release((key,), dct.lookup(key))
            model[key] = model[key] - 1 if mode == "count" else 0
            if not model[key]:
                del model[key]
            continue
        for dct in (hashed, tree):
            if mode == "count":
                dct.increment_all((key,))
            else:
                dct.insert_all_first_wins((key,), f"c{step}")
        model[key] = model.get(key, 0) + 1 if mode == "count" else model.get(key, f"c{step}")
    want = sorted(model.items(), key=lambda entry: unpack(entry[0], 2))
    assert list(hashed.items()) == list(tree.items()) == want
    assert [key for key, _ in want] != sorted(model)  # byte order would differ


_INT64 = np.iinfo(np.int64)


def _coordinates(rng, source, out_len, d, n):
    """``n`` random (out_len, d) keys' coordinates drawn from ``source``."""
    shape = (n, out_len, d)
    if source == "int64":
        return rng.integers(_INT64.min, _INT64.max, size=shape, endpoint=True)
    if source == "snap limit":  # snap_curve's bound
        return rng.integers(-(1 << 62), 1 << 62, size=shape, endpoint=True)
    if source == "2^62 wide":  # each column fits one sort key, two do not
        return rng.integers(-(1 << 61), 1 << 61, size=shape)
    # small values, a few heads shared by many keys
    coords = rng.integers(-300, 300, size=shape)
    coords[:, :-1] = rng.integers(-2, 2, size=(3, out_len - 1, d))[rng.integers(3, size=n)]
    return coords


@pytest.mark.parametrize("source", ["int64", "snap limit", "2^62 wide", "shared heads"])
@pytest.mark.parametrize("out_len, d", [(1, 1), (1, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize("mode", ["nn", "count"])
def test_blocks_list_extreme_keys_in_integer_order(mode, out_len, d, source):
    """Keys anywhere in the int64 range, near snap_curve's 2^62 limit, or
    small with long shared heads: both backends write the same block,
    whose entries are those of a plain dict model sorted by the keys'
    integer coordinates, packed one by one; reading it gives them back."""
    rng = np.random.default_rng(49)
    keys = list(dict.fromkeys(map(pack, _coordinates(rng, source, out_len, d, 300))))
    names = ["", "a", "é1", "curve-10"]
    model = {key: 1 + i % 3 if mode == "count" else names[i % 4] for i, key in enumerate(keys)}
    hdr = header(mode=mode, out_len=out_len, d=d)
    blocks = []
    for backend in ("hash", "trie"):
        dct = make_dictionary(backend, mode=mode, out_len=out_len, d=d)
        for i in rng.permutation(len(keys)):
            key = keys[i]
            if mode == "count":
                for _ in range(model[key]):
                    dct.increment_all((key,))
            else:
                dct.insert_all_first_wins((key,), model[key])
        buf = io.BytesIO()
        dictionary.write_block(buf, hdr, dct)
        blocks.append(buf.getvalue())
    assert blocks[0] == blocks[1]
    want = sorted(model.items(), key=lambda entry: unpack(entry[0], d))
    if mode == "count":
        entries = [key + struct.pack("<Q", count) for key, count in want]
    else:
        entries = [key + struct.pack("<I", len(cid.encode())) + cid.encode() for key, cid in want]
    start = dictionary._HEADER.size
    assert blocks[0][start:] == struct.pack("<Q", len(want)) + b"".join(entries)
    for backend in ("hash", "trie"):
        _, loaded = dictionary.read_block(io.BytesIO(blocks[0]), backend)
        assert list(loaded.items()) == want
        again = io.BytesIO()
        dictionary.write_block(again, hdr, loaded)
        assert again.getvalue() == blocks[0]


def prefixes(keys, d):
    return {key[:j] for key in keys for j in range(8 * d, len(key) + 1, 8 * d)}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("out_len", [1, 2, 3])
@pytest.mark.parametrize("mode", ["nn", "count"])
def test_random_operations_keep_the_backends_equal(mode, out_len, d):
    """Random batches of one key and of several on both backends. A
    one-key ``remove`` is a release of the key by its holder (nn) or a
    decrement as often as its count (count). After each batch the entries
    and the batch's result agree, the trie has one node per distinct key
    prefix (plus its root), and a batch that decrements an absent key
    raises KeyError, or releases nothing, without changing either
    dictionary."""
    rng = np.random.default_rng([45, out_len, d, mode == "count"])
    hashed, tree = (make_dictionary(b, mode=mode, out_len=out_len, d=d) for b in ("hash", "trie"))

    def draw():
        return pack(rng.integers(-2, 2, size=(out_len, d)))

    ops = (["increment", "increment_all", "decrement", "decrement_all", "remove"]
           if mode == "count" else
           ["insert_first_wins", "insert_all_first_wins", "release", "remove"])
    for step in range(300):
        op = ops[int(rng.integers(len(ops)))]
        entries = list(hashed.items())
        stored = [key for key, _ in entries]
        present = op in ("decrement", "remove") and stored and rng.random() < 0.8
        if "_all" in op or op == "release":
            pool = stored if op == "decrement_all" else [draw() for _ in range(4)]
            if op == "release":
                pool += stored
            size = int(rng.integers(0, 5)) if pool else 0
            batch = [pool[int(i)] for i in rng.integers(len(pool) or 1, size=size)]
            if op == "decrement_all":  # no key more often than its count
                batch = [key for i, key in enumerate(batch)
                         if batch[:i].count(key) < hashed.lookup(key)]
            if op == "release" and entries and rng.random() < 0.8:
                owner = entries[int(rng.integers(len(entries)))][1]
            else:
                owner = f"c{step}"
            args = (batch, owner) if op in ("insert_all_first_wins", "release") else (batch,)
        else:  # a batch of one key
            key = stored[int(rng.integers(len(stored)))] if present else draw()
            held = hashed.lookup(key)
            if op == "insert_first_wins":
                op, args = "insert_all_first_wins", ((key,), f"c{step}")
            elif op == "remove" and mode == "nn":  # no entry is held by c{step}
                op, args = "release", ((key,), held or f"c{step}")
            elif op == "remove":
                op, args = "decrement_all", ((key,) * (held or 1),)
            else:
                op, args = f"{op}_all", ((key,),)
        absent = op == "decrement_all" and any(hashed.lookup(key) is None for key in args[0])
        before = list(hashed.items())
        results = []
        for dct in (hashed, tree):
            if absent:
                with pytest.raises(KeyError):
                    getattr(dct, op)(*args)
            else:
                results.append(getattr(dct, op)(*args))
        if absent or results == [0, 0]:
            assert list(hashed.items()) == before
        if op in ("insert_all_first_wins", "release"):  # the entries stored or removed
            assert results[0] == abs(len(hashed) - len(before))
        assert results[:1] == results[1:]
        assert list(tree.items()) == list(hashed.items())
        assert len(tree) == len(hashed) == len(list(hashed.items()))
        assert tree.node_count == 1 + len(prefixes((k for k, _ in tree.items()), d))
    if mode == "count":
        absent = pack(((2,) * d,) * out_len)  # draw() never makes a coordinate 2
        for dct in (hashed, tree):
            before = list(dct.items())
            with pytest.raises(KeyError):
                dct.decrement_all([absent])
            assert list(dct.items()) == before


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_release_is_a_lookup_then_remove_per_key(backend):
    """Random batch inserts and releases in near-neighbor mode. A release
    returns and removes what looking up each key of the batch and removing
    it when ``curve_id`` holds it does, one key at a time, in a twin
    dictionary and in a plain dict. Releasing every key leaves the trie its
    root alone; a counting dictionary refuses a release."""
    rng = np.random.default_rng(47)
    dct, twin = (make_dictionary(backend, out_len=3, d=2) for _ in range(2))
    model = {}
    owners = [f"c{i}" for i in range(4)]

    def draw(n):
        return [pack(rng.integers(-1, 2, size=(3, 2))) for _ in range(n)]

    for step in range(200):
        owner = owners[int(rng.integers(len(owners)))]
        if rng.random() < 0.5:
            batch = draw(int(rng.integers(1, 40)))
            for target in (dct, twin):
                target.insert_all_first_wins(batch, owner)
            for key in batch:
                model.setdefault(key, owner)
            continue
        stored = list(model)
        picks = rng.integers(len(stored) or 1, size=int(rng.integers(0, 40))) if stored else []
        batch = [stored[int(i)] for i in picks] + draw(int(rng.integers(0, 5)))
        rng.shuffle(batch)
        released = set()
        for key in batch:
            if twin.lookup(key) == owner:
                assert twin.release((key,), owner) == 1
                released.add(key)
        want = {key for key in batch if model.get(key) == owner}
        for key in want:
            del model[key]
        before = dict(dct.items())
        assert dct.release(batch, owner) == len(want)
        assert before.keys() - dict(dct.items()).keys() == released == want
        assert list(dct.items()) == list(twin.items())
        assert dict(dct.items()) == model
        assert len(dct) == len(twin) == len(model)
        if backend == "trie":
            assert dct.node_count == twin.node_count == 1 + len(prefixes(model, 2))
    assert model
    everything = [key for key, _ in dct.items()]
    for owner in owners:
        dct.release(everything, owner)
    assert len(dct) == 0 and list(dct.items()) == []
    if backend == "trie":
        assert dct.node_count == 1
    counting = make_dictionary(backend, mode="count", out_len=3, d=2)
    counting.increment_all(everything[:1])
    with pytest.raises(ModeMismatch):
        counting.release(everything[:1], "c0")
    assert list(counting.items()) == [(everything[0], 1)]


@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_lookups_of_keys_of_another_length_miss(backend):
    empty = make_dictionary(backend, out_len=2, d=1)
    assert empty.lookup(K1) is None
    assert make_dictionary(backend, out_len=2, d=1).lookup(K1) is None
    counted = make_dictionary(backend, mode="count", out_len=2, d=1)
    counted.increment_all((K1,))
    nn = make_dictionary(backend, out_len=2, d=1)
    nn.insert_all_first_wins((K1,), "A")
    for key in (K1[:8], K1 + pack(((0,),)), b""):
        assert counted.lookup(key) is None and nn.lookup(key) is None
        # a batch checks its keys' shape before it changes anything
        with pytest.raises(ValueError):
            counted.decrement_all((key,))
        with pytest.raises(ValueError):
            nn.release((key,), "A")
        assert list(counted.items()) == [(K1, 1)] and list(nn.items()) == [(K1, "A")]
        assert len(counted) == len(nn) == 1


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_a_key_of_the_wrong_length_changes_nothing(mode):
    dct = make_dictionary("trie", mode=mode, out_len=2, d=1)
    if mode == "count":
        def insert(key):
            dct.increment_all((key,))
    else:
        def insert(key):
            dct.insert_all_first_wins((key,), "A")
    insert(K1)
    for key in (K1[:8], K1 + pack(((0,),)), b""):
        with pytest.raises(ValueError):
            insert(key)
        assert list(dct.items()) == [(K1, 1 if mode == "count" else "A")]
        assert (len(dct), dct.node_count) == (1, 3)


@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_an_empty_block_of_the_longest_key_shape_sorts_nothing(backend, mode):
    """An empty block may claim any key shape numpy can hold, up to 2^28 - 1
    coordinates at d = 1. Its dictionary lists no entry and is written back
    as it was read, without sorting a column per coordinate."""
    out_len = dictionary._LONGEST_KEY // 8
    data = dictionary._HEADER.pack(dictionary.MAGIC, dictionary.FORMAT_VERSION,
                                   dictionary._MODE_BYTES[mode], 0.0, 1.0, 1.0, 1, out_len, 1.0)
    data += bytes(8)  # no entry
    hdr, dct = dictionary.read_block(io.BytesIO(data), backend)
    assert (hdr.out_len, len(dct)) == (out_len, 0)
    assert list(dct.items()) == []
    out = io.BytesIO()
    dictionary.write_block(out, hdr, dct)
    assert out.getvalue() == data


@pytest.mark.parametrize("mode", ["nn", "count"])
def test_a_one_vertex_trie_empties_to_its_root(mode):
    """With out_len 1 a key's head is empty, so the trie keeps one leaf.
    Batches that fill and then empty twin hash and trie dictionaries agree
    after every step, and the emptied trie is its root alone."""
    rng = np.random.default_rng(48)
    hashed, tree = (make_dictionary(b, mode=mode, out_len=1, d=2) for b in ("hash", "trie"))
    keys = [pack(rng.integers(-3, 4, size=(1, 2))) for _ in range(200)]
    batches = [keys[start : start + 50] for start in range(0, len(keys), 50)]

    def check():
        assert list(tree.items()) == list(hashed.items())
        assert len(tree) == len(hashed)
        assert tree.node_count == 1 + len(tree)

    for i, batch in enumerate(batches):
        for dct in (hashed, tree):
            dct.increment_all(batch) if mode == "count" else dct.insert_all_first_wins(batch, f"c{i}")
        check()
    assert len(tree) > 1
    if mode == "count":
        shuffled = [keys[int(i)] for i in rng.permutation(len(keys))]
        for start in range(0, len(keys), 50):
            for dct in (hashed, tree):
                dct.decrement_all(shuffled[start : start + 50])
            check()
    else:
        for i in reversed(range(len(batches))):
            assert tree.release(keys, f"c{i}") == hashed.release(keys, f"c{i}")
            check()
    assert list(tree.items()) == [] and len(tree) == 0
    assert tree.node_count == 1


# -- batches of candidate sets ------------------------------------------------


def shuffled_lattice(rng, d):
    """The points of {-1, 0, 1}^d in a random order: a pool whose index
    order is not the order of its points."""
    points = np.array(list(itertools.product((-1, 0, 1), repeat=d)), np.int64)
    return points[rng.permutation(len(points))]


def rows_set(rows, pool, out_len):
    """The candidate set of ``rows``, lists of pool indices, over ``pool``."""
    return CandidateSet(pool, np.asarray(rows, np.intp).reshape(-1, out_len), out_len)


def runs_set(rng, pool, out_len):
    """Runs of rows with one head, whose heads may come back later, and
    whose rows may repeat."""
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        head = rng.integers(len(pool), size=out_len - 1).tolist()
        rows += [head + [last] for last in rng.integers(len(pool), size=int(rng.integers(1, 6)))]
    return rows_set(rows, pool, out_len)


def class_set(rng, pool, out_len):
    """A set laid out as a min-max one: the products of sequences of
    disjoint classes of pool vertices, written one after another into one
    array of rows, and the number of those products that are empty. Some
    classes are empty, so some products are."""
    bounds = np.sort(rng.integers(0, len(pool) + 1, size=3))
    classes = np.split(rng.permutation(len(pool)), bounds)
    seqs = [[classes[int(i)] for i in rng.integers(len(classes), size=out_len)]
            for _ in range(int(rng.integers(1, 5)))]
    sizes = [int(np.prod([len(c) for c in seq])) for seq in seqs]
    rows = np.empty((sum(sizes), out_len), np.intp)
    for seq, start, size in zip(seqs, np.cumsum([0] + sizes).tolist(), sizes):
        candidates._product(seq, rows[start : start + size])
    return CandidateSet(pool, rows, out_len), sizes.count(0)


def stored_set(rng, dct, pool, out_len):
    """Keys of ``dct`` in a random order, a key sometimes twice, and now and
    then one that is absent: a set to decrement or release."""
    index = {point.tobytes(): i for i, point in enumerate(pool)}
    size = len(pool[0].tobytes())
    rows = [[index[key[j : j + size]] for j in range(0, len(key), size)] for key, _ in dct.items()]
    picks = [rows[int(i)] for i in rng.integers(len(rows), size=int(rng.integers(0, 8)))] if rows else []
    if rng.random() < 0.3:
        picks.insert(int(rng.integers(len(picks) + 1)), rng.integers(len(pool), size=out_len).tolist())
    return rows_set(picks, pool, out_len)


def apply_both(batch, single, model, op, cands, owner):
    """``op`` on ``batch`` as one batch call, on ``single`` as one one-key
    batch per key of ``cands``, in order, and on ``model``, a plain dict of
    the entries; asserts that the batch gives what the one-key batches
    give, or raises KeyError at the same key."""
    keys = list(cands)
    assert len(keys) == len(cands)
    if op == "insert":
        size = len(model)
        added = batch.insert_all_first_wins(cands, owner)
        for key in keys:
            single.insert_all_first_wins((key,), owner)
            model.setdefault(key, owner)
        assert added == len(model) - size
    elif op == "increment":
        batch.increment_all(cands)
        for key in keys:
            single.increment_all((key,))
            model[key] = model.get(key, 0) + 1
    elif op == "release":
        released = set()
        for key in keys:
            if single.lookup(key) == owner:
                assert single.release((key,), owner) == 1
                released.add(key)
        before = dict(batch.items())
        assert batch.release(cands, owner) == len(released)
        assert (before.keys() - dict(batch.items()).keys() == released
                == {k for k in keys if model.get(k) == owner})
        for key in released:
            del model[key]
    else:
        absent = None
        for key in keys:
            if key not in model:
                absent = key
                break
            single.decrement_all((key,))
            model[key] -= 1
            if not model[key]:
                del model[key]
        if absent is None:
            batch.decrement_all(cands)
        else:
            with pytest.raises(KeyError) as exc:
                batch.decrement_all(cands)
            assert exc.value.args[0] == absent


def check_same(batch, single, model):
    """The entries of ``batch``, ``single`` and ``model`` agree, and a trie
    has one node per distinct prefix of whole vertices of its keys."""
    assert list(batch.items()) == list(single.items())
    assert dict(batch.items()) == model
    assert len(batch) == len(single) == len(model)
    if isinstance(batch, dictionary.PrefixTreeDictionary):
        assert batch.node_count == single.node_count == 1 + len(prefixes(model, batch.d))


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("out_len", [1, 2, 3])
@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_batches_of_candidate_sets_equal_single_key_calls(backend, mode, out_len, d, chunk,
                                                          monkeypatch):
    """Random candidate sets: runs of shared heads that come back later,
    repeated rows, and min-max layouts with empty class products. Each
    batch call leaves the entries, ``len`` and ``node_count`` that one
    one-key batch per key leaves; a release returns what the one-key
    releases took, and a decrement raises KeyError at the same key. With
    ``chunk`` = 2, runs span the chunks a batch reads the set in; with
    ``out_len`` = 1 the head is empty."""
    if chunk is not None:
        monkeypatch.setattr(candidates, "_CHUNK", chunk)
    rng = np.random.default_rng([52, out_len, d, mode == "count", chunk or 0])
    pool = shuffled_lattice(rng, d)
    batch, single = (make_dictionary(backend, mode=mode, out_len=out_len, d=d) for _ in range(2))
    model = {}
    grow, shrink = ("increment", "decrement") if mode == "count" else ("insert", "release")
    empty_products = 0
    for step in range(40):
        owner = f"c{int(rng.integers(3))}"
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                cands = runs_set(rng, pool, out_len)
            else:
                cands, empty = class_set(rng, pool, out_len)
                empty_products += empty
            apply_both(batch, single, model, grow, cands, owner)
        else:
            apply_both(batch, single, model, shrink, stored_set(rng, single, pool, out_len), owner)
        check_same(batch, single, model)
    assert len(batch) and empty_products


@pytest.mark.parametrize("mode", ["nn", "count"])
@pytest.mark.parametrize("backend", ["hash", "trie"])
def test_enumerated_sets_fold_as_single_keys(backend, mode, monkeypatch):
    """Sets made by the finite-p enumerator in steps of 3 pairs and by the
    min-max enumerator, read in chunks of 3 rows, where a finite-p head
    spans two chunks and the min-max set spans more than one, fold, and
    then unfold, as one one-key batch per key does."""
    monkeypatch.setattr(candidates, "_STEP_PAIRS", 3)
    monkeypatch.setattr(candidates, "_CHUNK", 3)
    rng = np.random.default_rng(50)
    sets = []
    for p in (1.0, float("inf")):
        g = GridSpec.create(epsilon=0.5, r=1.0, d=1, p=p, pairs=4)
        for i in range(3):
            anchor = Curve(f"a{i}", rng.uniform(-1, 1, size=(3, 1)))
            req = candidates.CandidateRequest(anchor=anchor, out_len=2, enum_radius=1.25, grid=g)
            sets.append((candidates.enumerate_candidates(req), anchor.id))
    lp, minmax = sets[0][0], sets[3][0]
    chunks = list(lp.chunks())
    assert any((a[-1, :-1] == b[0, :-1]).all() for a, b in zip(chunks, chunks[1:]))
    assert len(list(minmax.chunks())) > 1
    batch, single = (make_dictionary(backend, mode=mode, out_len=2, d=1) for _ in range(2))
    model = {}
    grow, shrink = ("increment", "decrement") if mode == "count" else ("insert", "release")
    for cands, owner in sets:
        apply_both(batch, single, model, grow, cands, owner)
        check_same(batch, single, model)
    assert len(batch)
    for cands, owner in sets:
        apply_both(batch, single, model, shrink, cands, owner)
        check_same(batch, single, model)
    assert len(batch) == 0
