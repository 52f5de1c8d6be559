"""Loader fuzz tests on format version 1.

One small index file per mode (``nn``, ``count``, ``asym``) is loaded on
both backends after damage. A file cut at any offset must fail with
``CorruptFile`` or ``FormatError``. A file with one bit flipped may load,
as version 1 has no checksum to catch an altered entry, or fail with one
of those errors, but must never raise anything else.
"""

import numpy as np
import pytest

from curveann import CurveIndex, geometry
from curveann.errors import FormatError

Curve = geometry.Curve

BACKENDS = ("hash", "trie")
FLIPS = 300  # single-bit flips per file


def _walks(rng, n, m, d):
    return [Curve(f"c{i}", np.cumsum(rng.uniform(-1, 1, size=(m, d)), axis=0))
            for i in range(n)]


def _indexes():
    """The fitted index of each mode, each a few KB when saved."""
    rng = np.random.default_rng(53)
    return {
        "nn": CurveIndex(epsilon=1.0, r=1.0, metric="dfd", query_lengths=[1, 2, 3])
        .fit(_walks(rng, 4, 3, 1)),
        "count": CurveIndex(epsilon=1.0, r=1.0, metric="dtw", mode="count")
        .fit(_walks(rng, 6, 2, 1)),
        "asym": CurveIndex(epsilon=1.0, r=1.0, metric="dfd", mode="asym", k=3)
        .fit(_walks(rng, 4, 4, 1)),
    }


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of each mode's saved file."""
    out = {}
    for mode, idx in _indexes().items():
        path = tmp_path_factory.mktemp("fuzz") / f"{mode}.annc"
        idx.save(path)
        out[mode] = path.read_bytes()
    return out


def _loads(path, data):
    """Write ``data`` to ``path`` and load it on each backend: for each, the
    loaded index or the ``FormatError`` (``CorruptFile`` included) raised."""
    path.write_bytes(data)
    results = []
    for backend in BACKENDS:
        try:
            results.append(CurveIndex.load(path, backend=backend))
        except FormatError as exc:
            results.append(exc)
    return results


@pytest.mark.parametrize("mode", ["nn", "count", "asym"])
def test_a_truncated_file_fails_with_a_typed_error(mode, saved, tmp_path):
    data = saved[mode]
    assert 1000 < len(data) < 8000
    path = tmp_path / "cut.annc"
    for end in range(len(data)):
        for result in _loads(path, data[:end]):
            assert isinstance(result, FormatError), (mode, end)
    assert not any(isinstance(r, FormatError) for r in _loads(path, data))


@pytest.mark.parametrize("mode", ["nn", "count", "asym"])
def test_a_flipped_bit_loads_or_fails_with_a_typed_error(mode, saved, tmp_path):
    data = saved[mode]
    rng = np.random.default_rng([54, len(mode)])
    path = tmp_path / "flipped.annc"
    outcomes = set()
    for bit in rng.choice(8 * len(data), size=FLIPS, replace=False).tolist():
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        # anything but a FormatError propagates and fails the test
        results = _loads(path, bytes(flipped))
        outcomes.update(isinstance(r, FormatError) for r in results)
    # the flips reach both outcomes: some are caught, some load
    assert outcomes == {True, False}
