"""Tuple forms of lattice curve keys, for tests that write keys as literals
or compare them with the brute-force oracle, which works on tuples."""

import numpy as np


def pack(key):
    """The key of a tuple of lattice vertices (tuples of ints): their
    little-endian int64 coordinates, vertex after vertex."""
    return np.asarray(key, dtype="<i8").tobytes()


def unpack(key, d):
    """The tuple of ``d``-dimensional lattice vertices of a key."""
    return tuple(map(tuple, np.frombuffer(key, "<i8").reshape(-1, d).tolist()))


def unpack_all(keys, d):
    """``unpack`` of each key, as a set."""
    return {unpack(key, d) for key in keys}
