"""Arithmetic of the end-to-end figures."""

import math
import os


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) of ``values``, interpolating
    linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trimmed_mean(values, share=0.1):
    """Mean of ``values`` without the lowest and the highest ``share`` of
    them (rounded down). Over samples taken while the machine switches
    between a faster and a slower speed it follows the mix of the two,
    where a median jumps to whichever holds the majority."""
    xs = sorted(values)
    if not xs:
        raise ValueError("mean of no values")
    cut = int(len(xs) * share)
    return math.fsum(xs[cut : len(xs) - cut]) / (len(xs) - 2 * cut)


def tail_percentile(values, q=99):
    """``percentile(values, q)``, refusing a sample too small to leave at
    least ten values beyond it."""
    if len(values) * (100 - q) / 100.0 < 10:
        raise ValueError(f"{len(values)} samples leave fewer than 10 beyond p{q}")
    return percentile(values, q)


def entries(idx):
    """Dictionary entries of an index, over all its query lengths."""
    return sum(len(d) for d in idx.dicts_.values())


def bytes_per_entry(path, n_entries):
    """Size of the index file at ``path`` per dictionary entry."""
    return os.path.getsize(path) / n_entries


def rss_mb():
    """Resident memory of this process now, in MB."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
