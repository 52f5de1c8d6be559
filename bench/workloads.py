"""Seeded inputs of the benchmark workloads.

Each workload is a ``CurveIndex`` configuration plus, all drawn from one
seed: the curves given to ``fit``, the curves inserted and the ids deleted
during churn, and one query set that is half near and half far. The far
queries sit next to the churn curves, so they miss before churn and must
hit once those curves are inserted. Curves of different groups lie 100
units apart, far beyond the (1 + eps) r = 1.5 radius, so a query's answer
set is decided by the group it was drawn around.
"""

from dataclasses import dataclass

import numpy as np

from curveann import Curve

SPACING = 100.0


@dataclass
class Workload:
    name: str
    params: dict  # CurveIndex constructor arguments
    curves: list  # given to fit
    extras: list  # inserted during churn, in order
    deletes: list  # ids deleted during churn, in order
    queries: list  # near queries first, then far ones

    @property
    def mode(self):
        return self.params["mode"]


def _unit_vectors(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _in_ball(rng, n, d, radius):
    """n points drawn uniformly from the d-ball of ``radius``."""
    return _unit_vectors(rng, n, d) * radius * rng.uniform(size=(n, 1)) ** (1.0 / d)


def _perturbed(rng, qid, points, radius):
    """A query whose vertices each move by less than ``radius``: under the
    min-max metric it lies within ``radius`` of ``points``."""
    return Curve(qid, points + _in_ball(rng, len(points), points.shape[1], radius))


def _split_queries(rng, n_queries, near_sources, far_sources, radius):
    half = n_queries // 2
    near = [_perturbed(rng, f"qn{j:05d}", near_sources[rng.integers(len(near_sources))], radius)
            for j in range(half)]
    far = [_perturbed(rng, f"qf{j:05d}", far_sources[rng.integers(len(far_sources))], radius)
           for j in range(n_queries - half)]
    return near + far


def count_dtw(seed, n=3, clusters=2, updates=1, n_queries=2000):
    """1-d curves of 4 vertices around shared cluster centres, all of the
    shape 0, 0.4, 0.8, 0.4 (so every curve costs about the same to
    enumerate) at random positions. Members move each vertex by at most
    0.05, so most keys are shared; queries move the centre's vertices by up
    to 0.3, which puts members on both sides of r and (1 + eps) r under
    DTW."""
    rng = np.random.default_rng([seed, 2])
    shape = np.array([[0.0], [0.4], [0.8], [0.4]])
    centres = [g * SPACING + rng.uniform(-1, 1) + shape for g in range(clusters + 1)]

    def member(i, centre):
        return Curve(f"c{i:04d}", centre + rng.uniform(-0.05, 0.05, centre.shape))

    curves = [member(i, centres[i % clusters]) for i in range(n)]
    # churn adds members to a cluster that is empty until then, and then
    # alternately to an existing cluster
    extras = [member(len(curves) + j, centres[j % clusters if j % 2 else clusters])
              for j in range(updates)]
    queries = _split_queries(rng, n_queries, centres[:clusters], centres[clusters:], 0.3)
    return Workload(
        name="count-dtw",
        params=dict(epsilon=0.5, r=1.0, metric="dtw", mode="count", backend="trie"),
        curves=curves,
        extras=extras,
        deletes=[c.id for c in curves[:updates]],
        queries=queries,
    )


def _clustered(rng, cid, origin, n_clusters, m=12):
    """m vertices in n_clusters runs, each jittered within 0.3 of a centre;
    consecutive centres are 4 to 6 apart."""
    steps = _unit_vectors(rng, n_clusters - 1, 2) * rng.uniform(4, 6, (n_clusters - 1, 1))
    centres = np.vstack([origin, origin + np.cumsum(steps, axis=0)])
    sizes = [m // n_clusters + (j < m % n_clusters) for j in range(n_clusters)]
    pts = np.vstack([c + _in_ball(rng, s, 2, 0.3) for c, s in zip(centres, sizes)])
    return Curve(cid, pts), centres


def asym_dfd(seed, n=5, updates=2, n_queries=2000, k=3):
    """Curves of 12 vertices in 3 clusters; every fifth has 4 clusters, so
    no curve of k = 3 vertices is within r of it and the index skips it.
    Near queries are the 3 centres of a kept curve moved by up to 0.3."""
    rng = np.random.default_rng([seed, 3])
    made = [
        _clustered(rng, f"c{i:04d}", np.array([i * SPACING, 0.0]), 4 if i % 5 == 4 else 3)
        for i in range(n + updates)
    ]
    curves = [c for c, _ in made]
    kept_centres = [cs for cs in (cs for _, cs in made[:n]) if len(cs) == k]
    extra_centres = [cs for _, cs in made[n:] if len(cs) == k]
    return Workload(
        name="asym-dfd",
        params=dict(epsilon=0.5, r=1.0, metric="dfd", mode="asym", k=k, backend="hash"),
        curves=curves[:n],
        extras=curves[n:],
        deletes=[c.id for c in curves[:updates]],
        queries=_split_queries(rng, n_queries, kept_centres, extra_centres, 0.3),
    )


WORKLOADS = {"count-dtw": count_dtw, "asym-dfd": asym_dfd}
