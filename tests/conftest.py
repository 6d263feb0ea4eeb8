"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's own code paths: the star-relation
root finder works on scalar trigonometry, and the profile counters work on
dense samples of the reconstructed cosine profile.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from qgl.graphs import MetricGraph, load_graph


# ---------------------------------------------------------------------------
# star-relation spectral oracle (single interior vertex graphs)


def star_relation_roots(tail_lengths, loop_lengths, kmax):
    """Roots of sum tan(k l) + 2 sum tan(k l / 2) = 0 in (0, kmax].

    Bisection between consecutive poles; the relation is monotone increasing
    between poles, so every sign-change interval holds exactly one root.
    """
    raw_poles = []
    for l in tail_lengths:
        m = 0
        while (math.pi / 2 + m * math.pi) / l <= kmax + 1:
            raw_poles.append((math.pi / 2 + m * math.pi) / l)
            m += 1
    for l in loop_lengths:
        m = 0
        while (math.pi + 2 * m * math.pi) / l <= kmax + 1:
            raw_poles.append((math.pi + 2 * m * math.pi) / l)
            m += 1
    raw_poles.sort()
    # where two pole conditions coincide, an eigenfunction vanishing at the
    # center exists exactly there; the relation itself has a pole, not a root
    poles, coincident = [], []
    for p in raw_poles:
        if poles and abs(p - poles[-1]) < 1e-9:
            coincident.append(poles[-1])
        else:
            poles.append(p)

    def h(k):
        return (sum(math.tan(k * l) for l in tail_lengths)
                + 2 * sum(math.tan(k * l / 2) for l in loop_lengths))

    roots = []
    pts = [0.0] + poles
    eps = 1e-11
    for a, b in zip(pts, pts[1:]):
        a += eps
        b -= eps
        if a >= b:
            continue
        ha, hb = h(a), h(b)
        if ha * hb > 0:
            continue
        lo, hi, hlo = a, b, ha
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            hm = h(mid)
            if hlo * hm <= 0:
                hi = mid
            else:
                lo, hlo = mid, hm
        r = 0.5 * (lo + hi)
        if r > 1e-9:
            roots.append(r)
    roots.extend(coincident)
    return sorted(r for r in roots if r <= kmax)


# ---------------------------------------------------------------------------
# dense-sampling profile oracles


def edge_profile(graph: MetricGraph, ep, edge: int, samples: int):
    """Dense samples of f and f'/k along an edge, endpoints included.

    Endpoints must be part of the grid: a sign change between an endpoint and
    the first interior sample is the only trace of a root hugging the vertex.
    Exact zeros at the endpoints themselves are stripped by the counters.
    """
    value, derivative = ep.values[2 * edge], ep.derivatives[2 * edge]
    l = graph.lengths[edge]
    x = np.linspace(0.0, l, samples + 2)
    f = value * np.cos(ep.k * x) + derivative * np.sin(ep.k * x)
    df = -value * np.sin(ep.k * x) + derivative * np.cos(ep.k * x)
    return f, df


def _sign_changes(arr: np.ndarray) -> int:
    # values at roundoff scale (e.g. the exactly-flat boundary endpoint) are
    # treated as zeros and stripped, so they cannot fake a crossing
    tiny = 1e-9 * float(np.max(np.abs(arr)))
    s = np.sign(np.where(np.abs(arr) <= tiny, 0.0, arr))
    s = s[s != 0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def count_zeros_sampled(graph, ep, edge, oversample: int = 60) -> int:
    l = graph.lengths[edge]
    n = max(2000, oversample * (int(ep.k * l / np.pi) + 2))
    f, _ = edge_profile(graph, ep, edge, n)
    return _sign_changes(f)


def count_extrema_sampled(graph, ep, edge, oversample: int = 60) -> int:
    l = graph.lengths[edge]
    n = max(2000, oversample * (int(ep.k * l / np.pi) + 2))
    _, df = edge_profile(graph, ep, edge, n)
    return _sign_changes(df)


# ---------------------------------------------------------------------------
# random graph generator (for structural property tests)


def random_multigraph(rng: random.Random, max_edges: int = 7) -> MetricGraph:
    """A random connected multigraph passing validation (no degree-2 vertex)."""
    while True:
        V = rng.randint(1, 5)
        E = rng.randint(2, max_edges)
        edges = []
        for i in range(E):
            u = rng.randrange(V)
            v = rng.randrange(V)
            edges.append((u, v, round(rng.uniform(0.5, 2.0), 3)))
        try:
            return MetricGraph(V, edges)
        except Exception:
            continue


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def star3():
    return load_graph("star3")


@pytest.fixture(scope="session")
def lasso():
    return load_graph("lasso")


@pytest.fixture(scope="session")
def dumbbell():
    return load_graph("dumbbell")


@pytest.fixture(scope="session")
def k4():
    return load_graph("k4")


@pytest.fixture(scope="session")
def tree31():
    return load_graph("tree31_7")
