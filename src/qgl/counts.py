"""Closed-form nodal and Neumann counts.

Counts are computed from vertex trace data and the torus point only; no
profile sampling happens here (a dense-sampling oracle lives in the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolated, NotGeneric
from .graphs import MetricGraph
from .spectrum import Eigenpair

TWO_PI = 2.0 * np.pi

# torus coordinates this close to 0 or pi make the parity branch ambiguous
BRANCH_TOL = 1e-9


@dataclass
class CountRecord:
    n: int
    k: float
    phi: int        # interior zeros of the eigenfunction
    mu: int         # interior critical points
    sigma: int      # nodal surplus, phi - n
    omega: int      # neumann surplus, mu - n


def _endpoint_traces(graph: MetricGraph, ep: Eigenpair, edge: int):
    e = graph.edges[edge]
    t_tail = ep.trace_at(e.tail, 2 * edge)
    t_head = ep.trace_at(e.head, 2 * edge + 1)
    return t_tail, t_head


def nodal_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int,
                     value_tol: float = 1e-6) -> int:
    t_tail, t_head = _endpoint_traces(graph, ep, edge)
    if abs(t_tail.value) < value_tol or abs(t_head.value) < value_tol:
        raise NotGeneric(f"edge {edge}: endpoint value within {value_tol} of 0")
    product = t_tail.value * t_head.value
    kl = ep.k * graph.lengths[edge]
    r0 = kl % TWO_PI
    base = 2 * int(np.floor(kl / TWO_PI))
    if product < 0:
        return base + 1
    if min(r0, abs(r0 - np.pi), TWO_PI - r0) < BRANCH_TOL:
        raise NotGeneric(f"edge {edge}: torus coordinate {r0} on a branch cut")
    return base if r0 < np.pi else base + 2


def neumann_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int,
                       derivative_tol: float = 1e-6) -> int:
    e = graph.edges[edge]
    boundary = set(graph.topology.boundary)
    kl = ep.k * graph.lengths[edge]
    if e.tail in boundary or e.head in boundary:
        # tail edge: the cosine is pinned flat at the boundary vertex
        return int(np.floor(kl / np.pi))
    t_tail, t_head = _endpoint_traces(graph, ep, edge)
    if abs(t_tail.derivative) < derivative_tol or abs(t_head.derivative) < derivative_tol:
        raise NotGeneric(f"edge {edge}: endpoint derivative within {derivative_tol} of 0")
    product = t_tail.derivative * t_head.derivative
    r0 = kl % TWO_PI
    base = 2 * int(np.floor(kl / TWO_PI))
    if product > 0:
        return base + 1
    if min(r0, abs(r0 - np.pi), TWO_PI - r0) < BRANCH_TOL:
        raise NotGeneric(f"edge {edge}: torus coordinate {r0} on a branch cut")
    return base if r0 < np.pi else base + 2


def vertex_sign_sum(graph: MetricGraph, ep: Eigenpair) -> int:
    """Sum over interior vertices and incident directed edges of
    sign(f(v) * outgoing derivative)."""
    interior = set(graph.topology.interior)
    total = 0
    for t in ep.trace:
        if t.vertex in interior:
            s = np.sign(t.value * t.derivative)
            if s == 0:
                raise NotGeneric(
                    f"vertex {t.vertex}, directed edge {t.directed_edge}: "
                    "zero value or derivative")
            total += int(s)
    return total


def counts(graph: MetricGraph, ep: Eigenpair) -> CountRecord:
    if ep.flags is not None and not ep.flags.generic:
        raise NotGeneric(f"eigenpair n={ep.n} is not generic")
    phi = sum(nodal_count_edge(graph, ep, i) for i in range(graph.E))
    mu = sum(neumann_count_edge(graph, ep, i) for i in range(graph.E))
    topo = graph.topology
    rec = CountRecord(n=ep.n, k=ep.k, phi=phi, mu=mu,
                      sigma=phi - ep.n, omega=mu - ep.n)
    # hard range checks; violations would falsify the computation
    beta = topo.betti
    nb = len(topo.boundary)
    if not 0 <= rec.sigma <= beta:
        raise IdentityViolated(f"nodal surplus outside [0, {beta}]: {rec}")
    if not 1 - beta - nb <= rec.omega <= 2 * beta - 1:
        raise IdentityViolated(
            f"neumann surplus outside [{1 - beta - nb}, {2 * beta - 1}]: {rec}")
    # difference identity through vertex signs (integer arithmetic)
    if 2 * (phi - mu) != nb - vertex_sign_sum(graph, ep):
        raise IdentityViolated(f"2(phi - mu) != boundary - vertex signs: {rec}")
    return rec
