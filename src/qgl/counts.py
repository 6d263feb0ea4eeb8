"""Closed-form nodal and Neumann counts.

Counts are computed from vertex trace data and the torus point only; no
profile sampling happens here (a dense-sampling oracle lives in the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolated, NotGeneric
from .graphs import MetricGraph
from .secular import TWO_PI
from .spectrum import TRACE_FLOOR, Eigenpair

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


def nodal_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int) -> int:
    # directed edge 2i leaves the tail of edge i, 2i + 1 its head
    tail, head = ep.values[2 * edge], ep.values[2 * edge + 1]
    if abs(tail) < TRACE_FLOOR or abs(head) < TRACE_FLOOR:
        raise NotGeneric(f"edge {edge}: endpoint value within {TRACE_FLOOR} of 0")
    product = tail * head
    kl = ep.k * graph.lengths[edge]
    r0 = kl % TWO_PI
    base = 2 * int(np.floor(kl / TWO_PI))
    if product < 0:
        return base + 1
    if min(r0, abs(r0 - np.pi), TWO_PI - r0) < BRANCH_TOL:
        raise NotGeneric(f"edge {edge}: torus coordinate {r0} on a branch cut")
    return base if r0 < np.pi else base + 2


def neumann_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int) -> int:
    e = graph.edges[edge]
    boundary = set(graph.topology.boundary)
    kl = ep.k * graph.lengths[edge]
    if e.tail in boundary or e.head in boundary:
        # tail edge: the cosine is pinned flat at the boundary vertex
        return int(np.floor(kl / np.pi))
    tail, head = ep.derivatives[2 * edge], ep.derivatives[2 * edge + 1]
    if abs(tail) < TRACE_FLOOR or abs(head) < TRACE_FLOOR:
        raise NotGeneric(f"edge {edge}: endpoint derivative within {TRACE_FLOOR} of 0")
    product = tail * head
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
    dirs = [d for v in graph.topology.interior for d in graph.outgoing[v]]
    signs = np.sign(ep.values[dirs] * ep.derivatives[dirs])
    if not np.all(signs):
        d = dirs[int(np.argmin(np.abs(signs)))]
        raise NotGeneric(f"vertex {graph.tail_of(d)}, directed edge {d}: "
                         "zero value or derivative")
    return int(np.sum(signs))


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
