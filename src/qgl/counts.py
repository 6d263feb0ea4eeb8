"""Closed-form nodal and Neumann counts.

Counts are computed from vertex trace data and the torus point only; no
profile sampling happens here (a dense-sampling oracle lives in the tests).
Every rule reads the columns of a `spectrum.Eigenpairs` block elementwise
over (eigenpair, edge); the one-eigenpair functions are its block of one.

Genericity is decided once, by `spectrum.classify_batch`, with thresholds
never below TRACE_FLOOR; the counts take it as given.  An eigenpair passed in
unclassified raises NotGeneric when an endpoint trace lies below the floor or
a vertex sign is zero.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import IdentityViolated, NotGeneric
from .graphs import MetricGraph
from .secular import TWO_PI
from .spectrum import TRACE_FLOOR, Eigenpair, Eigenpairs


class Counts(NamedTuple):
    """The counts of a batch of eigenpairs, one entry per eigenpair."""
    n: np.ndarray
    k: np.ndarray
    phi: np.ndarray     # interior zeros of the eigenfunction
    mu: np.ndarray      # interior critical points
    sigma: np.ndarray   # nodal surplus, phi - n
    omega: np.ndarray   # neumann surplus, mu - n

    def record(self, i: int) -> "Counts":
        """The counts of eigenpair i, as Python scalars."""
        return Counts(*(x[i].item() for x in self))


def _edges(graph: MetricGraph, edges: Sequence[int] | None) -> np.ndarray:
    return np.arange(graph.E) if edges is None else np.asarray(edges, dtype=int)


def _endpoint_traces(eps: Eigenpairs, name: str, edges: np.ndarray,
                     what: str) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) traces on each edge; NotGeneric naming the first
    eigenpair with one below TRACE_FLOOR."""
    # directed edge 2i leaves the tail of edge i, 2i + 1 its head
    trace = getattr(eps, name)
    tail, head = trace[:, 2 * edges], trace[:, 2 * edges + 1]
    low = (np.abs(tail) < TRACE_FLOOR) | (np.abs(head) < TRACE_FLOOR)
    if np.any(low):
        i, j = np.argwhere(low)[0]
        raise NotGeneric(f"{eps.label(i)}: edge {edges[j]}: endpoint {what} "
                         f"within {TRACE_FLOOR} of 0")
    return tail, head


def _parity_rule(kl: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """2 floor(kl / 2pi) + 1 where the endpoint signs make the count odd, or
    else 2 floor(kl / 2pi), plus 2 when kl mod 2pi lies past pi.

    Across kl mod 2pi = 0 the even count is continuous (floor drops by one
    where the remainder jumps past pi).  At pi it jumps, but behind the
    floor guard no even count comes near it: for a unit amplitude vector
    with tail value A and scaled tail derivative B (|A|, |B| <= 2), an even
    nodal parity at kl mod 2pi = pi + eps needs |A| <= |B| |tan eps|, so
    |tan eps| >= TRACE_FLOOR / 2; the Neumann rule swaps A and B."""
    r0 = kl % TWO_PI
    base = 2 * np.floor(kl / TWO_PI).astype(int)
    return np.where(odd, base + 1, np.where(r0 < np.pi, base, base + 2))


def _kl(graph: MetricGraph, eps: Eigenpairs, edges: np.ndarray) -> np.ndarray:
    return eps.k[:, None] * np.asarray(graph.lengths)[edges]


def nodal_counts(graph: MetricGraph, eps: Eigenpairs,
                 edges: Sequence[int] | None = None) -> np.ndarray:
    """Interior zeros per (eigenpair, edge), over every edge by default."""
    edges = _edges(graph, edges)
    tail, head = _endpoint_traces(eps, "values", edges, "value")
    return _parity_rule(_kl(graph, eps, edges), tail * head < 0)


def neumann_counts(graph: MetricGraph, eps: Eigenpairs,
                   edges: Sequence[int] | None = None) -> np.ndarray:
    """Interior critical points per (eigenpair, edge), over every edge by
    default."""
    edges = _edges(graph, edges)
    kl = _kl(graph, eps, edges)
    # an edge ending at a boundary vertex: the cosine is pinned flat there
    out = np.floor(kl / np.pi).astype(int)
    boundary = set(graph.topology.boundary)
    free = np.array([graph.edges[i].tail not in boundary
                     and graph.edges[i].head not in boundary for i in edges], dtype=bool)
    if np.any(free):
        tail, head = _endpoint_traces(eps, "derivatives", edges[free], "derivative")
        out[:, free] = _parity_rule(kl[:, free], tail * head > 0)
    return out


def vertex_sign_sums(graph: MetricGraph, eps: Eigenpairs) -> np.ndarray:
    """Per eigenpair, the sum over interior vertices and incident directed
    edges of sign(f(v) * outgoing derivative)."""
    dirs = [d for v in graph.topology.interior for d in graph.outgoing[v]]
    signs = np.sign(eps.values[:, dirs] * eps.derivatives[:, dirs])
    zero = signs == 0
    if np.any(zero):
        i, j = np.argwhere(zero)[0]
        raise NotGeneric(f"{eps.label(i)}: vertex {graph.tail_of(dirs[j])}, "
                         f"directed edge {dirs[j]}: zero value or derivative")
    return np.sum(signs, axis=1).astype(int)


def counts_batch(graph: MetricGraph, eps: Eigenpairs) -> Counts:
    """The counts of each eigenpair of a block, with the surplus ranges and
    the difference identity checked row by row; errors name the eigenpair."""
    n = eps.n
    phi = np.sum(nodal_counts(graph, eps), axis=1)
    mu = np.sum(neumann_counts(graph, eps), axis=1)
    c = Counts(n=n, k=eps.k, phi=phi, mu=mu, sigma=phi - n, omega=mu - n)
    # hard range checks; violations would falsify the computation
    topo = graph.topology
    beta = topo.betti
    nb = len(topo.boundary)
    for bad, what in (
            ((c.sigma < 0) | (c.sigma > beta), f"nodal surplus outside [0, {beta}]"),
            ((c.omega < 1 - beta - nb) | (c.omega > 2 * beta - 1),
             f"neumann surplus outside [{1 - beta - nb}, {2 * beta - 1}]"),
            # difference identity through vertex signs (integer arithmetic)
            (2 * (phi - mu) != nb - vertex_sign_sums(graph, eps),
             "2(phi - mu) != boundary - vertex signs")):
        if np.any(bad):
            i = int(np.argmax(bad))
            raise IdentityViolated(f"{eps.label(i)}: {what}: {c.record(i)}")
    return c


def nodal_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int) -> int:
    return int(nodal_counts(graph, Eigenpairs.of([ep]), [edge])[0, 0])


def neumann_count_edge(graph: MetricGraph, ep: Eigenpair, edge: int) -> int:
    return int(neumann_counts(graph, Eigenpairs.of([ep]), [edge])[0, 0])


def vertex_sign_sum(graph: MetricGraph, ep: Eigenpair) -> int:
    return int(vertex_sign_sums(graph, Eigenpairs.of([ep]))[0])


def counts(graph: MetricGraph, ep: Eigenpair) -> Counts:
    """The counts of one eigenpair: the batch of one of `counts_batch`."""
    return counts_batch(graph, Eigenpairs.of([ep])).record(0)
