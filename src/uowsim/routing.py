"""Route selection over a network graph: CRP, DRP and SRP.

CRP sees the whole graph and runs Dijkstra on BER-derived edge weights.
DRP and SRP are greedy walks that only look at the current node's
neighborhood: DRP always moves to the unvisited neighbor with the lowest
link BER, SRP first discards neighbors outside the axis-aligned quadrant
(relative to the current node) that contains the target.  Neither walk
has a hop limit: every hop moves to an unvisited node.

Every protocol tallies ``evaluations``, the deterministic complexity
metric of a run; wall-clock time is measured elsewhere.  DRP and SRP
count the candidate-edge BER examinations they performed.  CRP counts
the incident edges of every node that Dijkstra run to exhaustion
settles, although its loop stops once the target is settled: the figure
is the model's complexity count, not the simulator's work.

The routers do not change the graph's structure or figures.  CRP keeps
its weight list per `WeightMode` in the graph's ``weights`` memo, computed
once over every edge of the realization's graph and shared by its views;
concurrent calls may both compute a list, and they store the same one.
"""

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .channel import e2e_ber as fold_e2e_ber
from .config import WeightMode
from .topology import NetworkGraph


class FailureReason(Enum):
    DEAD_END = "dead_end"
    EMPTY_QUADRANT = "empty_quadrant"
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class Route:
    """A selected loop-free path with its per-hop and end-to-end figures."""

    hops: tuple[int, ...]
    hop_bers: tuple[float, ...]
    hop_distances: tuple[float, ...]
    e2e_ber: float

    @property
    def hop_count(self) -> int:
        return len(self.hop_bers)

    @property
    def total_distance(self) -> float:
        return sum(self.hop_distances, 0.0)


@dataclass(frozen=True)
class RoutingOutcome:
    """Either a route or a failure reason, plus the evaluation tally."""

    route: Route | None
    failure_reason: FailureReason | None
    evaluations: int

    def __post_init__(self):
        if (self.route is None) == (self.failure_reason is None):
            raise ValueError("exactly one of route / failure_reason must be set")

    @property
    def success(self) -> bool:
        return self.route is not None


def edge_weights(bers, mode: WeightMode) -> list[float]:
    """Dijkstra weight of each link; +inf marks a link absent under the mode.

    ``math.log1p`` is applied element by element: numpy's ``log1p``
    differs from it in the last bit on some inputs, which could flip
    near-tie routes.
    """
    if mode is WeightMode.PAPER_SUM:
        return list(bers)
    return [math.inf if b >= 0.5 else -math.log1p(-2.0 * b) for b in bers]


def _finish(
    graph: NetworkGraph, source: int, target: int, edges: list[int], evaluations: int
) -> RoutingOutcome:
    """The route from ``source`` over the edge ids ``edges``, in hop order.

    Each edge must touch the previous hop, whose other endpoint is the next
    hop; the last hop must be ``target`` and no node may repeat.  A route
    that breaks one of these raises AssertionError.
    """
    hops = [source]
    for e in edges:
        here, u, v = hops[-1], graph.us[e], graph.vs[e]
        if here != u and here != v:
            raise AssertionError(f"route edge {e} ({u}, {v}) does not touch node {here}")
        hops.append(v if here == u else u)
    if hops[-1] != target:
        raise AssertionError(f"route ends at {hops[-1]}, not at target {target}")
    if len(set(hops)) != len(hops):
        raise AssertionError(f"route revisits a node: {hops}")
    hop_bers = tuple(graph.ber[e] for e in edges)
    route = Route(
        hops=tuple(hops),
        hop_bers=hop_bers,
        hop_distances=tuple(graph.distance[e] for e in edges),
        e2e_ber=fold_e2e_ber(hop_bers),
    )
    return RoutingOutcome(route=route, failure_reason=None, evaluations=evaluations)


def _fail(reason: FailureReason, evaluations: int) -> RoutingOutcome:
    return RoutingOutcome(route=None, failure_reason=reason, evaluations=evaluations)


def crp(
    graph: NetworkGraph,
    source: int,
    target: int,
    mode: WeightMode = WeightMode.EXACT_LOG,
) -> RoutingOutcome:
    """Centralized routing: least-total-weight path by Dijkstra.

    Ties in path weight resolve toward lower node ids (heap keys are
    (distance, id) and neighbors relax in id order), so the outcome is
    reproducible across platforms.  No weight is negative and a push needs
    a strictly lower distance, so a popped entry above its node's distance
    is stale and skipped, and a popped node never relaxes again: no
    per-node settled flag is needed.  The loop stops when it pops the
    target, whose path is final then.  An edge of infinite weight never
    relaxes, since no tentative distance is below infinity, so Dijkstra
    run to exhaustion would settle exactly the nodes that finite-weight
    edges join to the source; each incident edge of such a node counts
    one evaluation.
    """
    graph.check_nodes(source, target)
    if source == target:
        return _finish(graph, source, target, [], 0)

    indptr, stop, indices, edge = graph.indptr, graph.stop, graph.indices, graph.edge
    weights = graph.weights.get(mode)
    if weights is None:
        # A view's ber lists every edge of its whole graph, so all views share it.
        weights = graph.weights[mode] = edge_weights(graph.ber, mode)
    n = graph.node_count
    dist = [math.inf] * n
    via = [-1] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        start, end = indptr[u], stop[u]
        for v, e in zip(indices[start:end], edge[start:end]):
            candidate = d + weights[e]
            if candidate < dist[v]:
                dist[v] = candidate
                via[v] = e
                heapq.heappush(heap, (candidate, v))

    # The nodes exhaustive Dijkstra settles: those at finite distance, and
    # the unreached ones that finite-weight edges join to them, of which
    # there are none when the heap ran dry.
    reached = [x < math.inf for x in dist]
    grew = reached[target]
    while grew:
        grew = False
        for u in range(n):
            if not reached[u]:
                for k in range(indptr[u], stop[u]):
                    if reached[indices[k]] and weights[edge[k]] < math.inf:
                        reached[u] = grew = True
                        break
    evaluations = sum(stop[u] - indptr[u] for u in range(n) if reached[u])
    if not reached[target]:
        return _fail(FailureReason.DISCONNECTED, evaluations)
    edges = []
    node = target
    while node != source:
        e = via[node]
        edges.append(e)
        node = graph.us[e] + graph.vs[e] - node  # the other endpoint of e
    edges.reverse()
    return _finish(graph, source, target, edges, evaluations)


def _greedy_walk(
    graph: NetworkGraph, source: int, target: int, examine, stuck: FailureReason
) -> RoutingOutcome:
    """Greedy walk that always moves to the min-BER examined neighbor.

    ``examine(here, unvisited)`` gets the ``(ber, id, edge)`` triples of
    the unvisited neighbors of ``here`` and returns the ones the protocol
    examines.  They are counted as evaluations, and ties on BER break
    toward the lower node id.  The walk fails with ``stuck`` when there is
    no candidate.  It needs no hop limit: each hop moves to an unvisited
    node, so by hop N-1 it has reached the target or run out of candidates.
    """
    graph.check_nodes(source, target)
    if source == target:
        return _finish(graph, source, target, [], 0)

    indptr, stop, indices = graph.indptr, graph.stop, graph.indices
    edge, bers = graph.edge, graph.ber
    visited = {source}
    edges = []
    current = source
    evaluations = 0
    while True:
        start, end = indptr[current], stop[current]
        unvisited = [
            (bers[e], v, e)
            for v, e in zip(indices[start:end], edge[start:end])
            if v not in visited
        ]
        candidates = examine(current, unvisited)
        evaluations += len(candidates)
        if not candidates:
            return _fail(stuck, evaluations)
        _, current, e = min(candidates)
        edges.append(e)
        visited.add(current)
        if current == target:
            return _finish(graph, source, target, edges, evaluations)


def drp(graph: NetworkGraph, source: int, target: int) -> RoutingOutcome:
    """Distributed routing: greedy walk to the min-BER unvisited neighbor.

    The walk aborts when the current node has no unvisited neighbor (dead
    end).
    """
    return _greedy_walk(
        graph, source, target, lambda here, unvisited: unvisited, FailureReason.DEAD_END
    )


def srp(
    graph: NetworkGraph,
    source: int,
    target: int,
    fallback: bool = False,
) -> RoutingOutcome:
    """Sectorized routing: DRP restricted to the quadrant holding the target.

    Only the unvisited neighbors in the quadrant of the target, seen from
    the current node, are examined (and counted): a neighbor's offset from
    the current node must agree in sign with the target's on both axes.
    An offset of 0 passes, an axis on which the target is aligned with the
    current node constrains nothing, and the target itself always passes.
    With ``fallback`` enabled, a hop whose quadrant is empty widens to all
    unvisited neighbors instead of failing.
    """
    xy = graph.positions
    tx, ty = xy[target]

    def in_quadrant(here, unvisited):
        cx, cy = xy[here]
        dx = tx - cx
        dy = ty - cy
        inside = []
        for candidate in unvisited:
            x, y = xy[candidate[1]]
            if (x - cx) * dx >= 0.0 and (y - cy) * dy >= 0.0:
                inside.append(candidate)
        if fallback and not inside:
            return unvisited
        return inside

    return _greedy_walk(graph, source, target, in_quadrant, FailureReason.EMPTY_QUADRANT)
