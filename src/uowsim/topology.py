"""Random 2-D deployments and the range-limited, BER-weighted network graph.

A deployment places the source and target at fixed positions and scatters
relay nodes uniformly over the area with a seeded generator, so the same
(config, seed) pair always reproduces the same network bit for bit.  Edges
exist exactly between node pairs within the maximum transmission range and
carry distance and single-link BER.
"""

import copy
from bisect import bisect_left
from collections import deque
from functools import lru_cache

import numpy as np

from . import channel

SOURCE_ID = 0
TARGET_ID = 1

#: Stand-in distance for coincident nodes, where the inverse-square law
#: has no value; such links are treated as error-free.
DEGENERATE_DISTANCE = 1e-6


class NetworkGraph:
    """Undirected graph over node positions, stored as Python lists.

    Node ``i`` sits at ``positions[i]``, an ``[x, y]`` list.  ``us``,
    ``vs``, ``distance`` and ``ber`` hold one entry per undirected edge:
    its two endpoint ids and its figures.  The adjacency is in CSR form:
    the neighbors of ``u`` are ``indices[indptr[u]:stop[u]]`` in ascending
    id order, and ``edge`` gives the undirected edge of each of those
    slots, so every edge appears in the rows of both endpoints.  A built
    graph's ``stop`` is ``indptr[1:]``; a `view` ends each row early.  The
    graph is self-edge free and has at most one edge per node pair.  The
    routers index these lists element by element, where a list lookup is
    several times cheaper than a numpy one.  ``weights`` is a memo that the
    routers fill, one list over every edge per key, and that views share.
    """

    def __init__(self, positions, us, vs, distance, ber):
        """Build from an (n, 2) positions array and per-edge arrays.

        ``us`` and ``vs`` are the endpoint ids of each undirected edge, in
        any order; ``distance`` and ``ber`` are its figures.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be an (n, 2) array, got {positions.shape}")
        n = len(positions)
        us = np.asarray(us, dtype=np.intp)
        vs = np.asarray(vs, dtype=np.intp)
        loops = us == vs
        if loops.any():
            raise ValueError(f"self-edge on node {us[loops][0]}")
        rows = np.concatenate((us, vs))
        cols = np.concatenate((vs, us))
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise ValueError(f"edge references unknown node (ids must be 0..{n - 1})")
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        if (np.diff(keys[order]) == 0).any():
            raise ValueError("duplicate edge")
        m = len(us)
        distance = np.asarray(distance, dtype=float)
        ber = np.asarray(ber, dtype=float)
        if not len(vs) == len(distance) == len(ber) == m:
            raise ValueError("edge arrays differ in length")
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self.node_count = n
        self.edge_count = m
        self.positions = positions.tolist()
        self.indptr = indptr.tolist()
        self.stop = self.indptr[1:]
        self.indices = cols[order].tolist()
        self.edge = np.where(order < m, order, order - m).tolist()
        self.us = us.tolist()
        self.vs = vs.tolist()
        self.distance = distance.tolist()
        self.ber = ber.tolist()
        self.weights = {}

    def view(self, n: int, m: int) -> "NetworkGraph":
        """The subgraph of nodes ``0..n-1``, whose edges must be edges ``0..m-1``.

        The view shares every list and the ``weights`` memo with this
        graph; its ``node_count`` and ``edge_count`` are ``n`` and
        ``m``.  Since ``indices`` ascend within a row, a node's neighbors
        below ``n`` are a prefix of its row, so the view's own ``stop`` is
        one bisection per row.  Raises ValueError unless ``n`` names at most
        every node and the first ``n`` rows hold ``2 * m`` such slots.
        """
        indices, indptr = self.indices, self.indptr
        stop = [bisect_left(indices, n, lo, hi) for lo, hi in zip(indptr, indptr[1 : n + 1])]
        if not 0 <= n <= self.node_count or sum(stop) - sum(indptr[:n]) != 2 * m:
            raise ValueError(f"no view of {n} nodes whose edges are the first {m}")
        view = copy.copy(self)
        view.node_count, view.edge_count, view.stop = n, m, stop
        return view

    def check_nodes(self, *node_ids: int) -> None:
        """Raise ValueError unless every id names a node of the graph."""
        for node_id in node_ids:
            if not 0 <= node_id < self.node_count:
                raise ValueError(f"unknown node id {node_id}")


def generate_deployment(config, seed):
    """Place source, target and uniformly random relays for one trial.

    ``config`` is a `SimulationConfig` with a single ``node_count``.
    ``seed`` feeds numpy's PCG64 generator; identical inputs give identical
    arrays.  Returns the (n, 2) positions: row 0 is the source, row 1 the
    target and the rest are relays.
    """
    n = config.single_node_count()
    width, height = config.area
    positions = np.empty((n, 2))
    positions[SOURCE_ID] = config.source_pos
    positions[TARGET_ID] = config.target_pos
    if n > 2:
        rng = np.random.default_rng(seed)
        positions[2:] = rng.uniform(low=(0.0, 0.0), high=(width, height), size=(n - 2, 2))
    return positions


@lru_cache(maxsize=1)
def _pair_indices(n: int) -> tuple:
    """Every node pair (i, j), i < j, ordered by j and then by i, read-only.

    In this order the pairs of the first ``k`` nodes come first, so any
    count's links are a prefix of the largest count's.  A campaign asks only
    for its largest count and ``route`` for its one count, so one entry is
    kept: at 4000 nodes the pair arrays take 128 MB.
    """
    # The lower triangle's (row, column) pairs, row-major, are the (j, i).
    js, is_ = np.tril_indices(n, -1)
    for ids in (is_, js):
        ids.flags.writeable = False
    return is_, js


def price_links(
    positions,
    node_counts,
    max_range: float,
    params: channel.ChannelParams,
    noise: channel.ReceiverNoise,
) -> list[tuple]:
    """Each node count's in-range links, priced together in one channel call.

    ``positions`` is the (n, 2) array of ``generate_deployment``; the graph
    of count ``k`` spans ``positions[:k]``.  The in-range pairs (i, j),
    i < j, of all positions are ordered by j and then by i, so count
    ``k``'s links are the first of them, up to the first pair with
    ``j >= k``: the links of ``positions[:k]`` priced alone.  Every count's
    links go to ``channel.link_power_and_ber`` in one call; each count's
    BERs must be the first of the largest count's, bit for bit
    (AssertionError otherwise).  Returns one ``(us, vs, distance, ber)``
    tuple per count, in ``node_counts`` order: slices of the largest
    count's four arrays.  Pairs at exactly zero separation have no defined
    received power; they get a perfect link (ber 0) at the stand-in
    distance and a log entry for each count that holds them.
    """
    if max_range <= 0.0:
        raise ValueError(f"max_range must be > 0, got {max_range}")
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if not node_counts or not all(2 <= k <= n for k in node_counts):
        raise ValueError(f"node counts {tuple(node_counts)} must lie in 2..{n}")
    x, y = positions[:, 0], positions[:, 1]
    iu, ju = _pair_indices(n)
    dx = x[iu] - x[ju]
    dy = y[iu] - y[ju]
    pair_dists = np.sqrt(dx * dx + dy * dy)
    within = pair_dists <= max_range
    us, vs, pair_dists = iu[within], ju[within], pair_dists[within]
    degenerate = pair_dists == 0.0
    effective = np.where(degenerate, DEGENERATE_DISTANCE, pair_dists)

    sizes = np.searchsorted(vs, node_counts).tolist()
    _, bers = channel.link_power_and_ber(
        np.concatenate([effective[:m] for m in sizes]), params, noise
    )
    starts = np.cumsum([0] + sizes).tolist()
    top = sizes.index(max(sizes))
    largest = bers[starts[top] : starts[top + 1]]
    ber = np.where(degenerate[: len(largest)], 0.0, largest)
    links = []
    for k, m, start in zip(node_counts, sizes, starts):
        if bers[start : start + m].tobytes() != largest[:m].tobytes():
            raise AssertionError(f"the BERs of {k} nodes are no prefix of the largest count's")
        zero = degenerate[:m]
        if zero.any():
            import logging  # only this rare warning logs

            logging.getLogger(__name__).warning(
                "%d coincident node pair(s) among %d nodes; links forced to ber=0 at %g m",
                int(zero.sum()),
                k,
                DEGENERATE_DISTANCE,
            )
        links.append((us[:m], vs[:m], effective[:m], ber[:m]))
    return links


def build_graph(positions, links, whole: NetworkGraph | None = None) -> NetworkGraph:
    """The graph over ``positions`` with one count's links of `price_links`.

    Given ``whole``, the graph of the same realization at a count of at
    least ``len(positions)``, it returns ``whole.view`` of this count
    instead of building one: `price_links` gives every count the first of
    the largest count's links.
    """
    if whole is None:
        return NetworkGraph(positions, *links)
    return whole.view(len(positions), len(links[0]))


def path_exists(graph: NetworkGraph, source: int, target: int) -> bool:
    """True when an undirected path connects the two node ids (BFS)."""
    graph.check_nodes(source, target)
    if source == target:
        return True
    indptr, stop, indices = graph.indptr, graph.stop, graph.indices
    seen = [False] * graph.node_count
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : stop[u]]:
            if v == target:
                return True
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return False
