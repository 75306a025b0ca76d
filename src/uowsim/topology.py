"""Random 2-D deployments and the range-limited, BER-weighted network graph.

A deployment places the source and target at fixed positions and scatters
relay nodes uniformly over the area with a seeded generator, so the same
(config, seed) pair always reproduces the same network bit for bit.  Edges
exist exactly between node pairs within the maximum transmission range and
carry distance and single-link BER.
"""

import logging
from bisect import bisect_left
from collections import deque
from functools import lru_cache

import numpy as np

from . import channel

log = logging.getLogger(__name__)

SOURCE_ID = 0
TARGET_ID = 1

#: Stand-in distance for coincident nodes, where the inverse-square law
#: has no value; such links are treated as error-free.
DEGENERATE_DISTANCE = 1e-6


class NetworkGraph:
    """Undirected graph over node positions, stored as Python lists.

    Node ``i`` sits at ``positions[i]``, an ``[x, y]`` list.  ``distance``
    and ``ber`` hold one entry per undirected edge.  The adjacency is in
    CSR form: the neighbors of ``u`` are ``indices[indptr[u]:indptr[u + 1]]``
    in ascending id order, and ``edge`` gives the undirected edge of each
    of those slots, so every edge appears in the rows of both endpoints.
    The graph is self-edge free and has at most one edge per node pair.
    The routers index these lists element by element, where a list lookup
    is several times cheaper than a numpy one.
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
        self.positions = positions.tolist()
        self.indptr = indptr.tolist()
        self.indices = cols[order].tolist()
        self.edge = np.where(order < m, order, order - m).tolist()
        self.distance = distance.tolist()
        self.ber = ber.tolist()

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self.ber)

    def check_nodes(self, *node_ids: int) -> None:
        """Raise ValueError unless every id names a node of the graph."""
        for node_id in node_ids:
            if not 0 <= node_id < len(self.positions):
                raise ValueError(f"unknown node id {node_id}")

    def edge_id(self, u: int, v: int) -> int | None:
        """Index of the edge (u, v) in the per-edge lists, or None."""
        n = len(self.positions)
        if not (0 <= u < n and 0 <= v < n):
            return None
        stop = self.indptr[u + 1]
        k = bisect_left(self.indices, v, self.indptr[u], stop)
        return self.edge[k] if k < stop and self.indices[k] == v else None

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None


def generate_deployment(config, seed) -> np.ndarray:
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


@lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: every node pair (i, j), i < j."""
    pairs = np.triu_indices(n, 1)
    for ids in pairs:
        ids.flags.writeable = False
    return pairs


def build_graph(
    positions,
    max_range: float,
    params: channel.ChannelParams,
    noise: channel.ReceiverNoise,
) -> NetworkGraph:
    """Connect every node pair within range and price the links.

    ``positions`` is the (n, 2) array of ``generate_deployment``.  Pairs at
    exactly zero separation have no defined received power; they get a
    perfect link (ber 0) at the stand-in distance and a log entry.
    """
    if max_range <= 0.0:
        raise ValueError(f"max_range must be > 0, got {max_range}")
    positions = np.asarray(positions, dtype=float)
    x, y = positions[:, 0], positions[:, 1]
    iu, ju = _pair_indices(len(positions))
    dx = x[iu] - x[ju]
    dy = y[iu] - y[ju]
    pair_dists = np.sqrt(dx * dx + dy * dy)
    within = pair_dists <= max_range
    us, vs, pair_dists = iu[within], ju[within], pair_dists[within]

    degenerate = pair_dists == 0.0
    if degenerate.any():
        log.warning(
            "%d coincident node pair(s); links forced to ber=0 at %g m",
            int(degenerate.sum()),
            DEGENERATE_DISTANCE,
        )
    effective = np.where(degenerate, DEGENERATE_DISTANCE, pair_dists)
    _, bers = channel.link_power_and_ber(effective, params, noise)
    bers = np.where(degenerate, 0.0, bers)
    return NetworkGraph(positions, us, vs, effective, bers)


def path_exists(graph: NetworkGraph, source: int, target: int) -> bool:
    """True when an undirected path connects the two node ids (BFS)."""
    graph.check_nodes(source, target)
    if source == target:
        return True
    indptr, indices = graph.indptr, graph.indices
    seen = [False] * graph.node_count
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            if v == target:
                return True
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return False
