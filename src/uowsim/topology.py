"""Random 2-D deployments and the range-limited, BER-weighted network graph.

A deployment places the source and target at fixed positions and scatters
relay nodes uniformly over the area with a seeded generator, so the same
(config, seed) pair always reproduces the same network bit for bit.  Edges
exist exactly between node pairs within the maximum transmission range and
carry distance, received power and single-link BER.
"""

import logging
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import channel

log = logging.getLogger(__name__)

SOURCE_ID = 0
TARGET_ID = 1

#: Stand-in distance for coincident nodes, where the inverse-square law
#: has no value; such links are treated as error-free.
DEGENERATE_DISTANCE = 1e-6


@dataclass(frozen=True, slots=True)
class LinkQuality:
    """One edge's figures, as read back from the graph's arrays."""

    distance: float
    received_power: float
    ber: float


class GraphLists(NamedTuple):
    """Python-list copies of a graph's arrays, which the per-element walks
    index: a list lookup is several times cheaper than a numpy one."""

    indptr: list[int]
    indices: list[int]
    edge: list[int]
    distance: list[float]
    ber: list[float]
    positions: list[list[float]]


class NetworkGraph:
    """Undirected graph over node positions, stored as arrays.

    Node ``i`` sits at ``positions[i]``.  ``distance``, ``power`` and
    ``ber`` hold one entry per undirected edge.  The adjacency is in CSR
    form: the neighbors of ``u`` are ``indices[indptr[u]:indptr[u + 1]]``
    in ascending id order, and ``edge`` gives the undirected edge of each
    of those slots, so every edge appears in the rows of both endpoints.
    The graph is self-edge free and has at most one edge per node pair.
    """

    def __init__(self, positions, us, vs, distance, power, ber):
        """Build from an (n, 2) positions array and per-edge arrays.

        ``us`` and ``vs`` are the endpoint ids of each undirected edge, in
        any order; ``distance``, ``power`` and ``ber`` are its figures.
        """
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(f"positions must be an (n, 2) array, got {self.positions.shape}")
        n = len(self.positions)
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
        self.indices = cols[order]
        self.edge = np.where(order < m, order, order - m)
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.distance = np.asarray(distance, dtype=float)
        self.power = np.asarray(power, dtype=float)
        self.ber = np.asarray(ber, dtype=float)
        if not len(vs) == len(self.distance) == len(self.power) == len(self.ber) == m:
            raise ValueError("edge arrays differ in length")

    @cached_property
    def lists(self) -> GraphLists:
        return GraphLists(
            self.indptr.tolist(),
            self.indices.tolist(),
            self.edge.tolist(),
            self.distance.tolist(),
            self.ber.tolist(),
            self.positions.tolist(),
        )

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self.ber)

    def has_node(self, node_id: int) -> bool:
        return 0 <= node_id < len(self.positions)

    def edge_id(self, u: int, v: int) -> int | None:
        """Index of the edge (u, v) in the per-edge arrays, or None."""
        n = len(self.positions)
        if not (0 <= u < n and 0 <= v < n):
            return None
        lists = self.lists
        stop = lists.indptr[u + 1]
        k = bisect_left(lists.indices, v, lists.indptr[u], stop)
        return lists.edge[k] if k < stop and lists.indices[k] == v else None

    def _link(self, e: int) -> LinkQuality:
        return LinkQuality(self.lists.distance[e], float(self.power[e]), self.lists.ber[e])

    def quality(self, u: int, v: int) -> LinkQuality:
        e = self.edge_id(u, v)
        if e is None:
            raise KeyError((u, v))
        return self._link(e)

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def iter_edges(self):
        """Yield every undirected edge once as (u, v, LinkQuality), u < v."""
        indptr, indices, edge = self.lists.indptr, self.lists.indices, self.lists.edge
        for u in range(self.node_count):
            for k in range(indptr[u], indptr[u + 1]):
                if u < indices[k]:
                    yield u, indices[k], self._link(edge[k])


def generate_deployment(config, seed) -> np.ndarray:
    """Place source, target and uniformly random relays for one trial.

    ``config`` needs ``node_count`` (int), ``area`` and the two endpoint
    positions.  ``seed`` feeds numpy's PCG64 generator; identical inputs
    give identical arrays.  Returns the (n, 2) positions: row 0 is the
    source, row 1 the target and the rest are relays.
    """
    n = config.node_count
    if not isinstance(n, int):
        raise ValueError(f"deployment needs a single node_count, got {n!r}")
    if n < 2:
        raise ValueError(f"node_count must be >= 2, got {n}")
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
    constants: channel.PhysicalConstants,
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
    powers, bers = channel.link_power_and_ber(effective, params, noise, constants)
    bers = np.where(degenerate, 0.0, bers)
    return NetworkGraph(positions, us, vs, effective, powers, bers)


def path_exists(graph: NetworkGraph, source: int, target: int) -> bool:
    """True when an undirected path connects the two node ids (BFS)."""
    for node_id in (source, target):
        if not graph.has_node(node_id):
            raise ValueError(f"unknown node id {node_id}")
    if source == target:
        return True
    indptr, indices = graph.lists.indptr, graph.lists.indices
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
