"""Random 2-D deployments and the range-limited, BER-weighted network graph.

A deployment places the source and target at fixed positions and scatters
relay nodes uniformly over the area with a seeded generator, so the same
(config, seed) pair always reproduces the same network bit for bit.  Edges
exist exactly between node pairs within the maximum transmission range and
carry distance, received power and single-link BER.
"""

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import channel

log = logging.getLogger(__name__)

SOURCE_ID = 0
TARGET_ID = 1

#: Stand-in distance for coincident nodes, where the inverse-square law
#: has no value; such links are treated as error-free.
DEGENERATE_DISTANCE = 1e-6


class Role(Enum):
    SOURCE = "source"
    TARGET = "target"
    RELAY = "relay"


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    x: float
    y: float
    role: Role

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class LinkQuality:
    distance: float
    received_power: float
    ber: float


class NetworkGraph:
    """Undirected graph over a node list with per-edge link quality.

    Node ids must be contiguous 0..n-1 and match their list index.  The
    adjacency is symmetric, self-edge free, and neighbor iteration is in
    ascending id order.
    """

    def __init__(self, nodes, edges):
        """Build from nodes and an iterable of (u, v, LinkQuality) triples."""
        self.nodes = list(nodes)
        for index, node in enumerate(self.nodes):
            if node.id != index:
                raise ValueError(f"node ids must be 0..n-1 in order, got {node.id} at {index}")
        adjacency = {node.id: {} for node in self.nodes}
        for u, v, quality in edges:
            if u == v:
                raise ValueError(f"self-edge on node {u}")
            if u not in adjacency or v not in adjacency:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            adjacency[u][v] = quality
            adjacency[v][u] = quality
        self._adjacency = {
            u: dict(sorted(neighbors.items())) for u, neighbors in adjacency.items()
        }

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def has_node(self, node_id: int) -> bool:
        return 0 <= node_id < len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def neighbors(self, node_id: int):
        """Neighbor ids of a node, ascending."""
        return list(self._adjacency[node_id])

    def neighbor_items(self, node_id: int):
        """(neighbor id, LinkQuality) pairs, ascending by id."""
        return self._adjacency[node_id].items()

    def quality(self, u: int, v: int) -> LinkQuality:
        return self._adjacency[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency.get(u, ())

    def iter_edges(self):
        """Yield every undirected edge once as (u, v, LinkQuality), u < v."""
        for u in sorted(self._adjacency):
            for v, quality in self._adjacency[u].items():
                if u < v:
                    yield u, v, quality


def generate_deployment(config, seed) -> list[Node]:
    """Place source, target and uniformly random relays for one trial.

    ``config`` needs ``node_count`` (int), ``area`` and the two endpoint
    positions.  ``seed`` feeds numpy's PCG64 generator; identical inputs
    give identical node lists.
    """
    n = config.node_count
    if not isinstance(n, int):
        raise ValueError(f"deployment needs a single node_count, got {n!r}")
    if n < 2:
        raise ValueError(f"node_count must be >= 2, got {n}")
    width, height = config.area
    sx, sy = config.source_pos
    tx, ty = config.target_pos
    nodes = [
        Node(SOURCE_ID, float(sx), float(sy), Role.SOURCE),
        Node(TARGET_ID, float(tx), float(ty), Role.TARGET),
    ]
    if n > 2:
        rng = np.random.default_rng(seed)
        points = rng.uniform(low=(0.0, 0.0), high=(width, height), size=(n - 2, 2))
        for k, (x, y) in enumerate(points):
            nodes.append(Node(2 + k, float(x), float(y), Role.RELAY))
    return nodes


def build_graph(
    nodes,
    max_range: float,
    params: channel.ChannelParams,
    noise: channel.ReceiverNoise,
    constants: channel.PhysicalConstants,
) -> NetworkGraph:
    """Connect every node pair within range and price the links.

    Pairs at exactly zero separation have no defined received power; they
    get a perfect link (ber 0) at the stand-in distance and a log entry.
    """
    if max_range <= 0.0:
        raise ValueError(f"max_range must be > 0, got {max_range}")
    node_list = list(nodes)
    positions = np.array([(node.x, node.y) for node in node_list])
    deltas = positions[:, None, :] - positions[None, :, :]
    dists = np.sqrt((deltas * deltas).sum(axis=-1))
    iu, ju = np.triu_indices(len(node_list), k=1)
    within = dists[iu, ju] <= max_range
    us, vs, pair_dists = iu[within], ju[within], dists[iu, ju][within]

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

    edges = [
        (
            int(u),
            int(v),
            LinkQuality(distance=float(d), received_power=float(p), ber=float(b)),
        )
        for u, v, d, p, b in zip(us, vs, effective, powers, bers)
    ]
    return NetworkGraph(node_list, edges)


def path_exists(graph: NetworkGraph, source: int, target: int) -> bool:
    """True when an undirected path connects the two node ids (BFS)."""
    for node_id in (source, target):
        if not graph.has_node(node_id):
            raise ValueError(f"unknown node id {node_id}")
    if source == target:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v == target:
                return True
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False

