import math

import pytest

from uowsim import (
    ChannelParams,
    NetworkGraph,
    ReceiverNoise,
)


@pytest.fixture
def default_setup():
    """Stock channel and noise."""
    return ChannelParams(), ReceiverNoise()


def make_graph(positions, edge_bers, edge_distances=None):
    """Synthetic NetworkGraph from (x, y) positions and {(u, v): ber} edges.

    Node 0 is the source, node 1 the target.  Edge distances default to the
    euclidean separation.
    """
    pairs = list(edge_bers)
    distances = [
        edge_distances[pair] if edge_distances and pair in edge_distances
        else math.dist(positions[pair[0]], positions[pair[1]])
        for pair in pairs
    ]
    return NetworkGraph(
        positions,
        [u for u, _ in pairs],
        [v for _, v in pairs],
        distances,
        list(edge_bers.values()),
    )


def graph_edges(graph):
    """Yield every undirected edge once as (u, v, distance, ber), u < v."""
    for u in range(graph.node_count):
        for k in range(graph.indptr[u], graph.indptr[u + 1]):
            v, e = graph.indices[k], graph.edge[k]
            if u < v:
                yield u, v, graph.distance[e], graph.ber[e]
