import math
import os
import signal

import numpy as np
import pytest

from uowsim import (
    ChannelParams,
    NetworkGraph,
    ReceiverNoise,
    build_graph,
    price_links,
)

# Seconds each test may run, its fixtures included; the slowest takes about 7 s.
TIME_LIMIT_S = 120


def _expire(signum, frame):
    # pytrace=False: pytest reports the message alone.  Formatting the
    # traceback of an interrupted frame can fail on a line number of None,
    # which ends the whole session with an internal error.
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in Python 3.11
    pytest.fail(
        f"still running after the {TIME_LIMIT_S} s limit, "
        f"in {name} at {code.co_filename}:{frame.f_lineno}",
        pytrace=False,
    )


# The limit is armed by hooks rather than an autouse fixture: a function-scoped
# fixture starts only after the module-scoped campaigns are built, so a router
# that never returns inside one would still hang the suite.
@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    if hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, _expire)
        signal.alarm(TIME_LIMIT_S)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield
    if hasattr(signal, "SIGALRM"):
        signal.alarm(0)


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


def priced_graph(positions, max_range, params, noise):
    """The graph of a deployment at its own node count, priced and built as a trial does."""
    positions = np.asarray(positions, dtype=float)
    links = price_links(positions, (len(positions),), max_range, params, noise)
    return build_graph(positions, links)


def graph_edges(graph):
    """Yield every undirected edge once as (u, v, distance, ber), u < v.

    Rows are read up to ``stop[u]``, so on a view only its own edges show.
    """
    for u in range(graph.node_count):
        for k in range(graph.indptr[u], graph.stop[u]):
            v, e = graph.indices[k], graph.edge[k]
            if u < v:
                yield u, v, graph.distance[e], graph.ber[e]


def edge_between(graph, u, v):
    """Id of the edge joining u and v, found by scanning u's CSR row up to
    ``stop[u]``; None when there is no such edge or either id names no node."""
    if not (0 <= u < graph.node_count and 0 <= v < graph.node_count):
        return None
    for k in range(graph.indptr[u], graph.stop[u]):
        if graph.indices[k] == v:
            return graph.edge[k]
    return None


def aggregate_of(result, protocol, n_nodes):
    """The campaign's `AggregateStats` cell for (protocol, node count)."""
    for stats in result.aggregates:
        if stats.protocol is protocol and stats.n_nodes == n_nodes:
            return stats
    raise KeyError((protocol, n_nodes))


def pid_alive(pid):
    """Whether a process with this id exists (a zombie counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
