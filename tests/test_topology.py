import logging
import math
import struct

import numpy as np
import pytest

from oracles import reachability_closure
from uowsim import (
    ChannelParams,
    NetworkGraph,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
    build_graph,
    generate_deployment,
    link_power_and_ber,
    path_exists,
    price_links,
    received_power_los,
    single_link_ber,
)
from uowsim import channel
from uowsim.topology import DEGENERATE_DISTANCE
from conftest import edge_between, graph_edges, make_graph, priced_graph

BER_CLEAR_50M = 0.49999618051689926


def test_two_node_deployment():
    config = SimulationConfig(node_count=2)
    positions = generate_deployment(config, 7)
    assert positions.tolist() == [[52.5, 125.0], [197.5, 125.0]]


def test_deployment_determinism():
    config = SimulationConfig(node_count=40)
    assert np.array_equal(generate_deployment(config, 42), generate_deployment(config, 42))
    assert not np.array_equal(generate_deployment(config, 42), generate_deployment(config, 43))


def test_relays_stay_inside_area():
    config = SimulationConfig(node_count=40)
    for seed in range(200):
        positions = generate_deployment(config, seed)
        assert positions.shape == (40, 2)
        for x, y in positions[2:]:
            assert 0.0 <= x <= 250.0
            assert 0.0 <= y <= 250.0


def test_deployment_rejects_sweep_and_tiny_counts():
    config = SimulationConfig(node_count=(20, 30))
    with pytest.raises(ValueError):
        generate_deployment(config, 1)


def _line_positions(xs):
    return np.array([(x, 0.0) for x in xs])


def test_range_cutoff(default_setup):
    params, noise = default_setup
    graph = priced_graph(_line_positions([0.0, 81.0]), 80.0, params, noise)
    assert graph.edge_count == 0
    graph = priced_graph(_line_positions([0.0, 80.0]), 80.0, params, noise)
    assert graph.edge_count == 1


def test_edge_quality_matches_channel(default_setup):
    params, noise = default_setup
    graph = priced_graph(_line_positions([0.0, 50.0]), 80.0, params, noise)
    e = edge_between(graph, 0, 1)
    assert graph.distance[e] == 50.0
    assert graph.ber[e] == pytest.approx(BER_CLEAR_50M, rel=1e-10)


def test_collinear_edges(default_setup):
    params, noise = default_setup
    graph = priced_graph(_line_positions([0.0, 60.0, 120.0]), 80.0, params, noise)
    assert graph.edge_count == 2
    assert edge_between(graph, 0, 1) is not None
    assert edge_between(graph, 1, 2) is not None
    assert edge_between(graph, 0, 2) is None


def test_coincident_nodes_get_perfect_link(default_setup):
    params, noise = default_setup
    graph = priced_graph(np.array([(10.0, 10.0), (10.0, 10.0)]), 80.0, params, noise)
    e = edge_between(graph, 0, 1)
    assert graph.ber[e] == 0.0
    assert graph.distance[e] == 1e-6


def test_graph_symmetry_and_cutoff_properties(default_setup):
    params, noise = default_setup
    config = SimulationConfig(
        node_count=10, area=(100.0, 100.0), source_pos=(10.0, 50.0), target_pos=(90.0, 50.0)
    )
    for seed in range(1000):
        positions = generate_deployment(config, seed)
        graph = priced_graph(positions, 40.0, params, noise)
        for u, v, distance, ber in graph_edges(graph):
            assert u != v
            assert edge_between(graph, v, u) == edge_between(graph, u, v)
            assert distance <= 40.0
            assert 0.0 <= ber <= 0.5
        # an edge exists exactly when the separation is within range
        for u in range(graph.node_count):
            for v in range(u + 1, graph.node_count):
                separation = math.dist(positions[u], positions[v])
                assert (edge_between(graph, u, v) is not None) == (separation <= 40.0)


def test_edge_ber_consistency_small_graphs(default_setup):
    params, noise = default_setup
    config = SimulationConfig(node_count=8, area=(60.0, 60.0), source_pos=(5.0, 30.0), target_pos=(55.0, 30.0))
    for seed in range(20):
        graph = priced_graph(generate_deployment(config, seed), 40.0, params, noise)
        for _, _, distance, ber in graph_edges(graph):
            power = received_power_los(distance, params)
            expected = single_link_ber(power, params, noise)
            assert ber == pytest.approx(expected, rel=1e-12)


def test_build_graph_determinism(default_setup):
    params, noise = default_setup
    config = SimulationConfig(node_count=25)
    first = priced_graph(generate_deployment(config, 3), 80.0, params, noise)
    second = priced_graph(generate_deployment(config, 3), 80.0, params, noise)
    assert first.positions == second.positions
    assert list(graph_edges(first)) == list(graph_edges(second))


UNSORTED_COUNTS = (60, 2, 100, 20)


def _reference_graph(positions, max_range, params, noise):
    """One deployment's graph priced on its own: every pair of ``np.triu_indices``."""
    x, y = positions[:, 0], positions[:, 1]
    iu, ju = np.triu_indices(len(positions), 1)
    dx = x[iu] - x[ju]
    dy = y[iu] - y[ju]
    dists = np.sqrt(dx * dx + dy * dy)
    within = dists <= max_range
    degenerate = dists[within] == 0.0
    effective = np.where(degenerate, DEGENERATE_DISTANCE, dists[within])
    _, bers = link_power_and_ber(effective, params, noise)
    bers = np.where(degenerate, 0.0, bers)
    return NetworkGraph(positions, iu[within], ju[within], effective, bers)


def _bits(value):
    return struct.pack("<d", value)


def _rows(graph):
    """Each node's neighbor ids in row order (read up to ``stop``), with
    the distance and ber bits of each slot's edge."""
    return [
        [
            (graph.indices[k], _bits(graph.distance[graph.edge[k]]), _bits(graph.ber[graph.edge[k]]))
            for k in range(graph.indptr[u], graph.stop[u])
        ]
        for u in range(graph.node_count)
    ]


def _assert_same_rows(graph, reference):
    assert (graph.node_count, graph.edge_count) == (reference.node_count, reference.edge_count)
    assert graph.positions[: graph.node_count] == reference.positions
    assert _rows(graph) == _rows(reference)


def test_smaller_deployments_are_prefixes_of_larger_ones():
    # The campaign draws each realization once, at its largest count.
    for seed in (0, 1, 42, 2024, 99991):
        full = generate_deployment(SimulationConfig(node_count=100), seed)
        for n in range(2, 100):
            alone = generate_deployment(SimulationConfig(node_count=n), seed)
            assert alone.tobytes() == full[:n].tobytes(), (seed, n)


@pytest.mark.parametrize("water", [WaterType.CLEAR_OCEAN, WaterType.TURBID_HARBOR])
def test_priced_counts_equal_separate_builds(water):
    # Each count's graph, built alone from its links or as a view of the
    # largest count's graph, holds the rows of a separately priced build.
    params, noise = ChannelParams.for_water(water), ReceiverNoise()
    for seed in (3, 42, 777):
        positions = generate_deployment(SimulationConfig(node_count=100), seed)
        priced = price_links(positions, UNSORTED_COUNTS, 80.0, params, noise)
        assert len(priced) == len(UNSORTED_COUNTS)
        whole = build_graph(positions, priced[UNSORTED_COUNTS.index(100)])
        for n, links in zip(UNSORTED_COUNTS, priced):
            alone = generate_deployment(SimulationConfig(node_count=n), seed)
            reference = _reference_graph(alone, 80.0, params, noise)
            _assert_same_rows(build_graph(positions[:n], links), reference)
            _assert_same_rows(build_graph(positions[:n], links, whole), reference)
    with pytest.raises(ValueError):
        price_links(positions[:50], UNSORTED_COUNTS, 80.0, params, noise)


def test_coincident_pair_is_priced_for_every_count_that_holds_it(default_setup, caplog):
    params, noise = default_setup
    positions = generate_deployment(SimulationConfig(node_count=100), 5)
    positions[30] = positions[5]
    with caplog.at_level(logging.WARNING, logger="uowsim.topology"):
        priced = price_links(positions, UNSORTED_COUNTS, 80.0, params, noise)
    warned = [record.getMessage() for record in caplog.records]
    assert len(warned) == 2
    assert "among 60 nodes" in warned[0] and "among 100 nodes" in warned[1]
    whole = build_graph(positions, priced[UNSORTED_COUNTS.index(100)])
    for n, links in zip(UNSORTED_COUNTS, priced):
        reference = _reference_graph(positions[:n], 80.0, params, noise)
        for graph in (build_graph(positions[:n], links), build_graph(positions[:n], links, whole)):
            _assert_same_rows(graph, reference)
            e = edge_between(graph, 5, 30)
            if n > 30:
                assert graph.ber[e] == 0.0
                assert graph.distance[e] == DEGENERATE_DISTANCE
            else:
                assert e is None


def test_a_view_shares_the_whole_graph_and_ends_its_rows_early(default_setup):
    params, noise = default_setup
    positions = generate_deployment(SimulationConfig(node_count=100), 42)
    small, large = price_links(positions, (40, 100), 80.0, params, noise)
    whole = build_graph(positions, large)
    assert whole.stop == whole.indptr[1:]
    view = build_graph(positions[:40], small, whole)
    for name in ("positions", "indptr", "indices", "edge", "us", "vs", "distance", "ber", "weights"):
        assert getattr(view, name) is getattr(whole, name), name
    assert (view.node_count, view.edge_count) == (40, len(small[0]))
    assert len(view.stop) == 40 and view.stop != whole.stop[:40]
    assert all(v < 40 for u, v, _, _ in graph_edges(view))
    assert sum(1 for _ in graph_edges(view)) == view.edge_count
    with pytest.raises(ValueError):
        view.check_nodes(40)


def test_a_count_that_is_no_prefix_of_the_whole_graph_is_refused(default_setup, monkeypatch):
    # Each count is priced in its own slice of one channel call, the 60
    # nodes' first; BERs that are not the first of the 100 nodes' are refused.
    params, noise = default_setup
    positions = generate_deployment(SimulationConfig(node_count=100), 42)
    small, large = price_links(positions, (60, 100), 80.0, params, noise)
    whole = build_graph(positions, large)
    m = len(small[0])
    assert build_graph(positions[:60], small, whole).edge_count == m
    price = channel.link_power_and_ber
    for i in (0, m // 2, m - 1):

        def moved(distances, params, noise, i=i):
            powers, bers = price(distances, params, noise)
            bers[i] = np.nextafter(bers[i], 1.0)
            return powers, bers

        monkeypatch.setattr(channel, "link_power_and_ber", moved)
        with pytest.raises(AssertionError, match="60 nodes"):
            price_links(positions, (60, 100), 80.0, params, noise)
    monkeypatch.undo()
    # A prefix that stops one link short leaves a link among the 60 nodes out.
    with pytest.raises(ValueError):
        build_graph(positions[:60], tuple(a[: m - 1] for a in small), whole)


def test_path_exists_basics():
    graph = make_graph([(0, 0), (10, 0)], {(0, 1): 0.1})
    assert path_exists(graph, 0, 1)
    lonely = make_graph([(0, 0), (10, 0)], {})
    assert not path_exists(lonely, 0, 1)
    with pytest.raises(ValueError):
        path_exists(lonely, 0, 5)


def test_path_exists_matches_matrix_closure(default_setup):
    params, noise = default_setup
    config = SimulationConfig(node_count=40)
    graph = priced_graph(generate_deployment(config, 2024), 80.0, params, noise)
    closure = reachability_closure(
        graph.node_count, [(u, v) for u, v, _, _ in graph_edges(graph)]
    )
    for u in range(graph.node_count):
        for v in range(graph.node_count):
            assert path_exists(graph, u, v) == bool(closure[u, v])


def test_graph_rejects_bad_ids():
    positions = _line_positions([0.0, 10.0, 20.0])

    def graph(us, vs):
        k = len(us)
        return NetworkGraph(positions, us, vs, [10.0] * k, [0.1] * k)

    for us, vs in (([0], [0]), ([0], [7]), ([-1], [1]), ([0, 1], [1, 0])):
        with pytest.raises(ValueError):
            graph(us, vs)
    assert graph([0, 2], [1, 1]).edge_count == 2
