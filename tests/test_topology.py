import math

import numpy as np
import pytest

from oracles import reachability_closure
from uowsim import (
    NetworkGraph,
    SimulationConfig,
    build_graph,
    generate_deployment,
    path_exists,
    received_power_los,
    single_link_ber,
)
from conftest import graph_edges, make_graph

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
    params, noise, constants = default_setup
    graph = build_graph(_line_positions([0.0, 81.0]), 80.0, params, noise, constants)
    assert graph.edge_count == 0
    graph = build_graph(_line_positions([0.0, 80.0]), 80.0, params, noise, constants)
    assert graph.edge_count == 1


def test_edge_quality_matches_channel(default_setup):
    params, noise, constants = default_setup
    graph = build_graph(_line_positions([0.0, 50.0]), 80.0, params, noise, constants)
    e = graph.edge_id(0, 1)
    assert graph.distance[e] == 50.0
    assert graph.ber[e] == pytest.approx(BER_CLEAR_50M, rel=1e-10)


def test_collinear_edges(default_setup):
    params, noise, constants = default_setup
    graph = build_graph(_line_positions([0.0, 60.0, 120.0]), 80.0, params, noise, constants)
    assert graph.edge_count == 2
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(0, 2)


def test_coincident_nodes_get_perfect_link(default_setup):
    params, noise, constants = default_setup
    graph = build_graph(np.array([(10.0, 10.0), (10.0, 10.0)]), 80.0, params, noise, constants)
    e = graph.edge_id(0, 1)
    assert graph.ber[e] == 0.0
    assert graph.distance[e] == 1e-6


def test_graph_symmetry_and_cutoff_properties(default_setup):
    params, noise, constants = default_setup
    config = SimulationConfig(
        node_count=10, area=(100.0, 100.0), source_pos=(10.0, 50.0), target_pos=(90.0, 50.0)
    )
    for seed in range(1000):
        positions = generate_deployment(config, seed)
        graph = build_graph(positions, 40.0, params, noise, constants)
        for u, v, distance, ber in graph_edges(graph):
            assert u != v
            assert graph.edge_id(v, u) == graph.edge_id(u, v)
            assert distance <= 40.0
            assert 0.0 <= ber <= 0.5
        # an edge exists exactly when the separation is within range
        for u in range(graph.node_count):
            for v in range(u + 1, graph.node_count):
                separation = math.dist(positions[u], positions[v])
                assert graph.has_edge(u, v) == (separation <= 40.0)


def test_edge_ber_consistency_small_graphs(default_setup):
    params, noise, constants = default_setup
    config = SimulationConfig(node_count=8, area=(60.0, 60.0), source_pos=(5.0, 30.0), target_pos=(55.0, 30.0))
    for seed in range(20):
        graph = build_graph(generate_deployment(config, seed), 40.0, params, noise, constants)
        for _, _, distance, ber in graph_edges(graph):
            power = received_power_los(params, distance)
            expected = single_link_ber(power, noise, params, constants)
            assert ber == pytest.approx(expected, rel=1e-12)


def test_build_graph_determinism(default_setup):
    params, noise, constants = default_setup
    config = SimulationConfig(node_count=25)
    first = build_graph(generate_deployment(config, 3), 80.0, params, noise, constants)
    second = build_graph(generate_deployment(config, 3), 80.0, params, noise, constants)
    assert first.positions == second.positions
    assert list(graph_edges(first)) == list(graph_edges(second))


def test_path_exists_basics():
    graph = make_graph([(0, 0), (10, 0)], {(0, 1): 0.1})
    assert path_exists(graph, 0, 1)
    lonely = make_graph([(0, 0), (10, 0)], {})
    assert not path_exists(lonely, 0, 1)
    with pytest.raises(ValueError):
        path_exists(lonely, 0, 5)


def test_path_exists_matches_matrix_closure(default_setup):
    params, noise, constants = default_setup
    config = SimulationConfig(node_count=40)
    graph = build_graph(generate_deployment(config, 2024), 80.0, params, noise, constants)
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
