import heapq
import itertools
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_paths_bruteforce, exhaustive_dijkstra, fold_reference, in_quadrant
from uowsim import (
    ChannelParams,
    FailureReason,
    Protocol,
    ReceiverNoise,
    RoutingOutcome,
    SimulationConfig,
    WaterType,
    WeightMode,
    build_graph,
    crp,
    drp,
    generate_deployment,
    path_exists,
    price_links,
    srp,
)
from uowsim.cli import route_dump_lines
from uowsim.config import DEFAULT_NODE_SWEEP
from uowsim import routing
from uowsim.routing import _finish, edge_weights
from conftest import edge_between, graph_edges, make_graph, priced_graph


def _triangle(direct, leg_a, leg_b):
    # 0 -- 1 direct plus the two-hop detour through node 2
    return make_graph(
        [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)],
        {(0, 1): direct, (0, 2): leg_a, (2, 1): leg_b},
    )


def test_crp_source_equals_target():
    graph = _triangle(0.3, 0.05, 0.05)
    outcome = crp(graph, 0, 0, WeightMode.EXACT_LOG)
    assert outcome.success
    assert outcome.route.hops == (0,)
    assert outcome.route.e2e_ber == 0.0
    assert outcome.route.hop_count == 0


def test_crp_prefers_reliable_detour():
    graph = _triangle(0.3, 0.05, 0.05)
    outcome = crp(graph, 0, 1, WeightMode.EXACT_LOG)
    assert outcome.route.hops == (0, 2, 1)
    assert outcome.route.e2e_ber == pytest.approx(0.095, rel=1e-12)
    # the detour also wins under the plain BER sum
    assert crp(graph, 0, 1, WeightMode.PAPER_SUM).route.hops == (0, 2, 1)


def test_weight_modes_can_disagree():
    # direct 0.45 vs two hops of 0.3: the BER sum prefers the direct edge,
    # the log weighting takes the detour with the lower end-to-end BER.
    graph = _triangle(0.45, 0.3, 0.3)
    paper = crp(graph, 0, 1, WeightMode.PAPER_SUM)
    exact = crp(graph, 0, 1, WeightMode.EXACT_LOG)
    assert paper.route.hops == (0, 1)
    assert exact.route.hops == (0, 2, 1)
    assert exact.route.e2e_ber == pytest.approx(0.42, rel=1e-12)
    assert exact.route.e2e_ber < paper.route.e2e_ber


def test_exact_log_treats_half_ber_edges_as_absent():
    graph = make_graph(
        [(0.0, 0.0), (10.0, 0.0)],
        {(0, 1): 0.5},
    )
    outcome = crp(graph, 0, 1, WeightMode.EXACT_LOG)
    assert not outcome.success
    assert outcome.failure_reason is FailureReason.DISCONNECTED
    # the same edge is still usable under the literal weighting
    assert crp(graph, 0, 1, WeightMode.PAPER_SUM).route.hops == (0, 1)


def test_crp_disconnected():
    graph = make_graph([(0, 0), (100, 0), (5, 5)], {(0, 2): 0.1})
    outcome = crp(graph, 0, 1, WeightMode.EXACT_LOG)
    assert not outcome.success
    assert outcome.failure_reason is FailureReason.DISCONNECTED
    assert outcome.evaluations > 0


def test_crp_routes_through_zero_weight_edge(default_setup):
    # S(0) -- A(2) -- B(3) -- T(1), and the A-B link is error-free: its
    # weight is 0 under both modes, and it is on the only path.
    graph = make_graph(
        [(0.0, 0.0), (30.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        {(0, 2): 0.1, (2, 3): 0.0, (3, 1): 0.2},
    )
    for mode in WeightMode:
        route = crp(graph, 0, 1, mode).route
        assert route.hops == (0, 2, 3, 1)
        assert route.hop_bers[1] == 0.0
        assert route.e2e_ber == pytest.approx(0.1 * 0.8 + 0.9 * 0.2, rel=1e-12)
    # Coincident source and target: price_links prices the link at ber 0.
    params, noise = default_setup
    coincident = priced_graph(
        np.array([(10.0, 10.0), (10.0, 10.0)]), 80.0, params, noise
    )
    outcome = crp(coincident, 0, 1)
    assert outcome.route.hops == (0, 1)
    assert outcome.route.hop_bers == (0.0,)
    assert outcome.route.e2e_ber == 0.0


def _reachable_degree_sum(graph, source, mode):
    """Degree sum over the nodes reachable from ``source`` by finite-weight edges."""
    finite = {u: [] for u in range(graph.node_count)}
    degree = [0] * graph.node_count
    for u, v, _, ber in graph_edges(graph):
        degree[u] += 1
        degree[v] += 1
        if mode is WeightMode.PAPER_SUM or ber < 0.5:
            finite[u].append(v)
            finite[v].append(u)
    seen = {source}
    stack = [source]
    while stack:
        for v in finite[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return sum(degree[u] for u in seen)


def test_crp_evaluations_are_reachable_degree_sum(default_setup):
    # Dijkstra runs to exhaustion: every node reachable through finite
    # weights is settled and examines each incident edge once.
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        positions, edges = _random_graph(rng, n)
        edges = {pair: float(rng.uniform(0.0, 0.6)) for pair in edges}
        graph = make_graph(positions, edges)
        for mode in WeightMode:
            expected = _reachable_degree_sum(graph, 0, mode)
            assert crp(graph, 0, 1, mode).evaluations == expected
    params, noise = default_setup
    config = SimulationConfig(node_count=30)
    for seed in range(50):
        graph = priced_graph(
            generate_deployment(config, seed), 80.0, params, noise
        )
        expected = _reachable_degree_sum(graph, 0, WeightMode.EXACT_LOG)
        assert crp(graph, 0, 1).evaluations == expected


@pytest.mark.parametrize("water", [WaterType.CLEAR_OCEAN, WaterType.TURBID_HARBOR])
def test_every_protocol_routes_a_view_as_a_separate_build(water):
    # A count's view of the realization's graph, with the weights that a
    # larger count's CRP left in the shared memo, routes exactly as the
    # count's own graph does.
    params, noise = ChannelParams.for_water(water), ReceiverNoise()
    routers = [(f"crp-{m.value}", lambda g, m=m: crp(g, 0, 1, m)) for m in WeightMode]
    routers += [
        ("drp", lambda g: drp(g, 0, 1)),
        ("srp", lambda g: srp(g, 0, 1)),
        ("srp-fallback", lambda g: srp(g, 0, 1, fallback=True)),
    ]
    counts = sorted(DEFAULT_NODE_SWEEP, reverse=True)
    for seed in (1, 7, 42):
        positions = generate_deployment(SimulationConfig(node_count=counts[0]), seed)
        priced = price_links(positions, counts, 80.0, params, noise)
        whole = build_graph(positions, priced[0])
        for n, links in zip(counts, priced):
            view = build_graph(positions[:n], links, whole)
            alone = priced_graph(positions[:n], 80.0, params, noise)
            for name, route in routers:
                on_view, on_alone = route(view), route(alone)
                # Hops, failure reason and evaluations, then the hop BERs' bits.
                assert on_view == on_alone, (seed, n, name)
                if on_alone.success:
                    assert _bits(on_view.route.hop_bers) == _bits(on_alone.route.hop_bers)
        assert set(whole.weights) == set(WeightMode)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _assert_crp_is_exhaustive_dijkstra(graph, source, target, mode):
    """CRP's outcome, evaluations and hop-BER bits equal the exhaustive loop's."""
    outcome = crp(graph, source, target, mode)
    edges, evaluations = exhaustive_dijkstra(
        graph, source, target, edge_weights(graph.ber, mode)
    )
    if edges is None:
        assert outcome == RoutingOutcome(None, FailureReason.DISCONNECTED, evaluations)
        return outcome
    expected = _finish(graph, source, target, edges, evaluations)
    assert outcome == expected
    assert _bits(outcome.route.hop_bers) == _bits(expected.route.hop_bers)
    return outcome


def test_crp_matches_exhaustive_dijkstra_on_tied_graphs():
    # BERs from a small set make exact path-weight ties frequent, and 0.5
    # and 0.55 make infinite `exact` weights frequent.
    rng = np.random.default_rng(2525)
    bers = (0.0, 0.1, 0.25, 0.5, 0.55)
    for _ in range(400):
        n = int(rng.integers(2, 11))
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        edges = {
            (u, v): bers[rng.integers(len(bers))]
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        }
        graph = make_graph(positions, edges)
        source, target = (int(x) for x in rng.choice(n, size=2, replace=False))
        for mode in WeightMode:
            _assert_crp_is_exhaustive_dijkstra(graph, source, target, mode)


@pytest.mark.parametrize("water", [WaterType.CLEAR_OCEAN, WaterType.TURBID_HARBOR])
def test_crp_matches_exhaustive_dijkstra_on_every_view(water):
    params, noise = ChannelParams.for_water(water), ReceiverNoise()
    counts = sorted(DEFAULT_NODE_SWEEP, reverse=True)
    for seed in (1, 7, 42):
        positions = generate_deployment(SimulationConfig(node_count=counts[0]), seed)
        priced = price_links(positions, counts, 80.0, params, noise)
        whole = build_graph(positions, priced[0])
        for n, links in zip(counts, priced):
            view = build_graph(positions[:n], links, whole)
            for mode in WeightMode:
                _assert_crp_is_exhaustive_dijkstra(view, 0, 1, mode)


def test_crp_counts_the_rows_of_nodes_reached_after_the_target():
    # S(0) -- T(1) -- X(3) -- Y(2): the loop stops when it pops T, before X
    # and Y get a distance, and Dijkstra run to exhaustion settles both.
    # Y's id is below X's, so Y joins the tally a round after X.
    graph = make_graph(
        [(0.0, 0.0), (10.0, 0.0), (30.0, 0.0), (20.0, 0.0)],
        {(0, 1): 0.1, (1, 3): 0.2, (3, 2): 0.3},
    )
    for mode in WeightMode:
        outcome = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, mode)
        assert outcome.route.hops == (0, 1)
        assert outcome.evaluations == 1 + 2 + 2 + 1


def test_crp_counts_a_row_behind_a_half_ber_link_only_under_paper_weights():
    # S(0) -- T(1) at 0.1, T -- X(2) at 0.5, X -- Y(3) at 0.1: under `exact`
    # the T-X link is absent, so neither X nor Y would ever be settled.
    graph = make_graph(
        [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
        {(0, 1): 0.1, (1, 2): 0.5, (2, 3): 0.1},
    )
    paper = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, WeightMode.PAPER_SUM)
    exact = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, WeightMode.EXACT_LOG)
    assert paper.evaluations == 1 + 2 + 2 + 1
    assert exact.evaluations == 1 + 2


def test_crp_counts_the_rows_of_nodes_left_in_the_heap():
    # S(0) relaxes T(1) at 0.01, A(2) at 0.2 and B(3) at 0.3, and A -- B is
    # 0.1: the loop pops T next and stops with A and B still in the heap.
    graph = make_graph(
        [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (0.0, -10.0)],
        {(0, 1): 0.01, (0, 2): 0.2, (0, 3): 0.3, (2, 3): 0.1},
    )
    for mode in WeightMode:
        outcome = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, mode)
        assert outcome.route.hops == (0, 1)
        assert outcome.evaluations == 3 + 1 + 2 + 2


def test_crp_fails_on_a_connected_graph_without_a_finite_path():
    # S(0) -- A(2) at 0.1, A -- T(1) at 0.5, T -- B(3) at 0.1: the BFS finds
    # a path, but under `exact` the A-T link is absent.  The heap runs dry
    # after S and A, whose rows are the tally.
    graph = make_graph(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0), (30.0, 0.0)],
        {(0, 2): 0.1, (2, 1): 0.5, (1, 3): 0.1},
    )
    assert path_exists(graph, 0, 1)
    outcome = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, WeightMode.EXACT_LOG)
    assert outcome.failure_reason is FailureReason.DISCONNECTED
    assert outcome.evaluations == 1 + 2
    assert outcome.evaluations == _reachable_degree_sum(graph, 0, WeightMode.EXACT_LOG)


def _record_pops(monkeypatch):
    """The ids of the heap entries CRP pops, in order, from now on."""
    popped = []

    def heappop(heap):
        popped.append(heap[0][1])
        return heapq.heappop(heap)

    monkeypatch.setattr(
        routing, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
    )
    return popped


def test_crp_stops_popping_once_it_settles_the_target(monkeypatch):
    # S(0) -- T(1) at 0.01, and eight more nodes each joined to S and to T
    # at 0.2: Dijkstra run to exhaustion pops all ten nodes, CRP only S and T.
    others = range(2, 10)
    edges = {(0, 1): 0.01} | {(0, x): 0.2 for x in others} | {(1, x): 0.2 for x in others}
    graph = make_graph([(0.0, 0.0), (10.0, 0.0)] + [(5.0, x) for x in others], edges)
    popped = _record_pops(monkeypatch)
    outcome = crp(graph, 0, 1)
    assert popped == [0, 1]
    assert outcome.route.hops == (0, 1)
    assert outcome.evaluations == 9 + 9 + 2 * len(others)


@pytest.mark.parametrize("mode", list(WeightMode))
def test_crp_skips_a_stale_heap_entry(monkeypatch, mode):
    # S(0) pushes T(1) at 0.45, A(2) at 0.3 and B(3) at 0.1; B pushes A again
    # at 0.1 + 0.1, and A pushes T at A + 0.2.  In both modes A's first entry
    # is stale and pops after A and before T, and the loop passes over it.
    graph = make_graph(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0), (5.0, 5.0)],
        {(0, 2): 0.3, (0, 3): 0.1, (3, 2): 0.1, (2, 1): 0.2, (0, 1): 0.45},
    )
    popped = _record_pops(monkeypatch)
    outcome = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, mode)
    assert popped == [0, 3, 2, 2, 1]
    assert outcome.route.hops == (0, 3, 2, 1)
    assert outcome.evaluations == 3 + 2 + 3 + 2


def _chain_behind_target(chain):
    """S(0) -- T(1) -- chain[0] -- chain[1] -- ..., every link at BER 0.1."""
    order = [0, 1, *chain]
    positions = [None] * len(order)
    for k, node in enumerate(order):
        positions[node] = (10.0 * k, 0.0)
    return make_graph(positions, {(a, b): 0.1 for a, b in zip(order, order[1:])})


@pytest.mark.parametrize("mode", list(WeightMode))
def test_crp_counts_a_deep_chain_behind_the_target(mode):
    # The loop stops at T before any chain node has a distance.  When the
    # chain's ids fall away from T, each pass over the unreached rows in id
    # order adds one chain node, so the closure needs one pass per node;
    # rising ids need one pass that adds the whole chain.
    falling = _chain_behind_target(range(61, 1, -1))
    rising = _chain_behind_target(range(2, 62))
    for graph in (falling, rising):
        outcome = _assert_crp_is_exhaustive_dijkstra(graph, 0, 1, mode)
        assert outcome.route.hops == (0, 1)
        assert outcome.evaluations == _reachable_degree_sum(graph, 0, mode)
        assert outcome.evaluations == 1 + 2 + 2 * 59 + 1


def test_crp_rejects_unknown_ids():
    graph = _triangle(0.3, 0.05, 0.05)
    with pytest.raises(ValueError):
        crp(graph, 0, 9)


def _random_graph(rng, n):
    positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.55:
                edges[(u, v)] = float(rng.uniform(0.001, 0.499))
    return positions, edges


def _adjacency(n, edges):
    adj = {u: {} for u in range(n)}
    for (u, v), ber in edges.items():
        adj[u][v] = ber
        adj[v][u] = ber
    return adj


def test_crp_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 40:
        n = int(rng.integers(3, 9))
        positions, edges = _random_graph(rng, n)
        adjacency = _adjacency(n, edges)
        best_e2e, best_sum = best_paths_bruteforce(adjacency, 0, 1)
        if best_e2e is None:
            continue
        graph = make_graph(positions, edges)
        exact = crp(graph, 0, 1, WeightMode.EXACT_LOG)
        paper = crp(graph, 0, 1, WeightMode.PAPER_SUM)
        assert exact.route.e2e_ber == pytest.approx(best_e2e, rel=1e-12)
        assert sum(paper.route.hop_bers) == pytest.approx(best_sum, rel=1e-12)
        _assert_hop_figures_are_edge_figures(graph, exact.route)
        _assert_hop_figures_are_edge_figures(graph, paper.route)
        checked += 1


def _assert_hop_figures_are_edge_figures(graph, route):
    """Each hop's BER and distance are those of the edge joining its two nodes."""
    assert len(route.hop_bers) == len(route.hop_distances) == len(route.hops) - 1
    for i, (u, v) in enumerate(zip(route.hops, route.hops[1:])):
        e = edge_between(graph, u, v)
        assert route.hop_bers[i] == graph.ber[e]
        assert route.hop_distances[i] == graph.distance[e]


def test_finish_rejects_edges_that_do_not_make_the_route():
    # Edge 0 joins 0 and 2, edge 1 joins 2 and 1, edge 2 joins 2 and 3.
    graph = make_graph(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0), (10.0, 10.0)],
        {(0, 2): 0.1, (2, 1): 0.2, (2, 3): 0.3},
    )
    route = _finish(graph, 0, 1, [0, 1], 5).route
    assert route.hops == (0, 2, 1)
    assert route.hop_bers == (0.1, 0.2)
    for edges, message in (
        ([1], "does not touch node 0"),  # edge 1 leaves from 2, not from the source
        ([0, 2], "not at target 1"),  # the chain ends at 3
        ([0, 2, 2, 1], "revisits a node"),  # 0, 2, 3, 2, 1
    ):
        with pytest.raises(AssertionError, match=message):
            _finish(graph, 0, 1, edges, 5)


def test_greedy_protocols_source_equals_target():
    graph = _triangle(0.3, 0.05, 0.05)
    for run in (drp, srp):
        outcome = run(graph, 1, 1)
        assert outcome.success
        assert outcome.route.hops == (1,)
        assert outcome.route.e2e_ber == 0.0


def test_drp_single_neighbor():
    graph = make_graph([(0, 0), (10, 0)], {(0, 1): 0.2})
    outcome = drp(graph, 0, 1)
    assert outcome.route.hops == (0, 1)
    assert outcome.evaluations == 1


def test_drp_path_graph_trace():
    # S(0) -- A(2) -- T(1): S sees only A, A sees S and T.  The walk
    # examines one unvisited neighbor at S and one at A (S is already
    # visited there), so the tally is 2.
    graph = make_graph(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0)],
        {(0, 2): 0.1, (2, 1): 0.15},
    )
    outcome = drp(graph, 0, 1)
    assert outcome.route.hops == (0, 2, 1)
    assert outcome.evaluations == 2


def test_drp_dead_end():
    # S(0) -- A(2) only; the target exists but is unreachable
    graph = make_graph([(0, 0), (50, 0), (5, 0)], {(0, 2): 0.1})
    outcome = drp(graph, 0, 1)
    assert not outcome.success
    assert outcome.failure_reason is FailureReason.DEAD_END
    assert outcome.evaluations == 1


def test_drp_picks_min_ber_and_breaks_ties_by_id():
    graph = make_graph(
        [(0.0, 0.0), (30.0, 0.0), (10.0, 3.0), (10.0, -3.0), (20.0, 0.0)],
        {(0, 2): 0.2, (0, 3): 0.05, (3, 4): 0.05, (4, 1): 0.05, (2, 4): 0.3},
    )
    outcome = drp(graph, 0, 1)
    assert outcome.route.hops == (0, 3, 4, 1)
    tie = make_graph(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 5.0), (10.0, -5.0)],
        {(0, 2): 0.1, (0, 3): 0.1, (2, 1): 0.1, (3, 1): 0.1},
    )
    assert drp(tie, 0, 1).route.hops == (0, 2, 1)


def test_srp_single_hop_when_target_in_quadrant():
    graph = make_graph([(0, 0), (10, 10)], {(0, 1): 0.3})
    outcome = srp(graph, 0, 1)
    assert outcome.route.hops == (0, 1)
    assert outcome.evaluations == 1


def test_srp_quadrant_excludes_lower_ber_neighbor():
    # neighbor (5,5) has worse BER than (-5,5) but the latter is outside
    # the target quadrant, so SRP moves to (5,5)
    graph = make_graph(
        [(0.0, 0.0), (10.0, 10.0), (5.0, 5.0), (-5.0, 5.0)],
        {(0, 2): 0.2, (0, 3): 0.01, (2, 1): 0.1, (3, 1): 0.1},
    )
    outcome = srp(graph, 0, 1)
    assert outcome.route.hops == (0, 2, 1)
    assert outcome.evaluations == 2  # (5,5) at the first hop, target at the second


def test_srp_empty_quadrant_and_fallback():
    graph = make_graph(
        [(0.0, 0.0), (10.0, 10.0), (-5.0, -5.0), (-3.0, -6.0)],
        {(0, 2): 0.05, (0, 3): 0.1, (2, 1): 0.2, (3, 1): 0.2},
    )
    strict = srp(graph, 0, 1)
    assert not strict.success
    assert strict.failure_reason is FailureReason.EMPTY_QUADRANT
    assert strict.evaluations == 0
    relaxed = srp(graph, 0, 1, fallback=True)
    assert relaxed.success
    assert relaxed.route.hops == (0, 2, 1)
    assert relaxed.evaluations == 3  # both widened neighbors at S, the target at A


def test_srp_quadrant_examples():
    # One graph per case: the source at (0, 0) and the target at (10, 10)
    # unless the case moves it.  Each case pins SRP's first hop (None for an
    # empty quadrant) and its evaluations.
    source_links = {(0, 2): 0.2, (0, 3): 0.1, (2, 1): 0.1, (3, 1): 0.1}
    cases = {
        "inside": ([(0, 0), (10, 10), (3, 7)], {(0, 2): 0.1, (2, 1): 0.1}, 2, 2),
        "outside": ([(0, 0), (10, 10), (-1, 7)], {(0, 2): 0.1, (2, 1): 0.1}, None, 0),
        # The lower-BER neighbor lies outside, at the lower id and at the higher.
        "outside first": (
            [(0, 0), (10, 10), (-1, 7), (3, 7)], {(0, 2): 0.01, (0, 3): 0.2, (3, 1): 0.1}, 3, 2
        ),
        "inside first": (
            [(0, 0), (10, 10), (3, 7), (-1, 7)], {(0, 2): 0.2, (0, 3): 0.01, (2, 1): 0.1}, 2, 2
        ),
        # Offsets of 0 on either axis pass: both count, and the lower BER wins.
        "offset 0": ([(0, 0), (10, 10), (0, 7), (7, 0)], source_links, 3, 3),
        # A target at the source's y leaves y unconstrained: (5, -3) passes.
        "aligned target": ([(0, 0), (10, 0), (5, -3)], {(0, 2): 0.1, (2, 1): 0.1}, 2, 2),
        # The target passes, and the lower-BER neighbor outside is not counted.
        "target": ([(0, 0), (10, 10), (-5, 5)], {(0, 1): 0.3, (0, 2): 0.01, (2, 1): 0.1}, 1, 1),
    }
    for name, (positions, edges, first_hop, evaluations) in cases.items():
        outcome = srp(make_graph(positions, edges), 0, 1)
        hop = outcome.route.hops[1] if outcome.success else None
        assert (hop, outcome.evaluations) == (first_hop, evaluations), name
        if hop is None:
            assert outcome.failure_reason is FailureReason.EMPTY_QUADRANT, name


def _greedy_step_check(graph, route, quadrant_target=None):
    """Re-derive each greedy choice and compare with the recorded hop."""
    visited = set()
    for i, here in enumerate(route.hops[:-1]):
        visited.add(here)
        neighbors = graph.indices[graph.indptr[here] : graph.stop[here]]
        candidates = [v for v in neighbors if v not in visited]
        if quadrant_target is not None:
            candidates = [
                v for v in candidates
                if in_quadrant(graph.positions[here], quadrant_target, graph.positions[v])
            ]
        chosen = route.hops[i + 1]
        best = min(candidates, key=lambda v: (graph.ber[edge_between(graph, here, v)], v))
        assert chosen == best
        assert graph.ber[edge_between(graph, here, chosen)] <= min(
            graph.ber[edge_between(graph, here, v)] for v in candidates
        )


def test_greedy_invariants_on_random_graphs():
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        positions, edges = _random_graph(rng, n)
        graph = make_graph(positions, edges)
        n_nodes = graph.node_count
        for protocol, run in ((Protocol.DRP, drp), (Protocol.SRP, srp)):
            outcome = run(graph, 0, 1)
            again = run(graph, 0, 1)
            assert outcome == again  # determinism
            if outcome.success:
                route = outcome.route
                assert len(set(route.hops)) == len(route.hops)
                assert route.hop_count <= n_nodes - 1
                for u, v in zip(route.hops, route.hops[1:]):
                    assert edge_between(graph, u, v) is not None
                _assert_hop_figures_are_edge_figures(graph, route)
                assert route.e2e_ber == pytest.approx(
                    fold_reference(route.hop_bers), rel=1e-12, abs=1e-15
                )
                target_pos = graph.positions[1] if protocol is Protocol.SRP else None
                _greedy_step_check(graph, route, target_pos)


# Positions on a 5 x 5 grid, so that nodes often share a row or a column
# with each other or the target (the quadrant's boundary cases); BERs often
# tie at 0 or 0.5.
_WALK_GRAPHS = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n),
        st.dictionaries(
            st.sampled_from(list(itertools.combinations(range(n), 2))),
            st.floats(0.0, 0.5),
        ),
    )
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_WALK_GRAPHS)
def test_greedy_routes_are_walks_and_srp_keeps_to_the_quadrant(case):
    positions, edges = case
    graph = make_graph(positions, edges)
    links = {frozenset(pair) for pair in edges}
    tx, ty = positions[1]
    for protocol, outcome in (
        ("drp", drp(graph, 0, 1)),
        ("srp", srp(graph, 0, 1)),
        ("srp-fallback", srp(graph, 0, 1, fallback=True)),
    ):
        if not outcome.success:
            stuck = FailureReason.DEAD_END if protocol == "drp" else FailureReason.EMPTY_QUADRANT
            assert outcome.failure_reason is stuck, protocol
            continue
        hops = outcome.route.hops
        assert (hops[0], hops[-1]) == (0, 1)
        assert len(set(hops)) == len(hops)
        assert all(frozenset(step) in links for step in zip(hops, hops[1:]))
        if protocol == "srp":
            for here, step in zip(hops, hops[1:]):
                (hx, hy), (x, y) = positions[here], positions[step]
                assert (x - hx) * (tx - hx) >= 0 and (y - hy) * (ty - hy) >= 0


def test_route_dump_format():
    graph = _triangle(0.3, 0.05, 0.05)
    outcome = crp(graph, 0, 1, WeightMode.EXACT_LOG)
    route = outcome.route
    lines = route_dump_lines(Protocol.CRP, graph, outcome)
    assert len(lines) == len(route.hops) + 1
    assert lines[0].startswith("crp 0 0 ")
    assert lines[-1].split()[:2] == ["crp", "e2e"]
    assert lines[-1].split()[4] == str(outcome.evaluations)
