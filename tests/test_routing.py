import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_paths_bruteforce, fold_reference
from uowsim import (
    FailureReason,
    Protocol,
    SimulationConfig,
    WeightMode,
    build_graph,
    crp,
    drp,
    generate_deployment,
    quadrant_filter,
    srp,
)
from uowsim.cli import route_dump_lines
from conftest import graph_edges, make_graph


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
    # Coincident source and target: build_graph prices the link at ber 0.
    params, noise = default_setup
    coincident = build_graph(
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
        graph = build_graph(
            generate_deployment(config, seed), 80.0, params, noise
        )
        expected = _reachable_degree_sum(graph, 0, WeightMode.EXACT_LOG)
        assert crp(graph, 0, 1).evaluations == expected


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
        checked += 1


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


def test_quadrant_filter_examples():
    inside = (3.0, 7.0)
    outside = (-1.0, 7.0)
    assert quadrant_filter((0.0, 0.0), (10.0, 10.0), [inside]) == [0]
    assert quadrant_filter((0.0, 0.0), (10.0, 10.0), [outside]) == []
    assert quadrant_filter((0.0, 0.0), (10.0, 10.0), [outside, inside]) == [1]
    # axis-aligned target constrains only the aligned axis
    below = (5.0, -3.0)
    assert quadrant_filter((0.0, 0.0), (10.0, 0.0), [below]) == [0]
    target = (10.0, 10.0)
    assert quadrant_filter((0.0, 0.0), target, [target]) == [0]


def test_quadrant_filter_is_subset():
    rng = np.random.default_rng(17)
    for _ in range(200):
        candidates = rng.uniform(-50, 50, size=(10, 2)).tolist()
        current = tuple(rng.uniform(-50, 50, size=2))
        target = tuple(rng.uniform(-50, 50, size=2))
        kept = quadrant_filter(current, target, candidates)
        assert kept == sorted(set(kept))
        assert set(kept) <= set(range(len(candidates)))


def _greedy_step_check(graph, route, quadrant_target=None):
    """Re-derive each greedy choice and compare with the recorded hop."""
    visited = set()
    for i, here in enumerate(route.hops[:-1]):
        visited.add(here)
        neighbors = graph.indices[graph.indptr[here] : graph.indptr[here + 1]]
        candidates = [v for v in neighbors if v not in visited]
        if quadrant_target is not None:
            points = [graph.positions[v] for v in candidates]
            kept = quadrant_filter(graph.positions[here], quadrant_target, points)
            candidates = [candidates[i] for i in kept]
        chosen = route.hops[i + 1]
        best = min(candidates, key=lambda v: (graph.ber[graph.edge_id(here, v)], v))
        assert chosen == best
        assert graph.ber[graph.edge_id(here, chosen)] <= min(
            graph.ber[graph.edge_id(here, v)] for v in candidates
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
                    assert graph.has_edge(u, v)
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
