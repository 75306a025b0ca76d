"""Independent reference implementations used to check the simulator.

Everything here except `reference_campaign` is deliberately written without
importing uowsim: channel formulas in arbitrary precision via mpmath,
end-to-end BER by exhaustive flip-pattern enumeration, a route's
log10(1 - 2 BER) hop by hop, shortest paths by exhaustive simple-path
search, Dijkstra run to exhaustion, DRP's and SRP's greedy walk as a plain
loop, reachability by boolean matrix closure.  `reference_campaign` reuses
the model's kernels (deployment, link pricing, the route builder) but none
of the campaign's shortcuts, and none of its routers.
"""

import heapq
import math
from dataclasses import replace
from itertools import product

import mpmath as mp
import numpy as np

DPS = 60


def received_power_reference(
    tx_power,
    tx_efficiency,
    rx_efficiency,
    extinction,
    aperture_area,
    trajectory_angle,
    divergence_angle,
    distance,
):
    """Line-of-sight received power in arbitrary precision (mpf)."""
    with mp.workdps(DPS):
        p = mp.mpf(tx_power) * mp.mpf(tx_efficiency) * mp.mpf(rx_efficiency)
        cos_t = mp.cos(mp.mpf(trajectory_angle))
        d = mp.mpf(distance)
        attenuation = mp.exp(-mp.mpf(extinction) * d / cos_t)
        spread = (mp.mpf(aperture_area) * cos_t) / (
            2 * mp.pi * (1 - mp.cos(mp.mpf(divergence_angle))) * d * d
        )
        return p * attenuation * spread


def photon_rate_reference(
    received_power, detector_efficiency, wavelength, pulse_duration, data_rate, planck, light_speed
):
    with mp.workdps(DPS):
        return (mp.mpf(received_power) * mp.mpf(detector_efficiency) * mp.mpf(wavelength)) / (
            mp.mpf(pulse_duration)
            * mp.mpf(data_rate)
            * mp.mpf(planck)
            * mp.mpf(light_speed)
        )


def single_link_ber_reference(
    received_power,
    dark_count_rate,
    background_rate,
    detector_efficiency,
    wavelength,
    pulse_duration,
    data_rate,
    planck,
    light_speed,
):
    with mp.workdps(DPS):
        rate_signal = photon_rate_reference(
            received_power,
            detector_efficiency,
            wavelength,
            pulse_duration,
            data_rate,
            planck,
            light_speed,
        )
        r0 = mp.mpf(dark_count_rate) + mp.mpf(background_rate)
        r1 = r0 + rate_signal
        arg = mp.sqrt(mp.mpf(pulse_duration) / 2) * (mp.sqrt(r1) - mp.sqrt(r0))
        return mp.erfc(arg) / 2


def erfc_reference(x):
    with mp.workdps(DPS):
        return mp.erfc(mp.mpf(x))


def parity_e2e_reference(bers) -> float:
    """P(odd number of flips) by exhaustive enumeration of all 2^n patterns."""
    bers = list(bers)
    total = 0.0
    for pattern in product((0, 1), repeat=len(bers)):
        if sum(pattern) % 2 == 1:
            prob = 1.0
            for flip, p in zip(pattern, bers):
                prob *= p if flip else (1.0 - p)
            total += prob
    return total


def log10_bias(bers) -> float:
    """Sum of log10(1 - 2 b) over a route's hop BERs.

    By the parity rule 1 - 2 e2e = prod(1 - 2 b), so this is
    log10(1 - 2 e2e) summed hop by hop.  It keeps its resolution where
    the product falls below double precision and e2e itself rounds to
    0.5.  A hop with 1 - 2 b <= 0 carries no information and has no
    logarithm: it raises rather than being dropped or turned into a NaN.
    """
    total = 0.0
    for b in bers:
        bias = 1.0 - 2.0 * b
        if not bias > 0.0:
            raise ValueError(f"hop BER {b!r} gives 1 - 2*BER = {bias!r}, which has no log10")
        total += math.log10(bias)
    return total


def fold_reference(bers) -> float:
    """Left fold of the two-hop composition rule, written out locally."""
    acc = 0.0
    for p in bers:
        acc = (1.0 - acc) * p + (1.0 - p) * acc
    return acc


def simple_paths(adjacency, source, target):
    """All simple source->target paths over an {u: {v: ber}} adjacency."""
    paths = []
    stack = [(source, [source])]
    while stack:
        node, path = stack.pop()
        if node == target:
            paths.append(path)
            continue
        for neighbor in sorted(adjacency[node]):
            if neighbor not in path:
                stack.append((neighbor, path + [neighbor]))
    return paths


def best_paths_bruteforce(adjacency, source, target):
    """(min end-to-end BER, min BER-sum) over all simple paths, or None."""
    best_e2e = None
    best_sum = None
    for path in simple_paths(adjacency, source, target):
        bers = [adjacency[u][v] for u, v in zip(path, path[1:])]
        e2e = fold_reference(bers)
        total = sum(bers)
        if best_e2e is None or e2e < best_e2e:
            best_e2e = e2e
        if best_sum is None or total < best_sum:
            best_sum = total
    return best_e2e, best_sum


def exhaustive_dijkstra(graph, source, target, weights):
    """CRP's Dijkstra loop run until its heap is empty, as CRP once ran it.

    ``graph`` is read through its CSR lists (``indptr``, ``stop``,
    ``indices``, ``edge``) and ``weights`` holds one weight per edge id.
    Returns the edge ids of the route from ``source`` to ``target`` (None
    when the target is never settled) and the evaluation tally: the
    incident edges of every settled node.
    """
    indptr, stop, indices, edge = graph.indptr, graph.stop, graph.indices, graph.edge
    n = graph.node_count
    dist = [math.inf] * n
    prev = [source] * n
    via = [-1] * n
    settled = [False] * n
    dist[source] = 0.0
    evaluations = 0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        start, end = indptr[u], stop[u]
        evaluations += end - start
        for v, e in zip(indices[start:end], edge[start:end]):
            if settled[v]:
                continue
            candidate = d + weights[e]
            if candidate < dist[v]:
                dist[v] = candidate
                prev[v] = u
                via[v] = e
                heapq.heappush(heap, (candidate, v))

    if not settled[target]:
        return None, evaluations
    edges = []
    node = target
    while node != source:
        edges.append(via[node])
        node = prev[node]
    edges.reverse()
    return edges, evaluations


def in_quadrant(current, target, point):
    """Whether ``point`` lies in the quadrant of ``target`` seen from ``current``.

    Both of the point's offsets from ``current`` must agree in sign with the
    target's, or be 0; an axis on which the target is aligned with
    ``current`` constrains nothing.
    """
    (cx, cy), (tx, ty), (x, y) = current, target, point
    return (x - cx) * (tx - cx) >= 0.0 and (y - cy) * (ty - cy) >= 0.0


def greedy_walk(graph, source, target, quadrant=False, fallback=False):
    """DRP's walk, or SRP's when ``quadrant`` is set, one step at a time.

    Each step collects the ``(ber, id, edge)`` triples of the unvisited
    neighbors; SRP keeps those `in_quadrant` passes, or all of them under
    ``fallback`` when none passes.  The kept triples count as evaluations,
    and the walk moves to their ``min``.  ``graph`` is read through its CSR
    lists and ``positions``.  Returns the edge ids of the route (None when
    a step has no candidate) and the evaluation tally.
    """
    positions = graph.positions
    visited = {source}
    edges = []
    evaluations = 0
    here = source
    while here != target:
        candidates = []
        for k in range(graph.indptr[here], graph.stop[here]):
            v, e = graph.indices[k], graph.edge[k]
            if v not in visited:
                candidates.append((graph.ber[e], v, e))
        if quadrant:
            inside = [
                c for c in candidates
                if in_quadrant(positions[here], positions[target], positions[c[1]])
            ]
            if inside or not fallback:
                candidates = inside
        evaluations += len(candidates)
        if not candidates:
            return None, evaluations
        _, here, e = min(candidates)
        visited.add(here)
        edges.append(e)
    return edges, evaluations


def reachability_closure(n, edges):
    """Boolean transitive closure over undirected edges by matrix powers."""
    reach = np.eye(n, dtype=bool)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    for _ in range(n):
        updated = reach | (reach @ adj)
        if (updated == reach).all():
            break
        reach = updated
    return reach


def reference_campaign(config):
    """`run_campaign`'s records and aggregates, rebuilt one trial at a time.

    Every count of every realization is built the plain way: positions
    from ``generate_deployment`` at the largest count, cut to the count;
    in-range pairs from a double loop; BERs from ``link_power_and_ber``
    over that count's own distances; a fresh ``NetworkGraph``; CRP by
    `exhaustive_dijkstra` over fresh weights, DRP and SRP by `greedy_walk`;
    every route is built by ``routing._finish``.
    Returns ``(records, aggregates)`` in (node count, realization,
    protocol) and (node count, protocol) order.
    """
    from uowsim import (
        AggregateStats,
        FailureReason,
        NetworkGraph,
        Protocol,
        RoutingOutcome,
        TrialMetrics,
        generate_deployment,
        link_power_and_ber,
        path_exists,
    )
    from uowsim.metrics import path_delay
    from uowsim.routing import _finish, edge_weights
    from uowsim.topology import DEGENERATE_DISTANCE

    counts = config.node_counts
    largest = replace(config, node_count=max(counts))
    seeds = [
        int(np.random.SeedSequence([config.master_seed, i]).generate_state(1, np.uint64)[0])
        for i in range(config.realizations)
    ]
    records = []
    for n in counts:
        for index, seed in enumerate(seeds):
            positions = generate_deployment(largest, seed)[:n]
            us, vs, distances, coincident = [], [], [], []
            for i in range(n):
                for j in range(i + 1, n):
                    dx = float(positions[i, 0] - positions[j, 0])
                    dy = float(positions[i, 1] - positions[j, 1])
                    distance = math.sqrt(dx * dx + dy * dy)
                    if distance <= config.max_range:
                        us.append(i)
                        vs.append(j)
                        distances.append(distance or DEGENERATE_DISTANCE)
                        coincident.append(distance == 0.0)
            bers = []
            if distances:
                _, priced = link_power_and_ber(np.array(distances), config.channel, config.noise)
                bers = [0.0 if zero else float(b) for zero, b in zip(coincident, priced)]
            graph = NetworkGraph(positions, us, vs, distances, bers)
            connected = path_exists(graph, 0, 1)
            for protocol in config.protocols:
                if not connected:
                    edges, evaluations, stuck = None, 0, FailureReason.DISCONNECTED
                elif protocol is Protocol.CRP:
                    weights = edge_weights(graph.ber, config.weight_mode)
                    edges, evaluations = exhaustive_dijkstra(graph, 0, 1, weights)
                    stuck = FailureReason.DISCONNECTED
                elif protocol is Protocol.DRP:
                    edges, evaluations = greedy_walk(graph, 0, 1)
                    stuck = FailureReason.DEAD_END
                else:
                    edges, evaluations = greedy_walk(
                        graph, 0, 1, quadrant=True, fallback=config.srp_fallback
                    )
                    stuck = FailureReason.EMPTY_QUADRANT
                if edges is None:
                    outcome = RoutingOutcome(None, stuck, evaluations)
                else:
                    outcome = _finish(graph, 0, 1, edges, evaluations)
                route = outcome.route
                records.append(
                    TrialMetrics(
                        protocol=protocol,
                        n_nodes=n,
                        realization=index,
                        seed=seed,
                        success=route is not None,
                        failure_reason=outcome.failure_reason,
                        hop_count=route.hop_count if route else None,
                        e2e_ber=route.e2e_ber if route else None,
                        e2e_delay_s=(
                            path_delay(route.hop_count, route.total_distance, config)
                            if route
                            else None
                        ),
                        total_distance_m=route.total_distance if route else None,
                        evaluations=outcome.evaluations,
                        wall_clock_ns=0,
                    )
                )

    aggregates = []
    for n in counts:
        for protocol in config.protocols:
            cell = [r for r in records if r.n_nodes == n and r.protocol is protocol]
            ok = [r for r in cell if r.success]
            stats = {}
            for name in ("e2e_ber", "e2e_delay_s", "evaluations", "hop_count"):
                values = np.array([getattr(r, name) for r in ok], dtype=float)
                stats[name] = (
                    (float(values.mean()), float(values.std(ddof=0))) if ok else (None, None)
                )
            aggregates.append(
                AggregateStats(
                    protocol=protocol,
                    n_nodes=n,
                    trials=len(cell),
                    success_rate=len(ok) / len(cell),
                    mean_e2e_ber=stats["e2e_ber"][0],
                    std_e2e_ber=stats["e2e_ber"][1],
                    mean_delay_s=stats["e2e_delay_s"][0],
                    std_delay_s=stats["e2e_delay_s"][1],
                    mean_evaluations=stats["evaluations"][0],
                    mean_hops=stats["hop_count"][0],
                )
            )
    return records, aggregates
