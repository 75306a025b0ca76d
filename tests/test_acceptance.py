"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5-7 and 9 share one full default campaign (clear ocean,
250x250 m, range 80 m, 500 realizations per node count, sweep 20..100);
criterion 8 runs the campaign twice more through the CLI.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Criterion 5 compares SRP with DRP route by route, not by mean BER.  At the
stock point every multi-hop route's BER sits just under 0.5: SRP's and
DRP's mean BERs differ by less than their Monte-Carlo noise, and long
routes round to exactly 0.5.  Instead, on every realization where both
succeed, the re-run trial's routes give L = log10(1 - 2 BER) = sum over
hops of log10(1 - 2 b), and the mean paired L_srp - L_drp must exceed
three standard errors at every node count.  The criterion prints one line
per node count with the pair count, the mean and the standard error.
``test_log10_bias_matches_parity_and_mpmath`` checks that statistic.

The ``test_dense_*`` checks share one 100-realization campaign on
``configs/dense_clear.json`` (README "Two regimes"): the stock layout
scaled to 40 x 40 m with a 15 m range, where every link carries
information, so unlike the stock campaign it ranks the protocols on BER.
They print one line per node count; DRP's delay is printed beside CRP's
but not asserted.

The ``test_rgg_*`` checks compare the graphs with the model's mathematics
rather than with another implementation of it: the mean edge count of
500 seed-42 realizations, drawn and priced as a campaign draws them,
against its closed form (`oracles.expected_edge_count`) at N = 20, 60 and
100, and on the dense config CRP's evaluations against twice the edge
count, trial by trial and in the mean.  Their bounds are fixed by theory
before any run: each of the nine cells (six edge means, three evaluation
means) passes within `RGG_Z` standard errors, the Bonferroni bound for a
1% false-alarm rate over the nine.
"""

import dataclasses
import json
import math
import time
from pathlib import Path
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest

import oracles
from uowsim import (
    LIGHT_SPEED_WATER,
    PLANCK,
    ChannelParams,
    Protocol,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
    WeightMode,
    build_graph,
    config_from_dict,
    crp,
    derive_trial_seed,
    e2e_ber,
    generate_deployment,
    photon_arrival_rate,
    price_links,
    received_power_los,
    run_campaign,
    run_single,
    single_link_ber,
)
from uowsim.channel import BER_FLOOR
from uowsim.config import DEFAULT_NODE_SWEEP
from conftest import aggregate_of, edge_between, make_graph

REPO_DIR = Path(__file__).resolve().parent.parent


def _report(number, description):
    """Print one [PASS]/[FAIL] line per criterion around the assertions."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[{verdict}] criterion {number}: {description}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def default_campaign():
    config = SimulationConfig(node_count=DEFAULT_NODE_SWEEP)
    started = time.perf_counter()
    result = run_campaign(config)
    elapsed = time.perf_counter() - started
    return config, result, elapsed


def test_criterion_1_channel_oracle_equivalence():
    with _report(1, "channel functions match arbitrary-precision references"):
        rng = np.random.default_rng(20240801)
        started = time.perf_counter()
        for _ in range(100):
            params = ChannelParams(
                wavelength=rng.uniform(400e-9, 600e-9),
                extinction=rng.uniform(0.05, 2.5),
                tx_power=rng.uniform(0.01, 1.0),
                tx_efficiency=rng.uniform(0.5, 1.0),
                rx_efficiency=rng.uniform(0.5, 1.0),
                aperture_area=rng.uniform(0.05e-6, 1e-6),
                trajectory_angle=rng.uniform(0.0, math.radians(60.0)),
                divergence_angle=rng.uniform(math.radians(20.0), math.radians(150.0)),
            )
            noise = ReceiverNoise(
                dark_count_rate=rng.uniform(1e4, 1e7),
                background_rate=rng.uniform(1e4, 1e7),
                detector_efficiency=rng.uniform(0.5, 1.0),
                pulse_duration=rng.uniform(0.5e-9, 5e-9),
                data_rate=rng.uniform(1e5, 1e7),
            )
            distance = rng.uniform(1.0, 100.0)

            power = received_power_los(distance, params)
            power_ref = oracles.received_power_reference(
                params.tx_power,
                params.tx_efficiency,
                params.rx_efficiency,
                params.extinction,
                params.aperture_area,
                params.trajectory_angle,
                params.divergence_angle,
                distance,
            )
            assert abs(power - power_ref) / power_ref <= 1e-10

            rate = photon_arrival_rate(power, params, noise)
            rate_ref = oracles.photon_rate_reference(
                power,
                noise.detector_efficiency,
                params.wavelength,
                noise.pulse_duration,
                noise.data_rate,
                PLANCK,
                LIGHT_SPEED_WATER,
            )
            assert abs(rate - rate_ref) / rate_ref <= 1e-10

            ber = single_link_ber(power, params, noise)
            ber_ref = oracles.single_link_ber_reference(
                power,
                noise.dark_count_rate,
                noise.background_rate,
                noise.detector_efficiency,
                params.wavelength,
                noise.pulse_duration,
                noise.data_rate,
                PLANCK,
                LIGHT_SPEED_WATER,
            )
            if ber_ref < BER_FLOOR:
                assert ber == 0.0  # documented clamp below 1e-300
            else:
                assert abs(ber - ber_ref) / ber_ref <= 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_2_e2e_ber_brute_force():
    with _report(2, "end-to-end BER matches exhaustive flip-parity enumeration"):
        rng = np.random.default_rng(20240802)
        started = time.perf_counter()
        for _ in range(1000):
            bers = rng.uniform(0.0, 0.5, size=int(rng.integers(0, 7))).tolist()
            expected = oracles.parity_e2e_reference(bers)
            actual = e2e_ber(bers)
            if expected == 0.0:
                assert actual == 0.0
            else:
                assert abs(actual - expected) / expected <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_3_water_and_divergence_orderings():
    with _report(3, "water ordering and divergence monotonicity over the figure sweeps"):
        noise = ReceiverNoise()
        waters = (WaterType.CLEAR_OCEAN, WaterType.COASTAL_OCEAN, WaterType.TURBID_HARBOR)
        for distance in [float(d) for d in range(5, 105, 5)]:
            powers = {}
            bers = {}
            for water in waters:
                params = ChannelParams.for_water(water)
                powers[water] = received_power_los(distance, params)
                bers[water] = single_link_ber(powers[water], params, noise)
            assert powers[waters[0]] > powers[waters[1]] > powers[waters[2]]
            assert bers[waters[0]] <= bers[waters[1]] <= bers[waters[2]]
            for water in waters:
                sweep = [
                    received_power_los(
                        distance,
                        ChannelParams.for_water(water, divergence_angle=math.radians(deg)),
                    )
                    for deg in (30.0, 60.0, 90.0)
                ]
                assert sweep[0] > sweep[1] > sweep[2]


def test_criterion_4_crp_optimality_oracle():
    with _report(4, "CRP matches exhaustive simple-path optima on 200 random graphs"):
        rng = np.random.default_rng(20240804)
        started = time.perf_counter()
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 9))
            positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
            edges = {}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        edges[(u, v)] = float(rng.uniform(0.001, 0.499))
            adjacency = {u: {} for u in range(n)}
            for (u, v), ber in edges.items():
                adjacency[u][v] = ber
                adjacency[v][u] = ber
            closure = oracles.reachability_closure(n, list(edges))
            if not closure.all():  # criterion asks for connected graphs
                continue
            best_e2e, best_sum = oracles.best_paths_bruteforce(adjacency, 0, 1)
            graph = make_graph(positions, edges)
            exact = crp(graph, 0, 1, WeightMode.EXACT_LOG)
            paper = crp(graph, 0, 1, WeightMode.PAPER_SUM)
            assert exact.success and paper.success
            assert abs(exact.route.e2e_ber - best_e2e) / best_e2e <= 1e-12
            assert abs(sum(paper.route.hop_bers) - best_sum) / best_sum <= 1e-12
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_log10_bias_matches_parity_and_mpmath():
    rng = np.random.default_rng(20240805)
    for _ in range(1000):
        # 1 - 2 e2e stays above 1e-5 here, so the parity sum resolves it.
        bers = rng.uniform(0.0, 0.45, size=int(rng.integers(0, 6))).tolist()
        expected = math.log10(1.0 - 2.0 * oracles.parity_e2e_reference(bers))
        assert abs(oracles.log10_bias(bers) - expected) <= 1e-9

    # A long route of weak links: its e2e BER rounds to exactly 0.5 in
    # double precision, while the per-hop sum still resolves it.
    bers = [0.5 - 1.85e-10] * 20
    assert e2e_ber(bers) == 0.5
    with mp.workdps(400):
        folded = oracles.fold_reference([mp.mpf(b) for b in bers])
        expected = float(mp.log10(1 - 2 * folded))
    assert abs(oracles.log10_bias(bers) - expected) <= 1e-9 * abs(expected)

    for dead in (0.5, 0.6, math.nan):
        with pytest.raises(ValueError, match="no log10"):
            oracles.log10_bias([0.1, dead, 0.2])


def _paired_srp_drp_gaps(config, result):
    """Per node count, L_srp - L_drp on every realization where both succeed.

    L = log10(1 - 2 e2e_ber) of a route, summed hop by hop
    (``oracles.log10_bias``) from the routes of a re-run of the trial; the
    campaign records keep only e2e_ber, which rounds to 0.5 on long routes.
    The re-run routes DRP and SRP only, and must give the same e2e_ber as
    the campaign record it pairs with.
    """
    succeeded = {}
    for record in result.records:
        if record.protocol in (Protocol.DRP, Protocol.SRP) and record.success:
            key = (record.n_nodes, record.seed)
            succeeded.setdefault(key, {})[record.protocol] = record.e2e_ber

    gaps = {n: [] for n in config.node_counts}
    for (n, seed), campaign_bers in succeeded.items():
        if len(campaign_bers) < 2:
            continue
        rerun_config = dataclasses.replace(
            config, node_count=n, protocols=(Protocol.DRP, Protocol.SRP)
        )
        trial = run_single(rerun_config, seed)
        logs = {}
        for protocol, campaign_ber in campaign_bers.items():
            route = trial.outcomes[protocol].route
            assert route.e2e_ber == campaign_ber, f"N={n} seed {seed}: re-run differs"
            logs[protocol] = oracles.log10_bias(route.hop_bers)
        gaps[n].append(logs[Protocol.SRP] - logs[Protocol.DRP])
    return gaps


def test_criterion_5_ber_trend(default_campaign):
    with _report(
        5,
        "campaign BER: mean crp<=srp and nonincreasing crp; on the same networks "
        "srp beats drp, mean paired log10(1-2 BER) gap above 3 standard errors",
    ):
        config, result, elapsed = default_campaign
        assert elapsed < 120.0, f"campaign took {elapsed:.1f}s, budget 120s"
        previous = None
        for n in config.node_counts:
            crp_ber = aggregate_of(result, Protocol.CRP, n).mean_e2e_ber
            srp_ber = aggregate_of(result, Protocol.SRP, n).mean_e2e_ber
            assert crp_ber <= srp_ber, f"N={n}: crp {crp_ber} > srp {srp_ber}"
            if previous is not None:
                assert crp_ber <= previous, f"N={n}: crp mean increased"
            previous = crp_ber

        for n, gaps in _paired_srp_drp_gaps(config, result).items():
            pairs = len(gaps)
            assert pairs >= 2, f"N={n}: {pairs} realizations where srp and drp both succeed"
            mean = float(np.mean(gaps))
            stderr = float(np.std(gaps, ddof=1)) / math.sqrt(pairs)
            summary = (
                f"N={n}: {pairs} pairs, srp-drp log10(1-2 BER) "
                f"mean {mean:+.2f} decades, standard error {stderr:.2f}"
            )
            print(summary)
            assert mean > 3.0 * stderr, summary


def test_criterion_6_delay_trend(default_campaign):
    with _report(6, "campaign delay ordering srp<crp<drp for N>=40"):
        config, result, _ = default_campaign
        for n in config.node_counts:
            if n < 40:
                continue
            crp_delay = aggregate_of(result, Protocol.CRP, n).mean_delay_s
            srp_delay = aggregate_of(result, Protocol.SRP, n).mean_delay_s
            drp_delay = aggregate_of(result, Protocol.DRP, n).mean_delay_s
            assert srp_delay < crp_delay < drp_delay, (
                f"N={n}: srp {srp_delay} crp {crp_delay} drp {drp_delay}"
            )


def test_criterion_7_complexity_trend(default_campaign):
    with _report(7, "campaign evaluations ordering srp<drp<crp and quadratic crp growth"):
        config, result, _ = default_campaign
        for n in config.node_counts:
            if n < 40:
                continue
            crp_evals = aggregate_of(result, Protocol.CRP, n).mean_evaluations
            srp_evals = aggregate_of(result, Protocol.SRP, n).mean_evaluations
            drp_evals = aggregate_of(result, Protocol.DRP, n).mean_evaluations
            assert srp_evals < drp_evals < crp_evals, (
                f"N={n}: srp {srp_evals} drp {drp_evals} crp {crp_evals}"
            )
        ns = np.array(config.node_counts, dtype=float)
        evals = np.array(
            [aggregate_of(result, Protocol.CRP, int(n)).mean_evaluations for n in ns]
        )

        def r_squared(degree):
            coeffs = np.polyfit(ns, evals, degree)
            predicted = np.polyval(coeffs, ns)
            residual = float(((evals - predicted) ** 2).sum())
            total = float(((evals - evals.mean()) ** 2).sum())
            return 1.0 - residual / total, coeffs

        r2_linear, _ = r_squared(1)
        r2_quadratic, quad_coeffs = r_squared(2)
        assert r2_quadratic > r2_linear, (
            f"quadratic fit R2 {r2_quadratic} not above linear {r2_linear}"
        )
        assert quad_coeffs[0] > 0.0


def test_criterion_8_campaign_determinism(tmp_path):
    with _report(8, "two CLI campaign runs produce byte-identical CSVs"):
        from uowsim.cli import main

        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["campaign", "--out", str(out)]) == 0
            outs.append(out)
        for filename in ("campaign_trials.csv", "campaign_aggregate.csv"):
            first = (outs[0] / filename).read_bytes()
            second = (outs[1] / filename).read_bytes()
            assert first == second, f"{filename} differs between identical runs"


def test_criterion_9_route_validity_sweep(default_campaign):
    with _report(9, "every successful route of the campaign satisfies the invariants"):
        config, _, _ = default_campaign
        for n in config.node_counts:
            per_count = dataclasses.replace(config, node_count=n)
            for index in range(config.realizations):
                seed = derive_trial_seed(config.master_seed, index)
                result = run_single(per_count, seed)
                for outcome in result.outcomes.values():
                    if not outcome.success:
                        continue
                    route = outcome.route
                    assert len(set(route.hops)) == len(route.hops)
                    for u, v in zip(route.hops, route.hops[1:]):
                        e = edge_between(result.graph, u, v)
                        assert e is not None
                        assert result.graph.distance[e] <= config.max_range
                    folded = oracles.fold_reference(route.hop_bers)
                    if folded == 0.0:
                        assert route.e2e_ber == 0.0
                    else:
                        assert abs(route.e2e_ber - folded) / folded <= 1e-12


@pytest.fixture(scope="module")
def dense_campaign():
    doc = json.loads((REPO_DIR / "configs" / "dense_clear.json").read_text())
    config = config_from_dict(
        {**doc, "node_count": list(DEFAULT_NODE_SWEEP), "realizations": 100, "master_seed": 42}
    )
    return config, run_campaign(config)


def _srp_crp_pairs(config, result):
    """Per node count, (crp, srp) records of every realization where both succeed."""
    trials = {}
    for record in result.records:
        if record.success:
            trials.setdefault((record.n_nodes, record.realization), {})[record.protocol] = record
    pairs = {n: [] for n in config.node_counts}
    for (n, _), records in sorted(trials.items()):
        if Protocol.CRP in records and Protocol.SRP in records:
            pairs[n].append((records[Protocol.CRP], records[Protocol.SRP]))
    return pairs


def test_dense_srp_evaluates_less_than_crp(dense_campaign):
    config, result = dense_campaign
    for n, pairs in _srp_crp_pairs(config, result).items():
        assert pairs, f"N={n}: no realization where crp and srp both succeed"
        gap = min(crp.evaluations - srp.evaluations for crp, srp in pairs)
        print(f"N={n}: {len(pairs)} pairs, smallest crp-srp evaluations gap {gap}")
        assert gap > 0, f"N={n}: srp evaluates at least as much as crp on some realization"


def test_dense_srp_delay_below_crp(dense_campaign):
    config, result = dense_campaign
    for n, pairs in _srp_crp_pairs(config, result).items():
        mean = float(np.mean([srp.e2e_delay_s - crp.e2e_delay_s for crp, srp in pairs]))
        crp_delay = aggregate_of(result, Protocol.CRP, n).mean_delay_s
        drp_delay = aggregate_of(result, Protocol.DRP, n).mean_delay_s
        print(
            f"N={n}: mean paired srp-crp delay {mean * 1e3:+.1f} ms; "
            f"mean delay drp {drp_delay * 1e3:.1f} ms, crp {crp_delay * 1e3:.1f} ms"
        )
        assert mean < 0.0, f"N={n}: mean paired srp-crp delay {mean} s"


def test_dense_crp_ber_lowest_and_falling(dense_campaign):
    config, result = dense_campaign
    previous = None
    for n in config.node_counts:
        bers = {p: aggregate_of(result, p, n).mean_e2e_ber for p in Protocol}
        print(f"N={n}: mean e2e BER " + ", ".join(f"{p.value} {b:.2e}" for p, b in bers.items()))
        crp_ber = bers.pop(Protocol.CRP)
        assert all(crp_ber < other for other in bers.values()), f"N={n}: {crp_ber} {bers}"
        if previous is not None:
            assert crp_ber < previous, f"N={n}: crp mean BER {crp_ber} not below {previous}"
        previous = crp_ber


RGG_COUNTS = (20, 60, 100)
RGG_REALIZATIONS = 500
# CRP's evaluations are checked on the first 100 realizations, which keeps
# the test near 1 s.
RGG_CRP_REALIZATIONS = 100
# Two-sided, Bonferroni over the nine cells: a 1% family-wise false alarm.
RGG_Z = NormalDist().inv_cdf(1.0 - 0.01 / (2 * 9))


def _rgg_config(name):
    if name == "stock":
        return SimulationConfig()
    return config_from_dict(json.loads((REPO_DIR / "configs" / "dense_clear.json").read_text()))


def _expected_edges(config, n):
    (side, height), radius = config.area, config.max_range
    assert side == height, "the closed form is for a square"
    return oracles.expected_edge_count(n, side, config.source_pos, config.target_pos, radius)


def _z(values, expected):
    values = np.asarray(values, dtype=float)
    return (values.mean() - expected) / (values.std(ddof=1) / math.sqrt(len(values)))


def _source_component_edges(n, us, vs):
    """The number of edges (us[i], vs[i]) in node 0's component, by a plain
    depth-first search over adjacency lists built from the edge list."""
    adjacency = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adjacency[u].append(v)
        adjacency[v].append(u)
    reached, stack = {0}, [0]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in reached:
                reached.add(neighbor)
                stack.append(neighbor)
    return sum(u in reached for u in us)


@pytest.fixture(scope="module")
def rgg_samples():
    """Per config, per count: each realization's edge count, and for the
    dense config CRP's evaluations and the edge count of the source's
    component.  Each realization is drawn at the largest count and priced
    at every count, as the campaign does."""
    samples = {}
    for name in ("stock", "dense"):
        config = _rgg_config(name)
        largest = dataclasses.replace(config, node_count=max(RGG_COUNTS))
        edges = {n: [] for n in RGG_COUNTS}
        evaluations = {n: [] for n in RGG_COUNTS}
        component_edges = {n: [] for n in RGG_COUNTS}
        for r in range(RGG_REALIZATIONS):
            positions = generate_deployment(largest, derive_trial_seed(42, r))
            priced = price_links(positions, RGG_COUNTS, config.max_range, config.channel, config.noise)
            for n, links in zip(RGG_COUNTS, priced):
                us, vs = links[0], links[1]
                edges[n].append(len(us))
                if name == "dense" and r < RGG_CRP_REALIZATIONS:
                    graph = build_graph(positions[:n], links)
                    evaluations[n].append(crp(graph, 0, 1).evaluations)
                    component_edges[n].append(_source_component_edges(n, us.tolist(), vs.tolist()))
        samples[name] = (config, edges, evaluations, component_edges)
    return samples


def test_rgg_fixed_node_law_averages_to_the_pair_law():
    # Two derivations checked against each other: a relay pair is in range
    # with the mean, over one end's position, of a fixed node's
    # probability.  r = 0.9 cuts the disk by corners as well as sides.
    # The midpoint rule over a 60 x 60 grid is within 5e-5 of both.
    points = (np.arange(60) + 0.5) / 60
    for r in (0.32, 0.9):
        mean = np.mean([oracles.fixed_in_range_probability((x, y), 1.0, r) for x in points for y in points])
        assert mean == pytest.approx(oracles.pair_in_range_probability(r), abs=1e-4), r


@pytest.mark.parametrize("name", ["stock", "dense"])
def test_rgg_mean_edge_count_matches_the_closed_form(rgg_samples, name):
    config, edges, _, _ = rgg_samples[name]
    for n in RGG_COUNTS:
        expected = _expected_edges(config, n)
        z = _z(edges[n], expected)
        print(f"{name} N={n}: mean edges {np.mean(edges[n]):.2f}, E[m] {expected:.2f}, z {z:+.2f}")
        assert abs(z) <= RGG_Z, f"{name} N={n}: z = {z:.2f} past {RGG_Z:.2f}"


def test_rgg_dense_crp_evaluates_each_component_edge_twice(rgg_samples):
    # On the dense config every link is finite, so CRP's evaluations are the
    # degree sum of the source's component: twice its edges.  That mean
    # falls below 2 E[m] only where the component misses a node, by at most
    # the share of such trials times 2 E[m].
    config, edges, evaluations, component_edges = rgg_samples["dense"]
    for n in RGG_COUNTS:
        assert evaluations[n] == [2 * m for m in component_edges[n]], f"N={n}"
        expected = 2 * _expected_edges(config, n)
        short = np.mean(np.array(component_edges[n]) < np.array(edges[n][:RGG_CRP_REALIZATIONS]))
        z = _z(evaluations[n], expected)
        low = _z(evaluations[n], expected * (1.0 - short))
        print(
            f"dense N={n}: mean CRP evaluations {np.mean(evaluations[n]):.1f}, "
            f"2 E[m] {expected:.1f}, z {z:+.2f}, share of trials short of a node {short:.2f}"
        )
        assert z <= RGG_Z and low >= -RGG_Z, f"N={n}: z = {z:.2f} against {RGG_Z:.2f}"
