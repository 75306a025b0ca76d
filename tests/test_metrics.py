import json

import pytest

from uowsim import (
    LIGHT_SPEED_WATER,
    DelayModel,
    FailureReason,
    Protocol,
    Route,
    RoutingOutcome,
    SimulationConfig,
    collect_trial,
    config_from_dict,
    path_delay,
)
from uowsim.cli import main

STOCK = SimulationConfig()

DELAY_100M_ONE_HOP = 0.001024443636040992


def _route(hop_bers, hop_distances):
    hops = tuple(range(len(hop_bers) + 1))
    from uowsim import e2e_ber

    return Route(
        hops=hops,
        hop_bers=tuple(hop_bers),
        hop_distances=tuple(hop_distances),
        e2e_ber=e2e_ber(hop_bers),
    )


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(packet_bits=0.0)
    with pytest.raises(ValueError):
        DelayModel(per_hop_processing=-1.0)


def test_empty_route_has_zero_delay():
    route = _route([], [])
    assert path_delay(route.hop_count, route.total_distance, STOCK) == 0.0


def test_single_hop_delay_value():
    route = _route([0.1], [100.0])
    delay = path_delay(route.hop_count, route.total_distance, STOCK)
    assert delay == pytest.approx(DELAY_100M_ONE_HOP, rel=1e-12)


def test_extra_hop_costs_exactly_one_serialization():
    one, two = _route([0.1], [100.0]), _route([0.1, 0.1], [50.0, 50.0])
    one_hop = path_delay(one.hop_count, one.total_distance, STOCK)
    two_hops = path_delay(two.hop_count, two.total_distance, STOCK)
    serialization = STOCK.delay.packet_bits / STOCK.noise.data_rate
    assert two_hops - one_hop == pytest.approx(serialization, rel=1e-12)


def test_delay_reads_data_rate_from_noise(tmp_path):
    # Doubling the receiver data rate halves each hop's serialization time,
    # so a 2-hop route arrives 2 * 1024 / 2e6 s sooner.
    outcomes = {Protocol.DRP: _success(_route([0.1, 0.1], [50.0, 50.0]))}
    (stock,) = collect_trial(outcomes, config_from_dict({}), 40, 7)
    (fast,) = collect_trial(outcomes, config_from_dict({"noise": {"data_rate": 2e6}}), 40, 7)
    assert stock.e2e_delay_s - fast.e2e_delay_s == pytest.approx(2 * 1024 / 2e6, rel=1e-9)
    # The delay block no longer holds its own copies of the rate and light speed.
    for key in ("data_rate", "light_speed_water"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"delay": {key: 1e6}}))
        assert main(["route", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_delay_lower_bound_and_monotonicity():
    import numpy as np

    rng = np.random.default_rng(31)
    config = SimulationConfig(delay=DelayModel(per_hop_processing=1e-5))
    for _ in range(200):
        count = int(rng.integers(1, 8))
        dists = rng.uniform(1.0, 80.0, size=count).tolist()
        route = _route([0.1] * count, dists)
        delay = path_delay(route.hop_count, route.total_distance, config)
        assert delay >= sum(dists) / LIGHT_SPEED_WATER
        longer = _route([0.1] * (count + 1), dists + [float(rng.uniform(1.0, 80.0))])
        assert path_delay(longer.hop_count, longer.total_distance, config) > delay


def _success(route):
    return RoutingOutcome(route=route, failure_reason=None, evaluations=0)


def _failure(reason, evaluations=0):
    return RoutingOutcome(route=None, failure_reason=reason, evaluations=evaluations)


def test_collect_trial_all_disconnected():
    outcomes = {p: _failure(FailureReason.DISCONNECTED) for p in Protocol}
    records = collect_trial(outcomes, STOCK, 40, 7)
    assert len(records) == 3
    for record in records:
        assert not record.success
        assert record.failure_reason is FailureReason.DISCONNECTED
        assert record.hop_count is None
        assert record.e2e_ber is None
        assert record.e2e_delay_s is None
        assert record.total_distance_m is None


def test_collect_trial_success_consistency():
    route = _route([0.1, 0.2, 0.05], [30.0, 20.0, 25.0])
    outcomes = {Protocol.CRP: _success(route)}
    (record,) = collect_trial(outcomes, STOCK, 40, 7)
    assert (record.n_nodes, record.realization, record.seed) == (40, None, 7)
    assert record.protocol is Protocol.CRP
    assert record.success
    assert record.hop_count == 3
    assert record.e2e_ber == route.e2e_ber
    assert record.e2e_delay_s == path_delay(route.hop_count, route.total_distance, STOCK)
    assert record.total_distance_m == pytest.approx(75.0, rel=1e-15)


def test_collect_trial_mixed():
    route = _route([0.2], [40.0])
    outcomes = {
        Protocol.CRP: _success(route),
        Protocol.DRP: _failure(FailureReason.DEAD_END, evaluations=5),
        Protocol.SRP: _failure(FailureReason.EMPTY_QUADRANT, evaluations=2),
    }
    records = collect_trial(outcomes, STOCK, 60, 9, realization=3, timings={Protocol.CRP: 1234})
    assert [r.protocol for r in records] == [Protocol.CRP, Protocol.DRP, Protocol.SRP]
    assert {(r.n_nodes, r.realization, r.seed) for r in records} == {(60, 3, 9)}
    assert records[0].wall_clock_ns == 1234
    assert records[1].evaluations == 5
    assert records[2].failure_reason is FailureReason.EMPTY_QUADRANT


def test_routing_outcome_requires_exactly_one_side():
    with pytest.raises(ValueError):
        RoutingOutcome(route=None, failure_reason=None, evaluations=0)
