import dataclasses
import math
import os
import signal
import struct
import time
from concurrent.futures import Future
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import aggregate_of, pid_alive
from config_keys import NESTED, TOP_LEVEL
from oracles import reference_campaign
from uowsim import (
    ChannelParams,
    ConfigError,
    DelayModel,
    FailureReason,
    Protocol,
    SimulationConfig,
    WaterType,
    WeightMode,
    config_from_dict,
    derive_trial_seed,
    run_campaign,
    run_single,
)
from uowsim.config import DEFAULT_NODE_SWEEP
from uowsim.harness import resolve_workers


def test_derive_trial_seed_is_stable():
    assert derive_trial_seed(42, 0) == 11465652750463011511
    assert derive_trial_seed(42, 1) == 15658369528003122356
    assert derive_trial_seed(42, 0) != derive_trial_seed(43, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(node_count=1)
    with pytest.raises(ConfigError):
        SimulationConfig(realizations=0)
    with pytest.raises(ConfigError):
        SimulationConfig(source_pos=(300.0, 10.0))
    with pytest.raises(ConfigError):
        SimulationConfig(node_count=())
    with pytest.raises(ConfigError):
        SimulationConfig(max_range=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(protocols=())
    with pytest.raises(ConfigError):
        SimulationConfig(protocols=Protocol.CRP)
    # Coordinate pairs are checked for length and stored as tuples.
    for bad in ({"area": (1.0,)}, {"source_pos": (1.0, 2.0, 3.0)}):
        with pytest.raises(ConfigError):
            SimulationConfig(**bad)
    assert SimulationConfig(area=[250, 250]).area == (250, 250)
    # Enum and nested fields must have their own types, not names or None.
    for bad in (
        {"protocols": ("crp", "drp")},
        {"protocols": (Protocol.CRP, "drp")},
        {"weight_mode": "paper"},
        {"channel": None},
        {"noise": None},
        {"delay": None},
    ):
        with pytest.raises(ConfigError):
            SimulationConfig(node_count=40, **bad)


def test_config_rejects_an_overflowing_area_diagonal():
    # The area rule's sides, [1e-3, 1e6] m, keep each square a normal float
    # and the diagonal finite.
    for area in ((1.2e154, 1.2e154), (1.2e154, 250.0), (1e-170, 250.0)):
        with pytest.raises(ConfigError, match="area"):
            SimulationConfig(area=area)
    assert SimulationConfig(area=(1e6, 1e6)).area == (1e6, 1e6)


def test_config_rejects_route_delays_past_the_float_range():
    # The rules bound every factor of the longest route's delay.
    assert SimulationConfig().delay == DelayModel()  # the stock config passes
    for build, name in (
        (lambda: DelayModel(per_hop_processing=1e307), "per_hop_processing"),
        (lambda: DelayModel(per_hop_processing=1e152), "per_hop_processing"),
        (lambda: DelayModel(packet_bits=1e300), "packet_bits"),
        (lambda: SimulationConfig(realizations=10**400), "realizations"),
        (lambda: SimulationConfig(node_count=(10, 10**400)), "node_count"),
    ):
        with pytest.raises(ValueError, match=name):
            build()


def test_one_element_node_count_list_is_one_count():
    for node_count in ([40], (40,)):
        assert SimulationConfig(node_count=node_count).node_count == 40
    assert SimulationConfig(node_count=[40, 20]).node_count == (40, 20)


def test_deployments_are_drawn_for_one_int_node_count(monkeypatch):
    # perfbench/tracing.py reads each deployment's node count from the
    # config that harness.generate_deployment receives.
    import uowsim.harness as harness

    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    counts = []
    draw = harness.generate_deployment

    def recording(config, seed):
        counts.append(config.node_count)
        return draw(config, seed)

    monkeypatch.setattr(harness, "generate_deployment", recording)
    run_campaign(SimulationConfig(node_count=(60, 20, 100), realizations=2, master_seed=11))
    run_single(config_from_dict({"node_count": [40]}), 7)
    assert counts == [100, 100, 40]
    assert all(type(n) is int for n in counts)


def test_config_resolves_channel_from_water():
    config = config_from_dict({"water": "turbid"})
    assert config.channel.extinction == 2.19
    with pytest.raises(ConfigError, match="water and channel.extinction"):
        config_from_dict({"water": "turbid", "channel": {"extinction": 0.5}})


def test_run_trial_is_deterministic():
    config = SimulationConfig(node_count=30, realizations=5)
    third, fourth = (derive_trial_seed(config.master_seed, i) for i in (3, 4))
    assert run_single(config, third).metrics == run_single(config, third).metrics
    assert run_single(config, third).metrics != run_single(config, fourth).metrics


def test_two_node_trial_single_hop():
    config = SimulationConfig(
        node_count=2, source_pos=(50.0, 125.0), target_pos=(100.0, 125.0)
    )
    metrics = run_single(config, derive_trial_seed(config.master_seed, 0)).metrics
    assert len(metrics) == 3
    bers = {m.e2e_ber for m in metrics}
    assert len(bers) == 1
    for m in metrics:
        assert m.success
        assert m.hop_count == 1


def test_two_node_trial_disconnected():
    config = SimulationConfig(node_count=2)  # endpoints 145 m apart, range 80
    metrics = run_single(config, derive_trial_seed(config.master_seed, 0)).metrics
    for m in metrics:
        assert not m.success
        assert m.failure_reason is FailureReason.DISCONNECTED
        assert m.evaluations == 0


def test_record_timing_times_every_routed_protocol(monkeypatch):
    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    config = SimulationConfig(record_timing=True)
    metrics = run_single(config, derive_trial_seed(config.master_seed, 0)).metrics
    assert [m.protocol for m in metrics] == list(Protocol)
    assert all(m.failure_reason is not FailureReason.DISCONNECTED for m in metrics)
    for m in metrics:
        assert type(m.wall_clock_ns) is int and m.wall_clock_ns >= 0
    records = run_campaign(
        SimulationConfig(node_count=(20, 40), realizations=3, record_timing=True)
    ).records
    assert all(type(r.wall_clock_ns) is int and r.wall_clock_ns >= 0 for r in records)
    assert any(r.wall_clock_ns > 0 for r in records)


def test_record_timing_writes_zero_for_a_disconnected_trial(monkeypatch):
    import uowsim.harness as harness

    def unreachable(*args, **kwargs):
        raise AssertionError("a router ran on a disconnected graph")

    for name in ("crp", "drp", "srp"):
        monkeypatch.setattr(harness, name, unreachable)
    config = SimulationConfig(node_count=2, record_timing=True)  # endpoints 145 m apart, range 80
    metrics = run_single(config, derive_trial_seed(config.master_seed, 0)).metrics
    assert [m.protocol for m in metrics] == list(Protocol)
    for m in metrics:
        assert m.failure_reason is FailureReason.DISCONNECTED
        assert m.evaluations == 0
        assert m.wall_clock_ns == 0


def test_run_single_respects_protocol_subset():
    config = SimulationConfig(node_count=30, protocols=(Protocol.CRP, Protocol.SRP))
    result = run_single(config, derive_trial_seed(config.master_seed, 0))
    assert [m.protocol for m in result.metrics] == [Protocol.CRP, Protocol.SRP]


def test_campaign_single_realization_matches_trial():
    config = SimulationConfig(node_count=40, realizations=1)
    result = run_campaign(config)
    metrics = run_single(config, derive_trial_seed(config.master_seed, 0)).metrics
    for stats, metric in zip(result.aggregates, metrics):
        assert stats.protocol is metric.protocol
        assert stats.trials == 1
        if metric.success:
            assert stats.success_rate == 1.0
            assert stats.mean_e2e_ber == metric.e2e_ber
            assert stats.std_e2e_ber == 0.0
            assert stats.mean_delay_s == metric.e2e_delay_s
            assert stats.mean_evaluations == metric.evaluations
        else:
            assert stats.success_rate == 0.0
            assert stats.mean_e2e_ber is None


def test_campaign_is_reproducible():
    config = SimulationConfig(node_count=(20, 30), realizations=10)
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.records == second.records
    assert first.aggregates == second.aggregates


def test_campaign_parallel_equals_serial(monkeypatch):
    config = SimulationConfig(node_count=(20, 30), realizations=12)
    monkeypatch.setenv("UOWSN_THREADS", "1")
    serial = run_campaign(config)
    monkeypatch.setenv("UOWSN_THREADS", "2")
    parallel = run_campaign(config)
    assert serial.records == parallel.records
    assert serial.aggregates == parallel.aggregates


def test_campaign_conservation_and_shape():
    config = SimulationConfig(node_count=(20, 40), realizations=25)
    result = run_campaign(config)
    assert len(result.records) == 2 * 25 * 3
    for n in (20, 40):
        for protocol in Protocol:
            stats = aggregate_of(result, protocol, n)
            assert stats.trials == 25
            cell = [r for r in result.records if r.n_nodes == n and r.protocol is protocol]
            successes = sum(1 for r in cell if r.success)
            failures = sum(1 for r in cell if not r.success)
            assert successes + failures == stats.trials
            assert stats.success_rate == successes / stats.trials
            assert 0.0 <= stats.success_rate <= 1.0


def test_aggregation_is_order_invariant():
    import random

    from uowsim.harness import aggregate_records

    config = SimulationConfig(node_count=(20, 30), realizations=10)
    result = run_campaign(config)
    shuffled = list(result.records)
    random.Random(4).shuffle(shuffled)
    assert aggregate_records(shuffled, config) == result.aggregates


def test_campaign_records_are_index_ordered(monkeypatch):
    import uowsim.harness as harness

    derived = []
    derive = harness.derive_trial_seed

    def counting(master_seed, index):
        derived.append(index)
        return derive(master_seed, index)

    monkeypatch.setattr(harness, "derive_trial_seed", counting)
    config = SimulationConfig(node_count=(20, 30), realizations=4)
    result = run_campaign(config)
    assert derived == [0, 1, 2, 3]  # once per realization, not per node count
    coords = [(r.n_nodes, r.realization) for r in result.records]
    assert coords == sorted(coords)
    seeds = {r.realization: r.seed for r in result.records if r.n_nodes == 20}
    for index, seed in seeds.items():
        assert seed == derive_trial_seed(config.master_seed, index)


def test_campaign_records_follow_config_order_and_match_run_single(monkeypatch):
    # Each realization is drawn once at the largest count and every count's
    # graph is cut from it; the records still come back in config order and
    # equal separate per-count trials.
    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    config = SimulationConfig(node_count=(60, 20, 100), realizations=4, master_seed=11)
    expected = []
    for n in config.node_counts:
        per_count = dataclasses.replace(config, node_count=n)
        for index in range(config.realizations):
            seed = derive_trial_seed(config.master_seed, index)
            expected.extend(
                dataclasses.replace(metric, realization=index)
                for metric in run_single(per_count, seed).metrics
            )
    assert run_campaign(config).records == expected


def test_campaign_builds_one_graph_and_one_weight_list_per_realization(monkeypatch):
    # Each realization builds its largest count's graph; every other count
    # routes a view of it, and CRP's weights are computed once for it.  The
    # traced harness.build_graph still runs once per trial, is handed its
    # realization's one link set and returns a graph of the trial's node
    # count and of the links among its nodes.
    import uowsim.harness as harness
    import uowsim.routing as routing
    import uowsim.topology as topology

    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    built, weight_lists, calls = [], [], []
    construct, weigh, build = (
        topology.NetworkGraph.__init__, routing.edge_weights, harness.build_graph
    )

    def constructing(self, *args):
        construct(self, *args)
        built.append(self)

    def weighing(bers, mode):
        weight_lists.append((len(bers), mode))
        return weigh(bers, mode)

    def building(positions, links, *rest):
        graph = build(positions, links, *rest)
        calls.append((len(positions), graph.node_count, graph.edge_count, links))
        return graph

    monkeypatch.setattr(topology.NetworkGraph, "__init__", constructing)
    monkeypatch.setattr(routing, "edge_weights", weighing)
    monkeypatch.setattr(harness, "build_graph", building)
    config = SimulationConfig(node_count=(60, 20, 100, 40), realizations=6, master_seed=11)
    result = run_campaign(config)
    realizations, counts = config.realizations, config.node_counts

    assert [graph.node_count for graph in built] == [100] * realizations
    assert any(r.success for r in result.records if r.protocol is Protocol.CRP)
    assert 0 < len(weight_lists) <= realizations
    assert {mode for _, mode in weight_lists} == {WeightMode.EXACT_LOG}
    assert {m for m, _ in weight_lists} <= {graph.edge_count for graph in built}
    assert len(calls) == realizations * len(counts)
    assert sorted(n for n, *_ in calls) == sorted(counts * realizations)
    assert len({id(links) for *_, links in calls}) == realizations
    for n, node_count, edge_count, (_, vs, _, _) in calls:
        assert (node_count, edge_count) == (n, sum(v < n for v in vs.tolist()))


def test_campaign_routes_the_largest_count_first(monkeypatch):
    # CRP's weight list, and under record_timing its cost, then fall to the
    # largest count of each realization (README "Graph storage").
    import uowsim.harness as harness

    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    routed = []
    check = harness.path_exists

    def recording(graph, source, target):
        routed.append(graph.node_count)
        return check(graph, source, target)

    monkeypatch.setattr(harness, "path_exists", recording)
    run_campaign(SimulationConfig(node_count=(60, 20, 100), realizations=2, master_seed=11))
    assert routed == [100, 60, 20] * 2


def test_default_campaign_config_sweep():
    config = SimulationConfig(node_count=DEFAULT_NODE_SWEEP)
    assert config.node_counts == (20, 30, 40, 50, 60, 70, 80, 90, 100)
    assert config.realizations == 500
    assert config.channel == ChannelParams.for_water(WaterType.CLEAR_OCEAN)
    assert config.weight_mode is WeightMode.EXACT_LOG


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("UOWSN_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("UOWSN_THREADS", "0")
    assert resolve_workers() >= 1
    monkeypatch.setenv("UOWSN_THREADS", "2")
    assert resolve_workers() == 2
    for bad in ("zebra", "-1"):
        monkeypatch.setenv("UOWSN_THREADS", bad)
        with pytest.raises(ConfigError):
            resolve_workers()


class _InlinePool:
    """Stand-in for `harness._pool`'s process pool: runs each task in this
    process when it is submitted."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_an_interrupted_pooled_campaign_leaves_no_worker(monkeypatch, tmp_path):
    import uowsim.harness as harness

    def spin(*args):
        (tmp_path / str(os.getpid())).touch()
        while True:
            pass

    # Patched before the pool forks, so every worker spins in its first CRP
    # call; every node reaches every other in this area, so CRP runs.
    monkeypatch.setattr(harness, "crp", spin)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # A queued task that is cancelled can end the pool's own thread with
    # InvalidStateError when the workers die (Python 3.10 and 3.11).
    cancelled = []
    cancel = Future.cancel

    def recording_cancel(future):
        done = cancel(future)
        if done:
            cancelled.append(future)
        return done

    monkeypatch.setattr(Future, "cancel", recording_cancel)
    monkeypatch.setenv("UOWSN_THREADS", "2")
    config = SimulationConfig(
        area=(40.0, 40.0), source_pos=(10.0, 20.0), target_pos=(30.0, 20.0),
        node_count=20, realizations=8, protocols=(Protocol.CRP,),
    )

    # The first alarm interrupts the run; if the run still waits for its
    # workers 3 s later, a second one fails the test instead of hanging it.
    def interrupt(signum, frame):
        signal.signal(signal.SIGALRM, give_up)
        signal.alarm(3)
        raise _Interrupted

    def give_up(signum, frame):
        pytest.fail("run_campaign still waits for its workers 3 s after an exception")

    previous = signal.signal(signal.SIGALRM, interrupt)
    limit = signal.alarm(2)  # the suite's own time limit, armed again below
    started = time.monotonic()
    try:
        with pytest.raises(_Interrupted):
            run_campaign(config)
        elapsed = time.monotonic() - started
    finally:
        signal.signal(signal.SIGALRM, previous)
        signal.alarm(limit)
        workers = [int(path.name) for path in tmp_path.iterdir()]
        # The pool's own thread reaps the ended workers.
        deadline = time.monotonic() + 5.0
        while any(map(pid_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if pid_alive(pid)]
        for pid in left:  # not left spinning when the check fails
            os.kill(pid, signal.SIGKILL)
    assert elapsed < 5.0
    assert len(workers) == 2 and not left
    assert not cancelled


def test_campaign_pool_is_capped_at_cpus_and_tasks(monkeypatch):
    import uowsim.harness as harness

    built = []
    monkeypatch.setattr(harness, "_pool", lambda workers: built.append(workers) or _InlinePool())
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    config = SimulationConfig(node_count=(20, 30), realizations=40)
    monkeypatch.setenv("UOWSN_THREADS", "1")
    serial = run_campaign(config).records
    monkeypatch.setenv("UOWSN_THREADS", "8")
    assert run_campaign(config).records == serial
    assert built == [4]
    run_campaign(SimulationConfig(node_count=(20,), realizations=1))
    assert built == [4]


def _layout(side):
    """A square area of ``side`` metres with the stock source and target,
    scaled from the 250 m area."""
    return {
        "area": (side, side),
        "source_pos": (0.21 * side, 0.5 * side),
        "target_pos": (0.79 * side, 0.5 * side),
    }


_REFERENCE_CONFIGS = st.builds(
    lambda side, **fields: SimulationConfig(**_layout(side), **fields),
    side=st.sampled_from((15.0, 40.0, 250.0)),
    max_range=st.sampled_from((5.0, 15.0, 80.0)),
    channel=st.sampled_from(list(WaterType)).map(ChannelParams.for_water),
    weight_mode=st.sampled_from(list(WeightMode)),
    node_count=st.lists(st.integers(2, 30), min_size=1, max_size=4, unique=True).map(tuple),
    realizations=st.integers(1, 4),
    protocols=st.sets(st.sampled_from(list(Protocol)), min_size=1).map(tuple),
    srp_fallback=st.booleans(),
    master_seed=st.integers(0, 2**32),
)


def _bit_fields(record):
    """A record's fields by name, each float as its IEEE-754 bytes."""
    return [
        (f.name, struct.pack("<d", value) if isinstance(value, float) else value)
        for f in dataclasses.fields(record)
        for value in (getattr(record, f.name),)
    ]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_REFERENCE_CONFIGS, st.just("1"))
@example(
    SimulationConfig(**_layout(40.0), max_range=15.0, node_count=(30, 7, 19, 2), realizations=4),
    "2",
)
def test_campaign_equals_the_reference_campaign(config, threads):
    # Every view, memo, early stop and shared pricing call of the campaign
    # must give the records and aggregates of plain per-count trials.
    with mock.patch.dict(os.environ, {"UOWSN_THREADS": threads}):
        result = run_campaign(config)
    records, aggregates = reference_campaign(config)
    assert list(map(_bit_fields, result.records)) == list(map(_bit_fields, records))
    assert list(map(_bit_fields, result.aggregates)) == list(map(_bit_fields, aggregates))


@pytest.mark.parametrize("realizations", [1, 7, 13])
def test_campaign_records_do_not_depend_on_workers_or_chunks(monkeypatch, realizations):
    import uowsim.harness as harness

    chunk_sizes = set()
    run_index_range = harness._run_index_range

    def recording(config, first_index, seeds):
        chunk_sizes.add(len(seeds))
        return run_index_range(config, first_index, seeds)

    monkeypatch.setattr(harness, "_run_index_range", recording)
    monkeypatch.setattr(harness, "_pool", lambda workers: _InlinePool())
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    config = SimulationConfig(node_count=(60, 20, 100), realizations=realizations)
    monkeypatch.setenv("UOWSN_THREADS", "1")
    serial = run_campaign(config)
    for threads in ("2", "3", "5", "8"):
        monkeypatch.setenv("UOWSN_THREADS", threads)
        result = run_campaign(config)
        assert result.records == serial.records, threads
        assert result.aggregates == serial.aggregates, threads
    # The worker counts cut 7 or 13 realizations into chunks of several sizes.
    if realizations > 1:
        assert len(chunk_sizes) > 1


def test_config_from_dict_roundtrip_and_errors():
    config = config_from_dict(
        {
            "area": [200, 200],
            "node_count": [10, 20],
            "max_range": 60,
            "water": "coastal",
            "channel": {"tx_power": 0.2},
            "noise": {"dark_count_rate": 5e5},
            "source_pos": [20, 100],
            "target_pos": [180, 100],
            "protocols": ["crp", "srp"],
            "weight_mode": "paper",
            "delay": {"packet_bits": 2048},
            "realizations": 7,
            "master_seed": 9,
            "srp_fallback": True,
        }
    )
    assert config.channel.extinction == 0.30
    assert config.channel.tx_power == 0.2
    assert config.noise.dark_count_rate == 5e5
    assert config.protocols == (Protocol.CRP, Protocol.SRP)
    assert config.weight_mode is WeightMode.PAPER_SUM
    assert config.delay.packet_bits == 2048
    assert config.srp_fallback is True

    with pytest.raises(ConfigError):
        config_from_dict({"node_cont": 40})
    with pytest.raises(ConfigError):
        config_from_dict({"water": "swamp"})
    with pytest.raises(ConfigError):
        config_from_dict({"area": [250]})
    with pytest.raises(ConfigError):
        config_from_dict({"channel": {"tx_power": -1}})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "mapping"])
    for bad in (
        {"srp_fallback": "false"},
        {"record_timing": "no"},
        {"node_count": 40.7},
        {"node_count": [20, 30.5]},
        {"node_count": True},
        {"realizations": 2.9},
        {"realizations": True},
        {"master_seed": "9"},
        {"max_range": float("nan")},
        {"area": [250, float("inf")]},
        {"area": ["250", True]},
        {"source_pos": ["0", "0"]},
        {"channel": {"tx_power": float("inf")}},
        {"channel": {"extinction": float("nan")}},
        {"noise": {"data_rate": float("inf")}},
        {"node_count": [20, 30, 20]},
        {"protocols": ["crp", "crp"]},
        {"max_range": 10**400},
        {"area": [250, -(10**400)]},
        {"noise": {"dark_count_rate": 10**400}},
        {"channel": {"tx_power": 10**400}},
        {"delay": {"packet_bits": 10**400}},
        {"channel": {"absorption": 0.2}},
        {"water": "turbid", "channel": {"scattering": 5.0}},
        {"channel": {"absorption": 1e308, "scattering": 1e308}},
        {"constants": {"planck": 6.62607015e-34}},  # a module constant, not a key
        # A JSON object or string is not read as the list of its keys or letters.
        {"protocols": {"crp": True}, "node_count": 20},
        {"protocols": "crp"},
        {"node_count": "20"},
    ):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


_JSON_NUMBERS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(10**400), 10**400),
    st.floats(),
)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _JSON_NUMBERS,
        st.sampled_from(["clear", "coastal", "turbid", "crp", "drp", "srp", "paper", "exact"]),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _fields_of(keys, values, max_size):
    """Mappings over some of the given keys."""
    return st.dictionaries(st.sampled_from(keys), values, max_size=max_size)


# A nested section often comes alone, so that its values get past the
# top-level checks and reach its dataclass's own.
_CONFIG_DOCUMENTS = st.one_of(
    *(
        st.fixed_dictionaries({name: _fields_of(keys, _JSON_VALUES, 4)})
        for name, keys in NESTED.items()
    ),
    _fields_of(
        TOP_LEVEL + list(NESTED),
        _JSON_VALUES | st.lists(_JSON_NUMBERS, min_size=2, max_size=2),
        3,
    ),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_CONFIG_DOCUMENTS)
def test_config_from_dict_builds_or_raises_config_error(doc):
    try:
        config = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(config, SimulationConfig)
    assert math.isfinite(config.channel.extinction)


def test_config_rejects_node_pairs_past_the_index_range():
    # The node_count rule's bound lies far below the counts whose n(n-1)/2
    # node pairs pass sys.maxsize; the config is only checked here, no
    # deployment is drawn.
    assert SimulationConfig(node_count=4000).node_count == 4000
    for node_count in (4001, 12000, (20, 2**32 + 1), 10**20):
        with pytest.raises(ConfigError, match="node_count"):
            SimulationConfig(node_count=node_count)
