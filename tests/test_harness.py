import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uowsim import (
    ChannelParams,
    ConfigError,
    DelayModel,
    FailureReason,
    Protocol,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
    WeightMode,
    config_from_dict,
    derive_trial_seed,
    run_campaign,
    run_single,
)
from uowsim.harness import DEFAULT_NODE_SWEEP, resolve_workers


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


def test_config_resolves_channel_from_water():
    config = config_from_dict({"water": "turbid"})
    assert config.channel.extinction == 2.19
    explicit = config_from_dict({"water": "turbid", "channel": {"extinction": 0.5}})
    assert explicit.channel.extinction == 0.5


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
            stats = result.get(protocol, n)
            assert stats.trials == 25
            failures = sum(
                1
                for r in result.records
                if r.n_nodes == n
                and r.metrics.protocol is protocol
                and not r.metrics.success
            )
            assert stats.successes + failures == stats.trials
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
    """Stand-in for `harness._pool`'s process pool: maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
    config = SimulationConfig(node_count=(20, 30), realizations=realizations)
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
    components = config_from_dict({"channel": {"absorption": 0.2, "scattering": 0.2}})
    assert components.channel.extinction == pytest.approx(0.4)

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


def _keys_of(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _fields_of(keys, values, max_size):
    """Mappings over some of the given keys."""
    return st.dictionaries(st.sampled_from(keys), values, max_size=max_size)


# The channel section also takes the two components of the extinction,
# which are not ChannelParams fields.
_NESTED = {
    "channel": _keys_of(ChannelParams) + ["absorption", "scattering"],
    "noise": _keys_of(ReceiverNoise),
    "delay": _keys_of(DelayModel),
}
# The document also takes ``water``, which resolves into ``channel`` and is
# not a SimulationConfig field.
_TOP_LEVEL = _keys_of(SimulationConfig) + ["water"]
# A nested section often comes alone, so that its values get past the
# top-level checks and reach its dataclass's own.
_CONFIG_DOCUMENTS = st.one_of(
    *(
        st.fixed_dictionaries({name: _fields_of(keys, _JSON_VALUES, 4)})
        for name, keys in _NESTED.items()
    ),
    _fields_of(
        _TOP_LEVEL,
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
