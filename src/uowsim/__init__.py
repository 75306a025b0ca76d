"""Deterministic simulator for underwater optical wireless sensor networks."""

from .channel import (
    BER_FLOOR,
    LIGHT_SPEED_WATER,
    PLANCK,
    ChannelParams,
    ReceiverNoise,
    WaterType,
    chain_ber,
    e2e_ber,
    link_power_and_ber,
    photon_arrival_rate,
    received_power_los,
    single_link_ber,
)
from .harness import (
    AggregateStats,
    CampaignResult,
    ConfigError,
    SimulationConfig,
    TrialResult,
    WorkerDiedError,
    config_from_dict,
    derive_trial_seed,
    run_campaign,
    run_single,
)
from .metrics import DelayModel, TrialMetrics, collect_trial, path_delay
from .routing import (
    FailureReason,
    Protocol,
    Route,
    RoutingOutcome,
    WeightMode,
    crp,
    drp,
    srp,
)
from .topology import (
    SOURCE_ID,
    TARGET_ID,
    NetworkGraph,
    build_graph,
    generate_deployment,
    path_exists,
    price_links,
)

__version__ = "0.1.0"
