"""Deterministic simulator for underwater optical wireless sensor networks.

Each exported name is imported from its module on first access (PEP 562).
``python -m uowsim`` imports this package first, so importing every module
here would make the sweeps load the routing stack they never call.
"""

import importlib

# Each module and the names it exports through the package.
_EXPORTS = {
    "channel": "BER_FLOOR LIGHT_SPEED_WATER PLANCK ChannelParams ReceiverNoise WaterType chain_ber"
    " e2e_ber link_power_and_ber photon_arrival_rate received_power_los single_link_ber",
    "config": "ConfigError DelayModel Protocol SimulationConfig WeightMode WorkerDiedError"
    " config_from_dict",
    "harness": "AggregateStats CampaignResult TrialResult derive_trial_seed run_campaign run_single",
    "metrics": "TrialMetrics collect_trial path_delay",
    "routing": "FailureReason Route RoutingOutcome crp drp srp",
    "topology": "SOURCE_ID TARGET_ID NetworkGraph build_graph generate_deployment path_exists"
    " price_links",
}
# The one name-to-module table.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = tuple(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
