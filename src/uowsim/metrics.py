"""Per-trial metric records: end-to-end delay, BER and complexity figures.

The delay of a route is propagation over the total path length plus, per
hop, packet serialization and an optional fixed processing time.  Absolute
delay magnitudes therefore depend on these model constants; only orderings
between protocols are meaningful for comparison purposes.
"""

from dataclasses import dataclass

from .channel import LIGHT_SPEED_WATER
from .config import Protocol
from .routing import FailureReason


@dataclass(frozen=True)
class TrialMetrics:
    """One protocol's result on one trial, with the trial's coordinates.

    ``realization`` is the campaign realization index, None for a trial
    run on its own.  On failure only ``evaluations`` and ``wall_clock_ns``
    are populated; the route-derived fields stay None.
    """

    protocol: Protocol
    n_nodes: int
    realization: int | None
    seed: int
    success: bool
    failure_reason: FailureReason | None
    hop_count: int | None
    e2e_ber: float | None
    e2e_delay_s: float | None
    total_distance_m: float | None
    evaluations: int
    wall_clock_ns: int


def path_delay(hop_count, distance, config) -> float:
    """Delay in seconds of ``hop_count`` hops over ``distance`` metres.

    ``config`` is a SimulationConfig; its ``delay`` and ``noise.data_rate``
    set the per-hop figure, and light travels at ``LIGHT_SPEED_WATER``.
    """
    delay = config.delay
    propagation = distance / LIGHT_SPEED_WATER
    per_hop = delay.packet_bits / config.noise.data_rate + delay.per_hop_processing
    return propagation + hop_count * per_hop


def collect_trial(
    outcomes, config, n_nodes, seed, realization=None, timings=None
) -> list[TrialMetrics]:
    """Flatten per-protocol routing outcomes into metric records.

    ``outcomes`` maps Protocol -> RoutingOutcome for one trial of
    ``n_nodes`` nodes drawn from ``seed`` (campaign ``realization``, if
    any); ``config`` is the SimulationConfig the delay is computed under;
    ``timings`` optionally maps Protocol -> wall-clock nanoseconds (0 when
    absent).  Records come back in the order of ``outcomes``.
    """
    timings = timings or {}
    records = []
    for protocol, outcome in outcomes.items():
        route = outcome.route
        hops = ber = delay = distance = None
        if route:
            hops, ber, distance = route.hop_count, route.e2e_ber, route.total_distance
            delay = path_delay(hops, distance, config)
        records.append(
            TrialMetrics(
                protocol=protocol,
                n_nodes=n_nodes,
                realization=realization,
                seed=seed,
                success=outcome.success,
                failure_reason=outcome.failure_reason,
                hop_count=hops,
                e2e_ber=ber,
                e2e_delay_s=delay,
                total_distance_m=distance,
                evaluations=outcome.evaluations,
                wall_clock_ns=int(timings.get(protocol, 0)),
            )
        )
    return records
