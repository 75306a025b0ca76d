"""Per-trial metric records: end-to-end delay, BER and complexity figures.

The delay of a route is propagation over the total path length plus, per
hop, packet serialization and an optional fixed processing time.  Absolute
delay magnitudes therefore depend on these model constants; only orderings
between protocols are meaningful for comparison purposes.
"""

from dataclasses import dataclass

from .channel import LIGHT_SPEED_WATER, require_finite
from .routing import FailureReason, Protocol, Route


@dataclass(frozen=True)
class DelayModel:
    """Per-packet constants of the delay computation.

    ``packet_bits`` bits per packet, ``per_hop_processing`` seconds.  The
    data rate is the receiver's ``noise.data_rate`` of the simulation config
    and the speed of light is ``LIGHT_SPEED_WATER``.
    """

    packet_bits: float = 1024.0
    per_hop_processing: float = 0.0

    def __post_init__(self):
        require_finite(ValueError, **vars(self))
        if self.packet_bits <= 0.0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")
        if self.per_hop_processing < 0.0:
            raise ValueError(
                f"per_hop_processing must be >= 0, got {self.per_hop_processing}"
            )


@dataclass(frozen=True)
class TrialMetrics:
    """One protocol's result on one trial.

    On failure only ``evaluations`` and ``wall_clock_ns`` are populated;
    the route-derived fields stay None.
    """

    protocol: Protocol
    success: bool
    failure_reason: FailureReason | None
    hop_count: int | None
    e2e_ber: float | None
    e2e_delay_s: float | None
    total_distance_m: float | None
    evaluations: int
    wall_clock_ns: int


def e2e_delay(route: Route, config) -> float:
    """End-to-end delay of a route in seconds (empty route -> 0).

    ``config`` is a SimulationConfig; its ``delay`` and ``noise.data_rate``
    set the figures, and light travels at ``LIGHT_SPEED_WATER``.
    """
    delay = config.delay
    propagation = route.total_distance / LIGHT_SPEED_WATER
    per_hop = delay.packet_bits / config.noise.data_rate + delay.per_hop_processing
    return propagation + route.hop_count * per_hop


def collect_trial(outcomes, config, timings=None) -> list[TrialMetrics]:
    """Flatten per-protocol routing outcomes into metric records.

    ``outcomes`` maps Protocol -> RoutingOutcome for one trial; ``config``
    is the SimulationConfig the delay is computed under; ``timings``
    optionally maps Protocol -> wall-clock nanoseconds (0 when absent).
    Records come back in the order of ``outcomes``.
    """
    timings = timings or {}
    records = []
    for protocol, outcome in outcomes.items():
        route = outcome.route
        records.append(
            TrialMetrics(
                protocol=protocol,
                success=outcome.success,
                failure_reason=outcome.failure_reason,
                hop_count=route.hop_count if route else None,
                e2e_ber=route.e2e_ber if route else None,
                e2e_delay_s=e2e_delay(route, config) if route else None,
                total_distance_m=route.total_distance if route else None,
                evaluations=outcome.evaluations,
                wall_clock_ns=int(timings.get(protocol, 0)),
            )
        )
    return records
