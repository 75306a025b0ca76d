"""What a run is configured with: the config types, their rules and errors.

`SimulationConfig` and the parameter sets and enums it holds, the JSON
reader `config_from_dict`, the default node-count sweep, and the two
errors the CLI maps to exit codes (`ConfigError` is re-exported from
`channel`, beside its rules).  This module imports only `channel`, so the
sweeps, which read a config but route nothing, never load the routing
stack (`harness`, `routing`, `topology`, `metrics`).
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

from .channel import (
    FINITE, POSITIVE, ChannelParams, ConfigError, ReceiverNoise, WaterType, check_fields, ranged,
    short_repr,
)

DEFAULT_NODE_SWEEP = (20, 30, 40, 50, 60, 70, 80, 90, 100)


class WorkerDiedError(RuntimeError):
    """A campaign's pool lost a worker process."""


class Protocol(Enum):
    CRP = "crp"
    DRP = "drp"
    SRP = "srp"


class WeightMode(Enum):
    """Edge-weight choices for CRP.

    PAPER_SUM uses the link BER itself, so Dijkstra minimizes the plain sum
    of per-hop error probabilities.  EXACT_LOG uses -ln(1 - 2*ber), whose
    sum-minimizing path provably has the least end-to-end BER; links with
    ber >= 0.5 carry no information and are treated as absent.
    """

    PAPER_SUM = "paper"
    EXACT_LOG = "exact"


@dataclass(frozen=True)
class DelayModel:
    """Per-packet constants of the delay computation.

    ``packet_bits`` bits per packet, ``per_hop_processing`` seconds.  The
    data rate is the receiver's ``noise.data_rate`` of the simulation config
    and the speed of light is ``LIGHT_SPEED_WATER``.
    """

    # Up to 1 Tb (125 GB) per packet and 1e6 s (11.6 days) per hop.
    packet_bits: float = ranged(1024.0, (float, 0.0, 1e12, "(]"))
    per_hop_processing: float = ranged(0.0, (float, 0.0, 1e6, "[]"))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one experiment.

    ``node_count`` may be a single int (one deployment size) or a sequence
    of ints (a campaign sweep); a one-element sequence is stored as its
    int.  ``channel`` holds the resolved extinction: `config_from_dict`
    takes it from ``water`` (``ChannelParams.for_water``) or from
    ``channel.extinction``, never from both.
    """

    # From a 1 mm side to 1000 km, wider than any deployment.
    area: tuple[float, float] = ranged((250.0, 250.0), (float, 1e-3, 1e6, "[]"), each=True)
    # A route at 4000 nodes peaks at 918 MB (about 115 bytes per node pair).
    node_count: int | tuple[int, ...] = ranged(40, (int, 2, 4000, "[]"), each=True)
    max_range: float = ranged(80.0, POSITIVE)
    channel: ChannelParams = ranged(ChannelParams(), ChannelParams)
    noise: ReceiverNoise = ranged(ReceiverNoise(), ReceiverNoise)
    source_pos: tuple[float, float] = ranged((52.5, 125.0), FINITE, each=True)
    target_pos: tuple[float, float] = ranged((197.5, 125.0), FINITE, each=True)
    protocols: tuple[Protocol, ...] = ranged(tuple(Protocol), Protocol, each=True)
    weight_mode: WeightMode = ranged(WeightMode.EXACT_LOG, WeightMode)
    delay: DelayModel = ranged(DelayModel(), DelayModel)
    # A stock campaign's peak RSS grows about 12 KB per realization: 1.2 GB at the bound.
    realizations: int = ranged(500, (int, 1, 10**5, "[]"))
    master_seed: int = ranged(42, (int, 0, math.inf, "[)"))
    srp_fallback: bool = ranged(False, bool)
    record_timing: bool = ranged(False, bool)

    def __post_init__(self):
        if isinstance(self.node_count, (list, tuple)) and self.node_count:
            counts = tuple(self.node_count)
            object.__setattr__(self, "node_count", counts[0] if len(counts) == 1 else counts)
        elif not isinstance(self.node_count, int):
            raise ConfigError(
                "node_count must be an int or a non-empty list of ints, "
                f"got {short_repr(self.node_count)}"
            )
        for name in ("area", "source_pos", "target_pos"):
            pair = getattr(self, name)
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{name} must be a pair of numbers, got {short_repr(pair)}")
            object.__setattr__(self, name, tuple(pair))
        if not isinstance(self.protocols, (list, tuple)) or not self.protocols:
            raise ConfigError(
                f"protocols must be a non-empty list or tuple, got {short_repr(self.protocols)}"
            )
        object.__setattr__(self, "protocols", tuple(self.protocols))
        check_fields(self)
        counts = self.node_counts
        if len(set(counts)) != len(counts):
            raise ConfigError(f"node_count sweep repeats a value: {short_repr(counts)}")
        if len(set(self.protocols)) != len(self.protocols):
            values = [p.value for p in self.protocols]
            raise ConfigError(f"protocols repeat a value: {short_repr(values)}")
        # Enum order, so that every output lists the protocols the same way.
        object.__setattr__(self, "protocols", tuple(p for p in Protocol if p in self.protocols))
        width, height = self.area
        for name, (x, y) in (("source_pos", self.source_pos), ("target_pos", self.target_pos)):
            if not (0.0 <= x <= width and 0.0 <= y <= height):
                raise ConfigError(f"{name} {(x, y)} lies outside the {self.area} area")
        (sx, sy), (tx, ty) = self.source_pos, self.target_pos
        if (tx - sx) * (tx - sx) + (ty - sy) * (ty - sy) == 0.0 and (sx, sy) != (tx, ty):
            raise ConfigError("source_pos and target_pos are too close to square their distance")

    @property
    def node_counts(self) -> tuple[int, ...]:
        """The node-count sweep as a tuple, even for a single value."""
        if isinstance(self.node_count, int):
            return (self.node_count,)
        return self.node_count

    def single_node_count(self) -> int:
        if not isinstance(self.node_count, int):
            raise ConfigError(
                f"a single trial needs one node_count, got sweep {short_repr(self.node_count)}"
            )
        return self.node_count


def _field_names(cls) -> frozenset:
    return frozenset(spec.name for spec in fields(cls))


# The config document's keys: the fields, plus ``water``, which resolves into ``channel``.
CONFIG_KEYS = _field_names(SimulationConfig) | {"water"}


def config_from_dict(raw: dict) -> SimulationConfig:
    """Build a SimulationConfig from a parsed config document.

    Its keys are `CONFIG_KEYS`; an unknown key, there or in ``channel``,
    ``noise`` or ``delay``, is rejected, so a typo fails loudly.
    ``channel`` takes the `ChannelParams` fields; ``water``, if given, sets
    the extinction through `ChannelParams.for_water`, which rejects a
    ``channel.extinction`` beside it.  Angles inside ``channel`` are
    radians; water names are clear / coastal / turbid; protocol names crp /
    drp / srp; weight mode paper / exact.
    """
    kwargs = dict(_known_keys("config", raw, CONFIG_KEYS))
    channel = _known_keys("channel", kwargs.get("channel", {}), _field_names(ChannelParams))
    if "water" in kwargs:
        water = _member(WaterType, "water", kwargs.pop("water"))
        kwargs["channel"] = ChannelParams.for_water(water, **channel)
    else:
        kwargs["channel"] = ChannelParams(**channel)
    for name, cls in (("noise", ReceiverNoise), ("delay", DelayModel)):
        if name in raw:
            kwargs[name] = cls(**_known_keys(name, raw[name], _field_names(cls)))
    # Any other value reaches SimulationConfig, which rejects it.
    if isinstance(raw.get("protocols"), list):
        kwargs["protocols"] = tuple(_member(Protocol, "protocols", p) for p in raw["protocols"])
    if "weight_mode" in raw:
        kwargs["weight_mode"] = _member(WeightMode, "weight_mode", raw["weight_mode"])
    return SimulationConfig(**kwargs)


def _known_keys(name: str, doc, keys: frozenset) -> dict:
    """``doc``, if it is an object whose every key is in ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys: {short_repr(sorted(unknown))}")
    return doc


def _member(cls, name: str, value):
    """The member of the enum ``cls`` whose value is ``value``: every enum
    name from a file or a flag is converted here."""
    try:
        return cls(value)
    except ValueError:
        choices = ", ".join(member.value for member in cls)
        raise ConfigError(f"{name} must be one of {choices}, got {short_repr(value)}") from None
