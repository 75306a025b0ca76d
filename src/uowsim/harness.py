"""Seeded Monte-Carlo campaigns over node counts and routing protocols.

A campaign sweeps node counts and, for each count, runs a number of
realizations.  Every realization redraws the relay positions from a trial
seed derived as ``SeedSequence([master_seed, realization_index])``; source
and target stay fixed.  All three protocols run on the identical graph of a
trial.  Trials are independent, so they can execute on any number of
workers; records are always assembled and reduced in (node count,
realization, protocol) order, which keeps results bit-identical regardless
of parallelism.
"""

import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import ChannelParams, ReceiverNoise, WaterType, require_finite
from .metrics import DelayModel, TrialMetrics, collect_trial
from .routing import (
    FailureReason,
    Protocol,
    RoutingOutcome,
    WeightMode,
    crp,
    drp,
    srp,
)
from .topology import SOURCE_ID, TARGET_ID, build_graph, generate_deployment, path_exists

THREADS_ENV_VAR = "UOWSN_THREADS"

DEFAULT_NODE_SWEEP = (20, 30, 40, 50, 60, 70, 80, 90, 100)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class WorkerDiedError(RuntimeError):
    """A campaign's pool lost a worker process."""


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one experiment.

    ``node_count`` may be a single int (one deployment size) or a sequence
    of ints (a campaign sweep).  ``channel`` holds the resolved water:
    `config_from_dict` builds it with ``ChannelParams.for_water``.
    """

    area: tuple[float, float] = (250.0, 250.0)
    node_count: int | tuple[int, ...] = 40
    max_range: float = 80.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    noise: ReceiverNoise = field(default_factory=ReceiverNoise)
    source_pos: tuple[float, float] = (52.5, 125.0)
    target_pos: tuple[float, float] = (197.5, 125.0)
    protocols: tuple[Protocol, ...] = (Protocol.CRP, Protocol.DRP, Protocol.SRP)
    weight_mode: WeightMode = WeightMode.EXACT_LOG
    delay: DelayModel = field(default_factory=DelayModel)
    realizations: int = 500
    master_seed: int = 42
    srp_fallback: bool = False
    record_timing: bool = False

    def __post_init__(self):
        for name, cls in (
            ("channel", ChannelParams),
            ("noise", ReceiverNoise),
            ("delay", DelayModel),
            ("weight_mode", WeightMode),
        ):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        if isinstance(self.node_count, int):
            counts = (self.node_count,)
        else:
            counts = tuple(self.node_count)
            object.__setattr__(self, "node_count", counts)
            if not counts:
                raise ConfigError("node_count sweep must not be empty")
        for n in counts:
            if not _is_int(n) or n < 2:
                raise ConfigError(f"node_count values must be ints >= 2, got {n!r}")
        if len(set(counts)) != len(counts):
            raise ConfigError(f"node_count sweep repeats a value: {counts}")
        for name in ("area", "source_pos", "target_pos"):
            pair = getattr(self, name)
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{name} must be a pair of numbers, got {pair!r}")
            object.__setattr__(self, name, tuple(pair))
        require_finite(
            ConfigError,
            area=self.area,
            max_range=self.max_range,
            source_pos=self.source_pos,
            target_pos=self.target_pos,
        )
        width, height = self.area
        if width <= 0.0 or height <= 0.0:
            raise ConfigError(f"area dimensions must be > 0, got {self.area}")
        # build_graph squares coordinate offsets; where a square underflows,
        # distinct nodes would count as coincident.
        if width * width < sys.float_info.min or height * height < sys.float_info.min:
            raise ConfigError(f"area dimensions are too small to square, got {self.area}")
        if self.max_range <= 0.0:
            raise ConfigError(f"max_range must be > 0, got {self.max_range}")
        if not _is_int(self.realizations) or self.realizations < 1:
            raise ConfigError(f"realizations must be an int >= 1, got {self.realizations!r}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError(f"master_seed must be an int >= 0, got {self.master_seed!r}")
        for name in ("srp_fallback", "record_timing"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.protocols, (list, tuple)) or not self.protocols:
            raise ConfigError(f"protocols must be a non-empty list or tuple, got {self.protocols!r}")
        if not all(isinstance(p, Protocol) for p in self.protocols):
            raise ConfigError(f"protocols must be Protocol values, got {self.protocols!r}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigError(f"protocols repeat a value: {[p.value for p in self.protocols]}")
        # Enum order, so that every output lists the protocols the same way.
        object.__setattr__(self, "protocols", tuple(p for p in Protocol if p in self.protocols))
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
                f"a single trial needs one node_count, got sweep {self.node_count}"
            )
        return self.node_count


def derive_trial_seed(master_seed: int, realization_index: int) -> int:
    """Deterministic per-trial seed from the master seed and trial index."""
    sequence = np.random.SeedSequence([int(master_seed), int(realization_index)])
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrialResult:
    """Everything one trial produced, including the routes themselves."""

    graph: object
    outcomes: dict
    metrics: list[TrialMetrics]


def run_single(config: SimulationConfig, seed: int) -> TrialResult:
    """Deploy, build the graph and run every selected protocol once.

    A trial whose graph leaves source and target disconnected records a
    DISCONNECTED failure for all protocols without running them.
    """
    positions = generate_deployment(config, seed)
    graph = build_graph(positions, config.max_range, config.channel, config.noise)
    connected = path_exists(graph, SOURCE_ID, TARGET_ID)

    outcomes = {}
    timings = {}
    for protocol in config.protocols:
        if not connected:
            outcomes[protocol] = RoutingOutcome(
                route=None, failure_reason=FailureReason.DISCONNECTED, evaluations=0
            )
            timings[protocol] = 0
            continue
        started = time.perf_counter_ns() if config.record_timing else 0
        if protocol is Protocol.CRP:
            outcome = crp(graph, SOURCE_ID, TARGET_ID, config.weight_mode)
        elif protocol is Protocol.DRP:
            outcome = drp(graph, SOURCE_ID, TARGET_ID)
        else:
            outcome = srp(graph, SOURCE_ID, TARGET_ID, fallback=config.srp_fallback)
        timings[protocol] = time.perf_counter_ns() - started if config.record_timing else 0
        outcomes[protocol] = outcome

    metrics = collect_trial(outcomes, config, timings)
    return TrialResult(graph=graph, outcomes=outcomes, metrics=metrics)


@dataclass(frozen=True)
class TrialRecord:
    """A TrialMetrics tagged with its campaign coordinates."""

    n_nodes: int
    realization: int
    seed: int
    metrics: TrialMetrics


@dataclass(frozen=True)
class AggregateStats:
    """Campaign statistics for one (protocol, node count) cell.

    Means and standard deviations (population, ddof=0) are taken over the
    successful trials only; cells with no success carry None.
    """

    protocol: Protocol
    n_nodes: int
    trials: int
    successes: int
    success_rate: float
    mean_e2e_ber: float | None
    std_e2e_ber: float | None
    mean_delay_s: float | None
    std_delay_s: float | None
    mean_evaluations: float | None
    std_evaluations: float | None
    mean_hops: float | None
    std_hops: float | None


@dataclass(frozen=True)
class CampaignResult:
    records: list[TrialRecord]
    aggregates: list[AggregateStats]

    def get(self, protocol: Protocol, n_nodes: int) -> AggregateStats:
        for stats in self.aggregates:
            if stats.protocol is protocol and stats.n_nodes == n_nodes:
                return stats
        raise KeyError((protocol, n_nodes))


def _run_index_range(config: SimulationConfig, first_index: int, seeds) -> list[TrialRecord]:
    """Records of the realizations from ``first_index`` on, one per seed."""
    records = []
    n = config.single_node_count()
    for index, seed in enumerate(seeds, first_index):
        for metric in run_single(config, seed).metrics:
            records.append(
                TrialRecord(n_nodes=n, realization=index, seed=seed, metrics=metric)
            )
    return records


def resolve_workers() -> int:
    """Worker count from UOWSN_THREADS: 1 when unset, 0 = auto."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if workers < 0:
        raise ConfigError(f"worker count must be >= 0, got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


def _pool(workers: int):
    """A process pool of ``workers`` processes.

    The pool's modules (multiprocessing, subprocess) are imported here, not
    at module load, so that a serial run does not pay for them.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_campaign(config: SimulationConfig) -> CampaignResult:
    """Execute the full sweep and aggregate per (protocol, node count).

    The result is a pure function of the config: each realization's seed
    is derived once, the realizations are cut into (per-count config,
    first index, seeds) tasks that run inline on one worker or on a
    process pool of at most ``min(workers, cpu count, tasks)`` processes,
    and their records are reassembled in task order.  A pool that loses a
    worker raises `WorkerDiedError`.
    """
    workers = min(resolve_workers(), os.cpu_count() or 1)
    chunk = max(1, math.ceil(config.realizations / (workers * 4)))
    seeds = [derive_trial_seed(config.master_seed, i) for i in range(config.realizations)]
    per_count_configs = [replace(config, node_count=n) for n in config.node_counts]
    tasks = [
        (cfg, start, seeds[start : start + chunk])
        for cfg in per_count_configs
        for start in range(0, config.realizations, chunk)
    ]
    workers = min(workers, len(tasks))
    if workers <= 1:
        chunks = [_run_index_range(*task) for task in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            with _pool(workers) as pool:
                chunks = list(pool.map(_run_index_range, *zip(*tasks)))
        except BrokenProcessPool as exc:
            raise WorkerDiedError(str(exc)) from exc
    records = [record for part in chunks for record in part]
    return CampaignResult(records=records, aggregates=aggregate_records(records, config))


def aggregate_records(records, config: SimulationConfig) -> list[AggregateStats]:
    """Reduce trial records into per-(protocol, node count) statistics."""
    by_cell: dict[tuple[Protocol, int], list[TrialRecord]] = {}
    for record in records:
        by_cell.setdefault((record.metrics.protocol, record.n_nodes), []).append(record)

    aggregates = []
    for n in config.node_counts:
        for protocol in config.protocols:
            cell = sorted(by_cell.get((protocol, n), []), key=lambda r: r.realization)
            successes = [r.metrics for r in cell if r.metrics.success]
            mean_ber, std_ber = _mean_std([m.e2e_ber for m in successes])
            mean_delay, std_delay = _mean_std([m.e2e_delay_s for m in successes])
            mean_evals, std_evals = _mean_std([m.evaluations for m in successes])
            mean_hops, std_hops = _mean_std([m.hop_count for m in successes])
            aggregates.append(
                AggregateStats(
                    protocol=protocol,
                    n_nodes=n,
                    trials=len(cell),
                    successes=len(successes),
                    success_rate=len(successes) / len(cell) if cell else 0.0,
                    mean_e2e_ber=mean_ber,
                    std_e2e_ber=std_ber,
                    mean_delay_s=mean_delay,
                    std_delay_s=std_delay,
                    mean_evaluations=mean_evals,
                    std_evaluations=std_evals,
                    mean_hops=mean_hops,
                    std_hops=std_hops,
                )
            )
    return aggregates


def config_from_dict(raw: dict) -> SimulationConfig:
    """Build a SimulationConfig from a parsed config document.

    Keys mirror the dataclass field names, plus ``water``, which resolves
    into ``channel``; unknown keys are rejected so typos fail loudly.
    Angles inside ``channel`` are radians; water names are clear / coastal
    / turbid; protocol names crp / drp / srp; weight mode paper / exact.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config document must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(SimulationConfig)} - {"water"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kwargs = dict(raw)
    try:
        water = WaterType(kwargs.pop("water", WaterType.CLEAR_OCEAN))
        kwargs["channel"] = ChannelParams.for_water(water, **raw.get("channel", {}))
        for name, cls in (("noise", ReceiverNoise), ("delay", DelayModel)):
            if name in raw:
                kwargs[name] = cls(**raw[name])
        if "protocols" in raw:
            kwargs["protocols"] = tuple(Protocol(p) for p in raw["protocols"])
        if "weight_mode" in raw:
            kwargs["weight_mode"] = WeightMode(raw["weight_mode"])
        return SimulationConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mean_std(values):
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0))
