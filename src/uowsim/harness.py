"""Seeded Monte-Carlo campaigns over node counts and routing protocols.

A campaign sweeps node counts and, for each count, runs a number of
realizations.  Every realization draws the relay positions once, at the
largest count, from a trial seed derived as
``SeedSequence([master_seed, realization_index])``; a smaller count takes a
prefix of them, and source and target stay fixed.  All three protocols run
on the identical graph of a trial.  Realizations are independent, so they
can execute on any number of workers; records are always assembled and
reduced in (node count, realization, protocol) order, which keeps results
bit-identical regardless of parallelism.
"""

import math
import os
import signal
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, Protocol, SimulationConfig, WorkerDiedError
from .metrics import TrialMetrics, collect_trial
from .routing import FailureReason, RoutingOutcome, crp, drp, srp
from .topology import (
    SOURCE_ID,
    TARGET_ID,
    build_graph,
    generate_deployment,
    path_exists,
    price_links,
)

THREADS_ENV_VAR = "UOWSN_THREADS"


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
    """Deploy, price the links and route one trial (see `_route_trial`)."""
    positions = generate_deployment(config, seed)
    (links,) = price_links(
        positions, (len(positions),), config.max_range, config.channel, config.noise
    )
    return _route_trial(config, build_graph(positions, links), seed)


_DISCONNECTED = RoutingOutcome(route=None, failure_reason=FailureReason.DISCONNECTED, evaluations=0)


def _route_trial(config, graph, seed, realization=None) -> TrialResult:
    """Run every selected protocol on one trial's graph.

    A trial whose graph leaves source and target disconnected records a
    DISCONNECTED failure for all protocols without running them.
    """
    outcomes = dict.fromkeys(config.protocols, _DISCONNECTED)
    timings = {}
    if path_exists(graph, SOURCE_ID, TARGET_ID):
        for protocol in config.protocols:
            started = time.perf_counter_ns()
            if protocol is Protocol.CRP:
                outcomes[protocol] = crp(graph, SOURCE_ID, TARGET_ID, config.weight_mode)
            elif protocol is Protocol.DRP:
                outcomes[protocol] = drp(graph, SOURCE_ID, TARGET_ID)
            else:
                outcomes[protocol] = srp(graph, SOURCE_ID, TARGET_ID, fallback=config.srp_fallback)
            if config.record_timing:
                timings[protocol] = time.perf_counter_ns() - started

    metrics = collect_trial(outcomes, config, graph.node_count, seed, realization, timings)
    return TrialResult(graph=graph, outcomes=outcomes, metrics=metrics)


@dataclass(frozen=True)
class AggregateStats:
    """Campaign statistics for one (protocol, node count) cell.

    Means and standard deviations (population, ddof=0) are taken over the
    successful trials only; cells with no success carry None.
    """

    protocol: Protocol
    n_nodes: int
    trials: int
    success_rate: float
    mean_e2e_ber: float | None
    std_e2e_ber: float | None
    mean_delay_s: float | None
    std_delay_s: float | None
    mean_evaluations: float | None
    mean_hops: float | None


@dataclass(frozen=True)
class CampaignResult:
    records: list[TrialMetrics]
    aggregates: list[AggregateStats]


def _run_index_range(
    config: SimulationConfig, first_index: int, seeds
) -> list[list[TrialMetrics]]:
    """Records of the realizations from ``first_index`` on, one list per node count.

    Each realization is drawn once, at the largest count, and every count's
    trial takes the first ``n`` positions: one ``rng.uniform`` call draws
    the relays, so a smaller count's relays are a prefix of a larger one's.
    All counts' links of a realization are priced in one call.  The
    largest count routes first and builds the realization's graph; every
    other count routes a view of it.
    """
    counts = config.node_counts
    largest = replace(config, node_count=max(counts))
    records = [[] for _ in counts]
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    for index, seed in enumerate(seeds, first_index):
        positions = generate_deployment(largest, seed)
        priced = price_links(positions, counts, config.max_range, config.channel, config.noise)
        whole = None
        for c in order:
            graph = build_graph(positions[: counts[c]], priced[c], whole)
            whole = whole or graph
            records[c].extend(_route_trial(config, graph, seed, index).metrics)
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
    at module load, so that a serial run does not pay for them.  A forked
    worker would inherit the CLI's SIGTERM handler; each takes the default
    back, so that `_stop_workers` ends it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, initializer=signal.signal, initargs=(signal.SIGTERM, signal.SIG_DFL)
    )


def _stop_workers(pool) -> None:
    """End ``pool``'s workers without waiting for their tasks.

    Leaving the pool's ``with`` block waits for every running task, so a
    run that is interrupted, or a task that never returns, would hang
    there.  Python 3.14 has `terminate_workers`; before it the workers are
    reachable only through the private ``_processes`` map.  They are joined
    here, so that none is left when the exception propagates.
    """
    if hasattr(pool, "terminate_workers"):
        pool.terminate_workers()
        return
    processes = list(pool._processes.values())
    for process in processes:
        process.terminate()
    for process in processes:
        process.join()


def run_campaign(config: SimulationConfig) -> CampaignResult:
    """Execute the full sweep and aggregate per (protocol, node count).

    The result is a pure function of the config: each realization's seed
    is derived once, the realizations are cut into (config, first index,
    seeds) tasks that run every node count of their realizations, inline
    on one worker or on a process pool of at most
    ``min(workers, cpu count, tasks)`` processes, and their records are
    put back in (node count, realization, protocol) order.  A pool that
    loses a worker raises `WorkerDiedError`; any exception while the pool
    runs ends its workers before it propagates.
    """
    workers = min(resolve_workers(), os.cpu_count() or 1)
    chunk = max(1, math.ceil(config.realizations / (workers * 4)))
    seeds = [derive_trial_seed(config.master_seed, i) for i in range(config.realizations)]
    tasks = [
        (config, start, seeds[start : start + chunk])
        for start in range(0, config.realizations, chunk)
    ]
    workers = min(workers, len(tasks))
    if workers <= 1:
        chunks = [_run_index_range(*task) for task in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            with _pool(workers) as pool:
                try:
                    # Not `map`, which cancels its queued futures on an exception;
                    # before Python 3.12 the pool's thread can then die marking them broken.
                    futures = [pool.submit(_run_index_range, *task) for task in tasks]
                    chunks = [future.result() for future in futures]
                except BaseException:
                    _stop_workers(pool)
                    raise
        except BrokenProcessPool as exc:
            raise WorkerDiedError(str(exc)) from exc
    records = [
        record
        for count_index in range(len(config.node_counts))
        for part in chunks
        for record in part[count_index]
    ]
    return CampaignResult(records=records, aggregates=aggregate_records(records, config))


def aggregate_records(records, config: SimulationConfig) -> list[AggregateStats]:
    """Reduce trial records into per-(protocol, node count) statistics."""
    by_cell: dict[tuple[Protocol, int], list[TrialMetrics]] = {}
    for record in records:
        by_cell.setdefault((record.protocol, record.n_nodes), []).append(record)

    aggregates = []
    for n in config.node_counts:
        for protocol in config.protocols:
            cell = sorted(by_cell.get((protocol, n), []), key=lambda r: r.realization)
            successes = [r for r in cell if r.success]
            mean_ber, std_ber = _mean_std([m.e2e_ber for m in successes])
            mean_delay, std_delay = _mean_std([m.e2e_delay_s for m in successes])
            aggregates.append(
                AggregateStats(
                    protocol=protocol,
                    n_nodes=n,
                    trials=len(cell),
                    success_rate=len(successes) / len(cell) if cell else 0.0,
                    mean_e2e_ber=mean_ber,
                    std_e2e_ber=std_ber,
                    mean_delay_s=mean_delay,
                    std_delay_s=std_delay,
                    mean_evaluations=_mean_std([m.evaluations for m in successes])[0],
                    mean_hops=_mean_std([m.hop_count for m in successes])[0],
                )
            )
    return aggregates


def _mean_std(values):
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0))
