"""Benchmark of the uowsim CLI: end-to-end runs and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-stock --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42     # every workload, one command
    python3 perfbench/run.py --workload all --smoke       # tiny sizes, one pass each

Each pass launches the real CLI (``python3 -m uowsim`` on ``src/``) as a
subprocess and times it from launch to exit; CPU time and peak RSS come from
``wait4`` and cover the whole process tree, pool workers included.

``--trace 0`` times passes at the workload's pass size: the stock campaign
cut to ``PASS_REALIZATIONS`` realizations (same node counts, protocols and
trial seeds), or the whole sweep grid.  ``campaign-parallel`` first makes
one serial pass as its byte-for-byte reference, unless an earlier run
already made one for the same seed and sources.  Then rounds repeat until
``--seconds`` have passed: a set-up probe (the same command at its smallest
size, which also loads what the pass imports), a pass and a speed probe
(``speed_probe``), a fixed computation that does not use uowsim, run in as
many processes as the pass uses.  A shared host moves between fast and slow
states that last from seconds to minutes, so each round's times are scaled
by ``SPEED_REFERENCE_S`` over the mean of the speed probes on either side of
it: every timing is in seconds at one reference host speed, and the raw
times are kept in the results file.  ``setup_s`` is the median scaled probe.
``wall_s`` and ``cpu_s`` are means over every pass of the run (the median of
a run jumps between the host's states, while the mean follows the share of
the run spent in each), and ``throughput_per_s`` is trials (or grid points)
per second over ``wall_s - setup_s``.  ``peak_rss_mb`` is the largest of the
run, and ``ok_ratio`` is the share of passes that exited 0 with correct
outputs.

``--trace 1`` makes one untraced pass and one traced pass (``tracing.py``)
of the whole stock campaign (500 realizations) or sweep grid, and reports
per-layer metrics.  The traced run's counts must equal those
derived from the untraced run's CSVs, which shows the wrappers do not
perturb the program.

Every pass's CSVs are checked: against the reference SHA-256 sums in
``reference.json`` where they apply (seed 42, or the seed-free sweep), else
against a serial pass of the same seed, plus structural checks.  The last line of
stdout is the JSON result; a results file with machine, versions, commit,
seed and sample counts goes to ``.bench_out/``.
"""

import argparse
import csv
import hashlib
import heapq
import json
import math
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

import tracing
from tracing import LAYERS, NODE_COUNTS, PROTOCOLS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

# A run must end within 180 s; no pass is started or kept running past this.
DEADLINE_S = 170.0
PARALLEL_THREADS = "2"

# The speed probe repeats a fixed computation SPEED_ROUNDS times; timings are
# reported in seconds at the host speed at which it takes SPEED_REFERENCE_S.
SPEED_ROUNDS = 200
SPEED_REFERENCE_S = 0.25

# The stock campaign: nine node counts, 500 realizations, exact weights,
# clear water, 250 x 250 m area, source and target fixed, range 80 m.
STOCK_NODES = (20, 30, 40, 50, 60, 70, 80, 90, 100)
STOCK_AREA = (250.0, 250.0)
STOCK_SOURCE = (52.5, 125.0)
STOCK_TARGET = (197.5, 125.0)
STOCK_RANGE = 80.0
# A timed pass runs 150 of the stock campaign's 500 realizations: a run holds
# about ten passes, which average over the host's fast and slow states, and
# set-up stays a small share of each pass.
PASS_REALIZATIONS = 150
CAMPAIGN_SIZES = {
    "full": (STOCK_NODES, 500),
    "pass": (STOCK_NODES, PASS_REALIZATIONS),
    "smoke": ((20, 60, 100), 3),
    "setup": ((20,), 1),
}
SWEEP_WATERS = ("clear", "coastal", "turbid")
SWEEP_SIZES = {
    "full": (
        tuple(f"{i / 10:.1f}" for i in range(1, 2001)),
        tuple(str(d) for d in range(5, 181, 5)),
        SWEEP_WATERS,
    ),
    "smoke": (tuple(f"{i / 10:.1f}" for i in range(1, 11)), ("5", "10"), SWEEP_WATERS),
    "setup": (("0.1",), ("5",), ("clear",)),
}

TRIAL_HEADER = [
    "protocol", "n_nodes", "realization", "seed", "success", "failure_reason",
    "hop_count", "e2e_ber", "e2e_delay_s", "total_distance_m", "evaluations", "wall_clock_ns",
]
AGGREGATE_HEADER = [
    "protocol", "n_nodes", "trials", "success_rate", "mean_e2e_ber", "std_e2e_ber",
    "mean_delay_s", "std_delay_s", "mean_evaluations", "mean_hops",
]

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _per_layer_units():
    units = {}
    timed = [
        "topology.build_graph", "topology.generate_deployment", "topology.path_exists",
        "routing.crp", "routing.drp", "routing.srp", "channel.link_power_and_ber",
        "channel.received_power_los", "channel.single_link_ber", "metrics.collect_trial",
        "harness.run_single", "harness.derive_trial_seed", "harness.aggregate_records",
    ]
    for name in timed:
        units[f"{name}.self_s"] = "s"
    units["topology.build_graph.edges"] = "count"
    units["topology.connected_ratio"] = "ratio"
    for name in ("topology.build_graph", "routing.crp", "routing.drp", "routing.srp"):
        for n in NODE_COUNTS:
            units[f"{name}.n{n}.p50_us"] = "us"
    for protocol in PROTOCOLS:
        units[f"routing.{protocol}.evaluations"] = "count"
        units[f"routing.{protocol}.success_ratio"] = "ratio"
    units["channel.link_power_and_ber.links"] = "count"
    units["channel.received_power_los.calls"] = "count"
    units["channel.single_link_ber.calls"] = "count"
    units["harness.run_single.p50_ms"] = "ms"
    units["harness.run_single.p99_ms"] = "ms"
    units["harness.pool.worker_cpu_s"] = "s"
    units["harness.pool.efficiency"] = "ratio"
    units["cli.config_s"] = "s"
    units["cli.rows_s"] = "s"
    units["cli.csv_write_s"] = "s"
    units["cli.csv_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


class Clock:
    """The run's deadline: no subprocess outlives it."""

    def __init__(self):
        self.end = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        return self.end - time.monotonic()


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    ok: bool = True
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(proc):
    """Kill a reaped or dying pass's process group and wait until it is empty.

    Pool workers are not our children, so they cannot be waited for; the
    group is polled instead, for at most five seconds.
    """
    _kill_group(proc.pid)
    proc.wait()
    give_up = time.monotonic() + 5.0
    try:
        while time.monotonic() < give_up:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def run_command(cmd, env, clock) -> tuple:
    """Run one command; return (wall s, cpu s, peak rss MB, exit code or None)."""
    remaining = clock.remaining()
    if remaining <= 0:
        return 0.0, 0.0, 0.0, None
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    timer = threading.Timer(remaining, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _stop_group(proc)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _stop_group(proc)
    # ru_maxrss is in KiB and covers the child and every descendant it reaped.
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("UOWSN_THREADS", None)
    if threads:
        env["UOWSN_THREADS"] = threads
    return env


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(workload, size, seed, out: Path, clock, threads, spans=None) -> Pass:
    """Run every command of one pass into a fresh ``out``; traced when ``spans`` is set."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(threads)
    result = Pass()
    for argv in workload.commands(seed, size):
        if spans is None:
            prefix = [sys.executable, "-m", "uowsim"]
        else:
            prefix = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans), "--"]
        wall, cpu, rss, code = run_command([*prefix, *argv, "--out", str(out)], env, clock)
        result.wall_s += wall
        result.cpu_s += cpu
        result.rss_mb = max(result.rss_mb, rss)
        if code != 0:
            result.ok = False
            result.problems.append(
                "deadline reached" if code is None else f"{argv[0]} exited with {code}"
            )
            return result
    result.digests = {path.name: sha256(path) for path in sorted(out.glob("*.csv"))}
    return result


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.reader(handle)


def _mean_cell(values) -> str:
    # Means of integer columns are exact in float, so the CSV cell is too.
    return f"{sum(values) / len(values):.8e}" if values else ""


class Campaign:
    """``uowsim campaign`` over the stock sweep; serial or with a worker pool."""

    reference = "campaign"
    pass_size = "pass"

    def __init__(self, name, threads):
        self.name, self.threads = name, threads

    def commands(self, seed, size):
        nodes, realizations = CAMPAIGN_SIZES[size]
        return [[
            "campaign", "--seed", str(seed), "--nodes", ",".join(map(str, nodes)),
            "--realizations", str(realizations), "--protocols", ",".join(PROTOCOLS),
            "--weight-mode", "exact",
        ]]

    def work(self, size) -> int:
        """Trials per pass."""
        nodes, realizations = CAMPAIGN_SIZES[size]
        return len(nodes) * realizations

    def check(self, out: Path, seed, size) -> list:
        """Structure of the CSVs, trial seeds and aggregate counts against the trials."""
        nodes, realizations = CAMPAIGN_SIZES[size]
        seeds = [
            str(int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0]))
            for r in range(realizations)
        ]
        expected = [
            (p, str(n), str(r), seeds[r]) for n in nodes for r in range(realizations) for p in PROTOCOLS
        ]
        rows = _read_rows(out / "campaign_trials.csv")
        problems = [] if next(rows, None) == TRIAL_HEADER else ["campaign_trials.csv header"]
        cells = {}
        count = 0
        for row, coordinates in zip(rows, expected):
            count += 1
            if tuple(row[:4]) != coordinates:
                problems.append(f"trial row {count} is {row[:4]}, expected {list(coordinates)}")
                break
            if row[4] == "true":
                cells.setdefault((row[0], row[1]), []).append((int(row[10]), int(row[6])))
        count += sum(1 for _ in rows)
        if count != len(expected):
            problems.append(f"{count} trial rows, expected {len(expected)}")
        aggregate = list(_read_rows(out / "campaign_aggregate.csv"))
        if aggregate[:1] != [AGGREGATE_HEADER] or len(aggregate) != 1 + len(nodes) * len(PROTOCOLS):
            problems.append("campaign_aggregate.csv header or row count")
            return problems
        for row in aggregate[1:]:
            done = cells.get((row[0], row[1]), [])
            want = [
                str(realizations),
                f"{len(done) / realizations:.8e}",
                _mean_cell([evaluations for evaluations, _ in done]),
                _mean_cell([hops for _, hops in done]),
            ]
            if [row[2], row[3], row[8], row[9]] != want:
                problems.append(f"aggregate row {row[:2]} disagrees with the trial rows")
        return problems

    def counts(self, out: Path) -> dict:
        """Evaluation, success, connectivity and edge counts derived from the trials CSV."""
        counts = {f"{p}.{k}": 0 for p in PROTOCOLS for k in ("evaluations", "successes")}
        counts.update(trials=0, connected=0, edges=0)
        width, height = STOCK_AREA
        endpoints = np.array([STOCK_SOURCE, STOCK_TARGET])
        rows = _read_rows(out / "campaign_trials.csv")
        next(rows)
        for row in rows:
            protocol = row[0]
            counts[f"{protocol}.evaluations"] += int(row[10])
            counts[f"{protocol}.successes"] += row[4] == "true"
            # Only the harness marks DRP 'disconnected' (CRP may also find
            # no finite-weight path), so one DRP row per trial tells whether
            # the connectivity check passed.
            if protocol != "drp":
                continue
            counts["trials"] += 1
            counts["connected"] += row[5] != "disconnected"
            # Edge oracle: redraw the deployment from the trial seed and count
            # the pairs within range, as the stock deployment defines them.
            n = int(row[1])
            relays = np.random.default_rng(int(row[3])).uniform(
                low=(0.0, 0.0), high=(width, height), size=(n - 2, 2)
            )
            positions = np.vstack((endpoints, relays))
            deltas = positions[:, None, :] - positions[None, :, :]
            dists = np.sqrt((deltas * deltas).sum(axis=-1))
            iu, ju = np.triu_indices(n, k=1)
            counts["edges"] += int((dists[iu, ju] <= STOCK_RANGE).sum())
        return counts


class Sweep:
    """``uowsim link-budget`` then ``uowsim ber-sweep`` over one grid.

    The grid has no random input, so the seed only labels the run.
    """

    reference = "sweep"
    pass_size = "full"
    threads = None

    def __init__(self, name):
        self.name = name

    def commands(self, seed, size):
        distances, divergences, waters = SWEEP_SIZES[size]
        grid = [
            "--distances", ",".join(distances),
            "--divergences", ",".join(divergences),
            "--water", ",".join(waters),
        ]
        return [["link-budget", *grid], ["ber-sweep", *grid]]

    def work(self, size) -> int:
        """Grid points per pass, over both commands."""
        distances, divergences, waters = SWEEP_SIZES[size]
        return 2 * len(distances) * len(divergences) * len(waters)

    def check(self, out: Path, seed, size) -> list:
        """Both tables cover the grid in order, with positive power and BER in [0, 0.5]."""
        distances, divergences, waters = SWEEP_SIZES[size]
        problems = []
        for name, column, low, high in (
            ("link_budget.csv", "received_power_w", 0.0, float("inf")),
            ("ber_sweep.csv", "ber", 0.0, 0.5),
        ):
            rows = _read_rows(out / name)
            if next(rows, None) != ["water", "divergence_deg", "distance_m", column]:
                problems.append(f"{name} header")
                continue
            grid = (
                (w, f"{float(v):.8e}", f"{float(d):.8e}")
                for w in waters for v in divergences for d in distances
            )
            count = 0
            for row, point in zip(rows, grid):
                count += 1
                if tuple(row[:3]) != point or not low <= float(row[3]) <= high:
                    problems.append(f"{name} row {count}: {row}")
                    break
            count += sum(1 for _ in rows)
            if count != len(distances) * len(divergences) * len(waters):
                problems.append(f"{name}: {count} rows")
        return problems

    def counts(self, out: Path) -> dict:
        """Scalar channel calls the two tables imply."""
        budget = sum(1 for _ in _read_rows(out / "link_budget.csv")) - 1
        sweep = sum(1 for _ in _read_rows(out / "ber_sweep.csv")) - 1
        return {"received_power_los.calls": budget + sweep, "single_link_ber.calls": sweep}


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Campaign("campaign-stock", None),
        Campaign("campaign-parallel", PARALLEL_THREADS),
        Sweep("sweep-grid"),
    )
}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Verifier:
    """Checks each pass's CSVs and keeps the tally behind attempted/failed.

    Without a committed reference, the expected digests are those of a
    serial pass at the same seed of the same sources, kept in ``.bench_out``
    by earlier runs; failing that, the run's first pass sets them.
    """

    def __init__(self, workload, size, seed):
        self.workload, self.size, self.seed = workload, size, seed
        self.cache = None
        key = f"{workload.reference}-{size}"
        if key in REFERENCE["sha256"] and (workload.reference == "sweep" or seed == REFERENCE["seed"]):
            self.expected = REFERENCE["sha256"][key]
        else:
            name = f"{workload.reference}-{size}-seed{seed}-{source_digest()}.json"
            self.cache = OUT / "serial-digests" / name
            self.expected = None
            if self.cache.is_file():
                self.expected = json.loads(self.cache.read_text(encoding="utf-8"))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def verify(self, result: Pass, out: Path, structure=False, extra=()) -> bool:
        """Count one pass; the first full output also gets the structural check."""
        self.attempted += 1
        problems = [*result.problems, *extra]
        if result.ok:
            if self.expected is None:
                self.expected = result.digests
                structure = True
            elif result.digests != self.expected:
                problems.append(f"CSV digests {result.digests} differ from {self.expected}")
            if structure:
                problems.extend(self.workload.check(out, self.seed, self.size))
        self.fail(problems)
        return not problems

    def remember(self):
        """Keep the serial digests of a run whose every check passed."""
        if self.cache and self.failed == 0 and self.expected and not self.cache.is_file():
            self.cache.parent.mkdir(parents=True, exist_ok=True)
            self.cache.write_text(json.dumps(self.expected), encoding="utf-8")

    def fail(self, problems):
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)


def _speed_kernel() -> float:
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(SPEED_ROUNDS):
        points = rng.uniform(0.0, 250.0, size=(100, 2))
        deltas = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((deltas * deltas).sum(axis=-1))
        iu, ju = np.triu_indices(100, k=1)
        near = dists[iu, ju] <= 80.0
        adjacency = [[] for _ in range(100)]
        for u, v, d in zip(iu[near].tolist(), ju[near].tolist(), dists[iu, ju][near].tolist()):
            weight = -math.log1p(-0.5 * math.exp(-d / 40.0))
            adjacency[u].append((v, weight))
            adjacency[v].append((u, weight))
        best = [math.inf] * 100
        best[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > best[u]:
                continue
            for v, weight in adjacency[u]:
                if d + weight < best[v]:
                    best[v] = d + weight
                    heapq.heappush(heap, (d + weight, v))
    return time.perf_counter() - start


def speed_probe(processes: int) -> float:
    """Seconds a fixed computation takes now: the host's current speed.

    It does not use uowsim, so no change to the program moves it.  It does
    what a campaign spends its time on (small numpy arrays, Python objects
    in lists, a heap-based shortest path), so that a slow host state slows
    it about as much as it slows a pass.  It runs in as many processes at
    once as the pass does, so that it also sees how much they slow each
    other; the result is their mean.
    """
    children = []
    try:
        for _ in range(processes - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child must never return into the benchmark; a child that
                # fails writes nothing, and the parent's read fails instead.
                try:
                    os.close(read)
                    os.write(write, struct.pack("d", _speed_kernel()))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        times = [_speed_kernel()]
        for _, read in children:
            with os.fdopen(read, "rb") as pipe:
                times.append(struct.unpack("d", pipe.read(8))[0])
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)
    return statistics.fmean(times)


def measure(workload, seed, seconds, size, clock):
    """End-to-end run: rounds of set-up probe, pass and speed probe for ``seconds``.

    Each round's times are scaled to the reference host speed by the speed
    probes on either side of it.
    """
    work_dir = OUT / workload.name
    verifier = Verifier(workload, size, seed)
    if workload.threads and verifier.expected is None:
        serial = run_pass(workload, size, seed, work_dir / "serial", clock, None)
        verifier.verify(serial, work_dir / "serial")
    processes = int(workload.threads or 1)
    speeds = [speed_probe(processes)]
    probes = []
    passes = []
    started = time.monotonic()
    while True:
        probe = run_pass(workload, "setup", seed, work_dir / "setup", clock, workload.threads)
        verifier.attempted += 1
        verifier.fail(probe.problems)
        result = run_pass(workload, size, seed, work_dir / "pass", clock, workload.threads)
        speeds.append(speed_probe(processes))
        scale = 2.0 * SPEED_REFERENCE_S / (speeds[-2] + speeds[-1])
        if probe.ok:
            probes.append((probe, scale))
        if verifier.verify(result, work_dir / "pass"):
            passes.append((result, scale))
        if not (probe.ok and result.ok) or time.monotonic() - started >= seconds:
            break
    verifier.remember()
    setups = [p.wall_s * scale for p, scale in probes]
    walls = [p.wall_s * scale for p, scale in passes]
    cpus = [p.cpu_s * scale for p, scale in passes]
    setup = statistics.median(setups) if setups else 0.0
    wall = statistics.fmean(walls) if walls else 0.0
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "throughput_per_s": workload.work(size) / (wall - setup) if walls else 0.0,
        "cpu_s": statistics.fmean(cpus) if cpus else 0.0,
        "peak_rss_mb": max((p.rss_mb for p, _ in passes), default=0.0),
        "ok_ratio": (verifier.attempted - verifier.failed) / verifier.attempted,
    }
    samples = {
        "wall_s": len(walls), "setup_s": len(setups), "throughput_per_s": len(walls),
        "cpu_s": len(cpus), "peak_rss_mb": len(passes), "ok_ratio": verifier.attempted,
    }
    detail = {
        "speed_probe_s": speeds,
        "setup_walls_s": [p.wall_s for p, _ in probes],
        "pass_walls_s": [p.wall_s for p, _ in passes],
        "pass_cpu_s": [p.cpu_s for p, _ in passes],
        "pass_rss_mb": [p.rss_mb for p, _ in passes],
        "scaled_setup_walls_s": setups,
        "scaled_pass_walls_s": walls,
        "scaled_pass_wall_median_s": statistics.median(walls) if walls else None,
        "work_per_pass": workload.work(size),
    }
    return metrics, samples, detail, verifier


def trace(workload, seed, size, clock):
    """Per-layer run: one untraced pass, one traced pass, counts compared."""
    work_dir = OUT / workload.name
    spans = work_dir / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    verifier = Verifier(workload, size, seed)
    plain = run_pass(workload, size, seed, work_dir / "pass", clock, workload.threads)
    verifier.verify(plain, work_dir / "pass", structure=True)
    derived = workload.counts(work_dir / "pass") if plain.ok else {}
    traced = run_pass(
        workload, size, seed, work_dir / "traced", clock, workload.threads, spans=spans
    )
    if not traced.ok:
        verifier.verify(traced, work_dir / "traced")
        return {name: 0.0 for name in PER_LAYER}, {}, {}, verifier
    metrics, samples, counts, dump_s = tracing.layer_metrics(spans)
    metrics["trace.overhead_s"] = traced.wall_s - dump_s - plain.wall_s
    problems = [
        f"traced {key} = {counts.get(key)}, untraced outputs give {value}"
        for key, value in derived.items()
        if counts.get(key) != value
    ]
    if "links" in counts and counts["links"] != counts["edges"]:
        problems.append(f"{counts['links']} links priced for {counts['edges']} edges")
    if size == "full" and workload.reference == "campaign" and seed == REFERENCE["seed"]:
        problems.extend(
            f"traced {key} = {counts.get(key)}, expected {value} at seed {seed}"
            for key, value in REFERENCE["counts"].items()
            if counts.get(key) != value
        )
    verifier.verify(traced, work_dir / "traced", extra=problems)
    detail = {"counts": counts, "derived_counts": derived, "untraced_wall_s": plain.wall_s,
              "traced_wall_s": traced.wall_s, "span_dump_s": dump_s}
    return metrics, samples, detail, verifier


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
            model = next(names, model)
    except OSError:
        pass

    def package(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "scipy": package("scipy"),
    }


def git_commit():
    """The checkout's commit from .git, without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, traced, smoke, clock) -> dict:
    size = "smoke" if smoke else "full" if traced else workload.pass_size
    if traced:
        metrics, samples, detail, verifier = trace(workload, seed, size, clock)
        units = PER_LAYER
    else:
        metrics, samples, detail, verifier = measure(workload, seed, seconds, size, clock)
        units = END_TO_END
    result = {
        "correct": verifier.failed == 0 and verifier.attempted > 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "size": size,
        "commit": git_commit(),
        "machine": machine(),
        "samples": samples,
        "detail": detail,
        "problems": verifier.problems,
        **result,
    }
    path = OUT / f"results-{workload.name}-seed{seed}-trace{int(traced)}-{size}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uowsim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE["seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and one pass: checks every metric is printed"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn SIGTERM into an exception, so the running pass's process group is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "uowsim" / "cli.py").is_file():
        print(f"error: no uowsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seconds = 0.0 if args.smoke else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, seconds, args.trace, args.smoke, Clock())
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
