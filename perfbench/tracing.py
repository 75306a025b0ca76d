"""Traced pass of the uowsim CLI: spans around each layer's public functions.

Run as a script, this file imports uowsim, rebinds the functions listed in
``WRAPS`` at the names their callers look them up by, runs
``uowsim.cli.main`` on the remaining arguments and, when the program has
finished, writes the spans it kept in memory to the spans directory::

    python3 perfbench/tracing.py --spans DIR -- campaign --out OUT ...

The program itself is not changed.  A span is eight int64 fields: id,
parent id, name index, start ns, end ns, node count, value and flag (the
last three are counts taken from the call, see ``WRAPS``).  Campaign pool
workers are forked from the traced process, so they inherit the wrappers;
each worker appends its spans to its own file after every task.  Span ids
carry the process id in their high bits, so ids from different processes
never collide and a worker span can name the parent's ``run_campaign`` span.

Imported, the module reads such a directory back and reduces it to
per-layer metrics (``layer_metrics``).
"""

import argparse
import functools
import importlib
import itertools
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

FIELDS = 8
LAYERS = ("channel", "topology", "routing", "metrics", "harness", "cli")
NODE_COUNTS = (20, 60, 100)
PROTOCOLS = ("crp", "drp", "srp")


def _node_count(args):
    # The first argument is a single-count config or a graph; both have it.
    return args[0].node_count


def _listed_nodes(args):
    return len(args[0])


def _edges(args, graph):
    return graph.edge_count


def _evaluations(args, outcome):
    return outcome.evaluations


def _success(outcome):
    return outcome.success


def _links(args, result):
    return len(args[0])


def _bytes_written(args, result):
    return os.path.getsize(args[1])


# (module, attribute, span name, node count of the call, value, flag).
# Each attribute is rebound where the caller looks it up: harness calls the
# topology, routing and metrics functions through its own globals, topology
# calls ``channel.link_power_and_ber`` through the module, and cli holds its
# own references to the campaign runner and the scalar channel functions.
# ``cli.config`` is the config parsing the CLI asks for.  The pool task
# ``_run_index_range`` is wrapped too, so that worker spans get flushed.
WRAPS = (
    ("uowsim.harness", "generate_deployment", "topology.generate_deployment", _node_count, None,
     None),
    ("uowsim.harness", "build_graph", "topology.build_graph", _listed_nodes, _edges, None),
    ("uowsim.harness", "path_exists", "topology.path_exists", None, None, bool),
    ("uowsim.harness", "crp", "routing.crp", _node_count, _evaluations, _success),
    ("uowsim.harness", "drp", "routing.drp", _node_count, _evaluations, _success),
    ("uowsim.harness", "srp", "routing.srp", _node_count, _evaluations, _success),
    ("uowsim.harness", "collect_trial", "metrics.collect_trial", None, None, None),
    ("uowsim.harness", "run_single", "harness.run_single", _node_count, None, None),
    ("uowsim.harness", "derive_trial_seed", "harness.derive_trial_seed", None, None, None),
    ("uowsim.harness", "aggregate_records", "harness.aggregate_records", None, None, None),
    ("uowsim.harness", "_run_index_range", "harness.run_index_range", None, None, None),
    ("uowsim.channel", "link_power_and_ber", "channel.link_power_and_ber", None, _links, None),
    ("uowsim.cli", "run_campaign", "harness.run_campaign", None, None, None),
    ("uowsim.cli", "received_power_los", "channel.received_power_los", None, None, None),
    ("uowsim.cli", "single_link_ber", "channel.single_link_ber", None, None, None),
    ("uowsim.cli", "cmd_campaign", "cli.cmd_campaign", None, None, None),
    ("uowsim.cli", "cmd_link_budget", "cli.cmd_link_budget", None, None, None),
    ("uowsim.cli", "cmd_ber_sweep", "cli.cmd_ber_sweep", None, None, None),
    ("uowsim.cli", "config_from_dict", "cli.config", None, None, None),
    ("uowsim.cli:OutputRecordSet", "write", "cli.write", None, _bytes_written, None),
)
ROOT_SPAN = "cli.main"
NAMES = tuple(entry[2] for entry in WRAPS) + (ROOT_SPAN,)


class Tracer:
    """Keeps spans in one flat int64 array until ``flush`` writes them."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.buf = array("q")
        self.stack = [0]
        self.ids = itertools.count((self.pid << 32) + 1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # A forked worker keeps the parent's open stack, so its first spans
        # name the span that was open at the fork as their parent.
        del self.buf[:]
        self.ids = itertools.count((os.getpid() << 32) + 1)

    def wrap(self, fn, name, nodes=None, value=None, flag=None):
        code = NAMES.index(name)
        buf, stack, clock, tracer = self.buf, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(tracer.ids)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            buf.extend((
                span,
                parent,
                code,
                start,
                end,
                nodes(args) if nodes else 0,
                value(args, result) if value else 0,
                flag(result) if flag else 0,
            ))
            return result

        return traced

    def flush(self):
        with open(self.spans_dir / f"spans-{os.getpid()}.bin", "ab") as handle:
            self.buf.tofile(handle)
        del self.buf[:]


def install(tracer: Tracer):
    """Rebind every function in WRAPS; return the wrapped root ``cli.main``."""
    for target, attribute, name, nodes, value, flag in WRAPS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        traced = tracer.wrap(getattr(owner, attribute), name, nodes, value, flag)
        if attribute == "_run_index_range":
            traced = _flushing(tracer, traced)
        setattr(owner, attribute, traced)
    cli = importlib.import_module("uowsim.cli")
    return tracer.wrap(cli.main, ROOT_SPAN)


def _flushing(tracer, task):
    # functools.wraps keeps the qualified name, so the pool still pickles the
    # task by reference and the worker looks up this same wrapper.
    @functools.wraps(task)
    def flushed(*args, **kwargs):
        try:
            return task(*args, **kwargs)
        finally:
            if os.getpid() != tracer.pid:
                tracer.flush()

    return flushed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True, help="directory for span files")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then uowsim CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    args.spans.mkdir(parents=True, exist_ok=True)

    import uowsim.harness

    tracer = Tracer(args.spans)
    traced_main = install(tracer)
    workers = uowsim.harness.resolve_workers()
    code = traced_main(cli_args)
    dump_start = time.perf_counter()
    tracer.flush()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    meta = {
        "names": NAMES,
        "workers": workers,
        "worker_cpu_s": children.ru_utime + children.ru_stime,
        "dump_s": time.perf_counter() - dump_start,
    }
    (args.spans / f"meta-{os.getpid()}.json").write_text(json.dumps(meta), encoding="utf-8")
    return code


def load_spans(spans_dir: Path):
    """All spans of a directory as an (n, 8) int64 array, and the meta records."""
    metas = [
        json.loads(path.read_text(encoding="utf-8")) for path in sorted(spans_dir.glob("meta-*.json"))
    ]
    for meta in metas:
        if tuple(meta["names"]) != NAMES:
            raise ValueError(f"span names in {spans_dir} do not match this tracer")
    parts = [np.fromfile(path, dtype=np.int64) for path in sorted(spans_dir.glob("spans-*.bin"))]
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return flat.reshape(-1, FIELDS), metas


def self_times(spans):
    """Per span: duration minus the union of its child spans' intervals.

    Children in one process run one after another; children in pool
    workers overlap, which is why the union and not the sum is taken.
    """
    ids, parents, starts, ends = spans[:, 0], spans[:, 1], spans[:, 3], spans[:, 4]
    covered = {}
    order = np.lexsort((starts, parents))
    p, s, e = parents[order], starts[order], ends[order]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(p)) + 1, [len(p)]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        gs, ge = s[lo:hi], e[lo:hi]
        reach = np.maximum.accumulate(ge)
        before = np.concatenate((gs[:1], reach[:-1]))
        covered[int(p[lo])] = int(np.clip(ge - np.maximum(gs, before), 0, None).sum())
    child = np.array([covered.get(int(i), 0) for i in ids], dtype=np.int64)
    return (ends - starts) - child


def _percentile(values, q) -> float:
    """Percentile of nanosecond durations; 0 where the layer did not run."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans_dir: Path):
    """Reduce a spans directory to (metrics, samples, counts, dump seconds).

    ``metrics`` maps per-layer metric names to values; ``samples`` gives the
    sample count behind each percentile; ``counts`` holds the deterministic
    tallies that the benchmark compares with the untraced run's outputs; the
    last item is the time the traced processes spent writing their spans.
    """
    spans, metas = load_spans(spans_dir)
    self_ns = self_times(spans)
    codes = spans[:, 2]
    durations = spans[:, 4] - spans[:, 3]
    metrics, samples, counts = {}, {}, {}

    def pick(name):
        return codes == NAMES.index(name)

    def self_s(name):
        return float(self_ns[pick(name)].sum()) / 1e9

    def total_s(name):
        return float(durations[pick(name)].sum()) / 1e9

    def p50_by_nodes(metric, name):
        mask = pick(name)
        for n in NODE_COUNTS:
            values = durations[mask & (spans[:, 5] == n)]
            samples[f"{metric}.n{n}.p50_us"] = len(values)
            metrics[f"{metric}.n{n}.p50_us"] = _percentile(values, 50) / 1e3

    build = pick("topology.build_graph")
    checks = pick("topology.path_exists")
    counts["trials"] = int(checks.sum())
    counts["connected"] = int(spans[checks, 7].sum())
    counts["edges"] = int(spans[build, 6].sum())
    counts["links"] = int(spans[pick("channel.link_power_and_ber"), 6].sum())
    metrics["topology.build_graph.self_s"] = self_s("topology.build_graph")
    metrics["topology.build_graph.edges"] = counts["edges"]
    p50_by_nodes("topology.build_graph", "topology.build_graph")
    metrics["topology.generate_deployment.self_s"] = self_s("topology.generate_deployment")
    metrics["topology.path_exists.self_s"] = self_s("topology.path_exists")
    metrics["topology.connected_ratio"] = _ratio(counts["connected"], counts["trials"])

    for protocol in PROTOCOLS:
        name = f"routing.{protocol}"
        mask = pick(name)
        calls = int(mask.sum())
        counts[f"{protocol}.evaluations"] = int(spans[mask, 6].sum())
        counts[f"{protocol}.successes"] = int(spans[mask, 7].sum())
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.evaluations"] = counts[f"{protocol}.evaluations"]
        metrics[f"{name}.success_ratio"] = _ratio(counts[f"{protocol}.successes"], calls)
        p50_by_nodes(name, name)

    metrics["channel.link_power_and_ber.self_s"] = self_s("channel.link_power_and_ber")
    metrics["channel.link_power_and_ber.links"] = counts["links"]
    for name in ("channel.received_power_los", "channel.single_link_ber"):
        counts[name.split(".")[1] + ".calls"] = int(pick(name).sum())
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.calls"] = int(pick(name).sum())

    metrics["metrics.collect_trial.self_s"] = self_s("metrics.collect_trial")

    runs = durations[pick("harness.run_single")]
    samples["harness.run_single.p50_ms"] = samples["harness.run_single.p99_ms"] = len(runs)
    metrics["harness.run_single.p50_ms"] = _percentile(runs, 50) / 1e6
    metrics["harness.run_single.p99_ms"] = _percentile(runs, 99) / 1e6
    metrics["harness.run_single.self_s"] = self_s("harness.run_single")
    metrics["harness.derive_trial_seed.self_s"] = self_s("harness.derive_trial_seed")
    metrics["harness.aggregate_records.self_s"] = self_s("harness.aggregate_records")

    workers = max((meta["workers"] for meta in metas), default=1)
    pooled = workers > 1
    worker_cpu = sum(meta["worker_cpu_s"] for meta in metas) if pooled else 0.0
    campaign_wall = total_s("harness.run_campaign")
    metrics["harness.pool.worker_cpu_s"] = worker_cpu
    metrics["harness.pool.efficiency"] = (
        worker_cpu / (workers * campaign_wall) if pooled and campaign_wall else 0.0
    )

    metrics["cli.config_s"] = total_s("cli.config")
    metrics["cli.rows_s"] = sum(
        self_s(name) for name in ("cli.cmd_campaign", "cli.cmd_link_budget", "cli.cmd_ber_sweep")
    )
    metrics["cli.csv_write_s"] = total_s("cli.write")
    metrics["cli.csv_bytes"] = int(spans[pick("cli.write"), 6].sum())

    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in NAMES])
    span_layers = layer_of[codes] if len(codes) else codes
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = float(self_ns[span_layers == index].sum()) / 1e9

    dump_s = sum(meta["dump_s"] for meta in metas)
    return metrics, samples, counts, dump_s


if __name__ == "__main__":
    sys.exit(main())
