"""Command-line front end: parameter sweeps, single routes and campaigns.

Four subcommands: ``link-budget`` and ``ber-sweep`` tabulate the channel
model over distance / water / divergence grids, ``route`` runs one seeded
trial and dumps the selected routes, ``campaign`` runs the full Monte-Carlo
sweep.  All results land as CSV (plus plain-text route dumps) under the
output directory, with floats in 9-significant-digit scientific notation so
files are byte-reproducible.

Exit codes: 0 success (routing failures are valid results), 2 configuration
or usage error, 3 output I/O error, 4 a campaign worker process died.  An
exception raised by trial code ends in its traceback, as in a serial run.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

from .channel import ChannelParams, WaterType, received_power_los, single_link_ber
from .harness import (
    DEFAULT_NODE_SWEEP,
    ConfigError,
    SimulationConfig,
    WorkerDiedError,
    config_from_dict,
    run_campaign,
    run_single,
)
from .routing import Protocol, RoutingOutcome
from .topology import NetworkGraph

DEFAULT_DISTANCES = tuple(float(d) for d in range(5, 105, 5))
DEFAULT_DIVERGENCES_DEG = (30.0, 60.0, 90.0)
ALL_WATERS = (WaterType.CLEAR_OCEAN, WaterType.COASTAL_OCEAN, WaterType.TURBID_HARBOR)


@dataclass(frozen=True)
class OutputRecordSet:
    """A typed table: (name, kind) columns and value rows.

    Kinds are str / int / float / bool.  Floats serialize as ``%.8e``,
    bools as true/false, None as the empty cell.
    """

    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]

    def to_lines(self):
        """Yield the header line, then one line per row: lazily, so that
        `write` never holds every line and the joined text at once."""
        yield ",".join(name for name, _ in self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != schema width {len(self.columns)}"
                )
            yield ",".join(_format_cell(value, kind) for value, (_, kind) in zip(row, self.columns))

    def write(self, path) -> None:
        _write_lines(Path(path), self.to_lines())


def _format_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "float":
        return f"{value:.8e}"
    if kind == "int":
        return str(int(value))
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class SweepRecordSet(OutputRecordSet):
    """A sweep table whose rows are ``(prefix, distance cell, value)``.

    ``prefix`` is the row's water and divergence cells with their commas,
    formatted once per block, and the distance cell is formatted once per
    distance, both by `_format_cell`; only the value is formatted per row.
    """

    def to_lines(self):
        yield ",".join(name for name, _ in self.columns)
        for prefix, distance, value in self.rows:
            yield f"{prefix}{distance},{_format_cell(value, 'float')}"


LINK_BUDGET_COLUMNS = (
    ("water", "str"),
    ("divergence_deg", "float"),
    ("distance_m", "float"),
    ("received_power_w", "float"),
)

BER_SWEEP_COLUMNS = (
    ("water", "str"),
    ("divergence_deg", "float"),
    ("distance_m", "float"),
    ("ber", "float"),
)

METRIC_COLUMNS = (
    ("success", "bool"),
    ("failure_reason", "str"),
    ("hop_count", "int"),
    ("e2e_ber", "float"),
    ("e2e_delay_s", "float"),
    ("total_distance_m", "float"),
    ("evaluations", "int"),
    ("wall_clock_ns", "int"),
)

ROUTE_SUMMARY_COLUMNS = (("protocol", "str"), ("seed", "int")) + METRIC_COLUMNS

CAMPAIGN_TRIAL_COLUMNS = (
    ("protocol", "str"),
    ("n_nodes", "int"),
    ("realization", "int"),
    ("seed", "int"),
) + METRIC_COLUMNS

CAMPAIGN_AGGREGATE_COLUMNS = (
    ("protocol", "str"),
    ("n_nodes", "int"),
    ("trials", "int"),
    ("success_rate", "float"),
    ("mean_e2e_ber", "float"),
    ("std_e2e_ber", "float"),
    ("mean_delay_s", "float"),
    ("std_delay_s", "float"),
    ("mean_evaluations", "float"),
    ("mean_hops", "float"),
)


def _sweep_params(base: ChannelParams, water: WaterType, divergence_deg: float) -> ChannelParams:
    """Base channel parameters with extinction and divergence pinned by the sweep."""
    extinction = ChannelParams.for_water(water).extinction
    try:
        return replace(base, extinction=extinction, divergence_angle=math.radians(divergence_deg))
    except ValueError as exc:
        raise ConfigError(f"divergence {divergence_deg} degrees: {exc}") from exc


def cmd_link_budget(config: SimulationConfig, distances, waters, divergences_deg) -> SweepRecordSet:
    """Received power over the water x divergence x distance grid."""
    return _sweep(config, distances, waters, divergences_deg, with_ber=False)


def cmd_ber_sweep(config: SimulationConfig, distances, waters, divergences_deg) -> SweepRecordSet:
    """Single-link BER over the water x divergence x distance grid."""
    return _sweep(config, distances, waters, divergences_deg, with_ber=True)


def _sweep(config, distances, waters, divergences_deg, with_ber: bool) -> SweepRecordSet:
    """The rows of either sweep, one (water, divergence) block at a time.

    Each distance cell and each block's ``water,divergence,`` prefix is
    formatted once.  Every row calls ``received_power_los``, and with
    ``with_ber`` also ``single_link_ber``, through this module's globals.
    A received power past the float range has no row to write: without
    ``with_ber`` it is a ConfigError, with it the BER takes its limit, 0.
    """
    _require_sweep(distances, waters, divergences_deg)
    distance_cells = [_format_cell(distance, "float") for distance in distances]
    noise = config.noise
    rows = []
    for water in waters:
        for div_deg in divergences_deg:
            params = _sweep_params(config.channel, water, div_deg)
            prefix = f"{_format_cell(water.value, 'str')},{_format_cell(div_deg, 'float')},"
            values = [received_power_los(distance, params) for distance in distances]
            if with_ber:
                values = [single_link_ber(power, params, noise) for power in values]
            elif math.inf in values:
                distance = distances[values.index(math.inf)]
                raise ConfigError(f"received power at distance {distance} m overflows a float")
            rows.extend(zip(repeat(prefix), distance_cells, values))
    columns = BER_SWEEP_COLUMNS if with_ber else LINK_BUDGET_COLUMNS
    return SweepRecordSet(columns, tuple(rows))


def _require_sweep(distances, waters, divergences_deg):
    if not distances or not waters or not divergences_deg:
        raise ConfigError("sweep lists must not be empty")
    # The link model divides by d * d, which underflows to 0 below about 1e-162.
    if not all(0.0 < d < math.inf and d * d > 0.0 for d in distances):
        raise ConfigError("distances must be finite and > 0, with a square above 0")


def _metric_cells(metric) -> tuple:
    """The METRIC_COLUMNS cells of one TrialMetrics, in column order."""
    return (
        metric.success,
        metric.failure_reason.value if metric.failure_reason else None,
        metric.hop_count,
        metric.e2e_ber,
        metric.e2e_delay_s,
        metric.total_distance_m,
        metric.evaluations,
        metric.wall_clock_ns,
    )


def route_dump_lines(protocol: Protocol, graph: NetworkGraph, outcome: RoutingOutcome) -> list[str]:
    """Overlay-friendly dump of a successful outcome's route.

    One ``protocol hop_index node_id x y ber_to_next`` line per visited
    node (0.0 for the final node's ber_to_next), then a trailer line
    ``protocol e2e <e2e_ber> <total_distance_m> <evaluations>``.
    """
    name = protocol.value
    route = outcome.route
    lines = []
    for index, node_id in enumerate(route.hops):
        x, y = graph.positions[node_id]
        ber_to_next = route.hop_bers[index] if index < route.hop_count else 0.0
        lines.append(f"{name} {index} {node_id} {x:.8e} {y:.8e} {ber_to_next:.8e}")
    lines.append(
        f"{name} e2e {route.e2e_ber:.8e} {route.total_distance:.8e} {outcome.evaluations}"
    )
    return lines


def cmd_route(config: SimulationConfig, seed: int):
    """One trial at the given trial seed: summary rows plus route dumps."""
    result = run_single(config, seed)
    rows = []
    dumps = {}
    for metric in result.metrics:
        rows.append((metric.protocol.value, seed) + _metric_cells(metric))
        outcome = result.outcomes[metric.protocol]
        if outcome.success:
            dumps[metric.protocol] = route_dump_lines(metric.protocol, result.graph, outcome)
    summary = OutputRecordSet(ROUTE_SUMMARY_COLUMNS, tuple(rows))
    return summary, dumps


def cmd_campaign(config: SimulationConfig):
    """Full campaign: per-trial and aggregate record sets."""
    result = run_campaign(config)
    trial_rows = [
        (record.metrics.protocol.value, record.n_nodes, record.realization, record.seed)
        + _metric_cells(record.metrics)
        for record in result.records
    ]
    aggregate_rows = [
        (
            stats.protocol.value,
            stats.n_nodes,
            stats.trials,
            stats.success_rate,
            stats.mean_e2e_ber,
            stats.std_e2e_ber,
            stats.mean_delay_s,
            stats.std_delay_s,
            stats.mean_evaluations,
            stats.mean_hops,
        )
        for stats in result.aggregates
    ]
    trials = OutputRecordSet(CAMPAIGN_TRIAL_COLUMNS, tuple(trial_rows))
    aggregate = OutputRecordSet(CAMPAIGN_AGGREGATE_COLUMNS, tuple(aggregate_rows))
    return trials, aggregate


def _list_of(convert):
    """argparse type: a non-empty comma-separated list of ``convert`` values."""

    def parse(text: str):
        try:
            values = [convert(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid comma-separated list {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("list must not be empty")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uowsim",
        description="Underwater optical wireless sensor network simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--water",
        type=_list_of(WaterType),
        default=ALL_WATERS,
        help="comma-separated water types (clear,coastal,turbid)",
    )
    sweep.add_argument(
        "--distances",
        type=_list_of(float),
        default=DEFAULT_DISTANCES,
        help="comma-separated distances [m]",
    )
    sweep.add_argument(
        "--divergences",
        type=_list_of(float),
        default=DEFAULT_DIVERGENCES_DEG,
        help="comma-separated divergence angles [deg]",
    )

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=int, default=None, help="master seed (route: the trial seed)")
    sim.add_argument(
        "--protocols",
        type=_list_of(Protocol),
        default=None,
        help="comma-separated subset of crp,drp,srp",
    )
    sim.add_argument("--weight-mode", choices=["paper", "exact"], default=None)
    sim.add_argument("--nodes", type=_list_of(int), default=None, help="node count(s), comma-separated")
    sim.add_argument("--realizations", type=int, default=None)
    sim.add_argument("--water", type=WaterType, default=None, help="water type (clear, coastal or turbid)")

    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("link-budget", parents=[common, sweep], help="received power sweep")
    commands.add_parser("ber-sweep", parents=[common, sweep], help="single-link BER sweep")
    commands.add_parser("route", parents=[common, sim], help="route one seeded trial")
    commands.add_parser("campaign", parents=[common, sim], help="run a Monte-Carlo campaign")
    return parser


def _load_config_doc(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int of over 4300 digits
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _sim_config(args, campaign: bool) -> SimulationConfig:
    doc = _load_config_doc(args.config)
    if args.seed is not None:
        doc["master_seed"] = args.seed
    if args.nodes is not None:
        doc["node_count"] = args.nodes if len(args.nodes) > 1 else args.nodes[0]
    if args.realizations is not None:
        doc["realizations"] = args.realizations
    if args.protocols is not None:
        doc["protocols"] = args.protocols
    if getattr(args, "weight_mode", None) is not None:
        doc["weight_mode"] = args.weight_mode
    if args.water is not None:
        doc["water"] = args.water
    if campaign and "node_count" not in doc:
        doc["node_count"] = list(DEFAULT_NODE_SWEEP)
    return config_from_dict(doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("link-budget", "ber-sweep"):
            if args.command == "link-budget":
                command, filename = cmd_link_budget, "link_budget.csv"
            else:
                command, filename = cmd_ber_sweep, "ber_sweep.csv"
            config = config_from_dict(_load_config_doc(args.config))
            recordset = command(config, args.distances, args.water, args.divergences)
            out = _out_dir(args)
            recordset.write(out / filename)
            print(f"wrote {out / filename} ({len(recordset.rows)} rows)")
        elif args.command == "route":
            config = _sim_config(args, campaign=False)
            summary, dumps = cmd_route(config, config.master_seed)
            out = _out_dir(args)
            summary.write(out / "route_summary.csv")
            for protocol, lines in dumps.items():
                _write_lines(out / f"route_{protocol.value}.txt", lines)
            print(f"wrote {out / 'route_summary.csv'} ({len(summary.rows)} protocols)")
            for row in summary.rows:
                status = "ok" if row[2] else f"failed ({row[3]})"
                print(f"  {row[0]}: {status}")
        elif args.command == "campaign":
            config = _sim_config(args, campaign=True)
            trials, aggregate = cmd_campaign(config)
            out = _out_dir(args)
            trials.write(out / "campaign_trials.csv")
            aggregate.write(out / "campaign_aggregate.csv")
            print(
                f"wrote {out / 'campaign_trials.csv'} ({len(trials.rows)} rows) and "
                f"{out / 'campaign_aggregate.csv'} ({len(aggregate.rows)} rows)"
            )
        else:  # pragma: no cover - argparse enforces the command set
            raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except WorkerDiedError as exc:
        print(f"error: a campaign worker process died: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
