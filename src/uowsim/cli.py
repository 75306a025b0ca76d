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
SIGTERM exits with 143 (128 + 15), after a campaign has ended its workers;
off the main thread `main` sets no SIGTERM handler.
"""

import argparse
import math
import signal
import sys
import threading
from array import array
from dataclasses import dataclass, fields, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path

from .channel import ChannelParams, WaterType, received_power_los, short_repr, single_link_ber
from .config import (
    CONFIG_KEYS,
    DEFAULT_NODE_SWEEP,
    ConfigError,
    Protocol,
    SimulationConfig,
    WorkerDiedError,
    config_from_dict,
)

DEFAULT_DISTANCES = tuple(float(d) for d in range(5, 105, 5))
DEFAULT_DIVERGENCES_DEG = (30.0, 60.0, 90.0)
ALL_WATERS = tuple(WaterType)
# Rows formatted per write, about 25 kB of sweep text: larger chunks wrote
# no faster and held more memory.
_LINES_PER_WRITE = 256
# The one float rule: every float cell of every table and route dump.
_FLOAT = "%.8e"


@dataclass(frozen=True)
class OutputRecordSet:
    """A table: column names and value rows.

    Each cell is written by its value's type (`_format_cell`).  Every row
    must have one value per column; that is checked when the table is
    made, so a malformed table raises before `write` opens a file.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != schema width {len(self.columns)}"
                )

    @property
    def row_count(self) -> int:
        """The number of data rows, header excluded."""
        return len(self.rows)

    def chunks(self):
        """Yield the table as text pieces of whole lines: the header, then
        ``_LINES_PER_WRITE`` rows at a time, lazily.  `write` streams them
        to its file, so the table is never held as text."""
        yield _header(self.columns)
        for start in range(0, len(self.rows), _LINES_PER_WRITE):
            batch = self.rows[start : start + _LINES_PER_WRITE]
            yield "".join(",".join(map(_format_cell, row)) + "\n" for row in batch)

    def write(self, path) -> None:
        _write_chunks(Path(path), self.chunks())


def _header(columns) -> str:
    return ",".join(columns) + "\n"


def _format_cell(value) -> str:
    """A float by `_FLOAT`, a bool as true/false, an Enum as its value,
    None as the empty cell, anything else by `str`."""
    kind = type(value)
    # Exact type tests first, for speed: most cells are floats and ints.
    if kind is float:
        return _FLOAT % value
    if kind is int:
        return str(value)
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


@dataclass(frozen=True)
class SweepRecordSet(OutputRecordSet):
    """A sweep table whose ``rows`` are blocks, one per (water, divergence).

    A block is ``(prefix, distance cells, values)``: ``prefix`` is the
    block's water and divergence cells with their commas, formatted once,
    the distance cells are formatted once per distance and shared by every
    block, and ``values`` is an ``array('d')`` of the block's received
    powers or BERs, one per distance cell.  The prefix and cells are text,
    written as they are; each value is formatted by the `_FLOAT` rule.
    """

    def __post_init__(self):
        for prefix, distance_cells, values in self.rows:
            if len(distance_cells) != len(values):
                raise ValueError(
                    f"block {prefix!r}: {len(values)} values for {len(distance_cells)} distances"
                )

    @property
    def row_count(self) -> int:
        return sum(len(values) for _, _, values in self.rows)

    def chunks(self):
        """Yield the header, then each block ``_LINES_PER_WRITE`` rows at a
        time, each slice one ``%`` format over its values of a template made
        of the block's prefix and the slice's cells, ``%`` escaped."""
        yield _header(self.columns)
        row_end = f",{_FLOAT}\n"
        shared = None
        for prefix, distance_cells, values in self.rows:
            if distance_cells is not shared:  # blocks made by `_sweep` share one tuple
                shared = distance_cells
                cells = [cell.replace("%", "%%") for cell in distance_cells]
            prefix = prefix.replace("%", "%%")
            between = row_end + prefix
            for start in range(0, len(values), _LINES_PER_WRITE):
                stop = start + _LINES_PER_WRITE
                template = prefix + between.join(cells[start:stop]) + row_end
                yield template % tuple(values[start:stop])


LINK_BUDGET_COLUMNS = ("water", "divergence_deg", "distance_m", "received_power_w")
BER_SWEEP_COLUMNS = ("water", "divergence_deg", "distance_m", "ber")
# The route summary's one trial needs no node count or realization column.
_ROUTE_SUMMARY_SKIPS = ("n_nodes", "realization")


def _sweep_params(base: ChannelParams, water: WaterType, divergence_deg: float) -> ChannelParams:
    """Base channel parameters with extinction and divergence pinned by the sweep."""
    extinction = ChannelParams.for_water(water).extinction
    try:
        return replace(base, extinction=extinction, divergence_angle=math.radians(divergence_deg))
    except ConfigError as exc:
        raise ConfigError(f"divergence {divergence_deg} degrees: {exc}") from exc


def cmd_link_budget(config: SimulationConfig, distances, waters, divergences_deg) -> SweepRecordSet:
    """Received power over the water x divergence x distance grid."""
    return _sweep(config, distances, waters, divergences_deg, with_ber=False)


def cmd_ber_sweep(config: SimulationConfig, distances, waters, divergences_deg) -> SweepRecordSet:
    """Single-link BER over the water x divergence x distance grid."""
    return _sweep(config, distances, waters, divergences_deg, with_ber=True)


def _sweep(config, distances, waters, divergences_deg, with_ber: bool) -> SweepRecordSet:
    """The blocks of either sweep, one per (water, divergence).

    Each distance cell and each block's ``water,divergence,`` prefix is
    formatted once, and each block keeps its values as an ``array('d')``.
    Every row calls ``received_power_los``, and with ``with_ber`` also
    ``single_link_ber``, through this module's globals.  A received power
    that is not finite (past the float range, or an infinite spreading times
    a zero efficiency) has no row to write: without ``with_ber`` it is a
    ConfigError, with it the BER is 0 past the float range and 0.5 where an
    efficiency is 0.
    """
    _require_sweep(distances, waters, divergences_deg)
    distance_cells = tuple(_FLOAT % distance for distance in distances)
    noise = config.noise
    blocks = []
    for water in waters:
        for div_deg in divergences_deg:
            params = _sweep_params(config.channel, water, div_deg)
            prefix = f"{water.value},{_FLOAT % div_deg},"
            values = array("d", [received_power_los(distance, params) for distance in distances])
            if with_ber:
                values = array("d", [single_link_ber(power, params, noise) for power in values])
            elif not all(map(math.isfinite, values)):
                distance = next(d for d, v in zip(distances, values) if not math.isfinite(v))
                raise ConfigError(f"received power at distance {distance} m is not a finite float")
            blocks.append((prefix, distance_cells, values))
    columns = BER_SWEEP_COLUMNS if with_ber else LINK_BUDGET_COLUMNS
    return SweepRecordSet(columns, tuple(blocks))


def _require_sweep(distances, waters, divergences_deg):
    lists = (("--water", waters), ("--distances", distances), ("--divergences", divergences_deg))
    for flag, values in lists:
        if not values:
            raise ConfigError(f"{flag} must not be empty")
    # The link model divides by d * d, which underflows to 0 below about 1e-162.
    if not all(0.0 < d < math.inf and d * d > 0.0 for d in distances):
        raise ConfigError("distances must be finite and > 0, with a square above 0")


def _record_set(cls, records, skips=()) -> OutputRecordSet:
    """A table of ``cls`` records: one column per field of ``cls`` but
    ``skips``, in field order, and one row per record."""
    columns = tuple(spec.name for spec in fields(cls) if spec.name not in skips)
    return OutputRecordSet(columns, tuple(map(attrgetter(*columns), records)))


def route_dump_lines(protocol: Protocol, graph: "NetworkGraph", outcome: "RoutingOutcome") -> list[str]:
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
        lines.append(f"{name} {index} {node_id} {_floats(x, y, ber_to_next)}")
    lines.append(f"{name} e2e {_floats(route.e2e_ber, route.total_distance)} {outcome.evaluations}")
    return lines


def _floats(*values) -> str:
    return " ".join(_FLOAT % value for value in values)


# `harness`, and with it `routing`, `topology` and `metrics`, is imported
# when a trial runs, so that the sweeps never load it.
def run_campaign(config: SimulationConfig):
    from . import harness
    return harness.run_campaign(config)


def cmd_route(config: SimulationConfig, seed: int):
    """One trial at the given trial seed: summary rows plus route dumps."""
    from .harness import TrialMetrics, run_single

    result = run_single(config, seed)
    dumps = {
        protocol: route_dump_lines(protocol, result.graph, outcome)
        for protocol, outcome in result.outcomes.items()
        if outcome.success
    }
    return _record_set(TrialMetrics, result.metrics, _ROUTE_SUMMARY_SKIPS), dumps


def cmd_campaign(config: SimulationConfig):
    """Full campaign: per-trial and aggregate record sets."""
    from .harness import AggregateStats, TrialMetrics

    result = run_campaign(config)
    return _record_set(TrialMetrics, result.records), _record_set(AggregateStats, result.aggregates)


def _list_of(convert):
    """argparse type: a comma-separated list of ``convert`` values, which may be empty."""

    def parse(text: str):
        try:
            return [convert(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid comma-separated list {short_repr(text)}")

    return parse


def _cut(text: str) -> str:
    """A path or argparse's message, of any length, cut to its first 300
    characters: room for a flag's name and a path of a few directories."""
    return text if len(text) <= 300 else text[:300] + "..."


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error line is cut short: argparse repeats a
    bad value whole.  The subcommands' parsers take its class."""

    def error(self, message):
        super().error(_cut(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uowsim",
        description="Underwater optical wireless sensor network simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--water",
        dest="waters",  # a grid axis, not the config key ``water``
        metavar="WATER",
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

    # Each flag of `route` and `campaign` is stored under the config key it
    # sets, and only when given: `_config` lays the given flags over the file,
    # and `config_from_dict` converts and checks both alike.
    sim = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    sim.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=int,
        help="master seed (route: the trial seed)",
    )
    sim.add_argument(
        "--protocols", type=_list_of(str), help="comma-separated subset of crp,drp,srp"
    )
    sim.add_argument("--weight-mode", metavar="MODE", help="CRP edge weight (paper or exact)")
    sim.add_argument(
        "--nodes", dest="node_count", metavar="NODES", type=_list_of(int),
        help="node count(s), comma-separated",
    )
    sim.add_argument("--water", help="water type (clear, coastal or turbid)")

    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("link-budget", parents=[common, sweep], help="received power sweep")
    commands.add_parser("ber-sweep", parents=[common, sweep], help="single-link BER sweep")
    commands.add_parser("route", parents=[common, sim], help="route one seeded trial")
    campaign = commands.add_parser("campaign", parents=[common, sim], help="run a Monte-Carlo campaign")
    campaign.add_argument("--realizations", type=int, default=argparse.SUPPRESS)
    return parser


def _load_config_doc(path) -> dict:
    if path is None:
        return {}
    import json  # only a --config run reads JSON

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {_os_error(exc)}") from exc
    # Bad JSON or UTF-8, a repeated key, an int of over 4300 digits, or nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed config file {_cut(path)}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _os_error(exc: OSError) -> str:
    """``exc`` as its file name, cut short, and its reason: its own text
    repeats the name whole."""
    if exc.filename is None:
        return str(exc)
    return f"{_cut(str(exc.filename))}: {exc.strerror}"


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a repeated key, of which json keeps the last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated key {short_repr(key)}")
        doc[key] = value
    return doc


def _config(args) -> SimulationConfig:
    """Every command's config: the ``--config`` document, the given flags
    over it, and `campaign`'s default node sweep where neither sets one."""
    doc = _load_config_doc(args.config)
    doc.update((key, value) for key, value in vars(args).items() if key in CONFIG_KEYS)
    if args.command == "campaign":
        doc.setdefault("node_count", list(DEFAULT_NODE_SWEEP))
    return config_from_dict(doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_chunks(path: Path, chunks) -> None:
    """Write each text piece through one open handle as it is made."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM raises SystemExit, so that a campaign ends its pool's workers
    # on the way out (`harness.run_campaign`) instead of leaving them running.
    # Only the main thread may set a handler; elsewhere main leaves it as it is.
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        config = _config(args)
        if args.command in ("link-budget", "ber-sweep"):
            if args.command == "link-budget":
                command, filename = cmd_link_budget, "link_budget.csv"
            else:
                command, filename = cmd_ber_sweep, "ber_sweep.csv"
            recordset = command(config, args.distances, args.waters, args.divergences)
            out = _out_dir(args)
            recordset.write(out / filename)
            print(f"wrote {out / filename} ({recordset.row_count} rows)")
        elif args.command == "route":
            summary, dumps = cmd_route(config, config.master_seed)
            out = _out_dir(args)
            summary.write(out / "route_summary.csv")
            # Every dump in `out` is this run's: a protocol without a route loses its old one.
            for protocol in Protocol:
                path = out / f"route_{protocol.value}.txt"
                if protocol in dumps:
                    _write_chunks(path, (line + "\n" for line in dumps[protocol]))
                else:
                    path.unlink(missing_ok=True)
            print(f"wrote {out / 'route_summary.csv'} ({summary.row_count} protocols)")
            for row in summary.rows:
                cell = dict(zip(summary.columns, row))
                status = "ok" if cell["success"] else f"failed ({cell['failure_reason'].value})"
                print(f"  {cell['protocol'].value}: {status}")
        else:  # campaign; argparse allows no other command
            trials, aggregate = cmd_campaign(config)
            out = _out_dir(args)
            trials.write(out / "campaign_trials.csv")
            aggregate.write(out / "campaign_aggregate.csv")
            print(
                f"wrote {out / 'campaign_trials.csv'} ({trials.row_count} rows) and "
                f"{out / 'campaign_aggregate.csv'} ({aggregate.row_count} rows)"
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {_os_error(exc)}", file=sys.stderr)
        return 3
    except WorkerDiedError as exc:
        print(f"error: a campaign worker process died: {exc}", file=sys.stderr)
        return 4
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
