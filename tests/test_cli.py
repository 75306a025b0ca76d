import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from array import array
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pid_alive
from uowsim import (
    AggregateStats,
    FailureReason,
    Protocol,
    SimulationConfig,
    TrialMetrics,
    WeightMode,
)
from uowsim.cli import (
    BER_SWEEP_COLUMNS,
    CAMPAIGN_AGGREGATE_COLUMNS,
    CAMPAIGN_TRIAL_COLUMNS,
    LINK_BUDGET_COLUMNS,
    ROUTE_SUMMARY_COLUMNS,
    _LINES_PER_WRITE,
    OutputRecordSet,
    SweepRecordSet,
    _format_cell,
    _sim_config,
    build_parser,
    cmd_ber_sweep,
    cmd_campaign,
    cmd_link_budget,
    cmd_route,
    main,
)
from uowsim.channel import (
    ChannelParams,
    ReceiverNoise,
    WaterType,
    received_power_los,
    single_link_ber,
)

P_RX_CLEAR_50M = 2.6816175219259665e-19
BER_CLEAR_50M = 0.49999618051689926

DATA_DIR = Path(__file__).parent / "data"
REPO_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_DIR / "src"


def _sweep_rows(rs):
    """Each sweep row as (water, divergence, distance, value), with the
    water and the two grid values read back from their formatted cells."""
    rows = []
    for prefix, distance_cells, values in rs.rows:
        water, divergence_cell, _ = prefix.split(",")
        for distance_cell, value in zip(distance_cells, values):
            rows.append((water, float(divergence_cell), float(distance_cell), value))
    return rows


def test_link_budget_single_row_matches_oracle():
    rs = cmd_link_budget(SimulationConfig(), [50.0], [WaterType.CLEAR_OCEAN], [60.0])
    assert rs.row_count == 1
    water, div, dist, power = _sweep_rows(rs)[0]
    assert (water, div, dist) == ("clear", 60.0, 50.0)
    assert power == pytest.approx(P_RX_CLEAR_50M, rel=1e-10)


def test_link_budget_orderings():
    waters = [WaterType.CLEAR_OCEAN, WaterType.COASTAL_OCEAN, WaterType.TURBID_HARBOR]
    distances = [float(d) for d in range(10, 110, 10)]
    rs = cmd_link_budget(SimulationConfig(), distances, waters, [60.0])
    by_water = {}
    for water, _, dist, power in _sweep_rows(rs):
        by_water.setdefault(water, []).append((dist, power))
    # strictly decreasing in distance per water
    for series in by_water.values():
        powers = [p for _, p in sorted(series)]
        assert all(a > b for a, b in zip(powers, powers[1:]))
    # clear > coastal > turbid at every distance
    for i, dist in enumerate(sorted(distances)):
        assert by_water["clear"][i][1] > by_water["coastal"][i][1] > by_water["turbid"][i][1]


def test_ber_sweep_rows():
    rs = cmd_ber_sweep(
        SimulationConfig(),
        [50.0, 100.0],
        [WaterType.CLEAR_OCEAN, WaterType.TURBID_HARBOR],
        [60.0],
    )
    cells = {(row[0], row[2]): row[3] for row in _sweep_rows(rs)}
    assert cells[("clear", 50.0)] == pytest.approx(BER_CLEAR_50M, rel=1e-10)
    assert cells[("clear", 50.0)] < cells[("turbid", 50.0)]
    assert cells[("turbid", 100.0)] == pytest.approx(0.5, rel=1e-9)


def test_sweep_rejects_empty_or_negative():
    from uowsim import ConfigError

    with pytest.raises(ConfigError):
        cmd_link_budget(SimulationConfig(), [], [WaterType.CLEAR_OCEAN], [60.0])
    with pytest.raises(ConfigError):
        cmd_ber_sweep(SimulationConfig(), [-5.0], [WaterType.CLEAR_OCEAN], [60.0])


def test_cmd_route_two_nodes():
    config = SimulationConfig(
        node_count=2, source_pos=(50.0, 125.0), target_pos=(100.0, 125.0)
    )
    summary, dumps = cmd_route(config, 11)
    assert len(summary.rows) == 3
    hop_counts = {row[4] for row in summary.rows}
    bers = {row[5] for row in summary.rows}
    assert hop_counts == {1}
    assert len(bers) == 1
    assert {p.value for p in dumps} == {"crp", "drp", "srp"}
    for lines in dumps.values():
        assert len(lines) == 3  # two hop lines plus trailer


def test_main_route_prints_each_protocols_status(tmp_path, capsys):
    assert main(["route", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert "  crp: ok" in capsys.readouterr().out.splitlines()
    assert main(["route", "--nodes", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert "  drp: failed (disconnected)" in capsys.readouterr().out.splitlines()


def _route_dumps(out):
    return sorted(path.name for path in out.glob("route_*.txt"))


def test_main_route_leaves_no_dump_of_an_earlier_run(tmp_path):
    # Every dump in --out belongs to this run: a protocol without a route,
    # or not selected, leaves none behind.
    full = ["route", "--seed", "42", "--out", str(tmp_path)]
    assert main(full) == 0
    assert _route_dumps(tmp_path) == ["route_crp.txt", "route_drp.txt", "route_srp.txt"]
    assert main(["route", "--nodes", "2", "--out", str(tmp_path)]) == 0
    assert _route_dumps(tmp_path) == []
    assert main(full) == 0
    assert main(full + ["--protocols", "crp"]) == 0
    assert _route_dumps(tmp_path) == ["route_crp.txt"]
    golden = (DATA_DIR / "golden_route" / "route_crp.txt").read_bytes()
    assert (tmp_path / "route_crp.txt").read_bytes() == golden


def test_columns_name_record_fields():
    # Each row reads every cell from the record attribute its column names.
    trial_fields = {field.name for field in dataclasses.fields(TrialMetrics)}
    for name, _ in CAMPAIGN_TRIAL_COLUMNS + ROUTE_SUMMARY_COLUMNS:
        assert name in trial_fields
    aggregate_fields = {field.name for field in dataclasses.fields(AggregateStats)}
    for name, _ in CAMPAIGN_AGGREGATE_COLUMNS:
        assert name in aggregate_fields


def test_cmd_route_disconnected():
    config = SimulationConfig(node_count=2)
    summary, dumps = cmd_route(config, 11)
    assert dumps == {}
    for row in summary.rows:
        assert row[2] is False
        assert row[3] is FailureReason.DISCONNECTED


_PARSE = {"str": str, "int": int, "float": float, "bool": lambda cell: cell == "true"}


def test_recordset_roundtrip():
    config = SimulationConfig(node_count=(20,), realizations=3)
    trials, aggregate = cmd_campaign(config)
    summary, _ = cmd_route(SimulationConfig(node_count=20), 11)
    sweep = cmd_link_budget(SimulationConfig(), [5.0, 10.0], [WaterType.CLEAR_OCEAN], [60.0])
    bers = cmd_ber_sweep(SimulationConfig(), [5.0, 10.0], [WaterType.CLEAR_OCEAN], [60.0])
    for rs, columns in (
        (trials, CAMPAIGN_TRIAL_COLUMNS),
        (aggregate, CAMPAIGN_AGGREGATE_COLUMNS),
        (summary, ROUTE_SUMMARY_COLUMNS),
        (sweep, LINK_BUDGET_COLUMNS),
        (bers, BER_SWEEP_COLUMNS),
    ):
        lines = "".join(rs.chunks()).splitlines()
        assert lines[0] == ",".join(name for name, _ in columns)
        assert len(lines) == rs.row_count + 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for cell, (_, kind) in zip(cells, columns):
                value = _PARSE[kind](cell) if cell else None
                assert _format_cell(value, kind) == cell
    # Enum cells are written as their values.
    assert _format_cell(Protocol.CRP, "str") == "crp"
    assert _format_cell(FailureReason.DEAD_END, "str") == "dead_end"


def test_a_malformed_table_fails_before_its_file_is_opened(tmp_path):
    # Tables are streamed to their files, so a row that does not fit the
    # schema must be refused when the table is made, not half way through.
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="row width 1 != schema width 2"):
        OutputRecordSet((("a", "int"), ("b", "int")), ((1, 2), (3,))).write(path)
    block = ("clear,6.00000000e+01,", ("1.00000000e+00",), array("d", [1.0, 2.0]))
    with pytest.raises(ValueError, match="2 values for 1 distances"):
        SweepRecordSet(LINK_BUDGET_COLUMNS, (block,)).write(path)
    assert not path.exists()


def test_sweeps_write_through_the_traced_writer_and_keep_every_prefix(tmp_path):
    # The benchmark's tracer wraps OutputRecordSet.write (its ``cli.write``
    # span); a sweep must not bypass it with a writer of its own.
    assert SweepRecordSet.write is OutputRecordSet.write
    # Each sweep slice is one ``%`` format, so a ``%`` in a block's prefix or
    # cells must be escaped, not read as a conversion.
    path = tmp_path / "table.csv"
    block = ("100%,5.0%s,", ("1%d", "2"), array("d", [0.5, -0.0]))
    SweepRecordSet(LINK_BUDGET_COLUMNS, (block,)).write(path)
    assert path.read_text() == (
        "water,divergence_deg,distance_m,received_power_w\n"
        "100%,5.0%s,1%d,5.00000000e-01\n"
        "100%,5.0%s,2,-0.00000000e+00\n"
    )
    # An empty block writes no row, and no stray template text.
    empty = ("clear,6.00000000e+01,", (), array("d"))
    SweepRecordSet(BER_SWEEP_COLUMNS, (empty, empty)).write(path)
    assert path.read_text() == "water,divergence_deg,distance_m,ber\n"


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_the_float_rule_writes_what_format_spec_writes(value):
    # Every float cell, route dump and sweep value is written by the ``%``
    # rule; it must give the bytes of the ``.8e`` format spec for every
    # float, NaN, infinities, signed zeros and subnormals included.
    assert _format_cell(value, "float") == f"{value:.8e}"


def test_sweep_write_holds_less_than_its_file(tmp_path, capsys):
    # A 20,000-row ber-sweep: the values are kept as one array per block and
    # the lines are streamed, so the traced peak stays below the CSV's size
    # (it was five times the size when every line and the joined text were
    # held at once).
    grid = [
        "--distances", ",".join(f"{i / 10:.1f}" for i in range(1, 2001)),
        "--divergences", "5,10,15,20,25",
        "--water", "clear,turbid",
        "--out", str(tmp_path),
    ]
    assert main(["ber-sweep", *grid]) == 0
    tracemalloc.start()
    try:
        assert main(["ber-sweep", *grid]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("(20000 rows)\n")
    size = (tmp_path / "ber_sweep.csv").stat().st_size
    assert peak < size, f"traced peak {peak} B for a {size} B file"


def test_main_prints_the_number_of_data_rows(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    grid = ["--distances", "1,2,3", "--divergences", "10,20", "--water", "clear"]
    assert main(["link-budget", *grid, *out]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'link_budget.csv'} (6 rows)\n"
    assert main(["route", "--seed", "1", *out]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"wrote {tmp_path / 'route_summary.csv'} (3 protocols)"
    assert main(["campaign", "--nodes", "20,30", "--realizations", "2", *out]) == 0
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'campaign_trials.csv'} (12 rows) and "
        f"{tmp_path / 'campaign_aggregate.csv'} (6 rows)\n"
    )


def test_campaign_single_realization_aggregate_matches_trial():
    config = SimulationConfig(node_count=(40,), realizations=1)
    trials, aggregate = cmd_campaign(config)
    trial_by_protocol = {row[0]: row for row in trials.rows}
    for agg_row in aggregate.rows:
        protocol = agg_row[0]
        trial = trial_by_protocol[protocol]
        assert agg_row[2] == 1
        if trial[4]:  # success
            assert agg_row[3] == 1.0
            assert agg_row[4] == trial[7]  # mean ber == trial ber
            assert agg_row[5] == 0.0


def test_main_link_budget_writes_csv(tmp_path):
    code = main(
        [
            "link-budget",
            "--out",
            str(tmp_path),
            "--distances",
            "50",
            "--water",
            "clear",
            "--divergences",
            "60",
        ]
    )
    assert code == 0
    text = (tmp_path / "link_budget.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "water,divergence_deg,distance_m,received_power_w"
    assert lines[1].startswith("clear,6.00000000e+01,5.00000000e+01,")


def test_main_runs_off_the_main_thread(tmp_path):
    # Only the main thread may set a signal handler; main sets none elsewhere.
    codes = []
    args = ["link-budget", "--out", str(tmp_path), "--distances", "50", "--water", "clear"]
    thread = threading.Thread(target=lambda: codes.append(main(args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]
    assert len((tmp_path / "link_budget.csv").read_text().splitlines()) == 4


def test_main_route_golden_snapshot(tmp_path):
    code = main(["route", "--out", str(tmp_path), "--seed", "42"])
    assert code == 0
    for name in ("route_summary.csv", "route_crp.txt", "route_drp.txt", "route_srp.txt"):
        produced = (tmp_path / name).read_bytes()
        frozen = (DATA_DIR / "golden_route" / name).read_bytes()
        assert produced == frozen, f"{name} drifted from the golden snapshot"


def test_main_campaign_byte_identical_runs(tmp_path):
    config = {"node_count": [20, 30], "realizations": 8}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["campaign", "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out)
    for filename in ("campaign_trials.csv", "campaign_aggregate.csv"):
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()


def test_main_campaign_matches_reference_digests(tmp_path, monkeypatch):
    # The stock campaign cut to 150 realizations, run serially, must write the
    # bytes whose SHA-256 sums the benchmark keeps as its seed-42 reference.
    monkeypatch.delenv("UOWSN_THREADS", raising=False)
    reference = json.loads((REPO_DIR / "perfbench" / "reference.json").read_text())
    assert main(["campaign", "--seed", "42", "--realizations", "150", "--out", str(tmp_path)]) == 0
    for name, digest in reference["sha256"]["campaign-pass"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_main_campaign_flag_overrides(tmp_path):
    code = main(
        [
            "campaign",
            "--out",
            str(tmp_path),
            "--nodes",
            "20",
            "--realizations",
            "2",
            "--protocols",
            "crp",
            "--weight-mode",
            "paper",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = (tmp_path / "campaign_trials.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 realizations x 1 protocol
    assert all(line.startswith("crp,20,") for line in lines[1:])


def test_main_lists_protocols_in_one_order(tmp_path):
    # The order of --protocols does not reach the outputs: every file lists
    # the protocols in enum order.
    runs = {}
    for order in ("srp,crp", "crp,srp"):
        out = tmp_path / order
        common = ["--protocols", order, "--nodes", "20", "--out", str(out)]
        assert main(["campaign", *common, "--realizations", "2"]) == 0
        assert main(["route", *common]) == 0
        runs[order] = out
    for name, rounds in (
        ("campaign_trials.csv", 2),  # one round per realization
        ("campaign_aggregate.csv", 1),
        ("route_summary.csv", 1),
    ):
        lines = (runs["srp,crp"] / name).read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["crp", "srp"] * rounds, name
        assert (runs["srp,crp"] / name).read_bytes() == (runs["crp,srp"] / name).read_bytes()


def test_main_respects_threads_env(tmp_path, monkeypatch):
    out_serial = tmp_path / "serial"
    assert main(["campaign", "--out", str(out_serial), "--nodes", "20", "--realizations", "6"]) == 0
    monkeypatch.setenv("UOWSN_THREADS", "2")
    out_parallel = tmp_path / "parallel"
    assert main(["campaign", "--out", str(out_parallel), "--nodes", "20", "--realizations", "6"]) == 0
    assert (out_serial / "campaign_trials.csv").read_bytes() == (
        out_parallel / "campaign_trials.csv"
    ).read_bytes()


def test_main_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["campaign", "--config", str(bad), "--out", str(tmp_path)]) == 2
    wrong_key = tmp_path / "wrong.json"
    wrong_key.write_text(json.dumps({"node_cont": 40}))
    assert main(["route", "--config", str(wrong_key), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["route", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert main(["route", "--seed", "-1", "--out", str(tmp_path)]) == 2
    repeated_count = ["campaign", "--nodes", "20,20", "--realizations", "1"]
    assert main(repeated_count + ["--out", str(tmp_path)]) == 2
    assert main(["route", "--protocols", "crp,crp", "--out", str(tmp_path)]) == 2
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text('{"max_range": 1' + "0" * 400 + "}")
    assert main(["route", "--config", str(huge_int), "--out", str(tmp_path)]) == 2
    # json parses no int of over 4300 digits; that is a malformed file too
    huger_int = tmp_path / "huger_int.json"
    huger_int.write_text('{"max_range": 1' + "0" * 5000 + "}")
    assert main(["route", "--config", str(huger_int), "--out", str(tmp_path)]) == 2
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"max_range": \xff}')
    assert main(["route", "--config", str(not_utf8), "--out", str(tmp_path)]) == 2
    # Distinct nodes whose squared separation underflows to 0.
    for doc in (
        {"area": [1e-170, 1e-170], "source_pos": [0, 0], "target_pos": [1e-170, 1e-170],
         "node_count": 2},
        {"source_pos": [0, 0], "target_pos": [1e-170, 0]},
    ):
        underflow = tmp_path / "underflow.json"
        underflow.write_text(json.dumps(doc))
        assert main(["route", "--config", str(underflow), "--out", str(tmp_path)]) == 2
    # The photon rate's denominator underflows to 0 or overflows, or the
    # noise rates have no finite sum.
    for doc in (
        {"noise": {"pulse_duration": 1e-300}},
        {"noise": {"pulse_duration": 1e30, "data_rate": 1e300}},
        {"noise": {"dark_count_rate": 1e308, "background_rate": 1e308}},
    ):
        bad_rate = tmp_path / "bad_rate.json"
        bad_rate.write_text(json.dumps({**doc, "node_count": 20}))
        assert main(["route", "--config", str(bad_rate), "--out", str(tmp_path)]) == 2
        bad_rate.write_text(json.dumps(doc))
        sweep = ["ber-sweep", "--distances", "1,50", "--divergences", "30", "--water", "clear"]
        assert main(sweep + ["--config", str(bad_rate), "--out", str(tmp_path)]) == 2
    # A divergence whose cosine rounds to 1 leaves the spreading undefined.
    tiny_divergence = tmp_path / "tiny_divergence.json"
    tiny_divergence.write_text(json.dumps({"channel": {"divergence_angle": 1e-9}, "node_count": 20}))
    for command in ("route", "campaign"):
        assert main([command, "--config", str(tiny_divergence), "--out", str(tmp_path)]) == 2
    for command in ("link-budget", "ber-sweep"):
        for flag, value in (
            ("--divergences", "0"),
            ("--divergences", "200"),
            ("--divergences", "nan"),
            ("--divergences", "1e-322"),
            ("--divergences", "1e-7"),
            ("--distances", "nan"),
            ("--distances", "inf"),
            ("--distances", "1e400"),
            ("--distances", "1e-200"),
        ):
            assert main([command, flag, value, "--out", str(tmp_path)]) == 2


def test_each_sim_flag_overrides_its_key_in_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "master_seed": 1,
                "node_count": [5],
                "realizations": 2,
                "protocols": ["crp"],
                "weight_mode": "paper",
                "water": "coastal",
            }
        )
    )
    for command in ("route", "campaign"):

        def resolved(*flags):
            args = build_parser().parse_args([command, "--config", str(config), *flags])
            return _sim_config(args, campaign=command == "campaign")

        from_file = resolved()
        assert (from_file.master_seed, from_file.node_count) == (1, 5)
        for flag, value, changes in (
            ("--seed", "9", {"master_seed": 9}),
            ("--nodes", "7,8", {"node_count": (7, 8)}),
            ("--realizations", "3", {"realizations": 3}),
            ("--protocols", "srp,drp", {"protocols": (Protocol.DRP, Protocol.SRP)}),
            ("--weight-mode", "exact", {"weight_mode": WeightMode.EXACT_LOG}),
            ("--water", "turbid", {"channel": ChannelParams.for_water(WaterType.TURBID_HARBOR)}),
        ):
            assert resolved(flag, value) == dataclasses.replace(from_file, **changes), flag


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_main_takes_a_one_element_node_count_list_as_one_count(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"node_count": [40]}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"node_count": 40}))
    for command, extra in (("route", ["--seed", "7"]), ("campaign", ["--realizations", "3"])):
        outputs = []
        for index, run in enumerate(
            (["--config", str(listed)], ["--config", str(single)], ["--nodes", "40"])
        ):
            out = tmp_path / f"{command}{index}"
            assert main([command, *run, *extra, "--out", str(out)]) == 0
            outputs.append(_files(out))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]


def test_main_takes_protocols_and_node_counts_only_as_json_lists(tmp_path, capsys):
    config = tmp_path / "config.json"
    for doc in (
        {"protocols": {"crp": True}, "node_count": 20},
        {"protocols": "crp"},
        {"node_count": "20"},
    ):
        config.write_text(json.dumps(doc))
        assert main(["route", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "'20'" in capsys.readouterr().err
    assert not (tmp_path / "route_summary.csv").exists()


def test_main_overflowing_photon_rate_gives_ber_0(tmp_path, capsys):
    # A photon rate past the float range means a BER at its limit for a
    # growing power, 0, not NaN; the route's e2e BER folds those links.
    out = ["--out", str(tmp_path)]
    sweep = ["ber-sweep", "--divergences", "30", "--water", "clear", *out]

    def rows(filename):
        return [line.split(",") for line in (tmp_path / filename).read_text().splitlines()[1:]]

    for doc in ({"channel": {"tx_power": 1e308}}, {"channel": {"wavelength": 1e300}}):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(sweep + ["--distances", "1,50", "--config", str(config)]) == 0
        assert [row[3] for row in rows("ber_sweep.csv")] == ["0.00000000e+00"] * 2
        config.write_text(json.dumps({**doc, "node_count": 20}))
        # numpy's overflow and NaN warnings too: the limit is not a fault.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["route", "--config", str(config), *out]) == 0
        e2e_bers = {row[5] for row in rows("route_summary.csv") if row[2] == "true"}
        assert e2e_bers == {"0.00000000e+00"}
    # With the stock config, the power at 1e-150 m is 8.2e291 W, and at
    # 1e-160 m about 8e311 W, past the float range.
    assert main(sweep + ["--distances", "1e-150,1e-100,1e-160"]) == 0
    assert [row[3] for row in rows("ber_sweep.csv")] == ["0.00000000e+00"] * 3
    # link-budget has no power to write there.
    budget = ["link-budget", "--divergences", "30", "--water", "clear", *out]
    assert main(budget + ["--distances", "1,1e-160"]) == 2
    assert "distance 1e-160 m" in capsys.readouterr().err


def test_main_rejects_an_overflowing_area_diagonal(tmp_path, capsys):
    # 1.41e200 m apart and inside max_range, whose squared distance would
    # overflow: the area rule's 1e6 m sides reject it.
    config = tmp_path / "area.json"
    config.write_text(json.dumps({
        "area": [1e200, 1e200],
        "max_range": 1e300,
        "node_count": 5,
        "source_pos": [0, 0],
        "target_pos": [1e200, 1e200],
    }))
    assert main(["route", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "error: area must be a float in [0.001, 1000000.0]" in capsys.readouterr().err


def test_main_rejects_delays_past_the_float_range(tmp_path, capsys):
    config = tmp_path / "delay.json"
    campaign = ["campaign", "--nodes", "20,40", "--realizations", "20", "--config", str(config)]
    campaign += ["--out", str(tmp_path)]
    for per_hop in (1e307, 1e308):
        config.write_text(json.dumps({"delay": {"per_hop_processing": per_hop}}))
        assert main(campaign) == 2
        assert "per_hop_processing must be" in capsys.readouterr().err
    assert not (tmp_path / "campaign_trials.csv").exists()
    # At the rules' longest per-hop delay, every delay, mean and deviation
    # is written finite.
    config.write_text(json.dumps({
        "delay": {"packet_bits": 1e12, "per_hop_processing": 1e6},
        "noise": {"data_rate": 1},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(campaign) == 0
    for name in ("campaign_trials.csv", "campaign_aggregate.csv"):
        cells = set((tmp_path / name).read_text().replace("\n", ",").split(","))
        assert not cells & {"inf", "-inf", "nan"}


def test_main_sweeps_on_a_nan_power(tmp_path, capsys):
    # With a zero efficiency, the spreading's overflow at 1e-160 m makes the
    # power 0 * inf = NaN: link-budget has no power to write, and ber-sweep
    # writes the BER of no signal, 0.5.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"channel": {"tx_efficiency": 0}}))
    grid = [
        "--distances", "1e-160,1",
        "--divergences", "30",
        "--water", "clear",
        "--config", str(config),
        "--out", str(tmp_path),
    ]
    assert main(["link-budget", *grid]) == 2
    assert "distance 1e-160 m" in capsys.readouterr().err
    assert not (tmp_path / "link_budget.csv").exists()
    assert main(["ber-sweep", *grid]) == 0
    rows = (tmp_path / "ber_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["5.00000000e-01"] * 2


def test_main_sweeps_where_the_spreading_divisor_underflows(tmp_path, capsys):
    # At 1e-155 m the distance's square is a normal float, but the beam's
    # solid angle at 1e-6 degrees times it underflows to 0: the spreading
    # takes its limit, inf, and the rules for an infinite power apply.
    grid = ["--distances", "1e-155,1", "--divergences", "1e-6", "--water", "clear"]
    grid += ["--out", str(tmp_path)]
    assert main(["link-budget", *grid]) == 2
    assert "distance 1e-155 m" in capsys.readouterr().err
    assert not (tmp_path / "link_budget.csv").exists()
    assert main(["ber-sweep", *grid]) == 0
    rows = (tmp_path / "ber_sweep.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[3] == "0.00000000e+00"
    # With a zero efficiency the power is 0 * inf = NaN, the BER of no signal.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"channel": {"rx_efficiency": 0}}))
    assert main(["ber-sweep", *grid, "--config", str(config)]) == 0
    rows = (tmp_path / "ber_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["5.00000000e-01"] * 2


def test_main_rejects_a_config_key_naming_a_stored_constant(tmp_path, capsys):
    # ChannelParams and ReceiverNoise store their model constants as
    # attributes that are not fields, and so not config keys.
    for key, cls in (("channel", ChannelParams), ("noise", ReceiverNoise)):
        value = cls()
        names = set(vars(value)) - {field.name for field in dataclasses.fields(value)}
        assert names
        for name in sorted(names):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: {name: 1.0}}))
            assert main(["ber-sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
            assert name in capsys.readouterr().err
    assert not (tmp_path / "ber_sweep.csv").exists()


def _assert_sweeps_match_rows_formatted_one_by_one(tmp_path, distances, waters, divergences):
    """Run both sweeps on the grid and compare each file's bytes with its
    rows, each cell formatted on its own by `_format_cell`."""
    grid = [
        "--distances", ",".join(map(repr, distances)),
        "--water", ",".join(water.value for water in waters),
        "--divergences", ",".join(map(repr, divergences)),
        "--out", str(tmp_path),
    ]
    noise = ReceiverNoise()
    for command, filename, columns in (
        ("link-budget", "link_budget.csv", LINK_BUDGET_COLUMNS),
        ("ber-sweep", "ber_sweep.csv", BER_SWEEP_COLUMNS),
    ):
        assert main([command, *grid]) == 0
        expected = [",".join(name for name, _ in columns)]
        for water in waters:
            for divergence in divergences:
                params = ChannelParams.for_water(water, divergence_angle=math.radians(divergence))
                for distance in distances:
                    value = received_power_los(distance, params)
                    if command == "ber-sweep":
                        value = single_link_ber(value, params, noise)
                    row = (water.value, divergence, distance, value)
                    expected.append(
                        ",".join(_format_cell(cell, kind) for cell, (_, kind) in zip(row, columns))
                    )
        assert (tmp_path / filename).read_bytes() == ("\n".join(expected) + "\n").encode()


def test_main_sweep_bytes_match_rows_formatted_one_by_one(tmp_path):
    # Unsorted, repeated and extreme distances: formatting each distance and
    # each block's prefix once must not reorder, merge or drop rows.
    _assert_sweeps_match_rows_formatted_one_by_one(
        tmp_path,
        [100.0, 5.0, 5.0, 1e-3, 1e-100],
        [WaterType.TURBID_HARBOR, WaterType.CLEAR_OCEAN],
        [60.0, 7.5],
    )


@pytest.mark.parametrize(
    "count", [1, _LINES_PER_WRITE - 1, _LINES_PER_WRITE, _LINES_PER_WRITE + 1, 2 * _LINES_PER_WRITE + 1]
)
def test_sweep_slices_keep_every_row(tmp_path, count):
    # Each block is written _LINES_PER_WRITE rows at a time: counts on both
    # sides of a slice boundary make an off-by-one slice or a lost row fail.
    _assert_sweeps_match_rows_formatted_one_by_one(
        tmp_path,
        [0.25 * (i + 1) for i in range(count)],
        [WaterType.CLEAR_OCEAN, WaterType.TURBID_HARBOR],
        [10.0, 60.0],
    )


def test_sweeps_call_the_channel_once_per_row(tmp_path, monkeypatch):
    # perfbench/tracing.py counts these calls through uowsim.cli's globals
    # and checks them against the row counts.
    import uowsim.cli as cli

    calls = {"received_power_los": 0, "single_link_ber": 0}

    def counting(name):
        function = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return function(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    grid = ["--distances", "5,10,20", "--water", "clear,turbid", "--divergences", "30,60"]
    assert main(["link-budget", *grid, "--out", str(tmp_path)]) == 0
    assert calls == {"received_power_los": 12, "single_link_ber": 0}
    assert main(["ber-sweep", *grid, "--out", str(tmp_path)]) == 0
    assert calls == {"received_power_los": 24, "single_link_ber": 12}
    for filename in ("link_budget.csv", "ber_sweep.csv"):
        assert len((tmp_path / filename).read_text().splitlines()) == 1 + 12


def test_main_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["link-budget", "--out", str(blocker / "sub"), "--distances", "5"])
    assert code == 3


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["link-budget", "--distances", ""])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["link-budget", "--water", "clear,swamp"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["route", "--water", "clear,coastal"])
    assert excinfo.value.code == 2


def _campaign_on_pool_raising(monkeypatch, tmp_path, error):
    """Run a 2-worker campaign on a stand-in pool whose submit raises ``error``."""
    import uowsim.harness as harness

    class Pool:
        _processes = {}  # no worker for `harness._stop_workers` to end

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            raise error

    monkeypatch.setattr(harness, "_pool", Pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("UOWSN_THREADS", "2")
    return main(["campaign", "--nodes", "20", "--realizations", "2", "--out", str(tmp_path)])


def test_main_dead_worker_exits_4(monkeypatch, tmp_path, capsys):
    assert _campaign_on_pool_raising(monkeypatch, tmp_path, BrokenProcessPool("worker died")) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "worker died" in err
    assert not (tmp_path / "campaign_trials.csv").exists()


def test_main_trial_exception_keeps_its_traceback(monkeypatch, tmp_path):
    with pytest.raises(ZeroDivisionError):
        _campaign_on_pool_raising(monkeypatch, tmp_path, ZeroDivisionError("in a trial"))


# A campaign whose CRP never returns: each pool worker leaves its pid in
# argv[1] and spins.  crp is patched before the pool forks.
_SPINNING_CAMPAIGN = """
import os, sys
from pathlib import Path
import uowsim.harness as harness
from uowsim.cli import main

def spin(*args):
    (Path(sys.argv[1]) / str(os.getpid())).touch()
    while True:
        pass

harness.crp = spin
harness.os.cpu_count = lambda: 2
sys.exit(main(["campaign", "--config", sys.argv[2], "--out", sys.argv[1]]))
"""


def test_sigterm_ends_a_pooled_campaign_and_its_workers(tmp_path):
    pids = tmp_path / "pids"
    pids.mkdir()
    config = tmp_path / "config.json"
    # Every node reaches every other in this area, so CRP runs.
    config.write_text(json.dumps({
        "area": [40, 40], "source_pos": [10, 20], "target_pos": [30, 20],
        "node_count": 20, "realizations": 8, "protocols": ["crp"],
    }))
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-c", _SPINNING_CAMPAIGN, str(pids), str(config)],
        env={**os.environ, "PYTHONPATH": pythonpath, "UOWSN_THREADS": "2"},
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while len(list(pids.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(path.name) for path in pids.iterdir()]
        child.send_signal(signal.SIGTERM)
        code = child.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while any(map(pid_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        # Whatever is left of the run is not left spinning.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    assert code == 128 + signal.SIGTERM
    assert len(workers) == 2 and not any(map(pid_alive, workers))


def test_module_entry_point(tmp_path):
    # The child process does not inherit pytest's sys.path, so point it at src/.
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "uowsim",
            "ber-sweep",
            "--out",
            str(tmp_path),
            "--distances",
            "10,20",
            "--water",
            "clear,turbid",
            "--divergences",
            "60",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    lines = (tmp_path / "ber_sweep.csv").read_text().splitlines()
    assert lines[0] == "water,divergence_deg,distance_m,ber"
    assert len(lines) == 5


def test_cli_commands_do_not_import_scipy(tmp_path):
    # The link BERs use a numpy port of scipy's erfc and CRP a heapq loop;
    # importing scipy would double every process's start-up time and RSS.
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    out = ["--out", str(tmp_path)]
    commands = [
        ["campaign", "--nodes", "20", "--realizations", "2", *out],
        ["route", "--nodes", "20", "--seed", "3", *out],
        ["link-budget", "--distances", "10,20", *out],
        ["ber-sweep", "--distances", "10,20", *out],
    ]
    script = (
        "import sys; from uowsim.cli import main\n"
        f"for args in {commands!r}:\n"
        "    code = main(args)\n"
        "    scipy = any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "    print('imports', args[0], code, scipy)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    checks = [line.split()[1:] for line in result.stdout.splitlines() if line.startswith("imports ")]
    assert checks == [[args[0], "0", "False"] for args in commands], result.stdout + result.stderr


# Run in a fresh interpreter: main(argv), then report the exit code, which
# of the optional modules are loaded, and how much of the routing stack.
# A pooled campaign needs two CPUs, so the script reports two.
_IMPORT_SET_SCRIPT = """
import os, sys
os.cpu_count = lambda: 2
import uowsim
from uowsim.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = [m for m in ("numpy", "logging", "json", "concurrent.futures") if m in sys.modules]
stack = [m in sys.modules for m in ("uowsim.harness", "uowsim.routing", "uowsim.topology", "uowsim.metrics")]
print("imports", code, ",".join(loaded) or "-", "all" if all(stack) else "some" if any(stack) else "none")
"""


def test_sweeps_and_usage_errors_do_not_import_numpy(tmp_path):
    # Each command loads only what it runs.  The sweeps run on the scalar
    # math path, where numpy would be about half of their start-up, and
    # never route, so they load no routing stack either.  `logging` is
    # loaded only by the rare coincident-pair warning, `json` only by
    # --config, and the process pool only by a pooled campaign (which
    # brings `logging` with it).
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    env.pop("UOWSN_THREADS", None)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"node_count": 20}))
    out = ["--out", str(tmp_path)]
    cases = [
        ({}, ["link-budget", *out], "0 - none"),
        ({}, ["ber-sweep", *out], "0 - none"),
        ({}, ["route", "--water", "clear,coastal", *out], "2 - none"),  # argparse
        ({}, ["route", "--nodes", str(10**20), *out], "2 - none"),  # ConfigError
        ({}, ["link-budget", "--config", str(config), *out], "0 json none"),
        ({}, ["route", "--nodes", "20", "--seed", "3", *out], "0 numpy all"),
        ({}, ["route", "--config", str(config), "--seed", "3", *out], "0 numpy,json all"),
        ({}, ["campaign", "--nodes", "20", "--realizations", "2", *out], "0 numpy all"),
        (
            {"UOWSN_THREADS": "2"},
            ["campaign", "--nodes", "20", "--realizations", "2", *out],
            "0 numpy,logging,concurrent.futures all",  # concurrent.futures imports logging
        ),
    ]
    for extra, args, expected in cases:
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_SET_SCRIPT, *args],
            capture_output=True,
            text=True,
            env={**env, **extra},
        )
        lines = [line for line in result.stdout.splitlines() if line.startswith("imports ")]
        assert lines == [f"imports {expected}"], (args, extra, result.stdout + result.stderr)


def test_package_exports_resolve_on_first_access():
    import importlib

    import uowsim

    listed = dir(uowsim)
    for name, module in uowsim._MODULE_OF.items():
        assert getattr(uowsim, name) is getattr(importlib.import_module(f"uowsim.{module}"), name)
        assert name in listed, name
    assert set(uowsim.__all__) == set(uowsim._MODULE_OF)
    with pytest.raises(AttributeError, match="no_such_name"):
        uowsim.no_such_name


def test_main_sweeps_match_reference_digests(tmp_path):
    # The benchmark's sweep grid must write the bytes whose SHA-256 sums the
    # benchmark keeps as its reference.
    reference = json.loads((REPO_DIR / "perfbench" / "reference.json").read_text())
    grid = [
        "--distances", ",".join(f"{i / 10:.1f}" for i in range(1, 2001)),
        "--divergences", ",".join(str(d) for d in range(5, 181, 5)),
        "--water", "clear,coastal,turbid",
        "--out", str(tmp_path),
    ]
    assert main(["link-budget", *grid]) == 0
    assert main(["ber-sweep", *grid]) == 0
    for name, digest in reference["sha256"]["sweep-full"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_main_rejects_node_counts_past_the_index_range(tmp_path, capsys):
    # Past the node_count rule's 4000, which bounds the memory a run takes:
    # a config error, not an allocation that exhausts the host.
    for huge in (str(10**20), "12000"):
        commands = [
            ["route", "--nodes", huge],
            ["campaign", "--nodes", f"20,{huge}", "--realizations", "1"],
        ]
        for args in commands:
            assert main([*args, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: node_count ") and huge in err
    assert not list(tmp_path.iterdir())


def test_values_past_the_rules_exit_2_with_one_error_line(tmp_path, capsys):
    # Each of these once reached a check of the float range behind the
    # rules; the rules now reject it.
    runs = [
        ["campaign", "--nodes", "20", "--realizations", str(10**400)],
        ["route", "--nodes", str(10**20)],
        ["route", "--nodes", "12000"],
    ]
    for index, doc in enumerate((
        {"noise": {"pulse_duration": 1e-300}},
        {"noise": {"pulse_duration": 1e30, "data_rate": 1e300}},
        {"noise": {"dark_count_rate": 1e308, "background_rate": 1e308}},
        {"area": [1e200, 1e200]},
        {"area": [1e-170, 1e-170]},
        {"delay": {"per_hop_processing": 1e307}},
        {"realizations": 10**400},
        {"node_count": 10**20},
        {"node_count": 12000},
    )):
        config = tmp_path / f"config{index}.json"
        config.write_text(json.dumps(doc))
        runs.append(["route", "--config", str(config)])
    out = tmp_path / "out"
    for args in runs:
        assert main([*args, "--out", str(out)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
    assert not out.exists()


def _readme_table(header):
    """The rows, as lists of cells, of the README table under ``header``."""
    lines = (REPO_DIR / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_flags_match_the_parser():
    (commands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        name: sorted(
            option
            for action in subparser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, subparser in commands.choices.items()
    }
    documented = {}
    for names, flags in _readme_table("| command | flags |"):
        for name in re.findall(r"`([\w-]+)`", names):
            assert name not in documented, name
            documented[name] = sorted(re.findall(r"`(--[\w-]+)`", flags))
    assert documented == parsed
    # Every command README shows, in a code block or inline, parses too.
    text = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    shown = re.findall(r"^uowsim ([^#\n]+)", text, re.M) + re.findall(r"`uowsim ([^`]+)`", text)
    assert len(shown) >= 6
    for command in shown:
        build_parser().parse_args(shlex.split(command))


def test_readme_schemas_match_the_column_tuples():
    tables = {
        "campaign_trials.csv": CAMPAIGN_TRIAL_COLUMNS,
        "campaign_aggregate.csv": CAMPAIGN_AGGREGATE_COLUMNS,
        "route_summary.csv": ROUTE_SUMMARY_COLUMNS,
        "link_budget.csv": LINK_BUDGET_COLUMNS,
        "ber_sweep.csv": BER_SWEEP_COLUMNS,
    }
    documented = {
        name.strip("`"): columns.strip("`").split(",")
        for name, columns in _readme_table("| file | columns |")
    }
    assert documented == {
        name: [column for column, _ in columns] for name, columns in tables.items()
    }
