import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from uowsim import SimulationConfig
from uowsim.cli import (
    BER_SWEEP_COLUMNS,
    CAMPAIGN_AGGREGATE_COLUMNS,
    CAMPAIGN_TRIAL_COLUMNS,
    LINK_BUDGET_COLUMNS,
    ROUTE_SUMMARY_COLUMNS,
    _format_cell,
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
    for prefix, distance_cell, value in rs.rows:
        water, divergence_cell, _ = prefix.split(",")
        rows.append((water, float(divergence_cell), float(distance_cell), value))
    return rows


def test_link_budget_single_row_matches_oracle():
    rs = cmd_link_budget(SimulationConfig(), [50.0], [WaterType.CLEAR_OCEAN], [60.0])
    assert len(rs.rows) == 1
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


def test_cmd_route_disconnected():
    config = SimulationConfig(node_count=2)
    summary, dumps = cmd_route(config, 11)
    assert dumps == {}
    for row in summary.rows:
        assert row[2] is False
        assert row[3] == "disconnected"


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
        lines = list(rs.to_lines())
        assert lines[0] == ",".join(name for name, _ in columns)
        assert len(lines) == len(rs.rows) + 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for cell, (_, kind) in zip(cells, columns):
                value = _PARSE[kind](cell) if cell else None
                assert _format_cell(value, kind) == cell


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


def test_main_sweep_bytes_match_rows_formatted_one_by_one(tmp_path):
    # Unsorted, repeated and extreme distances: formatting each distance and
    # each block's prefix once must not reorder, merge or drop rows.
    distances = [100.0, 5.0, 5.0, 1e-3, 1e-100]
    waters = [WaterType.TURBID_HARBOR, WaterType.CLEAR_OCEAN]
    divergences = [60.0, 7.5]
    grid = [
        "--distances", "100,5,5,1e-3,1e-100",
        "--water", "turbid,clear",
        "--divergences", "60,7.5",
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
        assert (tmp_path / filename).read_text().splitlines() == expected


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
    """Run a 2-worker campaign on a stand-in pool whose map raises ``error``."""
    import uowsim.harness as harness

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
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
