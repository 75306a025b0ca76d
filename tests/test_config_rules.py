"""Config values from outside the program: every one is checked, and a bad
one ends in exit code 2 with one error line, never in a traceback."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import single_link_ber_reference
from uowsim import (
    BER_FLOOR,
    LIGHT_SPEED_WATER,
    PLANCK,
    ChannelParams,
    ConfigError,
    DelayModel,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
    path_delay,
    photon_arrival_rate,
)
from uowsim import channel
from uowsim.channel import NON_NEGATIVE
from uowsim.cli import main


def _keys_of(cls):
    return [f.name for f in dataclasses.fields(cls)]


_HOSTILE_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 2**63, 10**400]
    + [0, 1, -1, 0.5, 2, 30, 1e-3, 1e6]
)
_HOSTILE_SCALARS = _HOSTILE_NUMBERS | st.sampled_from(
    [True, False, None, "1", "", "clear", "turbid", "crp", "paper", [], {}, {"a": 1}]
)
_HOSTILE_VALUES = (
    _HOSTILE_SCALARS
    | st.lists(_HOSTILE_NUMBERS, min_size=2, max_size=2)
    | st.lists(_HOSTILE_SCALARS, max_size=3)
)
# Every key that config_from_dict accepts: the SimulationConfig fields and
# `water` at the top, and in `channel` the two extinction components too.
_NESTED = {
    "channel": _keys_of(ChannelParams) + ["absorption", "scattering"],
    "noise": _keys_of(ReceiverNoise),
    "delay": _keys_of(DelayModel),
}
_TOP_LEVEL = [key for key in _keys_of(SimulationConfig) if key not in _NESTED] + ["water"]
_SECTIONS = {
    "top": st.dictionaries(st.sampled_from(_TOP_LEVEL), _HOSTILE_VALUES, max_size=2),
    **{
        name: st.dictionaries(st.sampled_from(keys), _HOSTILE_VALUES, max_size=2) | _HOSTILE_SCALARS
        for name, keys in _NESTED.items()
    },
}
# One section alone gets its values past the other sections' checks more
# often; all of them together mix the sections.
_DOCUMENTS = st.one_of(
    *(st.fixed_dictionaries({name: section}) for name, section in _SECTIONS.items()),
    st.fixed_dictionaries({}, optional=_SECTIONS),
).map(lambda parts: {**parts.pop("top", {}), **parts})

# The sweeps run their 30 degree block through the channel model before the
# 1e-300 degree block, whose cosine is 1, is rejected.
_SWEEP_GRID = ["--distances", "1e-161,1,1e300", "--divergences", "30,1e-300"]
_COMMANDS = (
    ["route", "--nodes", "12"],
    ["campaign", "--nodes", "6,12", "--realizations", "2"],
    ["link-budget", *_SWEEP_GRID],
    ["ber-sweep", *_SWEEP_GRID],
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_DOCUMENTS)
def test_hostile_config_documents_exit_0_or_2_with_one_error_line(doc):
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "config.json"
        config.write_text(json.dumps(doc))
        for command in _COMMANDS:
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([*command, "--config", str(config), "--out", scratch])
            err = stderr.getvalue()
            assert code in (0, 2), (command, doc, err)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, doc, err)
                assert "Traceback" not in err


# Each flag's text: one the flag takes, one no flag takes, or any text
# without digits, so that no run routes a large network.
_HOSTILE_FLAG_TEXT = st.sampled_from(
    ["", ",", " , ", "turbid,", "clear,coastal", "CLEAR", "crp,crp", "12,12", "1", "-1"]
    + ["4001", "12.0", "nan", "1e400", str(2**64), "9" * 5000, "x" * 5000]
) | st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=12)
_FLAGS = st.fixed_dictionaries({}, optional={
    flag: st.sampled_from(valid) | _HOSTILE_FLAG_TEXT
    for flag, valid in (
        ("--water", ["clear", "turbid"]),
        ("--weight-mode", ["paper", "exact"]),
        ("--protocols", ["crp", "srp,crp"]),
        ("--nodes", ["2", "6,12"]),
        ("--seed", ["0", "7"]),
    )
})
_FLAG_RUNS = {"route": ["--nodes", "12"], "campaign": ["--nodes", "6,12", "--realizations", "2"]}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_FLAGS)
def test_hostile_flag_values_exit_0_or_2_with_one_error_line(flags):
    # `--flag=text`, so that argparse takes a text starting with "-" as the value.
    given_flags = [f"{flag}={text}" for flag, text in flags.items()]
    with tempfile.TemporaryDirectory() as scratch:
        for command, base in _FLAG_RUNS.items():
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = main([command, *base, *given_flags, "--out", scratch])
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
            lines = stderr.getvalue().splitlines()
            assert code in (0, 2), (command, flags, lines)
            if code == 2:
                # A config error is one line; argparse writes its usage above its one.
                assert [line for line in lines if "error: " in line] == lines[-1:], (command, flags)
                assert "Traceback" not in stderr.getvalue()


# Every per-field rule, written out here rather than read from the classes:
# (class, field, kind, low end, low, high, high end).  `absorption` and
# `scattering` are the two extinction components `ChannelParams.for_water`
# takes.
INF = math.inf
_BOUNDS = [
    (ChannelParams, "wavelength", float, "(", 0.0, INF, ")"),
    (ChannelParams, "extinction", float, "[", 0.0, INF, ")"),
    (ChannelParams, "tx_power", float, "(", 0.0, INF, ")"),
    (ChannelParams, "tx_efficiency", float, "[", 0.0, 1.0, "]"),
    (ChannelParams, "rx_efficiency", float, "[", 0.0, 1.0, "]"),
    (ChannelParams, "aperture_area", float, "(", 0.0, INF, ")"),
    (ChannelParams, "trajectory_angle", float, "[", 0.0, math.pi / 2.0, ")"),
    (ChannelParams, "divergence_angle", float, "(", 0.0, math.pi, "]"),
    (ChannelParams, "absorption", float, "[", 0.0, INF, ")"),
    (ChannelParams, "scattering", float, "[", 0.0, INF, ")"),
    (ReceiverNoise, "dark_count_rate", float, "[", 0.0, 1e15, "]"),
    (ReceiverNoise, "background_rate", float, "[", 0.0, 1e15, "]"),
    (ReceiverNoise, "detector_efficiency", float, "[", 0.0, 1.0, "]"),
    (ReceiverNoise, "pulse_duration", float, "[", 1e-15, 1.0, "]"),
    (ReceiverNoise, "data_rate", float, "[", 1.0, 1e15, "]"),
    (DelayModel, "packet_bits", float, "(", 0.0, 1e12, "]"),
    (DelayModel, "per_hop_processing", float, "[", 0.0, 1e6, "]"),
    (SimulationConfig, "area", float, "[", 1e-3, 1e6, "]"),
    (SimulationConfig, "node_count", int, "[", 2, 4000, "]"),
    (SimulationConfig, "max_range", float, "(", 0.0, INF, ")"),
    (SimulationConfig, "source_pos", float, "(", -INF, INF, ")"),
    (SimulationConfig, "target_pos", float, "(", -INF, INF, ")"),
    (SimulationConfig, "realizations", int, "[", 1, 10**5, "]"),
    (SimulationConfig, "master_seed", int, "[", 0, INF, ")"),
]
_PAIR_FILL = {"area": 250.0, "source_pos": 125.0, "target_pos": 125.0}


def _builds(cls, name, value):
    """Each way of giving ``value`` to the field: the pair fields take it
    as either element, and ``node_count`` alone and in a sweep."""
    if name in ("absorption", "scattering"):
        other = "scattering" if name == "absorption" else "absorption"
        return [lambda: ChannelParams.for_water(WaterType.CLEAR_OCEAN, **{name: value, other: 0.1})]
    if name in _PAIR_FILL:
        fill = _PAIR_FILL[name]
        # Source and target at the origin lie inside the smallest area too.
        origin = {"source_pos": (0.0, 0.0), "target_pos": (0.0, 0.0)} if name == "area" else {}
        return [
            lambda: cls(**{name: (value, fill)}, **origin),
            lambda: cls(**{name: (fill, value)}, **origin),
        ]
    if name == "node_count":
        return [lambda: cls(node_count=value), lambda: cls(node_count=(40, value))]
    return [lambda: cls(**{name: value})]


def _outside(kind, bound, toward):
    """The values just past a finite bound: the nearest float, and for an
    int field the nearest int too."""
    values = [math.nextafter(bound, toward)]
    if kind is int:
        values.append(bound + (1 if toward > 0 else -1))
    return values


@pytest.mark.parametrize("cls,name,kind,low_end,low,high,high_end", _BOUNDS)
def test_each_rule_holds_at_its_bounds(cls, name, kind, low_end, low, high, high_end):
    accepted, rejected = [], [math.nan, math.inf, -math.inf, True, "1"]
    if kind is float:
        rejected.append(10**400)
    for bound, end, toward in ((low, low_end, -INF), (high, high_end, INF)):
        if math.isfinite(bound):
            (accepted if end in "[]" else rejected).append(bound)
            rejected.extend(_outside(kind, bound, toward))
    for value in accepted:
        for build in _builds(cls, name, value):
            build()
    for value in rejected:
        for build in _builds(cls, name, value):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert excinfo.type is ConfigError, (name, value, excinfo.value)


_CLASSES = (ChannelParams, ReceiverNoise, DelayModel, SimulationConfig)


def _declared_rules():
    """Each interval rule the code declares, by (class, field), with its
    ``each`` flag: the `ranged` fields' metadata, and the rule
    `ChannelParams.for_water` holds its two extinction components to.  A
    field whose rule is a class is left out."""
    rules = {
        (cls, spec.name): (spec.metadata["rule"], spec.metadata["each"])
        for cls in _CLASSES
        for spec in dataclasses.fields(cls)
        if not isinstance(spec.metadata["rule"], type)
    }
    for name in ("absorption", "scattering"):
        rules[ChannelParams, name] = (NON_NEGATIVE, False)
    return rules


def _rule(cls, name):
    return _declared_rules()[cls, name][0]


def test_each_declared_rule_is_its_table_row():
    table = {
        (cls, name): (kind, low, high, low_end + high_end)
        for cls, name, kind, low_end, low, high, high_end in _BOUNDS
    }
    assert {key: rule for key, (rule, _) in _declared_rules().items()} == table


def test_every_config_field_has_a_rule(monkeypatch):
    for cls in _CLASSES:
        for spec in dataclasses.fields(cls):
            assert "rule" in spec.metadata, (cls.__name__, spec.name)
    # `check_rule` is the one checker: building each class runs it on every field.
    seen = set()
    check_rule = channel.check_rule

    def recording(name, value, rule):
        seen.add(name)
        check_rule(name, value, rule)

    monkeypatch.setattr(channel, "check_rule", recording)
    for cls in _CLASSES:
        seen.clear()
        cls()
        assert set(_keys_of(cls)) <= seen, (cls.__name__, set(_keys_of(cls)) - seen)
    # A field whose rule is a class takes only instances of it.
    for spec in dataclasses.fields(SimulationConfig):
        if isinstance(spec.metadata["rule"], type):
            with pytest.raises(ConfigError, match=spec.name):
                SimulationConfig(**{spec.name: "1"})


def test_no_float_limit_is_reached_at_the_corners_of_the_rules():
    """The rules' bounds keep every quantity the program computes from them
    inside the float and index ranges, so no check of those ranges is needed
    behind the rules.  Loosening a rule fails here first."""

    def low(cls, name):
        return _rule(cls, name)[1]

    def high(cls, name):
        return _rule(cls, name)[2]

    nodes, side = high(SimulationConfig, "node_count"), high(SimulationConfig, "area")
    smallest_side = low(SimulationConfig, "area")
    # The longest route: every hop across the largest area's diagonal, each
    # with the largest packet at the lowest data rate and the longest
    # processing.  A campaign cell sums such delays and their squares over
    # every realization; the factor 2 covers rounding.
    slowest = SimulationConfig(
        area=(side, side),
        noise=ReceiverNoise(data_rate=low(ReceiverNoise, "data_rate")),
        delay=DelayModel(
            packet_bits=high(DelayModel, "packet_bits"),
            per_hop_processing=high(DelayModel, "per_hop_processing"),
        ),
    )
    hops = nodes - 1
    longest = path_delay(hops, hops * math.hypot(side, side), slowest)
    assert math.isfinite(2.0 * high(SimulationConfig, "realizations") * longest * longest)
    # The photon rate's denominator is a finite normal float, and the noise
    # rates have a finite sum.
    for pick in (low, high):
        noise = ReceiverNoise(
            pulse_duration=pick(ReceiverNoise, "pulse_duration"),
            data_rate=pick(ReceiverNoise, "data_rate"),
        )
        assert sys.float_info.min <= noise.rate_denominator <= sys.float_info.max
    loudest = ReceiverNoise(
        dark_count_rate=high(ReceiverNoise, "dark_count_rate"),
        background_rate=high(ReceiverNoise, "background_rate"),
        pulse_duration=low(ReceiverNoise, "pulse_duration"),
    )
    assert math.isfinite(loudest.noise_rate)
    # The area's squares are normal floats and its diagonal is finite.
    assert smallest_side * smallest_side >= sys.float_info.min
    assert math.isfinite(side * side + side * side)
    # price_links indexes the largest count's node pairs with numpy's intp.
    assert nodes * (nodes - 1) // 2 <= sys.maxsize
    # The smallest power whose photon rate overflows, at the shortest pulse
    # and the largest noise rates, has a BER below the floor, so the kernels
    # may give 0 wherever the rate overflows.
    params = ChannelParams()

    def overflows(power):
        return loudest.noise_rate + photon_arrival_rate(power, params, loudest) == math.inf

    power = sys.float_info.max * loudest.rate_denominator / (
        loudest.detector_efficiency * params.wavelength
    )
    while overflows(math.nextafter(power, 0.0)):
        power = math.nextafter(power, 0.0)
    while not overflows(power):
        power = math.nextafter(power, math.inf)
    reference = single_link_ber_reference(
        power, loudest.dark_count_rate, loudest.background_rate, loudest.detector_efficiency,
        params.wavelength, loudest.pulse_duration, loudest.data_rate, PLANCK, LIGHT_SPEED_WATER,
    )
    assert reference < BER_FLOOR


# README's "Configuration file" table: per row the keys (after a section
# prefix such as `noise`: for a nested key), their type, their interval and
# the reason for it.
_README = Path(__file__).resolve().parents[1] / "README.md"
_README_SECTIONS = {
    None: SimulationConfig, "channel": ChannelParams, "noise": ReceiverNoise, "delay": DelayModel,
}
_TYPES = {
    "float": (float, False),
    "two floats": (float, True),
    "int": (int, False),
    "int, or a list of ints": (int, True),
}
_NUMBERS = {"inf": math.inf, "-inf": -math.inf, "pi": math.pi, "pi/2": math.pi / 2.0}


def _readme_number(text):
    if text in _NUMBERS:
        return _NUMBERS[text]
    return int(text) if text.isdigit() else float(text)


def _readme_rules(text):
    """{(class, key): (rule, each)} from the rows of the table."""
    lines = text.split("\n## Configuration file\n", 1)[1].splitlines()
    start = lines.index("| key | type | interval | reason |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        keys, type_name, interval, reason = (cell.strip() for cell in line.strip("|").split("|"))
        owner, _, names = keys.rpartition(": ")
        kind, each = _TYPES[type_name]
        match = re.fullmatch(r"(each in )?([\[(])(\S+), (\S+)([\])])", interval)
        assert match and reason and bool(match[1]) == each, line
        rule = (kind, _readme_number(match[3]), _readme_number(match[4]), match[2] + match[5])
        for name in re.findall(r"`(\w+)`", names):
            key = (_README_SECTIONS[owner.strip("`") or None], name)
            assert key not in rows, line
            rows[key] = (rule, each)
    return rows


def test_readme_table_states_every_rule():
    assert _readme_rules(_README.read_text(encoding="utf-8")) == _declared_rules()
