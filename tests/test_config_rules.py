"""Config values from outside the program: every one is checked, and a bad
one ends in exit code 2 with one error line, never in a traceback."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uowsim import (
    ChannelParams,
    ConfigError,
    DelayModel,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
)
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
    (ReceiverNoise, "dark_count_rate", float, "[", 0.0, INF, ")"),
    (ReceiverNoise, "background_rate", float, "[", 0.0, INF, ")"),
    (ReceiverNoise, "detector_efficiency", float, "[", 0.0, 1.0, "]"),
    (ReceiverNoise, "pulse_duration", float, "(", 0.0, INF, ")"),
    (ReceiverNoise, "data_rate", float, "(", 0.0, INF, ")"),
    (DelayModel, "packet_bits", float, "(", 0.0, INF, ")"),
    (DelayModel, "per_hop_processing", float, "[", 0.0, INF, ")"),
    (SimulationConfig, "area", float, "(", 0.0, INF, ")"),
    (SimulationConfig, "node_count", int, "[", 2, INF, ")"),
    (SimulationConfig, "max_range", float, "(", 0.0, INF, ")"),
    (SimulationConfig, "source_pos", float, "(", -INF, INF, ")"),
    (SimulationConfig, "target_pos", float, "(", -INF, INF, ")"),
    (SimulationConfig, "realizations", int, "[", 1, INF, ")"),
    (SimulationConfig, "master_seed", int, "[", 0, INF, ")"),
]
# Fields checked by isinstance instead: nested parameter sets, enums, bools.
_TYPED = {"channel", "noise", "delay", "weight_mode", "protocols", "srp_fallback", "record_timing"}
_PAIR_FILL = {"area": 250.0, "source_pos": 125.0, "target_pos": 125.0}


def _builds(cls, name, value):
    """Each way of giving ``value`` to the field: the pair fields take it
    as either element, and ``node_count`` alone and in a sweep."""
    if name in ("absorption", "scattering"):
        other = "scattering" if name == "absorption" else "absorption"
        return [lambda: ChannelParams.for_water(WaterType.CLEAR_OCEAN, **{name: value, other: 0.1})]
    if name in _PAIR_FILL:
        fill = _PAIR_FILL[name]
        return [lambda: cls(**{name: (value, fill)}), lambda: cls(**{name: (fill, value)})]
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
    error = ConfigError if cls is SimulationConfig else ValueError
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
            assert excinfo.type is error, (name, value, excinfo.value)


def test_every_config_field_has_a_rule_or_a_type_check():
    ruled = {(cls, name) for cls, name, *_ in _BOUNDS if name not in ("absorption", "scattering")}
    for cls in (ChannelParams, ReceiverNoise, DelayModel, SimulationConfig):
        for spec in dataclasses.fields(cls):
            has_rule = "rule" in spec.metadata
            assert has_rule == ((cls, spec.name) in ruled), (cls.__name__, spec.name)
            assert has_rule != (spec.name in _TYPED), (cls.__name__, spec.name)
    for name in _TYPED:
        with pytest.raises(ConfigError, match=name):
            SimulationConfig(**{name: "1"})
