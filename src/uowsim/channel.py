"""Line-of-sight optical channel model for seawater links.

Received power follows Beer-Lambert extinction along the slant path combined
with the geometric spreading of a diverging beam onto the receiver aperture.
Bit errors come from an OOK photon-counting receiver: dark counts and
background light set the photon rate for a transmitted 0, the signal adds on
top of it for a 1, and the error probability is the Gaussian-approximation
erfc expression over the two rates.  Multi-hop bit error rates compose with
the recursive odd-parity rule.

Everything here is a pure function of its inputs; no shared state, safe to
call from any number of threads.  numpy is imported in the two functions
that use it, not at module load, so that the sweeps, which run on the
scalar ``math`` path, do not pay for it.  The config rules live here too:
`check_rule` and the `ConfigError` every rule raises, re-exported by `config`.
"""

import math
import reprlib
import sys
from dataclasses import dataclass, field, fields
from enum import Enum

PLANCK = 6.62607015e-34  # J*s
#: Speed of light in seawater (vacuum speed / refractive index 1.33).
LIGHT_SPEED_WATER = 2.2541e8  # m/s

#: Below this value a bit error probability is reported as exactly 0.0 so
#: that subnormal noise never leaks into campaign aggregates.
BER_FLOOR = 1e-300


class WaterType(Enum):
    """Water classes with tabulated extinction coefficients."""

    CLEAR_OCEAN = "clear"
    COASTAL_OCEAN = "coastal"
    TURBID_HARBOR = "turbid"


_EXTINCTION_PER_M = {
    WaterType.CLEAR_OCEAN: 0.15,
    WaterType.COASTAL_OCEAN: 0.30,
    WaterType.TURBID_HARBOR: 2.19,
}


class ConfigError(ValueError):
    """Invalid simulation configuration."""


# A rule, for `ranged` fields and `check_rule`, is a class, whose instances
# it admits, or (kind, low, high, ends): the type, int or float, and the
# interval from low to high whose ends are "[" or "(" then "]" or ")".
POSITIVE = (float, 0.0, math.inf, "()")
NON_NEGATIVE = (float, 0.0, math.inf, "[)")
FRACTION = (float, 0.0, 1.0, "[]")
FINITE = (float, -math.inf, math.inf, "()")


# A value read from outside the program may be of any size: each message
# shows at most the first items of a list, and a nested one as [...].
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1


def short_repr(value) -> str:
    """``repr(value)`` cut to a few hundred characters at most."""
    return _SHORT.repr(value)


def ranged(default, rule, each: bool = False):
    """A dataclass field that `check_fields` holds to ``rule``, or with
    ``each`` a tuple field whose elements it holds to it."""
    return field(default=default, metadata={"rule": rule, "each": each})


def check_rule(name: str, value, rule) -> None:
    """Raise ConfigError unless ``value`` is an instance of the rule's class,
    or of the rule's kind and in its interval.

    Bools are not numbers here, and a float value may be an int but not
    past the float range: an int is compared exactly with the largest
    float, where ``math.isfinite`` would raise OverflowError.
    """
    if isinstance(rule, type):
        if not isinstance(value, rule):
            raise ConfigError(f"{name} must be a {rule.__name__}, got {short_repr(value)}")
        return
    kind, low, high, ends = rule
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float) if kind is float else int)
        or (kind is float and not abs(value) <= sys.float_info.max)
        or not (low < value if ends[0] == "(" else low <= value)
        or not (value < high if ends[1] == ")" else value <= high)
    ):
        kind_name = "a float" if kind is float else "an int"
        interval = f"{ends[0]}{low}, {high}{ends[1]}"
        raise ConfigError(f"{name} must be {kind_name} in {interval}, got {short_repr(value)}")


def check_fields(obj) -> None:
    """`check_rule` on every field of the dataclass ``obj``; every field has a rule."""
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        for item in value if spec.metadata["each"] and isinstance(value, tuple) else (value,):
            check_rule(spec.name, item, spec.metadata["rule"])


@dataclass(frozen=True)
class ChannelParams:
    """Transmitter, receiver and water parameters of one optical link.

    Angles are radians, lengths meters, areas square meters, power watts.
    ``extinction`` (1/m) defaults to the clear-ocean table value; `for_water`
    sets it from a water type instead.
    """

    wavelength: float = ranged(530e-9, POSITIVE)
    extinction: float = ranged(_EXTINCTION_PER_M[WaterType.CLEAR_OCEAN], NON_NEGATIVE)
    tx_power: float = ranged(0.1, POSITIVE)
    tx_efficiency: float = ranged(0.9, FRACTION)
    rx_efficiency: float = ranged(0.9, FRACTION)
    aperture_area: float = ranged(0.17e-6, POSITIVE)
    trajectory_angle: float = ranged(math.radians(60.0), (float, 0.0, math.pi / 2.0, "[)"))
    divergence_angle: float = ranged(math.radians(60.0), (float, 0.0, math.pi, "(]"))

    def __post_init__(self):
        check_fields(self)
        # The spreading divides by 1 - cos(angle), which rounds to 0 below
        # about 1.05e-8 rad.
        if math.cos(self.divergence_angle) == 1.0:
            raise ConfigError(
                f"divergence_angle must be in (0, pi] with cos < 1, got {self.divergence_angle}"
            )
        # The link model's constants, computed once here for both kernels.
        # They are not fields, so equality, hashing, repr, `replace` and the
        # config keys see only the parameters above.
        cos_trajectory = math.cos(self.trajectory_angle)
        object.__setattr__(self, "cos_trajectory", cos_trajectory)
        object.__setattr__(self, "neg_extinction", -self.extinction)
        object.__setattr__(self, "projected_area", self.aperture_area * cos_trajectory)
        object.__setattr__(
            self, "beam_solid_angle", 2.0 * math.pi * (1.0 - math.cos(self.divergence_angle))
        )
        object.__setattr__(self, "tx_gain", self.tx_power * self.tx_efficiency * self.rx_efficiency)

    @classmethod
    def for_water(cls, water: WaterType, **overrides) -> "ChannelParams":
        """Parameters with the extinction coefficient of the given water
        type; ``overrides`` set the other fields.  The water is the one
        source of the extinction, so an ``extinction`` override is an error.
        """
        if "extinction" in overrides:
            raise ConfigError("water and channel.extinction both set the extinction: give one")
        return cls(extinction=_EXTINCTION_PER_M[water], **overrides)


@dataclass(frozen=True)
class ReceiverNoise:
    """Photon-counting receiver characteristics.

    Rates are counts per second, ``pulse_duration`` seconds, ``data_rate``
    bits per second.
    """

    # 1e15 counts/s is 0.4 mW of 530 nm light, past any photon counter's saturation.
    dark_count_rate: float = ranged(1e6, (float, 0.0, 1e15, "[]"))
    background_rate: float = ranged(1e6, (float, 0.0, 1e15, "[]"))
    detector_efficiency: float = ranged(0.9, FRACTION)
    # From a femtosecond laser pulse to one second.
    pulse_duration: float = ranged(1e-9, (float, 1e-15, 1.0, "[]"))
    # From 1 b/s to 1 Pb/s.
    data_rate: float = ranged(1e6, (float, 1.0, 1e15, "[]"))

    def __post_init__(self):
        check_fields(self)
        noise_rate = self.dark_count_rate + self.background_rate
        # What the photon arrival rate divides the detected power by, in J m.
        denominator = self.pulse_duration * self.data_rate * PLANCK * LIGHT_SPEED_WATER
        # Constants of the BER model, not fields, as in `ChannelParams`.
        object.__setattr__(self, "rate_denominator", denominator)
        object.__setattr__(self, "noise_rate", noise_rate)
        object.__setattr__(self, "sqrt_noise_rate", math.sqrt(noise_rate))
        object.__setattr__(self, "sqrt_half_pulse", math.sqrt(self.pulse_duration / 2.0))


def received_power_los(distance: float, params: ChannelParams) -> float:
    """Received optical power of a line-of-sight link, in watts.

    Strictly decreasing in distance, extinction and divergence angle.
    Raises ValueError for a non-positive distance (inverse-square
    singularity at zero).
    """
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    attenuation = math.exp(params.neg_extinction * distance / params.cos_trajectory)
    try:
        spreading = params.projected_area / (params.beam_solid_angle * distance * distance)
    except ZeroDivisionError:
        # The divisor underflowed to 0: the spreading's limit, which
        # `link_power_and_ber`'s numpy division gives too.
        spreading = math.inf
    return params.tx_gain * attenuation * spreading


def photon_arrival_rate(
    received_power: float, params: ChannelParams, noise: ReceiverNoise
) -> float:
    """Signal photon arrival rate at the detector, counts per second."""
    if received_power < 0.0:
        raise ValueError(f"received_power must be >= 0, got {received_power}")
    return (received_power * noise.detector_efficiency * params.wavelength) / noise.rate_denominator


def single_link_ber(
    received_power: float, params: ChannelParams, noise: ReceiverNoise
) -> float:
    """Bit error probability of one OOK link, in [0, 0.5].

    Zero received power means the photon rates for a 0 and a 1 coincide and
    the result is chance level 0.5.  Values below ``BER_FLOOR`` are clamped
    to exactly 0.0.
    """
    rate_signal = photon_arrival_rate(received_power, params, noise)
    rate_one = noise.noise_rate + rate_signal
    if rate_one == math.inf:
        # Inside the config's rules such a rate, above 1.8e308 /s over a
        # pulse of at least 1e-15 s, carries more than 1e293 signal photons
        # per pulse, whose error probability is far below BER_FLOOR.
        return 0.0
    denom = math.sqrt(rate_one) + noise.sqrt_noise_rate
    # sqrt(r1) - sqrt(r0) evaluated as rp / (sqrt(r1) + sqrt(r0)) to avoid
    # cancellation when the signal rate is far below the noise rates.
    diff = rate_signal / denom if denom > 0.0 else 0.0
    ber = 0.5 * math.erfc(noise.sqrt_half_pulse * diff)
    return 0.0 if ber < BER_FLOOR else ber


def chain_ber(upstream_ber: float, link_ber: float) -> float:
    """Fold one more hop into an end-to-end bit error probability.

    A bit arrives wrong when exactly one of (upstream path, new link)
    flips it; two flips cancel.
    """
    for name, value in (("upstream_ber", upstream_ber), ("link_ber", link_ber)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return (1.0 - upstream_ber) * link_ber + (1.0 - link_ber) * upstream_ber


def e2e_ber(link_bers) -> float:
    """End-to-end bit error probability of a hop sequence (empty -> 0.0)."""
    total = 0.0
    for ber in link_bers:
        total = chain_ber(total, ber)
    return total


def link_power_and_ber(distances, params: ChannelParams, noise: ReceiverNoise):
    """Vectorised received power and single-link BER for many link lengths.

    Same model as `received_power_los` / `single_link_ber`, evaluated with
    numpy over an array of distances.  Used by the graph builder so that a
    trial prices all its candidate edges in one shot.
    """
    import numpy as np

    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("all distances must be > 0")
    # A power or photon rate past the float range gives inf, and inf / inf
    # NaN; those elements get BER 0, as in `single_link_ber`.
    with np.errstate(over="ignore", invalid="ignore"):
        # Not the scalar kernel's order: area and cos multiply separately.
        power = (
            params.tx_gain
            * np.exp(params.neg_extinction * d / params.cos_trajectory)
            * params.aperture_area
            * params.cos_trajectory
            / (params.beam_solid_angle * d * d)
        )
        rate_signal = (power * noise.detector_efficiency * params.wavelength) / noise.rate_denominator
        rate_one = noise.noise_rate + rate_signal
        denom = np.sqrt(rate_one) + noise.sqrt_noise_rate
        diff = np.divide(
            rate_signal, denom, out=np.zeros_like(rate_signal), where=denom > 0.0
        )
    ber = 0.5 * _erfc(noise.sqrt_half_pulse * diff)
    ber = np.where((ber < BER_FLOOR) | (rate_one == math.inf), 0.0, ber)
    return power, ber


# The Cephes erfc (ndtr.c) that scipy.special.erfc runs, ported so that link
# BERs keep scipy's bits without importing scipy.  math.erfc differs from it
# in the last bit on about 4% of a campaign's arguments, and so would this
# port on about 4% of those at x >= 1 if it took exp from numpy; math.exp,
# the C library's exp as in Cephes, gives the same bits.  For x >= 0:
#   x < 1:        1 - x*T(x*x)/U(x*x)
#   1 <= x < 8:   exp(-x*x)*P(x)/Q(x)
#   x >= 8:       exp(-x*x)*R(x)/S(x)
#   x*x > MAXLOG: 0
# Polynomials run by Horner's rule, highest power first; U, Q and S are
# monic (their leading 1 is not listed).
_ERFC_MAXLOG = 7.09782712893383996843e2
_ERFC_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERFC_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285307336e0, 3.36907645100081516050e0,
)


def _erfc(x):
    """Complementary error function of an array of arguments >= 0 or NaN,
    with the bits of ``scipy.special.erfc``.

    Every element goes through the x < 1 branch, in numpy.  Those at
    x >= 1 (links shorter than about 11 m in clear water: 2.4% of the
    stock campaign's) are then redone one by one in Python floats, which
    round like Cephes' C doubles.  On a handful of elements that beats the
    two dozen more ufunc calls of a vectorised tail; at about 0.5 us an
    element, a graph made mostly of short links pays for it.
    """
    import numpy as np

    # 27 * 27 > MAXLOG: clipping changes no result and keeps x * x finite.
    x = np.minimum(x, 27.0)
    z = x * x
    t0, t1, t2, t3, t4 = _ERFC_T
    u0, u1, u2, u3, u4 = _ERFC_U
    out = 1.0 - x * ((((t0 * z + t1) * z + t2) * z + t3) * z + t4) / (
        ((((z + u0) * z + u1) * z + u2) * z + u3) * z + u4
    )
    tail = (x >= 1.0).nonzero()[0]
    out[tail] = [_erfc_tail(v) for v in x[tail].tolist()]
    return out


def _erfc_tail(v: float) -> float:
    """The x >= 1 branches of `_erfc` for one argument."""
    vv = v * v
    if vv > _ERFC_MAXLOG:
        return 0.0
    if v < 8.0:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = _ERFC_P
        q0, q1, q2, q3, q4, q5, q6, q7 = _ERFC_Q
        p = (((((((p0 * v + p1) * v + p2) * v + p3) * v + p4) * v + p5) * v + p6) * v + p7) * v + p8
        q = (((((((v + q0) * v + q1) * v + q2) * v + q3) * v + q4) * v + q5) * v + q6) * v + q7
    else:
        r0, r1, r2, r3, r4, r5 = _ERFC_R
        s0, s1, s2, s3, s4, s5 = _ERFC_S
        p = ((((r0 * v + r1) * v + r2) * v + r3) * v + r4) * v + r5
        q = (((((v + s0) * v + s1) * v + s2) * v + s3) * v + s4) * v + s5
    # math.exp, as Cephes calls the C library's exp; numpy's differs.
    return math.exp(-vv) * p / q
