import dataclasses
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from scipy import special

from oracles import (
    erfc_reference,
    fold_reference,
    parity_e2e_reference,
    single_link_ber_reference,
)
from uowsim import (
    LIGHT_SPEED_WATER,
    PLANCK,
    ChannelParams,
    ReceiverNoise,
    SimulationConfig,
    WaterType,
    chain_ber,
    channel,
    e2e_ber,
    link_power_and_ber,
    photon_arrival_rate,
    received_power_los,
    run_campaign,
    single_link_ber,
)

# High-precision evaluations of the channel equations at the stock
# operating point (P_Tx=0.1 W, efficiencies 0.9, A=0.17 mm^2, theta=60 deg,
# clear ocean, theta0=60 deg), frozen before the build.
P_RX_CLEAR_50M = 2.6816175219259665e-19
P_RX_CLEAR_10M = 1.0911152511165171e-12
PHOTON_RATE_1NW = 3193663616029.9297
BER_CLEAR_50M = 0.49999618051689926


def test_extinction_table():
    assert ChannelParams.for_water(WaterType.CLEAR_OCEAN).extinction == 0.15
    assert ChannelParams.for_water(WaterType.COASTAL_OCEAN).extinction == 0.30
    assert ChannelParams.for_water(WaterType.TURBID_HARBOR).extinction == 2.19


def test_receiver_noise_validation():
    with pytest.raises(ValueError):
        ReceiverNoise(dark_count_rate=-1.0)
    with pytest.raises(ValueError):
        ReceiverNoise(pulse_duration=0.0)
    with pytest.raises(ValueError):
        ReceiverNoise(detector_efficiency=2.0)
    # Past the rules: the noise rates' sum and the photon rate's
    # denominator would overflow, or the denominator underflow.
    with pytest.raises(ValueError):
        ReceiverNoise(dark_count_rate=1e308, background_rate=1e308)
    with pytest.raises(ValueError):
        ReceiverNoise(pulse_duration=1e-300)
    with pytest.raises(ValueError):
        ReceiverNoise(pulse_duration=1e30, data_rate=1e300)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(tx_power=0.0)
    with pytest.raises(ValueError):
        ChannelParams(aperture_area=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(tx_efficiency=1.5)
    with pytest.raises(ValueError):
        ChannelParams(trajectory_angle=math.pi / 2)
    with pytest.raises(ValueError):
        ChannelParams(divergence_angle=0.0)


def test_received_power_zero_efficiency():
    params = ChannelParams(tx_efficiency=0.0)
    assert received_power_los(25.0, params) == 0.0


def test_received_power_frozen_points():
    params = ChannelParams()
    assert received_power_los(50.0, params) == pytest.approx(P_RX_CLEAR_50M, rel=1e-10)
    assert received_power_los(10.0, params) == pytest.approx(P_RX_CLEAR_10M, rel=1e-10)


def test_received_power_decreases_with_distance():
    params = ChannelParams()
    assert received_power_los(10.0, params) > received_power_los(50.0, params)


def test_received_power_rejects_bad_distance():
    params = ChannelParams()
    for distance in (0.0, -5.0):
        with pytest.raises(ValueError):
            received_power_los(distance, params)


def test_received_power_monotonicity_properties():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        params = ChannelParams(
            extinction=rng.uniform(0.05, 2.5),
            tx_power=rng.uniform(0.01, 1.0),
            trajectory_angle=rng.uniform(0.0, 1.0),
            divergence_angle=rng.uniform(0.2, 3.0),
        )
        d1, d2 = sorted(rng.uniform(1.0, 100.0, size=2))
        if d1 == d2:
            continue
        assert received_power_los(d1, params) > received_power_los(d2, params)
        # strictly decreasing in extinction
        bumped = ChannelParams(
            extinction=params.extinction + 0.1,
            tx_power=params.tx_power,
            trajectory_angle=params.trajectory_angle,
            divergence_angle=params.divergence_angle,
        )
        assert received_power_los(d1, bumped) < received_power_los(d1, params)
        # strictly decreasing in divergence over (0, pi)
        wider = ChannelParams(
            extinction=params.extinction,
            tx_power=params.tx_power,
            trajectory_angle=params.trajectory_angle,
            divergence_angle=min(params.divergence_angle + 0.1, math.pi),
        )
        assert received_power_los(d1, wider) < received_power_los(d1, params)


def test_water_orderings():
    noise = ReceiverNoise()
    waters = (WaterType.CLEAR_OCEAN, WaterType.COASTAL_OCEAN, WaterType.TURBID_HARBOR)
    for distance in range(5, 105, 5):
        powers = []
        bers = []
        for water in waters:
            params = ChannelParams.for_water(water)
            power = received_power_los(float(distance), params)
            powers.append(power)
            bers.append(single_link_ber(power, params, noise))
        assert powers[0] > powers[1] > powers[2]
        assert bers[0] <= bers[1] <= bers[2]


def test_photon_rate_examples():
    params, noise = ChannelParams(), ReceiverNoise()
    assert photon_arrival_rate(0.0, params, noise) == 0.0
    rate = photon_arrival_rate(1e-9, params, noise)
    assert rate == pytest.approx(PHOTON_RATE_1NW, rel=1e-10)
    assert photon_arrival_rate(2e-9, params, noise) == pytest.approx(
        2.0 * rate, rel=1e-12
    )
    with pytest.raises(ValueError):
        photon_arrival_rate(-1e-9, params, noise)


def test_single_link_ber_examples():
    params, noise = ChannelParams(), ReceiverNoise()
    assert single_link_ber(0.0, params, noise) == 0.5
    assert single_link_ber(1.0, params, noise) < 1e-12
    power = received_power_los(50.0, params)
    assert single_link_ber(power, params, noise) == pytest.approx(
        BER_CLEAR_50M, rel=1e-10
    )


def test_single_link_ber_bounds_and_monotonicity():
    params, noise = ChannelParams(), ReceiverNoise()
    rng = np.random.default_rng(99)
    powers = np.sort(10.0 ** rng.uniform(-25, 0, size=100))
    bers = [single_link_ber(p, params, noise) for p in powers]
    assert all(0.0 <= b <= 0.5 for b in bers)
    for lo, hi in zip(bers, bers[1:]):
        assert hi <= lo  # nonincreasing in received power


def test_single_link_ber_zero_noise():
    params = ChannelParams()
    quiet = ReceiverNoise(dark_count_rate=0.0, background_rate=0.0)
    assert single_link_ber(0.0, params, quiet) == 0.5
    assert single_link_ber(1e-6, params, quiet) < 0.5


def test_chain_ber():
    for p in (0.0, 0.1, 0.37, 0.5):
        assert chain_ber(0.0, p) == p
        assert chain_ber(p, 0.0) == p
    assert chain_ber(0.1, 0.2) == pytest.approx(0.26, rel=1e-14)
    with pytest.raises(ValueError):
        chain_ber(-0.1, 0.2)
    with pytest.raises(ValueError):
        chain_ber(0.1, 1.0001)


def test_chain_ber_product_identity_and_commutativity():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = rng.uniform(0.0, 0.5, size=2)
        chained = chain_ber(a, b)
        assert abs((1.0 - 2.0 * chained) - (1.0 - 2.0 * a) * (1.0 - 2.0 * b)) <= 1e-15
        assert chain_ber(a, b) == chain_ber(b, a)


def test_e2e_ber_examples():
    assert e2e_ber([]) == 0.0
    assert e2e_ber([0.3]) == 0.3
    assert e2e_ber([0.1, 0.2, 0.05]) == pytest.approx(0.284, rel=1e-14)


def test_e2e_ber_reorder_invariance():
    rng = np.random.default_rng(21)
    for _ in range(200):
        bers = rng.uniform(0.0, 0.5, size=rng.integers(2, 7)).tolist()
        shuffled = list(bers)
        rng.shuffle(shuffled)
        assert e2e_ber(shuffled) == pytest.approx(e2e_ber(bers), rel=1e-12)


def test_e2e_ber_matches_parity_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(300):
        bers = rng.uniform(0.0, 0.5, size=rng.integers(1, 7)).tolist()
        expected = parity_e2e_reference(bers)
        assert e2e_ber(bers) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_erfc_accuracy_against_reference():
    xs = np.concatenate([np.linspace(0.0, 10.0, 101), np.random.default_rng(3).uniform(0, 10, 50)])
    for x in xs:
        reference = erfc_reference(float(x))
        for value in (math.erfc(float(x)), float(special.erfc(float(x)))):
            assert abs(value - reference) / reference <= 1e-10


def _erfc_bit_mismatches(x) -> int:
    """Arguments where the numpy port and scipy differ in any bit."""
    return int(np.count_nonzero(channel._erfc(x).view(np.int64) != special.erfc(x).view(np.int64)))


def test_erfc_port_matches_scipy_on_a_log_grid():
    assert _erfc_bit_mismatches(np.geomspace(1e-12, 900.0, 1_000_000)) == 0


@pytest.mark.parametrize("branch", [1.0, 8.0, math.sqrt(channel._ERFC_MAXLOG)])
def test_erfc_port_matches_scipy_at_branch_points(branch):
    # The 4001 doubles nearest the branch point (positive doubles order
    # like their bit patterns), then a denser relative band around it.
    steps = np.arange(-2000, 2001)
    neighbours = (np.array(branch).view(np.int64) + steps).view(np.float64)
    band = branch * (1.0 + np.linspace(-1e-9, 1e-9, 20001))
    assert neighbours.min() < branch < neighbours.max()
    assert _erfc_bit_mismatches(np.concatenate((neighbours, band))) == 0


def test_erfc_port_matches_scipy_on_campaign_arguments(monkeypatch):
    seen = []
    port = channel._erfc

    def recording(x):
        seen.append(np.array(x))
        return port(x)

    monkeypatch.setattr(channel, "_erfc", recording)
    monkeypatch.setenv("UOWSN_THREADS", "1")  # the recording sees this process only
    run_campaign(SimulationConfig(node_count=(20, 60, 100), realizations=10, master_seed=42))
    x = np.concatenate(seen)
    assert len(x) > 10_000 and (x >= 1.0).any() and (x >= 8.0).any()
    assert _erfc_bit_mismatches(x) == 0


def test_erfc_port_edge_values_without_warnings():
    x = np.array([0.0, 5e-324, 1e-160, 26.0, 27.0, 30.0, 1e300, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _erfc_bit_mismatches(x) == 0
        assert _erfc_bit_mismatches(np.array([])) == 0


def test_vectorized_links_match_scalars():
    params, noise = ChannelParams(), ReceiverNoise()
    distances = np.array([1.0, 5.0, 12.0, 30.0, 55.0, 80.0])
    powers, bers = link_power_and_ber(distances, params, noise)
    for d, p, b in zip(distances, powers, bers):
        assert p == pytest.approx(received_power_los(d, params), rel=1e-12)
        scalar = single_link_ber(received_power_los(d, params), params, noise)
        assert b == pytest.approx(scalar, rel=1e-12)


def test_overflowing_photon_rate_matches_oracle():
    # At the corners of the rules where the rate overflows at the lowest
    # power (the shortest pulse, the lowest data rate, the largest noise
    # rates) it overflows below about 0.1 m here.  The signal photons per
    # pulse are then past 1e293, so the oracle's BER is far below the floor
    # and both kernels give exactly 0.
    params = ChannelParams(tx_power=1e280)
    noise = ReceiverNoise(
        dark_count_rate=1e15, background_rate=1e15, pulse_duration=1e-15, data_rate=1.0
    )
    distances = np.array([1e-3, 1e-2, 0.03, 0.1, 1.0])
    powers, bers = link_power_and_ber(distances, params, noise)
    overflowed = 0
    for power, ber in zip(powers.tolist(), bers.tolist()):
        overflowed += photon_arrival_rate(power, params, noise) == math.inf
        reference = single_link_ber_reference(
            power, noise.dark_count_rate, noise.background_rate, noise.detector_efficiency,
            params.wavelength, noise.pulse_duration, noise.data_rate, PLANCK, LIGHT_SPEED_WATER,
        )
        assert reference < channel.BER_FLOOR
        assert ber == single_link_ber(power, params, noise) == 0.0
    assert overflowed == 3
    # A power past the float range gives BER 0 too.
    huge = ChannelParams(tx_power=1e308)
    powers, bers = link_power_and_ber([1e-5, 1.0, 50.0], huge, ReceiverNoise())
    assert powers[0] == math.inf and bers.tolist() == [0.0, 0.0, 0.0]
    for power in powers.tolist():
        assert single_link_ber(power, huge, ReceiverNoise()) == 0.0


def test_fold_reference_agrees_with_parity():
    # sanity check of the local test oracle itself
    rng = np.random.default_rng(11)
    for _ in range(50):
        bers = rng.uniform(0.0, 0.5, size=4).tolist()
        assert fold_reference(bers) == pytest.approx(parity_e2e_reference(bers), rel=1e-12)


# The link model as written before its constants moved onto ChannelParams
# and ReceiverNoise, copied verbatim (the denominator function inlined):
# the kernels must keep every bit of these expressions.
def _power_before(distance, params):
    cos_traj = math.cos(params.trajectory_angle)
    attenuation = math.exp(-params.extinction * distance / cos_traj)
    spreading = params.aperture_area * cos_traj / (
        2.0 * math.pi * (1.0 - math.cos(params.divergence_angle)) * distance * distance
    )
    return (
        params.tx_power
        * params.tx_efficiency
        * params.rx_efficiency
        * attenuation
        * spreading
    )


def _ber_before(received_power, params, noise):
    rate_signal = (received_power * noise.detector_efficiency * params.wavelength) / (
        noise.pulse_duration * noise.data_rate * PLANCK * LIGHT_SPEED_WATER
    )
    rate_zero = noise.dark_count_rate + noise.background_rate
    rate_one = rate_zero + rate_signal
    if rate_one == math.inf:
        return _ber_past_float_rate_before(received_power, params, noise)
    denom = math.sqrt(rate_one) + math.sqrt(rate_zero)
    diff = rate_signal / denom if denom > 0.0 else 0.0
    ber = 0.5 * math.erfc(math.sqrt(noise.pulse_duration / 2.0) * diff)
    return 0.0 if ber < channel.BER_FLOOR else ber


def _ber_past_float_rate_before(received_power, params, noise):
    if received_power == math.inf:
        return 0.0
    log_rate = (
        math.log(received_power)
        + math.log(noise.detector_efficiency)
        + math.log(params.wavelength)
        - math.log(noise.pulse_duration * noise.data_rate * PLANCK * LIGHT_SPEED_WATER)
    )
    log_photons = log_rate + math.log(noise.pulse_duration)
    if log_photons > 700.0:
        return 0.0
    rate_zero = noise.dark_count_rate + noise.background_rate
    q = math.exp(math.log(rate_zero) - log_rate) if rate_zero > 0.0 else 0.0
    argument = math.sqrt(math.exp(log_photons) / 2.0) / (math.sqrt(1.0 + q) + math.sqrt(q))
    ber = 0.5 * math.erfc(argument)
    return 0.0 if ber < channel.BER_FLOOR else ber


def _vector_before(distances, params, noise):
    d = np.asarray(distances, dtype=float)
    cos_traj = math.cos(params.trajectory_angle)
    with np.errstate(over="ignore", invalid="ignore"):
        power = (
            params.tx_power
            * params.tx_efficiency
            * params.rx_efficiency
            * np.exp(-params.extinction * d / cos_traj)
            * params.aperture_area
            * cos_traj
            / (2.0 * math.pi * (1.0 - math.cos(params.divergence_angle)) * d * d)
        )
        rate_signal = (power * noise.detector_efficiency * params.wavelength) / (
            noise.pulse_duration * noise.data_rate * PLANCK * LIGHT_SPEED_WATER
        )
        rate_zero = noise.dark_count_rate + noise.background_rate
        rate_one = rate_zero + rate_signal
        denom = np.sqrt(rate_one) + math.sqrt(rate_zero)
        diff = np.divide(
            rate_signal, denom, out=np.zeros_like(rate_signal), where=denom > 0.0
        )
    ber = 0.5 * channel._erfc(math.sqrt(noise.pulse_duration / 2.0) * diff)
    ber = np.where(ber < channel.BER_FLOOR, 0.0, ber)
    overflowed = np.flatnonzero(rate_one == math.inf)
    if len(overflowed):
        ber[overflowed] = [
            _ber_past_float_rate_before(p, params, noise) for p in power[overflowed].tolist()
        ]
    return power, ber


def _smallest_divergence():
    """The smallest angle whose cosine rounds below 1, by bisection."""
    low, high = 0.0, 1e-7
    while math.nextafter(low, 1.0) < high:
        middle = (low + high) / 2.0
        low, high = (low, middle) if math.cos(middle) < 1.0 else (middle, high)
    return high


def _random_link(rng):
    """One seeded (ChannelParams, ReceiverNoise) draw, edge cases included."""

    def log_uniform(low, high):
        return 10.0 ** rng.uniform(low, high)

    def efficiency():
        return rng.choice((0.0, 1.0, rng.random(), rng.random(), rng.random()))

    trajectory = rng.choice(
        (0.0, math.nextafter(math.pi / 2.0, 0.0), rng.uniform(1.5, math.pi / 2.0))
        + (rng.uniform(0.0, math.pi / 2.0),) * 3
    )
    divergence = rng.choice(
        (_smallest_divergence(), math.pi) + (rng.uniform(1e-6, math.pi),) * 4
    )
    params = ChannelParams(
        wavelength=log_uniform(-7, -5),
        extinction=rng.choice((0.0, rng.uniform(0.0, 3.0))),
        # About one draw in five carries a power past the float range.
        tx_power=log_uniform(290, 308) if rng.random() < 0.2 else log_uniform(-3, 1),
        tx_efficiency=efficiency(),
        rx_efficiency=efficiency(),
        aperture_area=log_uniform(-8, -2),
        trajectory_angle=trajectory,
        divergence_angle=divergence,
    )
    rates = (0.0, log_uniform(0, 12), log_uniform(0, 12))
    if rng.random() < 0.1:
        # The shortest pulse the rules allow: small denominators, so that
        # short links' photon rates overflow.
        timing = {"pulse_duration": 1e-15, "data_rate": 10.0 ** rng.uniform(0, 15)}
    else:
        timing = {"pulse_duration": log_uniform(-12, -6), "data_rate": log_uniform(3, 10)}
    noise = ReceiverNoise(
        dark_count_rate=rng.choice(rates),
        background_rate=rng.choice(rates),
        detector_efficiency=efficiency(),
        **timing,
    )
    return params, noise


def test_kernels_keep_every_bit_of_the_model_before_its_constants_were_stored():
    rng = random.Random(20)
    seen = {"inf power": 0, "zero power": 0, "rate past float": 0, "orders differ": 0}
    for _ in range(600):
        params, noise = _random_link(rng)
        distances = [10.0 ** rng.uniform(-3, 3) for _ in range(4)]
        distances.append(10.0 ** rng.uniform(-150, -100))
        powers, bers = link_power_and_ber(distances, params, noise)
        powers_before, bers_before = _vector_before(distances, params, noise)
        assert powers.tobytes() == powers_before.tobytes()
        assert bers.tobytes() == bers_before.tobytes()
        for distance, vector_power in zip(distances, powers.tolist()):
            power = received_power_los(distance, params)
            ber = single_link_ber(power, params, noise)
            assert power.hex() == _power_before(distance, params).hex()
            assert ber.hex() == _ber_before(power, params, noise).hex()
            seen["inf power"] += power == math.inf
            seen["zero power"] += power == 0.0
            seen["rate past float"] += photon_arrival_rate(power, params, noise) == math.inf
            seen["orders differ"] += power != vector_power
    # Every edge case was drawn, and the scalar and vector kernels keep
    # their own operation orders, whose bits differ.
    assert all(seen.values()), seen


def _stored_constants(value):
    names = {field.name for field in dataclasses.fields(value)}
    return {name: number for name, number in vars(value).items() if name not in names}


def test_stored_constants_follow_the_fields():
    params = ChannelParams(trajectory_angle=0.3, divergence_angle=0.2, tx_efficiency=0.5)
    noise = ReceiverNoise(dark_count_rate=4.0, background_rate=5.0, pulse_duration=2e-9)
    assert _stored_constants(params) == {
        "cos_trajectory": math.cos(0.3),
        "neg_extinction": -params.extinction,
        "projected_area": params.aperture_area * math.cos(0.3),
        "beam_solid_angle": 2.0 * math.pi * (1.0 - math.cos(0.2)),
        "tx_gain": params.tx_power * 0.5 * params.rx_efficiency,
    }
    assert _stored_constants(noise) == {
        "rate_denominator": 2e-9 * noise.data_rate * PLANCK * LIGHT_SPEED_WATER,
        "noise_rate": 9.0,
        "sqrt_noise_rate": 3.0,
        "sqrt_half_pulse": math.sqrt(1e-9),
    }
    # replace recomputes them from the new fields.
    for value, changes in (
        (params, {"trajectory_angle": 1.0, "divergence_angle": 1.5, "tx_power": 2.0}),
        (params, {"extinction": 2.19, "aperture_area": 1e-3}),
        (noise, {"dark_count_rate": 0.0, "background_rate": 0.0, "pulse_duration": 3e-8}),
        (noise, {"data_rate": 5e9}),
    ):
        changed = dataclasses.replace(value, **changes)
        assert _stored_constants(changed) == _stored_constants(type(value)(**{
            field.name: getattr(changed, field.name) for field in dataclasses.fields(value)
        }))
        assert _stored_constants(changed) != _stored_constants(value)
    # A pickle round trip, as to a pool worker, keeps them.
    for value in (params, noise, SimulationConfig(channel=params, noise=noise)):
        assert pickle.loads(pickle.dumps(value)) == value
    assert _stored_constants(pickle.loads(pickle.dumps(params))) == _stored_constants(params)
    assert _stored_constants(pickle.loads(pickle.dumps(noise))) == _stored_constants(noise)


def test_stored_constants_leave_equality_repr_and_fields_alone():
    clear = ChannelParams.for_water(WaterType.CLEAR_OCEAN)
    rebuilt = dataclasses.replace(dataclasses.replace(clear, extinction=2.19), extinction=0.15)
    assert clear == rebuilt == ChannelParams() and hash(clear) == hash(rebuilt)
    assert ReceiverNoise() == ReceiverNoise(pulse_duration=1e-9)
    assert hash(ReceiverNoise()) == hash(ReceiverNoise(pulse_duration=1e-9))
    assert ChannelParams(tx_power=0.2) != ChannelParams()
    assert [field.name for field in dataclasses.fields(ChannelParams)] == [
        "wavelength", "extinction", "tx_power", "tx_efficiency", "rx_efficiency",
        "aperture_area", "trajectory_angle", "divergence_angle",
    ]
    assert [field.name for field in dataclasses.fields(ReceiverNoise)] == [
        "dark_count_rate", "background_rate", "detector_efficiency", "pulse_duration",
        "data_rate",
    ]
    assert repr(ReceiverNoise()) == (
        "ReceiverNoise(dark_count_rate=1000000.0, background_rate=1000000.0, "
        "detector_efficiency=0.9, pulse_duration=1e-09, data_rate=1000000.0)"
    )
    assert repr(ChannelParams(trajectory_angle=0.5, divergence_angle=1.0)) == (
        "ChannelParams(wavelength=5.3e-07, extinction=0.15, tx_power=0.1, "
        "tx_efficiency=0.9, rx_efficiency=0.9, aperture_area=1.7e-07, "
        "trajectory_angle=0.5, divergence_angle=1.0)"
    )
