import math
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


@pytest.mark.parametrize(
    "absorption,scattering,total",
    [(0.0, 0.0, 0.0), (0.10, 0.05, 0.15), (0.069, 0.08, 0.149)],
)
def test_extinction_from_components(absorption, scattering, total):
    params = ChannelParams.for_water(
        WaterType.TURBID_HARBOR, absorption=absorption, scattering=scattering
    )
    assert params.extinction == pytest.approx(total, rel=1e-12)


def test_extinction_from_components_rejects_negative():
    with pytest.raises(ValueError):
        ChannelParams.for_water(WaterType.CLEAR_OCEAN, absorption=-0.1, scattering=0.2)
    with pytest.raises(ValueError):
        ChannelParams.for_water(WaterType.CLEAR_OCEAN, absorption=0.1, scattering=-0.2)


def test_channel_params_derive_extinction_from_components():
    params = ChannelParams.for_water(WaterType.CLEAR_OCEAN, absorption=0.069, scattering=0.08)
    assert params.extinction == pytest.approx(0.149, rel=1e-12)
    with pytest.raises(ValueError):
        ChannelParams.for_water(
            WaterType.CLEAR_OCEAN, extinction=0.5, absorption=0.1, scattering=0.1
        )


def test_receiver_noise_validation():
    with pytest.raises(ValueError):
        ReceiverNoise(dark_count_rate=-1.0)
    with pytest.raises(ValueError):
        ReceiverNoise(pulse_duration=0.0)
    with pytest.raises(ValueError):
        ReceiverNoise(detector_efficiency=2.0)
    with pytest.raises(ValueError):  # each rate is finite, their sum is not
        ReceiverNoise(dark_count_rate=1e308, background_rate=1e308)
    # The photon rate's denominator underflows to 0 or overflows.
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
    # A 1e-307 s pulse at 1e35 b/s keeps the rate's denominator a normal
    # float, so below about 1.2 m the photon rate overflows while the signal
    # photons per pulse stay few enough for a BER above 0.
    params = ChannelParams(tx_power=4e25)
    noise = ReceiverNoise(pulse_duration=1e-307, data_rate=1e35)
    distances = np.array([0.3, 0.5, 0.8, 1.0, 1.5, 3.0, 10.0])
    powers, bers = link_power_and_ber(distances, params, noise)
    overflowed = 0
    for power, ber in zip(powers.tolist(), bers.tolist()):
        rate = photon_arrival_rate(power, params, noise)
        overflowed += rate == math.inf
        reference = single_link_ber_reference(
            power, noise.dark_count_rate, noise.background_rate, noise.detector_efficiency,
            params.wavelength, noise.pulse_duration, noise.data_rate, PLANCK, LIGHT_SPEED_WATER,
        )
        assert 0.0 < ber < 0.5
        assert ber == pytest.approx(float(reference), rel=1e-9)
        assert single_link_ber(power, params, noise) == pytest.approx(ber, rel=1e-12)
    assert overflowed == 4
    # As the power grows past the float range, the BER tends to 0.
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
