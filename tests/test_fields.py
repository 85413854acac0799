"""Polarization decomposition, the (theta, phi) field angles of a drive,
and the real-field reconstruction oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.fields import DriveField, ZeroVectorError, linear_components
from chiraloop.fields import stacked_linear_components
from chiraloop.loop import _field_trig

ROOT2 = math.sqrt(2.0)

# spherical basis vectors in the lab frame
EPS = {
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    1: np.array([1.0, 1.0j, 0.0]) / ROOT2,
    -1: -np.array([1.0, -1.0j, 0.0]) / ROOT2,
}


def reconstruct_real_field(field: DriveField, t_us: float) -> np.ndarray:
    """Re{ sum_s eps_s E_s e^{-i(2 pi nu t + phi_s)} }; the oracle that pins
    down what the stored components mean physically."""
    total = np.zeros(3, dtype=complex)
    for sigma in (-1, 0, 1):
        amp, phase = field.amplitude(sigma), field.phase(sigma)
        total += EPS[sigma] * amp * cmath.exp(-1j * (2 * np.pi * field.freq * t_us + phase))
    return total.real


unit_direction = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < math.hypot(*v))


# ---------------------------------------------------------------------------
# axis decompositions

def complex_amplitudes(f: DriveField) -> list[complex]:
    """E_sigma e^{i phi_sigma} over sigma = +1, 0, -1."""
    return [f.amplitude(s) * cmath.exp(1j * f.phase(s)) for s in (1, 0, -1)]


def test_z_polarization_is_pure_sigma0():
    f = DriveField(100.0, linear_components((0, 0, 1), 1.0, 0.0))
    assert f.comps == {0: (1.0, 0.0)}


def test_x_polarization_components():
    f = DriveField(100.0, linear_components((1, 0, 0), ROOT2, 0.0))
    assert f.amplitude(1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(-1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(0) == 0.0
    assert f.phase(1) == pytest.approx(0.0, abs=1e-15)
    assert f.phase(-1) == pytest.approx(math.pi, abs=1e-15)
    # opposite complex amplitudes characterize a linear X field
    plus, _, minus = complex_amplitudes(f)
    assert plus == pytest.approx(-minus, rel=1e-14)


def test_y_polarization_components():
    f = DriveField(100.0, linear_components((0, 1, 0), ROOT2, 0.0))
    assert f.amplitude(1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(-1) == pytest.approx(1.0, rel=1e-15)
    # equal complex amplitudes characterize a linear Y field
    plus, _, minus = complex_amplitudes(f)
    assert minus == pytest.approx(plus, rel=1e-14)


def test_zero_direction_rejected():
    with pytest.raises(ZeroVectorError):
        linear_components((0.0, 0.0, 0.0), 1.0, 0.0)
    # a non-finite direction, a negative or non-finite amplitude, a non-finite phase
    for direction, amplitude, phase in (
        ((math.nan, 0.0, 0.0), 1.0, 0.0),
        ((math.inf, 0.0, 0.0), 1.0, 0.0),
        ((1.0, 0.0, 0.0), math.nan, 0.0),
        ((1.0, 0.0, 0.0), math.inf, 0.0),
        ((1.0, 0.0, 0.0), -1.0, 0.0),
        ((1.0, 0.0, 0.0), 1.0, math.nan),
        ((1.0, 0.0, 0.0), 1.0, -math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            linear_components(direction, amplitude, phase)


def test_linear_components_are_the_drive_components():
    assert linear_components((0.0, 0.0, 2.0), 1.5, 0.4) == {0: (1.5, 0.4)}
    direction, amplitude, phase = (0.3, -1.0, 0.7), 2.0, -1.1
    comps = linear_components(direction, amplitude, phase)
    f = DriveField(10.0, comps)
    assert sorted(comps) == sorted(f.comps) == [-1, 0, 1]
    for sigma, want in zip((1, 0, -1), complex_amplitudes(f)):
        amp, ph = comps[sigma]
        assert amp * cmath.exp(1j * ph) == pytest.approx(want, abs=1e-15)


def test_stacked_components_equal_linear_components_bit_for_bit():
    rng = np.random.default_rng(8)
    axes = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]])
    directions = np.vstack([axes, rng.normal(size=(500, 3))])
    amps, phases = stacked_linear_components(directions)
    for direction, *row in zip(directions, amps.tolist(), phases.tolist()):
        comps = linear_components(direction, 1.0, 0.0)
        want = [comps.get(s, (0.0, 0.0)) for s in (1, 0, -1)]
        # float.hex tells the bits apart, signed zeros included
        assert [x.hex() for x in row[0] + row[1]] == [
            x.hex() for x in [a for a, _ in want] + [p for _, p in want]
        ]


def test_stacked_components_reject_bad_directions():
    with pytest.raises(ValueError, match="3"):
        stacked_linear_components(np.ones((2, 2)))
    with pytest.raises(ZeroVectorError):
        stacked_linear_components([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            stacked_linear_components([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# reconstruction oracle

@settings(max_examples=80, deadline=None)
@given(direction=unit_direction, phase=st.floats(-3.0, 3.0))
def test_reconstruction_stays_on_axis(direction, phase):
    amplitude = 1.7
    freq = 50.0
    f = DriveField(freq, linear_components(direction, amplitude, phase))
    n = np.asarray(direction) / np.linalg.norm(direction)
    for t in np.linspace(0.0, 0.04, 9):
        e_t = reconstruct_real_field(f, float(t))
        # field is parallel to the input axis with a cosine envelope
        assert np.linalg.norm(e_t - (e_t @ n) * n) < 1e-10 * amplitude
        assert e_t @ n == pytest.approx(
            amplitude * math.cos(2 * np.pi * freq * t + phase), abs=1e-10
        )


@settings(max_examples=60, deadline=None)
@given(direction=unit_direction, phase=st.floats(-3.0, 3.0))
def test_component_energy_sums_to_amplitude(direction, phase):
    amplitude = 2.3
    f = DriveField(10.0, linear_components(direction, amplitude, phase))
    total_sq = sum(f.amplitude(s) ** 2 for s in (-1, 0, 1))
    assert total_sq == pytest.approx(amplitude**2, rel=1e-12)
    assert f.total == pytest.approx(amplitude, rel=1e-12)


def test_orthogonal_directions_reconstruct_orthogonal_axes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        fields = [DriveField(10.0, linear_components(q[:, i], 1.0, 0.0)) for i in range(3)]
        # evaluate each at its own phase peak: t=0 has cos(phase)=1 for phase 0
        axes = [reconstruct_real_field(f, 0.0) for f in fields]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(axes[i] @ axes[j]) < 1e-12


# ---------------------------------------------------------------------------
# angle parametrization: sin(theta) cos(phi) = E_+1/E, sin(theta) sin(phi) =
# E_0/E and cos(theta) = E_-1/E, the drive angles the closure verdict uses

def field_trig(f: DriveField):
    """(sin theta, cos theta, sin phi, cos phi) of a drive."""
    return _field_trig(f.amplitude(1), f.amplitude(0), f.amplitude(-1), f.total)


def test_angles_pure_components():
    # exact structural zeros: theta = pi/2, phi = 0; theta = phi = pi/2; theta = 0
    assert field_trig(DriveField.pure(1, 2.0, 10.0)) == (1.0, 0.0, 0.0, 1.0)
    assert field_trig(DriveField.pure(0, 2.0, 10.0)) == (1.0, 0.0, 1.0, 0.0)
    assert field_trig(DriveField.pure(-1, 2.0, 10.0)) == (0.0, 1.0, 0.0, 1.0)


def test_angles_roundtrip_z():
    sin_t, _, sin_p, _ = field_trig(DriveField(10.0, linear_components((0, 0, 1), 1.0, 0.0)))
    assert sin_t * sin_p == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    amps=st.tuples(st.floats(0.01, 3), st.floats(0.01, 3), st.floats(0.01, 3)),
)
def test_angle_components_nonnegative_and_normalized(amps):
    f = DriveField(freq=1.0, comps={1: (amps[0], 0.1), 0: (amps[1], 0.2), -1: (amps[2], 0.3)})
    sin_t, cos_t, sin_p, cos_p = field_trig(f)
    parts = (sin_t * cos_p, sin_t * sin_p, cos_t)
    assert all(p >= 0 for p in parts)
    assert sum(p * p for p in parts) == pytest.approx(1.0, rel=1e-12)
    assert parts[0] == pytest.approx(f.amplitude(1) / f.total, rel=1e-9)
    assert parts[1] == pytest.approx(f.amplitude(0) / f.total, rel=1e-9)
    assert parts[2] == pytest.approx(f.amplitude(-1) / f.total, rel=1e-9)


# ---------------------------------------------------------------------------
# representation invariants

def test_negative_amplitude_folds_into_phase():
    f = DriveField(freq=1.0, comps={0: (-1.0, 0.0)})
    assert f.amplitude(0) == 1.0
    assert f.phase(0) == pytest.approx(math.pi)
    assert complex_amplitudes(f)[1] == pytest.approx(-1.0 + 0j, abs=1e-15)


def test_all_zero_amplitudes_rejected():
    with pytest.raises(ValueError):
        DriveField(freq=1.0, comps={0: (0.0, 0.0), 1: (0.0, 1.0)})


def test_underflowing_total_raises_value_error():
    """1e-300 squares to 0: the field exists, its total and angles do not."""
    f = DriveField(freq=1.0, comps={0: (1e-300, 0.0), 1: (1e-300, 0.5)})
    assert f.amplitude(0) == 1e-300
    with pytest.raises(ValueError, match="underflow"):
        f.total


def test_total_sums_in_sigma_order():
    """The total folds the squares over sigma = +1, 0, -1 whatever order the
    components come in, so a drive built from arrays gets the same bits."""
    want = math.sqrt((0.1 * 0.1 + 0.2 * 0.2) + 0.3 * 0.3)
    for order in ((-1, 0, 1), (0, -1, 1), (1, 0, -1)):
        amps = {1: 0.1, 0: 0.2, -1: 0.3}
        assert DriveField(freq=1.0, comps={s: (amps[s], 0.0) for s in order}).total == want


def test_unknown_sigma_rejected():
    with pytest.raises(ValueError):
        DriveField(freq=1.0, comps={2: (1.0, 0.0)})


def test_phase_canonical_range():
    f = DriveField(freq=1.0, comps={0: (1.0, 7.5)})
    assert -math.pi < f.phase(0) <= math.pi
    assert cmath.exp(1j * f.phase(0)) == pytest.approx(cmath.exp(1j * 7.5), rel=1e-12)


@pytest.mark.parametrize(
    "freq, comps",
    [
        (math.nan, {0: (1.0, 0.0)}),
        (math.inf, {0: (1.0, 0.0)}),
        (1.0, {0: (math.inf, 0.0)}),
        (1.0, {0: (math.nan, 0.0)}),
        (1.0, {1: (1.0, math.inf)}),
        (1.0, {1: (1.0, 0.0), -1: (1.0, math.nan)}),
    ],
)
def test_non_finite_values_rejected(freq, comps):
    with pytest.raises(ValueError):
        DriveField(freq=freq, comps=comps)
