"""Branch choice, free Green functions, and the Green-function oracles of reference_kernels."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_kernels as ref
from spinpoint.greens import green, sqrt_upper


def complex_off_cut(min_mag=1e-6, max_mag=1e3):
    # complex numbers bounded away from the branch cut [0, inf)
    return st.complex_numbers(
        min_magnitude=min_mag, max_magnitude=max_mag,
        allow_nan=False, allow_infinity=False,
    ).filter(lambda w: not (w.imag == 0.0 and w.real >= 0.0))


def test_sqrt_upper_frozen_values():
    assert sqrt_upper(2j) == pytest.approx(1.0 + 1.0j)
    assert sqrt_upper(-1.0 + 0.0j) == pytest.approx(1.0j)
    assert sqrt_upper(-4.0 + 0.0j) == pytest.approx(2.0j)
    # positive reals sit on the cut but still map to the principal root
    assert sqrt_upper(4.0 + 0.0j) == pytest.approx(2.0)
    assert sqrt_upper(-2j) == pytest.approx(-1.0 + 1.0j)


def test_sqrt_upper_tiny_imaginary_part():
    # Im(sqrt) underflows to 0 here; the branch must follow the sign of Im(w)
    tiny = np.finfo(float).smallest_subnormal
    up = sqrt_upper(complex(1.0, tiny))
    down = sqrt_upper(complex(1.0, -tiny))
    assert up.real == 1.0 and up.imag > 0.0
    assert down.real == -1.0 and down.imag > 0.0
    arr = sqrt_upper(np.array([complex(1.0, tiny), complex(1.0, -tiny)]))
    assert arr[0] == up and arr[1] == down


def test_sqrt_upper_array_matches_scalar():
    ws = np.array([2j, -1.0 + 0.5j, 3.0 - 4.0j, -9.0 + 0j])
    out = sqrt_upper(ws)
    for w, s in zip(ws, out):
        assert s == sqrt_upper(complex(w))


@given(complex_off_cut())
def test_sqrt_upper_is_upper_half_square_root(w):
    s = sqrt_upper(w)
    assert s.imag > 0.0
    assert abs(s * s - w) <= 1e-9 * abs(w)


@given(complex_off_cut())
def test_sqrt_upper_conjugation_rule(w):
    # sqrt_upper(conj w) = -conj(sqrt_upper w) off the cut
    lhs = sqrt_upper(np.conj(w))
    rhs = -np.conj(sqrt_upper(w))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_green_frozen_values():
    # d=3, z=-1, |x|=1: e^{-1}/(4 pi)
    assert green(3, -1.0 + 0j, np.array([1.0, 0, 0])) == pytest.approx(
        np.exp(-1.0) / (4 * np.pi), rel=1e-14)
    # d=1, z=-1, x=0: i/(2i) = 1/2
    assert green(1, -1.0 + 0j, 0.0) == pytest.approx(0.5, rel=1e-14)
    # d=1, z=-4, x=1: e^{-2}/4
    assert green(1, -4.0 + 0j, 1.0) == pytest.approx(np.exp(-2.0) / 4.0, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_green_1d_on_an_array_of_displacements(n):
    # a length-3 array was once read as one 3-vector: one value, at |x| = sqrt(14)
    w = 0.7 + 0.4j
    x = np.linspace(-1.0, 3.0, n) + 0.5
    values = green(1, w, x)
    assert values.shape == (n,)
    assert np.array_equal(values, [green(1, w, float(xi)) for xi in x])
    grid = x.reshape(1, n)
    assert np.array_equal(green(1, w, grid), values.reshape(1, n))


def test_green_3d_on_an_array_of_displacements():
    w = -0.3 + 0.2j
    x = np.array([[1.0, 2.0, 3.0], [-0.5, 0.1, 0.2], [0.0, 0.0, 2.5], [1.5, -1.0, 0.0]])
    values = green(3, w, x)
    assert values.shape == (4,)
    assert np.array_equal(values, [green(3, w, xi) for xi in x])
    with pytest.raises(ValueError, match="last axis of length 3"):
        green(3, w, np.ones((4, 2)))


def test_green_rejects_cut_energy_unless_allowed():
    with pytest.raises(ValueError):
        green(1, 2.0 + 0j, 0.5)
    val = green(1, 2.0 + 0j, 0.5, allow_cut=True)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_green_3d_diverges_at_origin():
    with pytest.raises(ValueError):
        green(3, -1.0 + 0j, np.zeros(3))


def test_green_derivative_1d_odd_and_singular():
    z = -2.0 + 0.3j
    assert ref.green_derivative_1d(z, 0.7) == pytest.approx(-ref.green_derivative_1d(z, -0.7))
    with pytest.raises(ValueError):
        ref.green_derivative_1d(z, 0.0)


@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-4.0, max_value=-0.1),
       st.floats(min_value=0.0, max_value=3.0))
def test_green_1d_solves_the_resolvent_ode(x, e_re, e_im):
    # (-psi'' - z psi) = 0 away from the source, via central differences
    z = complex(e_re, e_im)
    h = 1e-4
    x = x + 0.5  # keep clear of the kink at 0
    vals = [green(1, z, x + k * h) for k in (-1, 0, 1)]
    second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    resid = -second - z * vals[1]
    assert abs(resid) <= 1e-5 * max(abs(vals[1]), 1e-3)


@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=-4.0, max_value=-0.1))
def test_green_3d_radial_ode(r, e_re):
    # u(r) = 4 pi r G(r) satisfies -u'' - z u = 0 for r > 0
    z = complex(e_re, 0.25)
    h = 1e-4
    u = [4 * np.pi * (r + k * h) * green(3, z, r + k * h) for k in (-1, 0, 1)]
    second = (u[0] - 2 * u[1] + u[2]) / h**2
    assert abs(-second - z * u[1]) <= 1e-5 * max(abs(u[1]), 1e-3)


def test_green_derivative_matches_difference_quotient():
    z = -1.5 + 0.8j
    for x in (0.4, -1.2):
        h = 1e-6
        fd = (green(1, z, x + h) - green(1, z, x - h)) / (2 * h)
        assert ref.green_derivative_1d(z, x) == pytest.approx(fd, rel=1e-8)


def test_green_overlap_frozen_values():
    # d=3, z=-1, w=-4, same center: (1-2)/( -1+4 ) * ... = 1/(12 pi)
    assert ref.green_overlap(3, -1.0 + 0j, -4.0 + 0j, 0.0) == pytest.approx(
        1.0 / (12 * np.pi), rel=1e-13)
    # d=1 same energies: (1/2 - 1/4)/3 = 1/12
    assert ref.green_overlap(1, -1.0 + 0j, -4.0 + 0j, 0.0) == pytest.approx(
        1.0 / 12.0, rel=1e-13)


def test_green_overlap_is_resolvent_difference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.uniform(-3, 1), rng.uniform(0.2, 2))
        w = complex(rng.uniform(-3, 1), rng.uniform(0.2, 2))
        if abs(z - w) < 1e-3:
            continue
        x = rng.uniform(0.2, 2.0)
        for d in (1, 3):
            arg = x if d == 1 else np.array([x, 0, 0])
            expect = (green(d, z, arg) - green(d, w, arg)) / (z - w)
            assert ref.green_overlap(d, z, w, arg) == pytest.approx(expect, rel=1e-12)
        assert ref.green_overlap(1, z, w, x) == pytest.approx(ref.green_overlap(1, w, z, x))


def test_green_overlap_rejects_equal_energies():
    with pytest.raises(ValueError):
        ref.green_overlap(1, -1.0 + 0j, -1.0 + 0j, 0.5)
