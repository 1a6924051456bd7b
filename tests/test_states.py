"""Gaussian packets, exact overlaps, and grid sampling."""

import numpy as np
import pytest
from scipy import integrate

from spinpoint.states import (
    GaussianComponent,
    GaussianPacket,
    GridState,
    UniformGrid,
    gaussian_overlap,
)


def quad_complex(fn, a, b, **kw):
    re = integrate.quad(lambda t: fn(t).real, a, b, **kw)[0]
    im = integrate.quad(lambda t: fn(t).imag, a, b, **kw)[0]
    return re + 1j * im


def test_component_validation():
    with pytest.raises(ValueError):
        GaussianComponent(0.0, np.zeros(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        GaussianComponent(0.0, 0.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        GaussianComponent(0.0, 0.0, 1j, 1.0)  # Re v = 0


def test_component_rejects_non_finite_numbers():
    for args in ((np.nan, 0.0, 1.0, 1.0), (0.0, np.inf, 1.0, 1.0), (0.0, 0.0, complex(1.0, np.nan), 1.0),
                 (0.0, 0.0, np.inf, 1.0), (0.0, 0.0, 1.0, complex(np.nan, 0.0))):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianComponent(*args)


def test_packet_rejects_channels_outside_the_code_range():
    g = GaussianComponent(0.0, 0.0, 1.0, 1.0)
    for code in (-1, 4):
        with pytest.raises(ValueError, match=f"channel {code} out of range 0..3"):
            GaussianPacket(1, 4, {code: [g]})
    assert GaussianPacket(1, 4, {3: [g]}).components[3] == (g,)


def test_overlap_matches_quadrature_1d():
    g1 = GaussianComponent(0.3, 1.2, 0.7 + 0.2j, 0.8 - 0.1j)
    g2 = GaussianComponent(-0.5, -0.4, 1.1 - 0.3j, 1.5j)
    exact = gaussian_overlap(g1, g2)
    quad = quad_complex(
        lambda t: np.conj(g1.evaluate(t)[0]) * g2.evaluate(t)[0], -30.0, 30.0, limit=200)
    assert exact == pytest.approx(quad, rel=1e-11)


def test_overlap_matches_quadrature_3d_by_separation():
    # the 3d overlap factorizes over axes; compare against the product
    # of 1d overlaps with matching axis data
    c1, k1 = np.array([0.3, -0.2, 0.5]), np.array([1.0, 0.0, -0.7])
    c2, k2 = np.array([-0.1, 0.4, 0.2]), np.array([0.3, -0.2, 0.0])
    v1, v2 = 0.6 + 0.1j, 0.9 - 0.2j
    g1 = GaussianComponent(c1, k1, v1, 1.3 - 0.4j)
    g2 = GaussianComponent(c2, k2, v2, 0.7 + 0.2j)
    product = np.conj(1.3 - 0.4j) * (0.7 + 0.2j)
    for ax in range(3):
        a1 = GaussianComponent(c1[ax], k1[ax], v1, 1.0)
        a2 = GaussianComponent(c2[ax], k2[ax], v2, 1.0)
        product *= gaussian_overlap(a1, a2)
    assert gaussian_overlap(g1, g2) == pytest.approx(product, rel=1e-12)


def test_norm_of_standard_gaussian():
    # |w|^2 (2 pi Re(v) ... ) for real v: ||g||^2 = |w|^2 (2 pi v)^{d/2}
    v = 0.8
    g = GaussianComponent(0.0, 0.0, v, 2.0)
    assert gaussian_overlap(g, g).real == pytest.approx(4.0 * np.sqrt(2 * np.pi * v))
    g3 = GaussianComponent(np.zeros(3), np.zeros(3), v, 2.0)
    assert gaussian_overlap(g3, g3).real == pytest.approx(4.0 * (2 * np.pi * v) ** 1.5)


def test_packet_channel_weights_and_norm():
    pkt = GaussianPacket(1, 2, {
        0: [GaussianComponent(0.0, 1.0, 0.5, 1.0)],
        1: [GaussianComponent(1.0, 0.0, 0.5, 0.5),
            GaussianComponent(-1.0, 0.0, 0.5, 0.5)],
    })
    w = pkt.channel_weights()
    assert w.shape == (2,)
    assert w[0] == pytest.approx(np.sqrt(2 * np.pi * 0.5))
    assert pkt.norm() == pytest.approx(np.sqrt(np.sum(w)))


def test_grid_construction_and_weights():
    grid = UniformGrid.linear(-1.0, 1.0, 5)
    assert grid.n_points == 5
    assert grid.spacing == pytest.approx(0.5)
    assert grid.weights.tolist() == pytest.approx([0.25, 0.5, 0.5, 0.5, 0.25])
    # trapezoid integrates a linear function exactly
    assert grid.integrate(grid.points + 2.0).real == pytest.approx(4.0)

    cube = UniformGrid.cube(-1.0, 1.0, 4)
    assert cube.points.shape == (64, 3)
    assert np.sum(cube.weights) == pytest.approx(8.0)


def test_grid_rejects_nonuniform_axes():
    with pytest.raises(ValueError):
        UniformGrid(np.array([0.0, 0.5, 2.0]))


def test_grid_rejects_non_finite_bounds():
    for lo in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            UniformGrid(np.array([lo, 0.0, 1.0]))


def test_grid_state_norm_matches_packet():
    pkt = GaussianPacket.single(1, 2, 1, center=0.0, momentum=2.0, variance=0.4)
    grid = UniformGrid.linear(-12.0, 12.0, 1200)
    state = pkt.sample(grid)
    assert isinstance(state, GridState)
    assert state.norm() == pytest.approx(pkt.norm(), rel=1e-7)
    w = state.channel_weights()
    assert w[0] == pytest.approx(0.0)
    assert w[1] == pytest.approx(pkt.channel_weights()[1], rel=1e-7)


def test_grid_state_inner_consistency():
    grid = UniformGrid.linear(-8.0, 8.0, 800)
    p1 = GaussianPacket.single(1, 1, 0, 0.5, 1.0, 0.6)
    p2 = GaussianPacket.single(1, 1, 0, -0.3, -0.5, 0.8)
    s1, s2 = p1.sample(grid), p2.sample(grid)
    exact = gaussian_overlap(p1.components[0][0], p2.components[0][0])
    assert s1.inner(s2) == pytest.approx(exact, rel=1e-7)
    assert s1.inner(s1).real == pytest.approx(s1.norm() ** 2, rel=1e-12)


def test_grid_state_inner_refuses_different_grids():
    # same point count, different axes
    near, far = UniformGrid.linear(0.0, 1.0, 11), UniformGrid.linear(5.0, 50.0, 11)
    a, b = GridState(1, np.ones((1, 11)), near), GridState(1, np.ones((1, 11)), far)
    with pytest.raises(ValueError, match="different grids"):
        a.inner(b)
    # an equal grid built twice is the same grid
    twin = GridState(1, np.ones((1, 11)), UniformGrid.linear(0.0, 1.0, 11))
    assert a.inner(twin) == pytest.approx(1.0, rel=1e-14)


def test_free_evolution_stays_normalized():
    from spinpoint.dynamics import free_evolve
    from spinpoint.spins import ModelSpec

    model = ModelSpec(1, [0.0], [0.6])
    pkt = GaussianPacket.single(1, 2, 0, center=-1.0, momentum=2.5, variance=0.5)
    out = free_evolve(model, pkt, 0.8)
    assert out.norm() == pytest.approx(pkt.norm(), rel=1e-12)
    g = out.components[0][0]
    assert g.variance == pytest.approx(0.5 + 0.8j)
    assert g.center[0] == pytest.approx(-1.0 + 2 * 2.5 * 0.8)
