"""Time evolution: closed-form free propagation and the spectral route.

The free evolution is checked against direct quadrature of the free
propagator kernel (4 pi i t)^(-1/2) exp(i|x-y|^2/(4t)), which is the
oracle here; the spectral reconstruction is then checked against the
free evolution on the free pair, and on interacting pairs through norm
conservation, t=0 completeness, and channel bookkeeping.
"""

import itertools

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint.boundary import preset_delta, preset_delta_prime, preset_free, preset_offdiag, random_valid_pair
from spinpoint.dynamics import evolve_spectral, free_evolve, spectral_defaults
from spinpoint.spins import ModelSpec
from spinpoint.states import GaussianPacket, GridState, UniformGrid


def model_d1(alpha=0.0):
    return ModelSpec(1, [0.0], [alpha])


def packet_d1(center=0.0, momentum=3.0, variance=2.0, code=0):
    return GaussianPacket.single(1, 2, code, [center], [momentum], variance)


def propagator_quadrature_1d(packet, code, t, x):
    # brute-force U(t) psi at one point, fine trapezoid over the support
    y = np.linspace(-14.0, 14.0, 28001)
    psi = packet.evaluate(code, y)
    kernel = np.exp(1j * (x - y) ** 2 / (4.0 * t)) / np.sqrt(4j * np.pi * t)
    return np.trapezoid(kernel * psi, y)


def test_free_evolve_matches_propagator_quadrature():
    model = model_d1()
    packet = GaussianPacket.single(1, 2, 0, [-1.0], [1.3], 0.8, weight=0.7 + 0.2j)
    t = 0.7
    evolved = free_evolve(model, packet, t)
    for x in (-2.0, 0.4, 2.5):
        want = propagator_quadrature_1d(packet, 0, t, x)
        got = evolved.evaluate(0, np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-8)


def test_free_evolve_unitary_and_spreads():
    model = model_d1()
    packet = GaussianPacket(1, 2, {
        0: [packet_d1().components[0][0]],
        1: [GaussianPacket.single(1, 2, 1, [1.0], [-0.5], 0.6, weight=0.3j).components[1][0]],
    })
    n0 = packet.norm()
    for t in (0.1, 1.0, 7.3):
        evolved = free_evolve(model, packet, t)
        assert evolved.norm() == pytest.approx(n0, rel=1e-12)
        g = evolved.components[0][0]
        assert g.variance == pytest.approx(packet.components[0][0].variance + 1j * t)
        assert np.allclose(g.center, packet.components[0][0].center + 2.0 * t * np.array([3.0]))


def test_free_evolve_composes():
    model = model_d1(alpha=0.3)
    packet = packet_d1(momentum=1.1)
    one = free_evolve(model, free_evolve(model, packet, 0.4), 0.9)
    two = free_evolve(model, packet, 1.3)
    pts = np.linspace(-3, 6, 17)
    for code in (0, 1):
        assert np.allclose(one.evaluate(code, pts), two.evaluate(code, pts), rtol=1e-12, atol=1e-15)


def test_free_evolve_zeeman_phase():
    t = 0.9
    base = free_evolve(model_d1(0.0), packet_d1(code=0), t)
    shifted = free_evolve(model_d1(0.7), packet_d1(code=0), t)
    pts = np.array([0.2, 4.0])
    assert np.allclose(shifted.evaluate(0, pts),
                       np.exp(-1j * 0.7 * t) * base.evaluate(0, pts), rtol=1e-12)
    base1 = free_evolve(model_d1(0.0), packet_d1(code=1), t)
    shifted1 = free_evolve(model_d1(0.7), packet_d1(code=1), t)
    assert np.allclose(shifted1.evaluate(1, pts),
                       np.exp(+1j * 0.7 * t) * base1.evaluate(1, pts), rtol=1e-12)


def test_free_evolve_checks_shape():
    with pytest.raises(ValueError):
        free_evolve(model_d1(), GaussianPacket.single(1, 4, 0, [0.0], [1.0], 1.0), 0.5)


def test_free_evolve_norm_conserved_3d():
    model = ModelSpec(3, [[0.0, 0.0, 0.0]], [0.0])
    packet = GaussianPacket.single(3, 2, 0, [0.1, -0.2, 0.3], [1.0, 0.0, -2.0], 0.9)
    n0 = packet.norm()
    assert free_evolve(model, packet, 2.7).norm() == pytest.approx(n0, rel=1e-12)


def test_spectral_free_pair_matches_closed_form():
    model = model_d1()
    pair = preset_free(model)
    packet = packet_d1()
    grid = UniformGrid.linear(-10.0, 16.0, 200)
    res = evolve_spectral(model, pair, packet, [0.25, 1.0], grid)
    assert res.bound_energies.size == 0
    for st, t in zip(res.states, res.times):
        exact = free_evolve(model, packet, float(t)).sample(grid)
        scale = float(np.max(np.abs(exact.values)))
        assert float(np.max(np.abs(st.values - exact.values))) <= 1e-4 * scale
        assert abs(st.norm() - exact.norm()) <= 2e-5 * exact.norm()
    assert res.error_estimate <= 1e-5


def test_spectral_default_parameters_recorded():
    model = model_d1()
    packet = packet_d1()
    grid = UniformGrid.linear(-10.0, 16.0, 200)
    res = evolve_spectral(model, preset_free(model), packet, [0.1], grid, n_nodes=256)
    want = spectral_defaults(model, packet)
    assert res.params["n_nodes"] == 256
    assert res.params["lam_max"] == want["lam_max"]
    assert "eps" not in res.params and "margin" not in res.params
    assert res.norms.shape == (1,)


def test_spectral_diagonal_delta_keeps_channels():
    # crossing packet; the pair couples nothing across spin channels
    model = model_d1()
    pair = preset_delta(model, -2.0)
    packet = packet_d1(center=-4.0, momentum=2.5, variance=1.0)
    grid = UniformGrid.linear(-14.0, 12.0, 220)
    res = evolve_spectral(model, pair, packet, [0.0, 1.0], grid)
    assert res.bound_energies == pytest.approx([-1.0], abs=1e-6)
    init = packet.sample(grid)
    scale = float(np.max(np.abs(init.values)))
    assert float(np.max(np.abs(res.states[0].values - init.values))) <= 2e-3 * scale
    assert res.states[-1].channel_weights()[1] <= 1e-14
    assert res.error_estimate <= 2e-3


def test_spectral_diagonal_delta_both_channels():
    model = model_d1()
    pair = preset_delta(model, -2.0)
    packet = GaussianPacket(1, 2, {
        0: [GaussianPacket.single(1, 2, 0, [-4.0], [2.5], 1.0).components[0][0]],
        1: [GaussianPacket.single(1, 2, 1, [3.0], [-1.5], 0.7, weight=0.5).components[1][0]],
    })
    grid = UniformGrid.linear(-14.0, 12.0, 220)
    res = evolve_spectral(model, pair, packet, [0.0, 0.8], grid)
    w0 = res.states[0].channel_weights()
    w1 = res.states[-1].channel_weights()
    # decoupled channels conserve their weights separately
    assert np.allclose(w1, w0, atol=3e-3)


def test_spectral_offdiag_pair_flips_channels():
    model = model_d1()
    pair = preset_offdiag(model, 0.8)
    packet = packet_d1(center=-4.0, momentum=2.5, variance=1.0)
    grid = UniformGrid.linear(-14.0, 12.0, 220)
    res = evolve_spectral(model, pair, packet, [0.0, 1.0], grid)
    assert res.bound_energies == pytest.approx([-0.64], abs=1e-6)
    flipped = res.states[-1].channel_weights()[1]
    assert flipped > 10.0 * res.error_estimate
    assert flipped > 0.1


def test_spectral_norm_drift_raises():
    # the free motion is exact, so an under-resolved coupled pair drifts
    model = model_d1()
    packet = packet_d1(center=-4.0, momentum=2.5, variance=1.0)
    grid = UniformGrid.linear(-14.0, 12.0, 220)
    with pytest.raises(RuntimeError, match="drift"):
        evolve_spectral(model, preset_delta(model, -2.0), packet, [1.0], grid, n_nodes=8)


def test_spectral_nan_drift_tolerance_raises():
    # drift > nan is False: the guard is written so that a NaN fails it
    model = model_d1()
    grid = UniformGrid.linear(-10.0, 10.0, 80)
    with pytest.raises(RuntimeError, match="drift"):
        evolve_spectral(model, preset_free(model), packet_d1(), [0.5], grid, n_nodes=16, drift_tol=float("nan"))


def test_spectral_3d_reconstructs_and_flips():
    # the site sits at a cell centre of the 14^3 cube, which only samples the result
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    packet = GaussianPacket.single(3, 2, 0, [-2.0, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0)
    grid = UniformGrid.cube(-6.0, 6.0, 14)
    init = packet.sample(grid)
    scale = float(np.max(np.abs(init.values)))
    for pair in (preset_offdiag(model, 0.3), preset_delta(model, -0.05), preset_delta(model, -1.0)):
        res = evolve_spectral(model, pair, packet, [0.0], grid, n_nodes=128)
        assert float(np.max(np.abs(res.state.values - init.values))) <= 2e-3 * scale
    res = evolve_spectral(model, preset_offdiag(model, 0.3), packet, [1.0], grid, n_nodes=128)
    assert res.state.channel_weights()[1] > 10.0 * res.error_estimate


def _evolve_against_reference(model, pair, packet, times, grid, n_nodes, drift_tol=1e-2):
    """evolve_spectral, and the largest difference of its states from those with the node-by-node cut.

    The reference (reference_kernels.cut_correction_per_node) is computed
    beside the cut inside the same run, so both sides share the free
    motion and the bound levels; drift_tol is evolve_spectral's. Returns
    the result, the difference relative to the reference's max |psi|, and
    the reference's norms.
    """
    from spinpoint import dynamics

    inner, delta = dynamics._cut_correction, []

    def both(*args):
        out, n_radii = inner(*args)
        delta.append(ref.cut_correction_per_node(*args) - out)
        return out, n_radii

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_cut_correction", both)
        res = evolve_spectral(model, pair, packet, times, grid, n_nodes=n_nodes, drift_tol=drift_tol)
    want = [st.values + d for st, d in zip(res.states, delta[0])] if delta else [st.values for st in res.states]
    scale = max(float(np.max(np.abs(w))) for w in want)
    diff = max(float(np.max(np.abs(w - st.values))) for w, st in zip(want, res.states))
    return res, diff / scale, np.array([GridState(model.dimension, w, grid).norm() for w in want])


def _evolve_cases():
    zeeman = ModelSpec(1, [0.0, 1.5], [0.3, 0.58])
    yield (zeeman, preset_offdiag(zeeman, 0.8),
           GaussianPacket.single(1, 4, 0, [-4.0], [2.5], 1.0), UniformGrid.linear(-14.0, 12.0, 220))
    model3 = ModelSpec(3, [np.zeros(3)], [0.0])
    yield (model3, preset_offdiag(model3, 0.3),
           GaussianPacket.single(3, 2, 0, [-2.0, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0), UniformGrid.cube(-6.0, 6.0, 14))
    # codes 1 and 2 share the shift 0, and their wave tables
    shared = ModelSpec(1, [0.0, 1.5], [0.3, 0.3])
    yield (shared, preset_offdiag(shared, 0.8),
           GaussianPacket.single(1, 4, 0, [-4.0], [2.5], 1.0), UniformGrid.linear(-14.0, 12.0, 220))
    # at alpha = 0 all four codes share one wave table
    pair3 = ModelSpec(3, [np.zeros(3), np.array([1.5, 0.0, 0.0])], [0.0, 0.0])
    yield (pair3, preset_offdiag(pair3, 0.3),
           GaussianPacket.single(3, 4, 0, [-2.0, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0), UniformGrid.cube(-6.0, 6.0, 14))
    # a complex, dense pair coupling both sites: the lower side of the cut rests on its self-adjointness alone
    field3 = ModelSpec(3, [np.zeros(3), np.array([1.5, 0.0, 0.0])], [0.3, 0.58])
    yield (field3, random_valid_pair(field3, np.random.default_rng(0)),
           GaussianPacket.single(3, 4, 0, [-2.0, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0), UniformGrid.cube(-6.0, 6.0, 14))


@pytest.mark.parametrize("model, pair, packet, grid", _evolve_cases(),
                         ids=["d1-zeeman-N2", "d3-N1", "d1-shared-shift-N2", "d3-zero-field-N2", "d3-random-N2"])
def test_stacked_nodes_match_per_node_loop(model, pair, packet, grid):
    res, diff, norms = _evolve_against_reference(model, pair, packet, np.array([0.0, 0.7]), grid, 256)
    assert diff <= 1e-12
    assert res.norms == pytest.approx(norms, rel=1e-12)


def _reference_cases():
    """d = 1 and 3, N = 1..3, alpha = 0 and per-site fields, every preset and a random pair."""
    for d, n, field in itertools.product((1, 3), (1, 2, 3), (False, True)):
        positions = [1.3 * k + 0.1 for k in range(n)] if d == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(n)]
        model = ModelSpec(d, positions, [0.3, 0.58, 0.2][:n] if field else [0.0] * n)
        pairs = {"free": preset_free(model), "delta": preset_delta(model, -1.0), "offdiag": preset_offdiag(model, 0.8),
                 "random": random_valid_pair(model, np.random.default_rng(n))}
        if d == 1:
            pairs["delta-prime"] = preset_delta_prime(model, 0.7)
        for name, pair in pairs.items():
            yield pytest.param(model, pair, id=f"d{d}-N{n}-{'field' if field else 'zero'}-{name}")


@pytest.mark.parametrize("model, pair", _reference_cases())
def test_cut_matches_the_per_node_reference(model, pair):
    # no grid node on a site: the d=1 nodes are -8 + k/6, the d=3 ones -4.5 + 9k/7. These grids and 64 nodes are
    # coarse: the delta and random pairs drift by up to 2.0 % of the norm, so the drift bound is 5e-2, not 1e-2
    d = model.dimension
    grid = UniformGrid.linear(-8.0, 8.0, 97) if d == 1 else UniformGrid.cube(-4.5, 4.5, 8)
    packet = GaussianPacket.single(d, model.n_configs, 0, [-2.0] + [0.0] * (d - 1), [1.5] + [0.0] * (d - 1), 1.0)
    res, diff, norms = _evolve_against_reference(model, pair, packet, np.array([0.0, 0.7]), grid, 64, drift_tol=5e-2)
    assert diff <= 1e-12
    assert res.norms == pytest.approx(norms, rel=1e-12)


@pytest.mark.parametrize("positions, pair, drift_tol", [([0.0, 1.5], "delta-prime", 5e-2), ([-7.0], "delta-prime", 1e-2),
                                                        ([-7.0], "offdiag", 1e-2), ([0.0, 7.5], "offdiag", 1e-2)],
                         ids=["on-nodes", "left-of-the-grid", "left-of-the-grid-offdiag", "on-a-node-and-right"])
def test_cut_on_the_d1_ladder_edges(positions, pair, drift_tol):
    # sites on grid nodes keep the dipole layer's 0 there; a site off the grid has one side only. Two delta-prime
    # sites on this 0.25 spacing drift by 1.6 % of the norm, so that case's drift bound is 5e-2
    model = ModelSpec(1, positions, [0.2] * len(positions))
    pair = preset_delta_prime(model, 0.7) if pair == "delta-prime" else preset_offdiag(model, 0.8)
    grid = UniformGrid.linear(-6.0, 6.0, 49)
    assert np.isin(0.0, grid.points) and np.isin(1.5, grid.points)
    packet = GaussianPacket.single(1, model.n_configs, 0, [-1.0], [1.5], 1.0)
    res, diff, norms = _evolve_against_reference(model, pair, packet, np.array([0.0, 0.5]), grid, 128, drift_tol)
    assert diff <= 1e-12
    assert res.norms == pytest.approx(norms, rel=1e-12)


def test_d3_grid_node_on_a_site_raises():
    from spinpoint.dynamics import _cut_correction, _cut_nodes

    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_offdiag(model, 0.3)
    packet = GaussianPacket.single(3, 2, 0, [-2.0, 0.0, 0.0], [1.5, 0.0, 0.0], 1.0)
    grid = UniformGrid.cube(-6.0, 6.0, 13)  # the node (0, 0, 0)
    with pytest.raises(ValueError, match="evaluation point coincides with a spin site"):
        evolve_spectral(model, pair, packet, [0.5], grid, n_nodes=64)
    lam, wts = _cut_nodes(model, 64, 20.0)
    with pytest.raises(ValueError, match="evaluation point coincides with a spin site"):
        _cut_correction(model, pair, packet, np.array([0.5]), grid, lam, wts)


def test_radii_follow_the_largest_wavenumber():
    # a faster packet has a larger kinetic scale, so a larger lam_max and |s|: more Chebyshev radii, same accuracy
    model = ModelSpec(3, [np.zeros(3), np.array([1.1, 0.3, 0.0])], [0.3, 0.58])
    pair = preset_offdiag(model, 0.8)
    grid = UniformGrid.cube(-4.5, 4.5, 8)
    radii = []
    for momentum in (1.5, 4.0):
        packet = GaussianPacket.single(3, 4, 0, [-2.0, 0.0, 0.0], [momentum, 0.0, 0.0], 1.0)
        res, diff, norms = _evolve_against_reference(model, pair, packet, np.array([0.3]), grid, 64)
        assert diff <= 1e-12
        assert res.norms == pytest.approx(norms, rel=1e-12)
        radii.append(res.params["n_radii"])
    assert radii[1] > radii[0] > 1


def test_d1_radii_are_the_grid_ladder():
    model = ModelSpec(1, [0.0, 1.5], [0.3, 0.58])
    grid = UniformGrid.linear(-6.0, 6.0, 49)  # the longest side: 30 nodes left of 1.5
    packet = GaussianPacket.single(1, 4, 0, [-1.0], [1.5], 1.0)
    res = evolve_spectral(model, preset_offdiag(model, 0.8), packet, [0.2], grid, n_nodes=64, drift_tol=np.inf)
    assert res.params["n_radii"] == 30
    assert evolve_spectral(model, preset_free(model), packet, [0.2], grid, n_nodes=64).params["n_radii"] == 0


def test_stacked_nodes_with_a_partial_last_chunk(monkeypatch):
    from spinpoint import dynamics

    model, pair, packet, grid = next(_evolve_cases())
    # per lam: one wave table row; per dressed node: four r x r matrices per charged block
    n_radii = dynamics._ladder(model, grid)[1]
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 37 * n_radii)  # 37 lam per wave chunk
    charged = sum(g.index.size * g.index.shape[1] for g in pair.frame(model).charged)
    stack = 37 * n_radii // (4 * charged)  # lam per dressing stack
    res, diff, norms = _evolve_against_reference(model, pair, packet, np.array([0.4]), grid, 96)
    n = res.params["n_nodes"]
    assert stack not in (1, 37) and n % 37 != 0 and n % stack != 0 and n > 37
    assert diff <= 1e-12


def test_cut_dresses_each_node_once(monkeypatch):
    # lam - i ETA takes the adjoint of lam + i ETA's dressing: one dressed node per lam, not two
    from spinpoint import dynamics, krein

    model, pair, packet, grid = next(_evolve_cases())
    dressed = []
    inner = krein.invert_dressed

    def counted(stacks, rhs, z=None, inert=()):
        dressed.append(np.size(z))
        return inner(stacks, rhs, z, inert)

    monkeypatch.setattr(krein, "invert_dressed", counted)
    lam, wts = dynamics._cut_nodes(model, 256, spectral_defaults(model, packet)["lam_max"])
    dynamics._cut_correction(model, pair, packet, np.array([0.4]), grid, lam, wts)
    assert sum(dressed) == lam.size and len(dressed) > 1


@pytest.mark.parametrize("times", [[], [[0.1, 0.2]], [0.3, float("nan")], [float("inf")], ["soon"], np.zeros((0, 2))],
                         ids=["empty", "2-d", "nan", "inf", "text", "empty-2-d"])
def test_spectral_checks_its_times_first(monkeypatch, times):
    from spinpoint import dynamics

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the times were checked")

    monkeypatch.setattr(dynamics, "spectral_defaults", no_work)
    monkeypatch.setattr(dynamics, "free_evolve", no_work)
    grid = UniformGrid.linear(-10.0, 10.0, 80)
    with pytest.raises(ValueError, match="times"):
        evolve_spectral(model_d1(), preset_free(model_d1()), packet_d1(), times, grid, n_nodes=16)


def test_spectral_checks_the_pair_first(monkeypatch):
    # unequal spin-flip strengths make the pair inadmissible: rejected before the packet is sampled or evolved
    from spinpoint import dynamics
    from spinpoint.boundary import ValidationError

    calls = []
    inner = dynamics.free_evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "free_evolve", counted)
    model = model_d1()
    pair = preset_offdiag(model, [[0.8, 0.3]])
    assert not pair.validation().is_valid
    with pytest.raises(ValidationError):
        evolve_spectral(model, pair, packet_d1(), [0.0, 0.5], UniformGrid.linear(-10.0, 10.0, 80), n_nodes=16)
    assert calls == []


@pytest.mark.parametrize("n_nodes", [64, 2048])
def test_cut_node_weights_sum_to_each_panel_width(n_nodes):
    """Each panel's mapped Gauss-Legendre weights integrate 1 to the panel's width."""
    from spinpoint.dynamics import _cut_nodes

    model = ModelSpec(1, [0.0, 1.5], [0.3, 0.58])
    lam_max = 6.0
    lam, wts = _cut_nodes(model, n_nodes, lam_max)
    edges = np.append(np.unique(model.shifts()), lam_max)
    assert np.all((lam > edges[0]) & (lam < lam_max)) and np.all(wts > 0.0)
    for a, b in zip(edges[:-1], edges[1:]):
        inside = (lam > a) & (lam < b)
        assert np.count_nonzero(inside) >= 8
        assert np.sum(wts[inside]) == pytest.approx(b - a, rel=1e-13)
