"""Channel matrix, kernel evaluation, state application, boundary data.

The generic machinery is checked against the independent closed forms
in reference_kernels and against brute-force quadrature.
"""

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint.boundary import (
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
)
from spinpoint.greens import green, green_derivative_1d, green_overlap
from spinpoint.krein import (
    NearPoleError,
    apply_resolvent,
    boundary_data_from_evaluator,
    defect_matrix,
    extract_boundary_data,
    gamma_dressed,
    gamma_free,
    kernel_evaluator,
    resolvent_kernel,
    resolvent_state_evaluator,
    verify_boundary_conditions,
)
from spinpoint.spins import ModelSpec, channel_tables
from spinpoint.states import GaussianPacket, UniformGrid


def model_d1(n=1, alpha=None):
    positions = np.linspace(0.0, 1.3 * (n - 1), n) if n > 1 else [0.0]
    return ModelSpec(1, positions, alpha if alpha is not None else 0.4 * np.arange(1, n + 1))


def model_d3(n=1, alpha=None):
    positions = [np.array([1.1 * k, 0.2 * k, 0.0]) for k in range(n)]
    return ModelSpec(3, positions, alpha if alpha is not None else 0.4 * np.arange(1, n + 1))


# ---------------------------------------------------------------------------
# Gamma(z)


def test_gamma_free_frozen_d1():
    model = ModelSpec(1, [0.0], [0.0])
    g = gamma_free(model, -1.0 + 0j)
    assert np.allclose(np.diag(g), [-0.5, -0.5, 0.5, 0.5])
    assert np.allclose(g, np.diag(np.diag(g)))


def test_gamma_free_frozen_d3():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    g = gamma_free(model, -1.0 + 0j)
    assert g.shape == (2, 2)
    assert np.allclose(np.diag(g), 1.0 / (4 * np.pi))
    assert np.all(np.diag(g).imag == 0.0)  # exactly real below the threshold


def test_gamma_free_offsite_entries_d3():
    model = model_d3(2, alpha=[0.0, 0.0])
    z = -2.0 + 0.5j
    g = gamma_free(model, z)
    dist = np.linalg.norm(model.positions[0] - model.positions[1])
    expect = -green(3, z, dist)
    # sites j=1, j=2 in the same configuration code 0
    assert g[0, 4] == pytest.approx(expect, rel=1e-14)
    assert g[4, 0] == pytest.approx(expect, rel=1e-14)


def test_gamma_block_structure_d1():
    model = model_d1(2)
    z = -1.5 + 0.8j
    g = gamma_free(model, z)
    n, ncfg = 2, 4
    y = model.positions
    shifts = model.shifts()
    from spinpoint.greens import sqrt_upper

    for code in range(ncfg):
        w = z - shifts[code]
        i0 = 0 * n * ncfg + 0 * ncfg + code  # p=0, j=1
        i1 = 0 * n * ncfg + 1 * ncfg + code  # p=0, j=2
        d0 = 1 * n * ncfg + 0 * ncfg + code  # p=1, j=1
        assert g[i0, i1] == pytest.approx(-green(1, w, y[0] - y[1]), rel=1e-13)
        assert g[d0, d0] == pytest.approx(-w * green(1, w, 0.0), rel=1e-13)
        assert g[d0, i1] == pytest.approx(green_derivative_1d(w, y[0] - y[1]), rel=1e-13)
        assert g[i0, d0] == 0.0  # derivative defect averages to zero on-site


def test_gamma_adjoint_identity():
    rng = np.random.default_rng(5)
    for model in (model_d1(2), model_d3(2), model_d1(6), model_d3(6)):
        _, _, code = channel_tables(model)
        other_code = code[:, None] != code[None, :]
        for _ in range(5):
            z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 3))
            g = gamma_free(model, z)
            gbar = gamma_free(model, np.conj(z))
            assert np.max(np.abs(gbar - g.conj().T)) < 1e-13
            assert not np.any(g[other_code])


def test_gamma_blocks_match_full_matrix():
    # index stacks mixing spin codes, in any order, read the full matrix
    rng = np.random.default_rng(8)
    for model in (model_d1(1), model_d3(2), model_d1(3), model_d3(4)):
        m = model.defect_dim
        for z in (complex(rng.uniform(-3, 2), rng.uniform(0.1, 2)), np.min(model.shifts()) - 1.5):
            full = gamma_free(model, z)
            for k in (1, 2, m // 2):
                index = np.stack([rng.permutation(m)[:k] for _ in range(3)])
                assert np.array_equal(gamma_free(model, z, index),
                                      full[index[:, :, None], index[:, None, :]])


def overlap_closed_form(model, w, z, mu, nu):
    """(w integral side, z side) defect-overlap via resolvent-difference forms."""
    from spinpoint.spins import channel_tables

    p, j, code = channel_tables(model)
    if code[mu] != code[nu]:
        return 0.0j
    shift = model.shifts()[code[mu]]
    a, b = w - shift, z - shift
    if model.dimension == 3:
        diff = model.positions[j[mu] - 1] - model.positions[j[nu] - 1]
        return green_overlap(3, a, b, diff)
    diff = model.positions[j[nu] - 1] - model.positions[j[mu] - 1]
    if p[mu] == 0 and p[nu] == 0:
        return green_overlap(1, a, b, diff)
    if p[mu] == 1 and p[nu] == 1:
        # int G'_a G'_b = (a G_a - b G_b)/(a - b) at the site offset
        return (a * green(1, a, diff) - b * green(1, b, diff)) / (a - b)
    if diff == 0.0:
        return 0.0j  # odd integrand
    # int G'_a(x-u) G_b(x-v) dx = (G'_a - G'_b)(v-u)/(a-b), the derivative
    # argument pointing from its own site to the other one
    val = (green_derivative_1d(a, diff) - green_derivative_1d(b, diff)) / (a - b)
    return val if p[mu] == 1 else -val


def test_gamma_difference_identity_closed_form():
    rng = np.random.default_rng(17)
    for model in (model_d1(1), model_d1(2), model_d3(2), model_d3(3)):
        m = model.defect_dim
        for _ in range(10):
            z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 4))
            w = complex(rng.uniform(-3, 2), -rng.uniform(0.1, 4))
            gz = gamma_free(model, z)
            gw = gamma_free(model, w)
            target = gz - gw
            for mu in range(m):
                for nu in range(m):
                    ov = overlap_closed_form(model, w, z, mu, nu)
                    assert abs(target[mu, nu] - (w - z) * ov) <= 1e-12 * max(1.0, abs(ov)), (
                        model.dimension, mu, nu)


def test_gamma_difference_cross_parity_quadrature():
    # d=1 cross-parity entries against direct numerical integration
    model = model_d1(2, alpha=[0.3, 0.7])
    rng = np.random.default_rng(23)
    sites = list(model.positions)
    from spinpoint.spins import channel_tables

    p, j, code = channel_tables(model)
    for _ in range(3):
        z = complex(rng.uniform(-2, 0), rng.uniform(0.4, 2))
        w = complex(rng.uniform(-2, 0), rng.uniform(0.4, 2)) - 0.1j
        gz = gamma_free(model, z)
        gw = gamma_free(model, w)
        cross = [(mu, nu) for mu in range(16) for nu in range(16)
                 if code[mu] == code[nu] and p[mu] != p[nu]]
        for mu, nu in cross[:8]:
            def integrand(t):
                return (defect_matrix(model, w, [t])[mu, 0]
                        * defect_matrix(model, z, [t])[nu, 0])

            ov = ref.quad_complex(integrand, -45.0, 45.0, points=sites, limit=400)
            assert abs((gz - gw)[mu, nu] - (w - z) * ov) <= 1e-6


# ---------------------------------------------------------------------------
# kernel vs closed forms


def test_kernel_free_reduction():
    rng = np.random.default_rng(2)
    for d in (1, 3):
        for n in (1, 2, 3):
            model = model_d1(n) if d == 1 else model_d3(n)
            pair = preset_free(model)
            for _ in range(5):
                z = complex(rng.uniform(-2, 1), rng.uniform(0.2, 3))
                if d == 1:
                    x, xp = rng.normal(size=2) * 2.0
                else:
                    x, xp = rng.normal(size=3), rng.normal(size=3)
                for code in range(model.n_configs):
                    val = resolvent_kernel(model, pair, z, x, code, xp, code)
                    wshift = z - model.shifts()[code]
                    expect = green(d, wshift, x - xp, allow_cut=True)
                    assert val == expect  # exact: the correction is identically zero
                other = (code + 1) % model.n_configs
                assert resolvent_kernel(model, pair, z, x, other, xp, code) == 0.0


def test_kernel_matches_delta_closed_form_3d():
    rng = np.random.default_rng(4)
    y = np.zeros(3)
    for alpha in (0.0, 0.7):
        model = ModelSpec(3, [y], [alpha])
        for bp in (-1.0, 0.3):
            for bm in (-1.0, 0.3):
                pair = preset_delta(model, [[bp, bm]])
                for _ in range(6):
                    z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 5))
                    x, xp = rng.normal(size=3), rng.normal(size=3)
                    for c in (0, 1):
                        for cp in (0, 1):
                            val = resolvent_kernel(model, pair, z, x, c, xp, cp)
                            oracle = ref.delta_kernel_3d(z, alpha, bp, bm, x, c, xp, cp, y)
                            assert val == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_kernel_matches_offdiag_closed_form_3d():
    rng = np.random.default_rng(9)
    y = np.zeros(3)
    for alpha in (0.0, 0.7):
        model = ModelSpec(3, [y], [alpha])
        for bp, bm in [(1.0, 1.0), (0.8, 0.5), (-1.0, 0.3)]:
            pair = preset_offdiag(model, [[bp, bm]])
            unchecked = bp != bm
            for _ in range(6):
                z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 5))
                x, xp = rng.normal(size=3), rng.normal(size=3)
                for c in (0, 1):
                    for cp in (0, 1):
                        val = resolvent_kernel(model, pair, z, x, c, xp, cp,
                                               unchecked=unchecked)
                        oracle = ref.offdiag_kernel_3d(z, alpha, bp, bm, x, c, xp, cp, y)
                        assert val == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_printed_sign_variant_disagrees():
    # the flipped-sign denominator is measurably different on the
    # cross-channel entry, where the correction is the whole kernel
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    bhat = 0.25
    pair = preset_offdiag(model, bhat)
    z = -8.0 + 0.5j
    x, xp = np.array([0.4, 0.1, -0.2]), np.array([-0.3, 0.5, 0.2])
    val = resolvent_kernel(model, pair, z, x, 0, xp, 1)
    flipped = ref.offdiag_kernel_3d(z, 0.0, bhat, bhat, x, 0, xp, 1, np.zeros(3),
                                    printed_sign=True)
    consistent = ref.offdiag_kernel_3d(z, 0.0, bhat, bhat, x, 0, xp, 1, np.zeros(3))
    assert val == pytest.approx(consistent, rel=1e-12)
    assert abs(val - flipped) > 0.5 * abs(val)


def test_kernel_matches_delta_closed_form_1d():
    rng = np.random.default_rng(13)
    model = ModelSpec(1, [0.0], [0.0])
    for beta in (-2.0, 1.1):
        pair = preset_delta(model, beta)
        literal = preset_delta(model, beta, paper_literal=True)
        for _ in range(8):
            z = complex(rng.uniform(-2, 1), rng.uniform(0.1, 4))
            x, xp = rng.normal() * 2.0, rng.normal() * 2.0
            for c in (0, 1):
                val = resolvent_kernel(model, pair, z, x, c, xp, c)
                assert val == pytest.approx(ref.delta_kernel_1d(z, beta, x, xp), rel=1e-12)
                # the literal table doubles the realized coupling
                val2 = resolvent_kernel(model, literal, z, x, c, xp, c)
                assert val2 == pytest.approx(ref.delta_kernel_1d(z, 2 * beta, x, xp), rel=1e-12)
            assert resolvent_kernel(model, pair, z, x, 0, xp, 1) == 0.0


def test_kernel_matches_delta_prime_closed_form_1d():
    rng = np.random.default_rng(29)
    model = ModelSpec(1, [0.0], [0.0])
    for gamma in (-0.8, 1.6):
        pair = preset_delta_prime(model, gamma)
        for _ in range(8):
            z = complex(rng.uniform(-2, 1), rng.uniform(0.1, 4))
            x, xp = rng.normal() * 2.0, rng.normal() * 2.0
            for c in (0, 1):
                val = resolvent_kernel(model, pair, z, x, c, xp, c)
                assert val == pytest.approx(ref.delta_prime_kernel_1d(z, gamma, x, xp),
                                            rel=1e-12)


def test_kernel_conjugate_symmetry_random_pairs():
    rng = np.random.default_rng(31)
    for d, n in [(1, 1), (1, 2), (3, 1), (3, 2)]:
        model = model_d1(n) if d == 1 else model_d3(n)
        for _ in range(3):
            pair = random_valid_pair(model, rng)
            z = complex(rng.uniform(-2, 1), rng.uniform(0.3, 3))
            if d == 1:
                x, xp = rng.normal() * 2.0, rng.normal() * 2.0
            else:
                x, xp = rng.normal(size=3), rng.normal(size=3)
            for c in range(model.n_configs):
                for cp in range(model.n_configs):
                    val = resolvent_kernel(model, pair, z, x, c, xp, cp)
                    mirror = resolvent_kernel(model, pair, np.conj(z), xp, cp, x, c)
                    assert val == pytest.approx(np.conj(mirror), rel=1e-12, abs=1e-15)


def test_kernel_near_pole_raises():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    e_star = ref.delta_bound_energy_3d(-1.0)
    with pytest.raises(NearPoleError) as err:
        resolvent_kernel(model, pair, e_star, np.ones(3), 0, -np.ones(3), 0)
    assert err.value.smallest_singular_value < 1e-10
    # slightly off the pole everything is fine again
    resolvent_kernel(model, pair, e_star + 0.5, np.ones(3), 0, -np.ones(3), 0)


def test_kernel_input_errors():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    with pytest.raises(ValueError):
        resolvent_kernel(model, pair, -1 + 1j, np.zeros(3), 0, np.ones(3), 0)
    bad = preset_offdiag(model, [[1.0, 0.25]])
    with pytest.raises(ValueError):
        resolvent_kernel(model, bad, -1 + 1j, np.ones(3), 0, -np.ones(3), 0)
    # and the escape hatch
    resolvent_kernel(model, bad, -1 + 1j, np.ones(3), 0, -np.ones(3), 0, unchecked=True)


def test_kernel_rejects_configuration_of_wrong_length():
    # one spin: [-1, 1] once read as code 1 and [1, -1] as the
    # out-of-range code 2
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    for sigma in (np.array([-1, 1]), np.array([1, -1])):
        with pytest.raises(ValueError, match="shape"):
            resolvent_kernel(model, pair, -1 + 1j, np.ones(3), sigma, -np.ones(3), 0)
        with pytest.raises(ValueError, match="shape"):
            resolvent_kernel(model, pair, -1 + 1j, np.ones(3), 0, -np.ones(3), sigma)
    assert resolvent_kernel(model, pair, -1 + 1j, np.ones(3), np.array([-1]), -np.ones(3), 1) \
        == resolvent_kernel(model, pair, -1 + 1j, np.ones(3), 1, -np.ones(3), 1)


# ---------------------------------------------------------------------------
# boundary data round trip


def test_boundary_data_of_single_defect_function_d3():
    # psi = G^{z-shift}(x - y) in channel 0 has unit charge and
    # regular part i s/(4 pi) at its own site
    model = ModelSpec(3, [np.zeros(3)], [0.25])
    z = -2.0 + 0.0j
    from spinpoint.greens import sqrt_upper

    w = z - 0.25
    s = sqrt_upper(w)

    def evaluate(x, code):
        if code != 0:
            return 0.0j
        return green(3, w, np.asarray(x), allow_cut=True)

    q, f = extract_boundary_data(model, evaluate, j=1, sigma=0)
    assert q == pytest.approx(1.0, rel=1e-7)
    assert f == pytest.approx(1j * s / (4 * np.pi), rel=1e-6, abs=1e-9)


def test_boundary_data_of_plain_delta_kernel_1d():
    # closed-form one-center kernel: known jump data at the site
    z = -1.2 + 0.6j
    beta = -1.7
    xp = 0.83

    def psi(x):
        return ref.delta_kernel_1d(z, beta, x, xp)

    model = ModelSpec(1, [0.0], [0.0])
    q, f = extract_boundary_data(model, lambda x, code: psi(x) if code == 0 else 0.0j,
                                 j=1, sigma=0)
    # q = (-[psi'], -[psi]), f = (mean psi, -mean psi')
    h = 1e-7
    jump_d = ((psi(2 * h) - psi(h)) - (psi(-h) - psi(-2 * h))) / h
    mean_v = (psi(h) + psi(-h)) / 2.0
    assert q[0] == pytest.approx(-jump_d, rel=1e-4)
    assert q[1] == pytest.approx(0.0, abs=1e-8)
    assert f[0] == pytest.approx(mean_v, rel=1e-6)


def test_verify_boundary_conditions_on_presets():
    rng = np.random.default_rng(41)
    cases = []
    m1 = ModelSpec(1, [0.0, 1.4], [0.2, 0.5])
    cases.append((m1, preset_delta(m1, [-1.0, 0.8])))
    cases.append((m1, preset_delta_prime(m1, [-0.6, 1.2])))
    cases.append((m1, preset_offdiag(m1, 0.9)))
    m3 = ModelSpec(3, [np.zeros(3), np.array([1.2, 0.1, 0.0])], [0.2, 0.5])
    cases.append((m3, preset_delta(m3, -1.0)))
    cases.append((m3, preset_offdiag(m3, 1.1)))
    for model, pair in cases:
        z = complex(rng.uniform(-2, 0), rng.uniform(0.5, 2))
        xp = rng.normal() * 1.7 if model.dimension == 1 else rng.normal(size=3) * 1.3
        evaluate = kernel_evaluator(model, pair, z, xp, 0)
        q, f = boundary_data_from_evaluator(model, evaluate, avoid=[xp])
        resid = verify_boundary_conditions(pair, q, f)
        assert resid <= 1e-6, (model.dimension, type(pair))


def test_verify_boundary_conditions_random_pairs():
    rng = np.random.default_rng(43)
    for d in (1, 3):
        model = (ModelSpec(1, [0.0, 1.1], [0.3, 0.6]) if d == 1
                 else ModelSpec(3, [np.zeros(3), np.array([1.0, 0.3, -0.2])], [0.3, 0.6]))
        for _ in range(3):
            pair = random_valid_pair(model, rng)
            z = complex(rng.uniform(-2, 0), rng.uniform(0.5, 2))
            xp = rng.normal() * 1.5 if d == 1 else rng.normal(size=3)
            code = int(rng.integers(0, model.n_configs))
            evaluate = kernel_evaluator(model, pair, z, xp, code)
            q, f = boundary_data_from_evaluator(model, evaluate, avoid=[xp])
            assert verify_boundary_conditions(pair, q, f) <= 1e-5


def test_flipped_sign_closed_form_fails_boundary_conditions():
    # the det-consistent form passes, the flipped variant does not;
    # parameters make the two denominators differ at order one
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    bhat = 0.25
    pair = preset_offdiag(model, bhat)
    z = -8.0 + 0.5j
    xp = np.array([0.7, -0.2, 0.4])

    def make_eval(printed):
        def evaluate(x, code):
            return ref.offdiag_kernel_3d(z, 0.0, bhat, bhat, x, code, xp, 0,
                                         np.zeros(3), printed_sign=printed)
        return evaluate

    q, f = boundary_data_from_evaluator(model, make_eval(False), avoid=[xp])
    assert verify_boundary_conditions(pair, q, f) <= 1e-6
    q, f = boundary_data_from_evaluator(model, make_eval(True), avoid=[xp])
    scale = float(np.max(np.abs(q)))
    assert verify_boundary_conditions(pair, q, f) > 0.1 * scale


# ---------------------------------------------------------------------------
# applying the resolvent to states


def test_apply_resolvent_gaussian_matches_pointwise():
    model = ModelSpec(1, [0.0], [0.3])
    pair = preset_delta(model, -1.5)
    z = -1.0 + 0.7j
    packet = GaussianPacket.single(1, 2, 0, center=0.8, momentum=1.0, variance=0.5)
    grid = UniformGrid.linear(-3.0, 3.0, 7)
    out = apply_resolvent(model, pair, z, packet, grid=grid)
    point_eval = resolvent_state_evaluator(model, pair, z, packet)
    for i in (0, 3, 6):
        for code in (0, 1):
            assert out.values[code, i] == pytest.approx(
                point_eval(grid.points[i], code), rel=1e-9)


def test_apply_resolvent_free_matches_quadrature_1d():
    model = ModelSpec(1, [0.0], [0.0])
    pair = preset_free(model)
    z = -1.3 + 0.9j
    packet = GaussianPacket.single(1, 2, 0, center=-0.4, momentum=2.0, variance=0.6)
    grid = UniformGrid.linear(-10.0, 10.0, 1001)
    state = packet.sample(grid)
    out = apply_resolvent(model, pair, z, state)
    for i in (380, 500, 640):
        x = grid.points[i]
        oracle = ref.overlap_green_1d(
            z, lambda t: packet.evaluate(0, np.array([t]))[0], x, -25.0, 25.0)
        assert out.values[0, i] == pytest.approx(oracle, rel=1e-6)
    assert np.max(np.abs(out.values[1])) == 0.0


def test_apply_resolvent_grid_matches_gaussian_path_1d():
    model = ModelSpec(1, [0.0], [0.3])
    pair = preset_delta(model, -1.5)
    z = -1.0 + 0.7j
    packet = GaussianPacket.single(1, 2, 0, center=0.8, momentum=1.0, variance=0.5)
    grid = UniformGrid.linear(-14.0, 14.0, 1401)
    via_gaussian = apply_resolvent(model, pair, z, packet, grid=grid)
    via_grid = apply_resolvent(model, pair, z, packet.sample(grid))
    err = np.max(np.abs(via_gaussian.values - via_grid.values))
    assert err <= 1e-6


def test_apply_resolvent_gaussian_matches_quadrature_3d():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    z = -1.5 + 1.0j
    packet = GaussianPacket.single(
        3, 2, 0, center=np.array([0.6, 0.0, -0.3]), momentum=np.array([1.0, -0.5, 0.0]),
        variance=0.4)
    point_eval = resolvent_state_evaluator(model, pair, z, packet)
    x = np.array([0.5, 0.4, 0.3])
    # oracle: free overlap + defect coefficients from quadrature overlaps
    free_part = ref.overlap_green_3d(
        z, lambda pts: packet.evaluate(0, pts), x,
        rmax=float(np.linalg.norm(x - packet.components[0][0].center)) + 12.0)
    from spinpoint.krein import _dress

    dress = _dress(model, pair, z)
    proj = [ref.overlap_green_3d(z, lambda pts: packet.evaluate(0, pts), np.zeros(3),
                                 rmax=12.0), 0.0j]
    weights = dress.correction @ np.array(proj)
    phi = defect_matrix(model, z, [x])[:, 0]
    oracle = free_part + phi[0] * weights[0]
    assert point_eval(x, 0) == pytest.approx(oracle, rel=1e-8)
    # flipped channel stays empty for the diagonal pair
    assert abs(point_eval(x, 1)) == 0.0


def test_apply_resolvent_grid_3d_coarse():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_free(model)
    z = -2.0 + 1.5j
    packet = GaussianPacket.single(3, 2, 0, center=np.zeros(3),
                                   momentum=np.zeros(3), variance=0.3)
    grid = UniformGrid.cube(-4.0, 4.0, 16)  # even count keeps nodes off the site
    out = apply_resolvent(model, pair, z, packet.sample(grid))
    point_eval = resolvent_state_evaluator(model, pair, z, packet)
    x = grid.points[grid.n_points // 2 + 3]
    assert out.values[0, grid.n_points // 2 + 3] == pytest.approx(
        point_eval(x, 0), rel=0.05)


def test_defect_matrix_site_rejection_d3():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    with pytest.raises(ValueError):
        defect_matrix(model, -1.0 + 0.5j, [np.zeros(3)])


# ---------------------------------------------------------------------------
# block-structured dressing


def _dressing_cases():
    rng = np.random.default_rng(21)
    for d, make in ((1, model_d1), (3, model_d3)):
        for n in (1, 2, 3, 4):
            model = make(n)
            diagonal = [preset_free(model), preset_delta(model, rng.normal(size=(n, 2)))]
            if d == 1:
                diagonal.append(preset_delta_prime(model, rng.normal(size=n)))
            for pair in diagonal:
                yield model, pair, model.n_configs
            yield model, preset_offdiag(model, rng.normal(size=n)), 1
            yield model, random_valid_pair(model, rng), 1
        model = make(6)
        yield model, preset_delta(model, rng.normal(size=(6, 2))), 64


def test_dress_matches_dense_reference():
    from spinpoint.krein import _dress

    z = -1.3 + 0.7j
    for model, pair, n_blocks in _dressing_cases():
        dress = _dress(model, pair, z)
        assert sum(g.index.shape[0] for g in pair.blocks()) == n_blocks
        dressed = pair.B @ gamma_free(model, z) + pair.A
        ref = np.linalg.solve(dressed, pair.B)
        err = np.max(np.abs(dress.correction - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), (model.dimension, model.n_spins)
        sv = np.linalg.svd(dressed, compute_uv=False)
        assert dress.condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)


def test_near_pole_in_one_block_of_several():
    # 3D one-site delta: the sigma = +1 channel (code 0) is singular where
    # kappa / (4 pi) + beta_plus = 0, kappa = sqrt(alpha - E); sigma = -1 is not
    alpha, beta_plus, beta_minus = 0.3, -0.5, -0.2
    model = ModelSpec(3, [np.zeros(3)], [alpha])
    pair = preset_delta(model, [[beta_plus, beta_minus]])
    assert len(pair.blocks()) == 1 and pair.blocks()[0].index.shape == (2, 1)
    energy = alpha + ref.delta_bound_energy_3d(beta_plus)
    x, xp = np.array([0.4, 0.1, -0.2]), np.array([-0.3, 0.5, 0.2])
    with pytest.raises(NearPoleError) as info:
        resolvent_kernel(model, pair, energy, x, 1, xp, 1)
    assert info.value.smallest_singular_value < 1e-10
    near = resolvent_kernel(model, pair, energy + 1e-6, x, 1, xp, 1)
    assert np.isfinite(near)
    # the code-1 channel has no pole here: its kernel is the one-channel closed form
    want = ref.delta_kernel_3d(energy + 1e-6, alpha, beta_plus, beta_minus, x, 1, xp, 1, np.zeros(3))
    assert near == pytest.approx(want, rel=1e-10)
