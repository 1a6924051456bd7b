"""Channel matrix, kernel evaluation, state application, boundary data.

The generic machinery is checked against the independent closed forms
in reference_kernels and against brute-force quadrature.
"""

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint.boundary import (
    BoundaryPair,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
)
from spinpoint.dynamics import free_evolve
from spinpoint.greens import green, sqrt_upper
from spinpoint.krein import (
    NearPoleError,
    apply_resolvent,
    boundary_data_from_evaluator,
    defect_matrix,
    extract_boundary_data,
    gamma_dressed,
    gamma_free,
    gamma_gram,
    kernel_evaluator,
    resolvent_kernel,
    resolvent_state_evaluator,
    verify_boundary_conditions,
)
from spinpoint.spins import ModelSpec, channel_tables
from spinpoint.states import GaussianComponent, GaussianPacket, GridState, UniformGrid


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
        assert g[d0, i1] == pytest.approx(ref.green_derivative_1d(w, y[0] - y[1]), rel=1e-13)
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


@pytest.mark.parametrize("model", [model_d1(2, alpha=[0.0, 0.0]), model_d1(2), model_d3(2, alpha=[0.0, 0.0]),
                                   model_d3(2)], ids=["d1", "d1-zeeman", "d3", "d3-zeeman"])
def test_free_parts_mirror_across_the_cut(model):
    # Gamma(conj z) = conj Gamma(z) and Phi^{conj z} = conj Phi^z hold entry by entry and
    # exactly, since sqrt_upper(conj w) = -conj sqrt_upper(w): the cut integral forms
    # Gamma and the site waves of lam - i ETA as conjugates of those of lam + i ETA
    levels = model.distinct_shifts()[0]
    real = [levels[0] - 0.7, levels[-1] + 0.9, levels[-1] + 37.0]
    if levels.size > 1:
        real.append((levels[0] + levels[1]) / 2.0)  # above one threshold, below another
    z = np.array([complex(x, sign * y) for x in real for y in (1e-12, 0.5) for sign in (1.0, -1.0)])
    points = np.array([-0.7, 0.35, 2.4]) if model.dimension == 1 else np.array([[0.3, -0.4, 0.2], [1.5, 0.9, -0.6]])
    assert np.array_equal(gamma_free(model, z.conj()), gamma_free(model, z).conj())
    assert np.array_equal(defect_matrix(model, z.conj(), points), defect_matrix(model, z, points).conj())
    for w in z:
        assert np.array_equal(gamma_free(model, np.conj(w)), gamma_free(model, w).conj())


def _mirror_cases():
    rng = np.random.default_rng(11)
    for d, make in ((1, model_d1), (3, model_d3)):
        for n in (1, 2, 3):
            for field in (False, True):
                model = make(n, alpha=None if field else np.zeros(n))
                pairs = {"free": preset_free(model), "delta": preset_delta(model, rng.normal(size=(n, 2))),
                         "offdiag": preset_offdiag(model, rng.normal(size=n)),
                         "random": random_valid_pair(model, rng)}
                if d == 1:
                    pairs["delta-prime"] = preset_delta_prime(model, rng.normal(size=n))
                for name, pair in pairs.items():
                    yield pytest.param(model, pair, id=f"d{d}-N{n}-{'field' if field else 'zero'}-{name}")


@pytest.mark.parametrize("model, pair", _mirror_cases())
def test_correction_mirrors_across_the_cut(model, pair):
    # an admissible pair has C(conj z) = C(z)*, which lets the cut integral dress only lam + i ETA
    from spinpoint.krein import _dress

    levels = model.distinct_shifts()[0]
    real = np.array([levels[0] + 0.35, levels[-1] + 0.9, levels[-1] + 37.0])
    z = np.concatenate([real + 1e-12j, real - 1e-12j, [-1.3 + 0.7j, 0.4 - 0.9j, levels[-1] + 2.0 + 1.1j]])
    upper = ref.dressing_correction(_dress(model, pair, z))
    lower = ref.dressing_correction(_dress(model, pair, z.conj()))
    assert np.max(np.abs(lower - upper.conj().swapaxes(-1, -2))) <= 1e-12 * np.max(np.abs(upper))


def test_gamma_blocks_match_full_matrix():
    # index stacks mixing spin codes, in any order, read the full matrix, for Gamma and -Gamma'
    from spinpoint.krein import _gamma_plan

    rng = np.random.default_rng(8)
    for model in (model_d1(1), model_d3(2), model_d1(3), model_d3(4)):
        m = model.defect_dim
        for z in (complex(rng.uniform(-3, 2), rng.uniform(0.1, 2)), np.min(model.shifts()) - 1.5):
            full = [gamma_free(model, z), gamma_gram(model, z)]
            for k in (1, 2, m // 2):
                index = np.stack([rng.permutation(m)[:k] for _ in range(3)])
                for gram, whole in zip((False, True), full):
                    assert np.array_equal(_gamma_plan(model, index)(z, gram=gram)[-1],
                                          whole[index[:, :, None], index[:, None, :]])


@pytest.mark.parametrize("model", [model_d1(2, alpha=[0.0, 0.0]), model_d1(3), model_d3(2, alpha=[0.0, 0.0]),
                                   model_d3(3)], ids=["d1", "d1-zeeman", "d3", "d3-zeeman"])
def test_gamma_plan_reads_the_public_matrices(model):
    # a plan's blocks, all of them or a selection, at one z or on a node array, are exactly the
    # blocks of gamma_free and gamma_gram; one gram evaluation gives both from the same waves
    from spinpoint.krein import _gamma_plan

    rng = np.random.default_rng(21)
    m = model.defect_dim
    stacks = [preset_offdiag(model, 0.8).frame(model).pair.blocks()[0].index,  # the blocks of a spin frame
              np.stack([rng.permutation(m)[:5] for _ in range(3)])]  # blocks mixing spin codes
    mu = np.min(model.shifts())
    for z in (complex(mu - 0.9), complex(0.4, 0.7), np.array([mu - 2.0, 0.3 + 1e-12j, -1.0 - 0.5j])):
        whole = [gamma_free(model, z), gamma_gram(model, z)]
        for index in stacks:
            plan = _gamma_plan(model, index)
            for sel in (None, [len(index) - 1, 0]):
                rows = index if sel is None else index[sel]
                blocks = [part[..., rows[:, :, None], rows[:, None, :]] for part in whole]
                gamma, gram = plan(z, sel, gram=True)
                assert np.array_equal(plan(z, sel)[0], blocks[0])
                assert np.array_equal(gamma, blocks[0]) and np.array_equal(gram, blocks[1])
                assert np.array_equal(gamma, _gamma_plan(model, rows)(z)[0])
                assert np.array_equal(gram, _gamma_plan(model, rows)(z, gram=True)[1])


@pytest.mark.parametrize("model", [model_d1(2, alpha=[0.0, 0.0]), model_d1(3), model_d3(2, alpha=[0.0, 0.0]),
                                   model_d3(3)], ids=["d1", "d1-zeeman", "d3", "d3-zeeman"])
def test_real_plan_below_the_lowest_level(model):
    # real E below every Zeeman level: float64 Gamma and Gram, scalar and 1-D E, sel and paired, those of the
    # complex evaluation at the same E to a few ulps of each block's largest entry
    from spinpoint.krein import _gamma_plan

    rng = np.random.default_rng(23)
    m = model.defect_dim
    index = np.stack([rng.permutation(m)[:5] for _ in range(4)])  # blocks mixing spin codes
    plan, mu = _gamma_plan(model, index), np.min(model.shifts())
    bound = 4.0 * np.finfo(float).eps
    calls = [((mu - 0.9,), {}), ((mu - 0.9, [3, 0]), {}), ((np.array([mu - 40.0, mu - 1e-6, mu - 2.0]),), {}),
             ((np.array([mu - 40.0, mu - 2.0]), [3, 0]), {}),
             ((np.array([mu - 3.0, mu - 0.5]), np.array([1, 2])), {"paired": True})]
    for args, kwargs in calls:
        for gram in (False, True):
            real = plan(*args, gram=gram, **kwargs)
            full = plan(np.asarray(args[0], dtype=complex), *args[1:], gram=gram, **kwargs)
            assert real.dtype == np.float64 and full.dtype == np.complex128 and real.shape == full.shape
            assert np.all(np.abs(real - full) <= bound * np.max(np.abs(full), axis=(-1, -2), keepdims=True))
    # the Gram is -dGamma/dE of the real plan itself: its sign decides every Newton step
    e, h = mu - np.array([0.3, 2.0, 15.0]), 1e-5
    gram = plan(e, gram=True)[1]
    slope = (plan(e + h)[0] - plan(e - h)[0]) / (2.0 * h)
    assert np.allclose(-slope, gram, rtol=1e-6, atol=1e-9 * np.max(np.abs(gram)))


@pytest.mark.parametrize("dimension", [1, 3])
def test_plan_keeps_the_complex_path_off_the_real_axis_below_threshold(dimension):
    # complex z, and real z at or above the lowest level, give complex128 as before, and real z on the
    # cut of the lowest level raises as a complex one does
    from spinpoint.krein import _gamma_plan

    model = (model_d1 if dimension == 1 else model_d3)(2)
    plan, mu = _gamma_plan(model, np.arange(model.defect_dim)[None]), np.min(model.shifts())
    assert plan(complex(mu - 0.9))[0].dtype == np.complex128
    assert plan(np.array([mu - 1.0 + 0.5j, mu - 2.0]))[0].dtype == np.complex128
    for z in (mu, mu + 0.3, np.array([mu - 1.0, mu + 0.5])):
        with pytest.raises(ValueError, match="lies on"):
            plan(z)
        with pytest.raises(ValueError, match="lies on"):
            plan(np.asarray(z, dtype=complex))


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
        return ref.green_overlap(3, a, b, diff)
    diff = model.positions[j[nu] - 1] - model.positions[j[mu] - 1]
    if p[mu] == 0 and p[nu] == 0:
        return ref.green_overlap(1, a, b, diff)
    if p[mu] == 1 and p[nu] == 1:
        # int G'_a G'_b = (a G_a - b G_b)/(a - b) at the site offset
        return (a * green(1, a, diff) - b * green(1, b, diff)) / (a - b)
    if diff == 0.0:
        return 0.0j  # odd integrand
    # int G'_a(x-u) G_b(x-v) dx = (G'_a - G'_b)(v-u)/(a-b), the derivative
    # argument pointing from its own site to the other one
    val = (ref.green_derivative_1d(a, diff) - ref.green_derivative_1d(b, diff)) / (a - b)
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


def test_gamma_gram_matches_product_integrals():
    """-Gamma'(E) below the threshold against integrals of defect-function products.

    d=3: the one- and two-centre product integrals of reference_kernels
    and the single-site closed form 1/(8 pi kappa); d=1: quadrature of
    defect_matrix products for all four layer pairs. Every model has
    channels at different Zeeman shifts.
    """
    one_site = model_d3(1, alpha=[0.35])
    kappa = np.sqrt(one_site.shifts() - (-1.2))
    assert np.allclose(np.diag(gamma_gram(one_site, -1.2)), 1.0 / (8.0 * np.pi * kappa), rtol=1e-14, atol=0.0)
    for model in (model_d3(1, alpha=[0.35]), model_d3(2, alpha=[0.3, 0.7]),
                  model_d1(1, alpha=[0.35]), model_d1(2, alpha=[0.3, 0.7])):
        energy = float(np.min(model.shifts())) - 0.8
        gram = gamma_gram(model, energy)
        p, j, code = channel_tables(model)
        shifts = model.shifts()
        oracle = np.zeros_like(gram)
        for mu in range(model.defect_dim):
            for nu in range(model.defect_dim):
                if code[mu] != code[nu]:
                    continue
                w = energy - shifts[code[mu]]
                if model.dimension == 3:
                    ya, yb = model.positions[j[mu] - 1], model.positions[j[nu] - 1]
                    oracle[mu, nu] = (ref.one_center_product_integral_3d(w, w, n=400) if j[mu] == j[nu]
                                      else ref.two_center_product_integral_3d(w, w, ya, yb))
                    continue

                def integrand(t, mu=mu, nu=nu):
                    phi = defect_matrix(model, energy, [t])[:, 0]
                    return phi[mu] * phi[nu]

                oracle[mu, nu] = ref.quad_complex(integrand, -40.0, 40.0, points=list(model.positions),
                                                  limit=400, epsabs=1e-13, epsrel=1e-12)
        assert np.max(np.abs(gram - oracle)) <= 1e-9 * np.max(np.abs(oracle)), (model.dimension, model.n_spins)


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


def test_boundary_data_d3_separates_charge_from_smooth_terms():
    # q0 G^w(x - y) plus a second site's Green function, a constant,
    # linear, quadratic-form and quartic terms and an exponential; the
    # x^4 + y^4 + z^4 term survives the angular average as r^4
    y2 = np.array([1.0, 0.3, -0.2])
    model = ModelSpec(3, [np.zeros(3), y2], [0.25, 0.5])
    w = -1.5 + 0.4j
    s = sqrt_upper(w)
    q0 = 0.7 - 0.3j
    c = 0.4 + 0.2j
    a = np.array([0.3, -1.1, 0.5])
    m = np.array([[0.8, 0.2, -0.4], [0.2, -0.5, 0.3], [-0.4, 0.3, 1.1]])
    k = np.array([2.4, -1.6, 3.6])

    def evaluate(x, code):
        x = np.asarray(x)
        return (q0 * green(3, w, x, allow_cut=True) + green(3, w, x - y2, allow_cut=True)
                + c + a @ x + x @ m @ x + np.sum(x**4) + np.exp(k @ x))

    q, f = extract_boundary_data(model, evaluate, j=1, sigma=0)
    f_exact = q0 * 1j * s / (4 * np.pi) + green(3, w, -y2, allow_cut=True) + c + 1.0
    assert abs(q - q0) <= 1e-7 * abs(q0)
    assert abs(f - f_exact) <= 1e-6 * abs(f_exact)


def test_boundary_data_d1_one_sided_values_and_slopes():
    # smooth on each side of the site, with different one-sided values
    # (1.2 and -0.3 + 0.5i) and slopes (0.5 + 0.1i and 1.6)
    model = ModelSpec(1, [0.0, 1.4], [0.2, 0.5])

    def evaluate(x, code):
        if x > 0:
            return 0.8 * np.exp(-0.5 * x) + 0.4 * np.cos(2.0 * x) + (0.9 + 0.1j) * np.sin(x)
        return (-0.3 + 0.5j) * np.exp(1.1 * x) + 0.6 * x**3 + (1.6 - (-0.3 + 0.5j) * 1.1) * np.sin(x)

    vp, dp = 1.2, 0.5 + 0.1j
    vm, dm = -0.3 + 0.5j, 1.6
    q, f = extract_boundary_data(model, evaluate, j=1, sigma=0)
    q_exact = np.array([dm - dp, vm - vp])
    f_exact = np.array([(vp + vm) / 2.0, -(dp + dm) / 2.0])
    assert np.max(np.abs(q - q_exact)) <= 1e-10 * np.max(np.abs(q_exact))
    assert np.max(np.abs(f - f_exact)) <= 1e-10 * np.max(np.abs(f_exact))


@pytest.mark.parametrize("d, probes", [(1, 16), (3, 48)])
def test_boundary_data_probes_per_site_and_code(d, probes):
    model = model_d1(2) if d == 1 else model_d3(2)
    codes = []

    def evaluate(x, code):
        codes.append(code)
        return 1.0 + 0.0j

    boundary_data_from_evaluator(model, evaluate)
    assert np.bincount(codes).tolist() == [probes * model.n_spins] * model.n_configs


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


@pytest.mark.parametrize("d", [1, 3])
def test_boundary_data_from_evaluator_matches_one_extraction_per_site_and_code(d):
    # one fit for every ladder against extract_boundary_data at each (site, code), scattered as the flat order
    # reads it: a kernel column (with its avoid point) and a Gaussian state, in a field
    model = model_d1(2) if d == 1 else model_d3(2)
    pair = preset_offdiag(model, 0.8)
    z = -1.0 + 0.7j
    xp = 0.55 if d == 1 else np.array([0.5, -0.4, 0.3])
    center, momentum = (0.4, 1.2) if d == 1 else (np.array([0.3, 0.5, -0.2]), np.array([0.9, -0.4, 0.2]))
    packet = GaussianPacket.single(d, model.n_configs, 1, center=center, momentum=momentum, variance=0.5)
    p, j, code = channel_tables(model)
    for evaluate, avoid in ((kernel_evaluator(model, pair, z, xp, 1), [xp]),
                            (resolvent_state_evaluator(model, pair, z, packet), None)):
        q, f = boundary_data_from_evaluator(model, evaluate, avoid=avoid)
        want_q, want_f = np.zeros(model.defect_dim, dtype=complex), np.zeros(model.defect_dim, dtype=complex)
        for site in range(1, model.n_spins + 1):
            for c in range(model.n_configs):
                qd, fd = extract_boundary_data(model, evaluate, site, c, avoid=avoid)
                sel = (j == site) & (code == c)
                want_q[sel], want_f[sel] = np.atleast_1d(qd)[p[sel]], np.atleast_1d(fd)[p[sel]]
        for got, want in ((q, want_q), (f, want_f)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 3])
def test_boundary_conditions_of_kernel_columns_on_rotated_frames(d):
    # offdiag at zero field rotates both sites, so every column weights its codes through SpinFrame.code_rows
    model = (ModelSpec(1, [0.0, 1.1], [0.0, 0.0]) if d == 1
             else ModelSpec(3, [np.zeros(3), np.array([1.0, 0.3, -0.2])], [0.0, 0.0]))
    pair = preset_offdiag(model, 0.8)
    assert pair.frame(model).sites == (1, 2)
    z = -0.9 + 0.8j
    xp = -0.65 if d == 1 else np.array([0.4, -0.5, 0.6])
    for code in range(model.n_configs):
        q, f = boundary_data_from_evaluator(model, kernel_evaluator(model, pair, z, xp, code), avoid=[xp])
        assert verify_boundary_conditions(pair, q, f) <= 1e-5, code


@pytest.mark.parametrize("d", [1, 3])
def test_extract_boundary_data_keeps_its_ladder_off_the_avoid_points(d):
    # h0 = 0.2 * 1.5 = 0.3 here; an avoid point at 0.7 leaves it, one at 0.25, nearer than h0, caps the
    # outermost probe at half its distance
    model = (ModelSpec(1, [0.0, 1.5], [0.0, 0.0]) if d == 1
             else ModelSpec(3, [np.zeros(3), np.array([0.0, 0.0, 1.5])], [0.0, 0.0]))
    site = model.site(1)
    direction = 1.0 if d == 1 else np.array([0.6, 0.0, -0.8])

    def outermost(avoid):
        probes = []

        def evaluate(x, code):
            probes.append(x)
            return 1.0 + 0.0j

        extract_boundary_data(model, evaluate, 1, 0, avoid=avoid)
        return max(float(np.linalg.norm(np.asarray(x) - site)) for x in probes)

    assert outermost(None) == pytest.approx(0.3, rel=1e-14)
    assert outermost([site + 0.7 * direction]) == pytest.approx(0.3, rel=1e-14)
    assert outermost([site + 0.7 * direction, site - 0.25 * direction]) == pytest.approx(0.125, rel=1e-14)
    for call in (lambda: extract_boundary_data(model, lambda x, code: 0.0j, 1, 0, avoid=[site]),
                 lambda: boundary_data_from_evaluator(model, lambda x, code: 0.0j, avoid=[model.site(2)])):
        with pytest.raises(ValueError, match="avoid point coincides"):
            call()


def test_boundary_residual_from_entries_matches_dense_formula():
    rng = np.random.default_rng(47)
    for d in (1, 3):
        model = (model_d1 if d == 1 else model_d3)(3)
        pairs = [preset_delta(model, rng.normal(size=(3, 2))), preset_offdiag(model, rng.normal(size=3)),
                 preset_offdiag(model, [0.8, 0.0, 1.1]), random_valid_pair(model, rng)]
        if d == 1:
            pairs.append(preset_delta_prime(model, rng.normal(size=3)))
        for pair in pairs:
            q, f = (rng.normal(size=model.defect_dim) + 1j * rng.normal(size=model.defect_dim) for _ in range(2))
            want = float(np.max(np.abs(pair.A @ q - pair.B @ f)))
            assert verify_boundary_conditions(pair, q, f) == pytest.approx(want, rel=1e-13)


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
    model3 = ModelSpec(3, [np.zeros(3)], [0.3])
    packet3 = GaussianPacket.single(3, 2, 0, center=np.array([0.5, -0.2, 0.1]),
                                    momentum=np.array([0.8, 0.0, -0.4]), variance=0.5)
    grid3 = UniformGrid.cube(-1.4, 1.6, 3)  # keeps the nodes off the site
    for model, pair, packet, grid in ((model, pair, packet, grid),
                                      (model3, preset_offdiag(model3, 0.8), packet3, grid3)):
        out = apply_resolvent(model, pair, z, packet, grid=grid)
        point_eval = resolvent_state_evaluator(model, pair, z, packet)
        for i in (0, grid.n_points // 2, grid.n_points - 1):
            for code in (0, 1):
                assert out.values[code, i] == pytest.approx(
                    point_eval(grid.points[i], code), rel=1e-9)


def test_state_entry_points_check_the_state_against_the_model_first(monkeypatch):
    # one check, ahead of any dressing: wrong channel counts, dimension and output grid
    from spinpoint import krein

    model = model_d1(n=2)  # 4 channels
    pair = preset_delta(model, -1.0)
    z = -1.0 + 0.5j
    grid = UniformGrid.linear(-3.0, 3.0, 9)
    monkeypatch.setattr(krein, "_dress", lambda *args, **kwargs: pytest.fail("dressed before the check"))
    wrong = [GaussianPacket.single(1, 2, 0, [0.5], [1.0], 0.5), GaussianPacket.single(1, 8, 0, [0.5], [1.0], 0.5),
             GaussianPacket.single(3, 4, 0, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], 0.5)]
    for packet in wrong:
        for call in (lambda: resolvent_state_evaluator(model, pair, z, packet),
                     lambda: apply_resolvent(model, pair, z, packet, grid),
                     lambda: free_evolve(model, packet, 0.5)):
            with pytest.raises(ValueError, match="does not match the model"):
                call()
    with pytest.raises(ValueError, match="does not match the model"):
        apply_resolvent(model, pair, z, wrong[0].sample(grid))  # 2 channels on the grid
    right = GaussianPacket.single(1, 4, 0, [0.5], [1.0], 0.5)
    with pytest.raises(ValueError, match="does not match the model"):
        apply_resolvent(model, pair, z, right, UniformGrid.cube(-1.0, 1.0, 3))  # a d=3 output grid


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


def test_free_apply_grid_matches_direct_sum():
    """The FFT convolution against the direct trapezoid sum over every node pair.

    Two channels at different shifts; the 3D grid has a different step
    on each axis. The node u = x carries the local term: the d=1 kink
    correction -h^2/12 psi, the d=3 ball average a^2/2 psi.
    """
    from spinpoint.krein import _free_apply_grid

    rng = np.random.default_rng(43)
    z = -1.0 + 0.6j
    grids = (UniformGrid.linear(-5.0, 6.0, 57),
             UniformGrid(np.linspace(-3.0, 3.0, 7), np.linspace(-2.0, 2.5, 6), np.linspace(-1.0, 4.0, 8)))
    for grid in grids:
        d = grid.dimension
        model = ModelSpec(d, [0.0] if d == 1 else [np.zeros(3)], [0.35])
        values = rng.normal(size=(2, grid.n_points, 2)) @ np.array([1.0, 1j])
        pts = grid.points.reshape(grid.n_points, -1)
        r = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        steps = [ax[1] - ax[0] for ax in grid.axes]
        want = np.empty_like(values)
        for code, shift in enumerate(model.shifts()):
            s = sqrt_upper(z - shift)
            if d == 1:
                kern = 1j * np.exp(1j * s * r) / (2.0 * s)
                local = -steps[0] ** 2 / 12.0
            else:
                kern = np.where(r > 0.0, np.exp(1j * s * r) / (4.0 * np.pi * np.where(r > 0.0, r, 1.0)), 0.0)
                local = (3.0 * np.prod(steps) / (4.0 * np.pi)) ** (2.0 / 3.0) / 2.0
            want[code] = kern @ (values[code] * grid.weights) + local * values[code]
        got = _free_apply_grid(model, z, GridState(d, values, grid))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), d


def test_defect_overlaps_grid_matches_channel_loop():
    """The array form of the grid overlaps against a loop over the channels.

    Sites on nodes (one at each end of the grid, where the dipole kink
    correction is skipped) and one site between nodes, in d=1; one model
    in d=3, where no correction applies.
    """
    from spinpoint.krein import _defect_overlaps_grid, _dress, _node_at

    rng = np.random.default_rng(31)
    cases = ((ModelSpec(1, [-5.0, 0.0, 1.03, 5.0], [0.3, 0.6, 0.2, 0.1]), UniformGrid.linear(-5.0, 5.0, 201)),
             (ModelSpec(3, [np.zeros(3), np.array([1.0, 0.3, -0.2])], [0.3, 0.6]), UniformGrid.cube(-3.0, 3.2, 8)))
    for model, grid in cases:
        dress = _dress(model, random_valid_pair(model, rng), -1.0 + 0.5j)
        values = rng.normal(size=(model.n_configs, grid.n_points, 2)) @ np.array([1.0, 1j])
        state = GridState(model.dimension, values, grid)
        phi = defect_matrix(model, dress.z, grid.points)
        h = grid.spacing
        loop = np.zeros(model.defect_dim, dtype=complex)
        p, j, code = channel_tables(model)
        for mu in range(model.defect_dim):
            psi = values[code[mu]]
            loop[mu] = np.sum(phi[mu] * psi * grid.weights)
            node = _node_at(grid, model.positions[j[mu] - 1]) if model.dimension == 1 else None
            if node is None:
                continue
            if p[mu] == 0:
                loop[mu] -= h * h / 12.0 * psi[node]
            elif 0 < node < grid.n_points - 1:
                loop[mu] -= h * h / 12.0 * (psi[node + 1] - psi[node - 1]) / (2.0 * h)
        assert np.max(np.abs(_defect_overlaps_grid(dress, state) - loop)) <= 1e-13 * np.max(np.abs(loop))


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
    weights = ref.dressing_correction(dress) @ np.array(proj)
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


def _gaussian_green_cases():
    """(packet, w, points) in the regimes of the closed form's branches."""
    def packet(d, comps):
        return GaussianPacket(d, 1, {0: [GaussianComponent(*c) for c in comps]})

    def evolved(d, comp, t):  # complex variance after free motion
        model = ModelSpec(d, [np.zeros(d) if d == 3 else 0.0], [0.0])
        return free_evolve(model, GaussianPacket(d, 2, {0: [GaussianComponent(*comp)]}), t)

    c = np.array([0.3, -0.2, 0.5])
    near = [[0.0, 0.0, 0.0], [1.0, 0.4, -0.3], [-0.7, 0.2, 0.9]]
    cases = {
        "1d-complex-variance": (evolved(1, (0.4, -1.2, 0.5, 1.0), 0.7), -1.0 + 0.8j, [-2.0, -0.3, 0.4, 1.9]),
        "1d-high-momentum": (packet(1, [(0.2, 7.5, 0.6, 1.0 - 0.5j)]), -0.7 + 0.9j, [-1.5, 0.1, 0.9, 2.6]),
        "1d-far": (packet(1, [(0.0, 1.0, 0.5, 1.0)]), -1.3 + 1.1j,
                   np.sqrt(0.5) * np.array([-15.0, -12.0, 10.0, 13.5])),
        "1d-two-components": (packet(1, [(-0.6, 1.5, 0.4, 0.8), (0.9, -2.0, 0.7, -0.3 + 0.6j)]),
                              -0.5 + 0.6j, [-1.7, -0.6, 0.3, 1.4]),
        "1d-lower-half-plane": (packet(1, [(0.3, -0.8, 0.6, 1.0)]), -0.9 - 0.7j, [-1.1, 0.3, 1.2, 2.2]),
        "3d-complex-variance": (evolved(3, (c, [0.8, 0.0, -0.5], 0.5, 1.0), 0.6), -1.0 + 0.8j, near),
        "3d-high-momentum": (packet(3, [(c, [4.0, -3.0, 1.5], 0.6, 1.0)]), -0.7 + 0.9j, near),
        "3d-far": (packet(3, [(c, [0.5, 0.0, 0.0], 0.5, 1.0)]), -1.3 + 1.1j,
                   c + np.sqrt(0.5) * np.array([[0.0, 0.0, 10.0], [0.0, 0.0, -15.0], [12.0, 0.0, 0.0]])),
        "3d-two-components": (packet(3, [(c, [0.5, 0.2, 0.0], 0.4, 0.8),
                                         (-c, [-1.0, 0.0, 0.7], 0.7, -0.3 + 0.6j)]), -0.5 + 0.6j, near),
        "3d-lower-half-plane": (packet(3, [(c, [-0.6, 0.4, 0.2], 0.6, 1.0)]), -0.9 - 0.7j, near),
        # zero momentum and v = 1/2 make xi = |x - c|: xi = 0 at the centre,
        # |xi| = 1e-7 next to it, and the switch from the series to the
        # difference quotient (|v xi^2| = 1e-6) between offsets 1.4e-3 and 1.42e-3
        "3d-small-xi": (packet(3, [(c, [0.0, 0.0, 0.0], 0.5, 1.0)]), -0.8 + 0.9j,
                        c + np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [1.4e-3, 0.0, 0.0],
                                      [0.0, 1.42e-3, 0.0], [0.0, 0.4, 0.3]])),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


def _tail_radius(g, tol):
    """Distance from the center of Gaussian g beyond which |g| < tol * |weight|: |g| = |w| exp(-r^2 Re(1/(4v)))."""
    return float(np.sqrt(max(np.log(1.0 / tol), 1.0) / (1.0 / (4.0 * g.variance)).real))


@pytest.mark.parametrize("packet, w, points", _gaussian_green_cases())
def test_gaussian_green_closed_form_matches_oracles(packet, w, points):
    """The closed form against the quadrature oracles, to 1e-10 of the largest value."""
    from spinpoint.krein import _gaussian_green

    points = np.asarray(points, dtype=float)
    comps = packet.components[0]
    values = _gaussian_green(packet, 0, w, points)
    if packet.dimension == 1:
        def state(t):
            return packet.evaluate(0, np.array([t]))[0]

        lo = min(g.center[0] - _tail_radius(g, 1e-17) for g in comps)
        hi = max(g.center[0] + _tail_radius(g, 1e-17) for g in comps)
        # the reference differentiates G(site - t) in the site, i.e. -G'(t - site)
        oracle = np.array([[sign * ref.overlap_green_1d(w, state, x, min(lo, x - 1.0), max(hi, x + 1.0),
                                                        derivative=derivative) for x in points]
                           for sign, derivative in ((1.0, False), (-1.0, True))])
    else:
        oracle = np.array([[ref.overlap_green_3d(
            w, lambda pts: packet.evaluate(0, pts), x, n_theta=48,
            rmax=max(np.linalg.norm(x - g.center) + _tail_radius(g, 1e-17) for g in comps))
            for x in points]])
    assert values.shape == oracle.shape
    scale = np.max(np.abs(oracle), axis=1)
    assert np.all(np.max(np.abs(values - oracle), axis=1) <= 1e-10 * scale)


@pytest.mark.parametrize("name, calls", [("1d-two-components", 2), ("1d-complex-variance", 1),
                                         ("3d-two-components", 2), ("3d-high-momentum", 1), ("3d-small-xi", 2)])
def test_gaussian_green_takes_one_faddeeva_pass_per_component(monkeypatch, name, calls):
    # both half-line integrals of a component are one wofz call; the d=3 series (one more) only where
    # some point has |v xi^2| < 1e-6, as in 3d-small-xi's single component
    import scipy.special

    from spinpoint.krein import _gaussian_green

    packet, w, points = next(c.values for c in _gaussian_green_cases() if c.id == name)
    wofz, seen = scipy.special.wofz, []
    monkeypatch.setattr(scipy.special, "wofz", lambda arg: seen.append(arg) or wofz(arg))
    _gaussian_green(packet, 0, w, np.asarray(points, dtype=float))
    assert len(seen) == calls


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


def _assert_condition_bound(condition, model, pair, z):
    """kappa_2 <= condition <= k kappa_2 for the dressing's bound, k its largest charged block; returns kappa_2.

    kappa_2 is the exact 2-norm value of the dense reference
    (charged_dressing): D_J's singular values and each inert |a_i|.
    """
    want = ref.charged_dressing(pair.A, pair.B, gamma_free(model, z))[1]
    k = max((g.index.shape[1] for g in pair.frame(model).charged), default=1)
    assert want * (1.0 - 1e-12) <= condition <= k * want * (1.0 + 1e-12), (condition, want, k)
    return want


def test_dress_matches_dense_reference():
    from spinpoint.krein import _dress

    z = -1.3 + 0.7j
    for model, pair, n_blocks in _dressing_cases():
        dress = _dress(model, pair, z)
        assert sum(g.index.shape[0] for g in pair.blocks()) == n_blocks
        dressed = pair.B @ gamma_free(model, z) + pair.A
        expect = np.linalg.solve(dressed, pair.B)
        err = np.max(np.abs(ref.dressing_correction(dress) - expect))
        assert err <= 1e-12 * np.max(np.abs(expect)), (model.dimension, model.n_spins)
        cond = _assert_condition_bound(dress.condition, model, pair, z)
        # the dressed matrix is block triangular in (charged, inert) order: never above its full value
        sv = np.linalg.svd(dressed, compute_uv=False)
        assert cond <= sv[0] / sv[-1] * (1.0 + 1e-12)


def _unchecked_d1_cases():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        model = model_d1(n, alpha=rng.uniform(-0.5, 0.5, size=n))
        offdiag = preset_offdiag(model, rng.uniform(0.3, 1.5, size=(n, 2)))  # betahat_+ != betahat_-
        delta = preset_delta(model, rng.normal(size=(n, 2)))
        skewed = BoundaryPair(1, n, delta.A, (1.0 + 0.5j) * delta.B)  # A B* - B A* != 0
        for pair in (offdiag, skewed):
            assert not pair.validation().is_valid
            yield model, pair


def test_unchecked_pairs_match_the_dense_solve():
    """Non-Hermitian d=1 pairs: the charged-channel dressing is still the full (B Gamma + A)^-1 B."""
    from spinpoint.krein import _dress

    z = -0.8 + 0.45j
    for model, pair in _unchecked_d1_cases():
        assert sum(g.index.size for g in pair.frame(model).charged) == model.defect_dim // 2  # the charge layer
        dress = _dress(model, pair, z, unchecked=True)
        expect = np.linalg.solve(pair.B @ gamma_free(model, z) + pair.A, pair.B)
        assert np.max(np.abs(ref.dressing_correction(dress) - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_charged_counts_that_differ_between_blocks():
    """A delta table with one zero entry: that channel is inert too, and its block keeps fewer channels."""
    from spinpoint.krein import _dress

    z = -1.1 + 0.6j
    for model in (model_d1(2, alpha=[0.3, 0.55]), model_d1(3, alpha=[0.3, 0.55, -0.2])):
        n = model.n_spins
        beta = -1.0 - np.arange(2 * n, dtype=float).reshape(n, 2) / 4.0
        beta[1, 0] = 0.0  # site 2, sigma_2 = +1: no coupling
        pair = preset_delta(model, beta)
        frame = pair.frame(model)
        assert [g.index.shape for g in frame.charged] == [(model.n_configs // 2, n - 1), (model.n_configs // 2, n)]
        dress = _dress(model, pair, z)
        gamma = gamma_free(model, z)
        expect = np.linalg.solve(pair.B @ gamma + pair.A, pair.B)
        assert np.max(np.abs(ref.dressing_correction(dress) - expect)) <= 1e-12 * np.max(np.abs(expect))
        want, cond = ref.charged_dressing(pair.A, pair.B, gamma)
        got = ref.dressing_correction(dress)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert cond * (1.0 - 1e-12) <= dress.condition <= n * cond * (1.0 + 1e-12)  # the largest block is n x n
        inert = np.setdiff1d(np.arange(model.defect_dim), np.concatenate([g.index.ravel() for g in frame.charged]))
        assert inert.size == model.defect_dim // 2 + 2**(n - 1)  # the dipole layer and the uncoupled channels
        assert not got[inert].any() and not got[:, inert].any()  # their charges are exactly 0


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


# ---------------------------------------------------------------------------
# node axis: a 1-D array of z is the stack of the one-node results


NODES = np.array([-1.3 + 0.7j, 0.4 + 1e-12j, 0.4 - 1e-12j, 2.1 + 1e-12j, -0.5 - 0.3j])


def _node_axis_cases():
    rng = np.random.default_rng(5)
    for make in (model_d1, model_d3):
        model = make(2)
        offdiag = preset_offdiag(model, [0.8, -0.6])
        delta = preset_delta(model, rng.normal(size=(2, 2)))
        assert len(offdiag.blocks()) == 1 and offdiag.blocks()[0].index.shape[0] == 1
        assert sum(g.index.shape[0] for g in delta.blocks()) == model.n_configs
        d = model.dimension
        points = np.array([-0.7, 0.35, 2.4]) if d == 1 else np.array([[0.3, -0.4, 0.2], [1.5, 0.9, -0.6]])
        packet = GaussianPacket.single(d, model.n_configs, 1, [0.4] * d, [1.2] * d, 0.6 + 0.2j)
        for pair in (offdiag, delta):
            yield pytest.param(model, pair, points, packet, id=f"d{d}-{'offdiag' if pair is offdiag else 'delta'}")


def _assert_stacked(stacked, single):
    assert stacked.shape == (NODES.size,) + single[0].shape
    for got, want in zip(stacked, single):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("model, pair, points, packet", _node_axis_cases())
def test_node_axis_matches_one_node_calls(model, pair, points, packet):
    from spinpoint.krein import _defect_overlaps_gaussian, _dress, _gamma_plan

    _assert_stacked(gamma_free(model, NODES), [gamma_free(model, z) for z in NODES])
    plan = _gamma_plan(model, pair.blocks()[0].index)
    _assert_stacked(plan(NODES)[0], [plan(z)[0] for z in NODES])
    _assert_stacked(defect_matrix(model, NODES, points), [defect_matrix(model, z, points) for z in NODES])
    _assert_stacked(_defect_overlaps_gaussian(model, NODES, packet),
                    [_defect_overlaps_gaussian(model, z, packet) for z in NODES])
    dress = _dress(model, pair, NODES)
    _assert_stacked(ref.dressing_correction(dress), [ref.dressing_correction(_dress(model, pair, z)) for z in NODES])
    # the condition bound is that node's own, not the stack's
    assert dress.condition.shape == NODES.shape
    for z, cond in zip(NODES, dress.condition):
        _assert_condition_bound(cond, model, pair, z)
    assert np.ptp(dress.condition) > 0.0


def test_near_pole_node_named_in_stack():
    # the poles of test_near_pole_in_one_block_of_several: code 0 at
    # alpha + E(beta_plus), code 1 at -alpha + E(beta_minus)
    from spinpoint.krein import _dress

    alpha, beta_plus, beta_minus = 0.3, -0.5, -0.2
    model = ModelSpec(3, [np.zeros(3)], [alpha])
    pair = preset_delta(model, [[beta_plus, beta_minus]])
    pole_plus = alpha + ref.delta_bound_energy_3d(beta_plus)
    pole_minus = -alpha + ref.delta_bound_energy_3d(beta_minus)
    fine = [-1.0 + 0.5j, pole_plus + 0.3j, pole_minus - 1e-6]
    dress = _dress(model, pair, fine)
    assert np.all(dress.condition < 1e12)
    for stack, first in (([fine[0], pole_plus, fine[1]], pole_plus),
                         ([fine[0], pole_minus, fine[2], pole_plus], pole_minus),
                         ([pole_plus, pole_minus], pole_plus)):
        with pytest.raises(NearPoleError) as info:
            _dress(model, pair, np.array(stack))
        assert info.value.z == first
        assert info.value.smallest_singular_value < 1e-10
        assert info.value.condition > 1e12


# ---------------------------------------------------------------------------
# the near-pole gate: a bound from the solve, the exact SVD values past it


KAPPAS = 10.0 ** np.arange(10.0, 14.01, 0.25)  # quarter decades around the 1e12 limit


def _with_singular_values(rng, sigma):
    """U diag(sigma) V* for random unitaries U, V: one matrix per leading index of sigma (..., k)."""
    shape = sigma.shape + sigma.shape[-1:]
    u, v = (np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0] for _ in range(2))
    return (u * sigma[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _rhs(kind, rng, g, k):
    """A (g, k, k) right-hand side: c I; c times a permutation with phases (c times a unitary, a spin flip's
    pattern); a permutation whose entries differ in modulus; or dense."""
    if kind == "identity":
        return np.broadcast_to(-0.7 * np.eye(k), (g, k, k)).astype(complex)
    phases = np.exp(2j * np.pi * rng.uniform(size=(g, k)))
    if kind in ("flip", "moduli"):
        moduli = 0.6 if kind == "flip" else rng.uniform(0.3, 1.2, size=(g, k))
        return np.eye(k)[rng.permutation(k)] * (moduli * phases)[:, None, :]
    return rng.normal(size=(g, k, k)) + 1j * rng.normal(size=(g, k, k))


def _svd_gate(d, inert):
    """(smallest, condition) per node of a stack: the values-only SVD of its blocks and the inert moduli."""
    sv = np.linalg.svd(d, compute_uv=False)
    smallest = np.minimum(sv[..., -1].min(axis=-1), min(inert, default=np.inf))
    largest = np.maximum(sv[..., 0].max(axis=-1), max(inert, default=0.0))
    return smallest, np.divide(largest, smallest, out=np.full_like(largest, np.inf), where=smallest > 0.0)


def _assert_gate_matches_svd(d, rhs, z, inert):
    """invert_dressed raises exactly where the SVD's kappa_2 passes 1e12, with its values; else solve's bits."""
    from spinpoint.krein import CONDITION_LIMIT, invert_dressed

    smallest, cond = _svd_gate(d, inert)
    bad = np.flatnonzero(np.ravel(cond) > CONDITION_LIMIT)
    if bad.size:
        with pytest.raises(NearPoleError) as info:
            invert_dressed([d], [rhs], z, inert)
        node = bad[0]
        assert info.value.z == np.ravel(z)[node]
        assert info.value.smallest_singular_value == np.ravel(smallest)[node]
        assert info.value.condition == np.ravel(cond)[node]
        return False
    (solved,), got = invert_dressed([d], [rhs], z, inert)
    assert np.array_equal(solved, np.linalg.solve(d, rhs))
    # the bound read from the solve: kappa_2 <= bound / (1 - delta bound) and bound <= k kappa_2, to rounding
    delta = d.shape[-1] ** 2 * np.finfo(float).eps
    assert np.all(cond / (1.0 + delta * cond) <= got) and np.all(got <= d.shape[-1] * cond * (1.0 + 1e-10))
    # it is max ||D_b||_F max ||D_b^-1||_F, or the SVD's exact value where the bound could not be certified
    largest, inverse = (np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1))).max(axis=-1) for a in (d, np.linalg.inv(d)))
    bound = np.maximum(largest, max(inert, default=0.0)) * np.maximum(inverse, 1.0 / min(inert, default=np.inf))
    assert np.all((got == cond) | np.isclose(got, bound, rtol=1e-3, atol=0.0))
    return True


@pytest.mark.parametrize("kind", ["identity", "flip", "moduli", "generic"])
def test_near_pole_gate_matches_the_svd(kind):
    rng = np.random.default_rng(41)
    g, k = 3, 6
    rhs = _rhs(kind, rng, g, k)
    well = rng.uniform(0.5, 2.0, size=(g, k))
    passed = []
    for kappa in KAPPAS:
        ladder = np.geomspace(1.0, 1.0 / kappa, k)
        for inert in ((), (0.8, 1.5)):
            # one z: the middle block carries kappa_2 = kappa
            sigma = well.copy()
            sigma[1] = ladder
            passed.append(_assert_gate_matches_svd(_with_singular_values(rng, sigma), rhs, 0.3 + 0.1j, inert))
            # a node stack: well-conditioned nodes around it, and a later node at the mirrored kappa
            sigma = np.stack([well] * 4)
            sigma[1, 2] = ladder
            sigma[3, 0] = np.geomspace(1.0, kappa / 1e24, k)
            z = np.array([-1.0 + 0.5j, 0.2 + 1e-12j, 1.5 + 0.3j, 2.5 + 1e-12j])
            passed.append(_assert_gate_matches_svd(_with_singular_values(rng, sigma), rhs, z, inert))
    assert any(passed) and not all(passed)  # both sides of the limit are reached


def test_exactly_singular_block_is_a_near_pole():
    """A block the LU finds exactly singular raises NearPoleError from the SVD, not numpy's LinAlgError."""
    rng = np.random.default_rng(43)
    for kind in ("identity", "generic"):
        rhs = _rhs(kind, rng, 2, 5)
        single = _with_singular_values(rng, rng.uniform(0.5, 2.0, size=(2, 5)))
        single[1, :, 3] = 0.0
        assert not _assert_gate_matches_svd(single, rhs, -0.4 + 0.2j, ())
        nodes = _with_singular_values(rng, rng.uniform(0.5, 2.0, size=(4, 2, 5)))
        nodes[2, 0, 4] = nodes[2, 0, 1]  # two equal rows
        z = np.array([0.1j, 1.0 + 0.1j, 2.0 + 0.1j, 3.0 + 0.1j])
        assert not _assert_gate_matches_svd(nodes, rhs, z, (1.0, 1.0))


def _counting(call, seen):
    """call, appending the shape of its first argument to seen first."""
    def counted(*args, **kwargs):
        seen.append(np.shape(args[0]))
        return call(*args, **kwargs)
    return counted


def test_dressings_off_the_poles_take_no_svd(monkeypatch):
    """Preset and Haar dressings, one z or a node stack, take no SVD; presets take no inverse either, only the solve."""
    from spinpoint import krein

    rng = np.random.default_rng(47)
    presets, haar = list(_rotated_cases()), []
    for make in (model_d1, model_d3):
        for n in (1, 2, 3):
            model = make(n)
            presets += [(model, preset_delta(model, rng.normal(size=(n, 2)))),
                        (model, preset_offdiag(model, rng.normal(size=n))), (model, preset_free(model))]
            if model.dimension == 1:
                presets.append((model, preset_delta_prime(model, rng.normal(size=n))))
            haar.append((model, random_valid_pair(model, rng)))
    for model, pair in presets + haar:
        krein._dress(model, pair, NODES[0])  # validation and the frame, with their own SVDs, are cached on pair
    calls = {"svd": [], "inv": []}
    for name, seen in calls.items():
        monkeypatch.setattr(np.linalg, name, _counting(getattr(np.linalg, name), seen))
    for cases, inverses in ((presets, False), (haar, True)):
        for model, pair in cases:
            krein._dress(model, pair, NODES[0])
            krein._dress(model, pair, NODES)
        assert calls["svd"] == [] and bool(calls["inv"]) == inverses


# ---------------------------------------------------------------------------
# spin frame: rotated pairs against dense references, unrotated ones unchanged


def _zero_field(d, n):
    positions = [1.3 * k for k in range(n)] if d == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(n)]
    return ModelSpec(d, positions, np.zeros(n))


def _point(model, x):
    return [x] if model.dimension == 1 else [np.asarray(x)]


def _rotated_cases():
    rng = np.random.default_rng(17)
    for d in (1, 3):
        for n in (1, 2, 3):
            model = _zero_field(d, n)
            yield model, preset_offdiag(model, rng.uniform(0.3, 1.5, size=n))
        mixed = ModelSpec(d, _zero_field(d, 3).positions, [0.0, 0.45, 0.0])  # site 2 unrotated
        yield mixed, preset_offdiag(mixed, 0.8)


def test_rotated_dressing_matches_dense_reference():
    from spinpoint.krein import _dress

    z = -1.3 + 0.7j
    for model, pair in _rotated_cases():
        assert pair.frame(model).sites
        dress = _dress(model, pair, z)
        dressed = pair.B @ gamma_free(model, z) + pair.A
        ref_corr = np.linalg.solve(dressed, pair.B)
        assert np.max(np.abs(ref.dressing_correction(dress) - ref_corr)) <= 1e-12 * np.max(np.abs(ref_corr))
        _assert_condition_bound(dress.condition, model, pair, z)
        stacked = _dress(model, pair, NODES)
        _assert_stacked(ref.dressing_correction(stacked),
                        [ref.dressing_correction(_dress(model, pair, w)) for w in NODES])


def test_rotated_kernel_matches_closed_form_and_dense_solve():
    rng = np.random.default_rng(23)
    y = np.zeros(3)
    one = ModelSpec(3, [y], [0.0])
    for bhat in (0.8, -1.2):
        pair = preset_offdiag(one, bhat)
        assert pair.frame(one).sites == (1,)
        z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 5))
        x, xp = rng.normal(size=3), rng.normal(size=3)
        for c in (0, 1):
            for cp in (0, 1):
                val = resolvent_kernel(one, pair, z, x, c, xp, cp)
                want = ref.offdiag_kernel_3d(z, 0.0, bhat, bhat, x, c, xp, cp, y)
                assert val == pytest.approx(want, rel=1e-10)
    for model, pair in _rotated_cases():
        z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 5))
        d = model.dimension
        x, xp = (rng.normal(size=2) * 2.0) if d == 1 else (rng.normal(size=3), rng.normal(size=3))
        for c in range(model.n_configs):
            cp = int(rng.integers(model.n_configs))
            val = kernel_evaluator(model, pair, z, xp, cp)(x, c)
            assert val == pytest.approx(ref.dense_kernel(model, pair, z, x, c, xp, cp), rel=1e-10, abs=1e-14)


def test_identity_frame_keeps_the_block_path():
    """Pairs with U = I: the kernel is bit for bit the unrotated block computation on the charged channels."""
    from spinpoint.krein import _dress
    from spinpoint.spins import channel_sum

    rng = np.random.default_rng(29)
    z = -0.9 + 0.6j
    for d in (1, 3):
        model, zeeman = _zero_field(d, 3), (model_d1 if d == 1 else model_d3)(3)
        for m, pair, unchecked in ((model, preset_delta(model, -1.0), False),
                                   (zeeman, preset_delta(zeeman, rng.normal(size=(3, 2))), False),
                                   (model, random_valid_pair(model, rng), False),
                                   (model, preset_offdiag(model, rng.normal(size=(3, 2))), True)):
            assert pair.frame(m).sites == ()
            gamma = gamma_free(m, z)
            x, xp = (0.37, -0.81) if d == 1 else (np.array([0.3, -0.2, 0.5]), np.array([-0.4, 0.6, 0.1]))
            chan = channel_tables(m)[2]
            src = np.where(chan == 1, defect_matrix(m, z, _point(m, xp))[:, 0], 0.0)
            block, weights = np.zeros_like(gamma), np.zeros_like(src)
            for g in pair.frame(m).charged:
                sub = (g.index[:, :, None], g.index[:, None, :])
                block[sub] = np.linalg.solve(g.B @ gamma[sub] + g.A, g.B)
                weights[g.index] = np.matmul(block[sub], src[g.index][..., None])[..., 0]
            dress = _dress(m, pair, z, unchecked)
            assert np.array_equal(ref.dressing_correction(dress), block)
            for code in (1, 2):
                want = channel_sum(m, weights, defect_matrix(m, z, _point(m, x)))[code, 0]
                if code == 1:
                    want = green(d, z - m.shifts()[1], np.asarray(x) - np.asarray(xp), allow_cut=True) + want
                got = kernel_evaluator(m, pair, z, xp, 1, unchecked=unchecked)(x, code)
                assert got == complex(want)
            np.testing.assert_allclose(ref.dressing_correction(dress),
                                       np.linalg.solve(pair.B @ gamma + pair.A, pair.B),
                                       rtol=0, atol=1e-12 * np.max(np.abs(block)))


def _frame_layout_cases():
    rng = np.random.default_rng(41)
    for d, make in ((1, model_d1), (3, model_d3)):
        field, zero = make(2), _zero_field(d, 2)
        pairs = ((field, preset_offdiag(field, [0.8, -0.6]), "one-block"),
                 (zero, preset_offdiag(zero, [0.8, -0.6]), "frame-split"),
                 (field, preset_delta(field, rng.normal(size=(2, 2))), "code-split"))
        for model, pair, name in pairs:
            yield pytest.param(model, pair, name == "one-block", id=f"d{d}-{name}")


@pytest.mark.parametrize("model, pair, one_block", _frame_layout_cases())
def test_solvers_take_gamma_only_on_frame_blocks(monkeypatch, model, pair, one_block):
    """Every solver path runs with the m x m Gamma routes disabled, and the kernel keeps its dense value."""
    from spinpoint import krein
    from spinpoint.dynamics import _cut_correction, _cut_nodes

    assert (sum(len(g.index) for g in pair.frame(model).pair.blocks()) == 1) == one_block
    z, d = -0.7 + 0.9j, model.dimension
    x, xp = (-0.6, 0.45) if d == 1 else (np.array([0.5, 0.5, 0.1]), np.array([0.4, -0.3, 0.2]))
    want = [ref.dense_kernel(model, pair, z, x, c, xp, 1) for c in range(model.n_configs)]

    def refuse(*args, **kwargs):
        raise AssertionError("m x m Gamma formed by a solver")

    monkeypatch.setattr(krein, "gamma_free", refuse)
    monkeypatch.setattr(krein, "_gamma_whole", refuse)
    column = kernel_evaluator(model, pair, z, xp, 1)
    for c in range(model.n_configs):
        assert column(x, c) == pytest.approx(want[c], rel=1e-10, abs=1e-14)
        assert resolvent_kernel(model, pair, z, x, c, xp, 1) == column(x, c)
    packet = GaussianPacket.single(d, model.n_configs, 1, [0.3] * d, [0.9] * d, 0.7)
    grid = UniformGrid.linear(-3.0, 3.0, 31) if d == 1 else UniformGrid.cube(-2.0, 2.0, 6)
    on_grid = apply_resolvent(model, pair, z, packet, grid)
    assert np.all(np.isfinite(on_grid.values))
    assert np.all(np.isfinite(apply_resolvent(model, pair, z, packet.sample(grid)).values))
    point = grid.points[0]  # off the sites
    assert resolvent_state_evaluator(model, pair, z, packet)(point, 1) == pytest.approx(on_grid.values[1, 0],
                                                                                       rel=1e-12)
    lam, wts = _cut_nodes(model, 64, 20.0)
    assert np.all(np.isfinite(_cut_correction(model, pair, packet, np.array([0.3]), grid, lam, wts)[0]))


def test_evaluators_match_per_call_defect_matrix():
    """One sqrt_upper(z - a.s) per closure gives the values of a defect_matrix call per point."""
    from spinpoint.krein import _dress, _gaussian_charges, _gaussian_green
    from spinpoint.spins import channel_sum

    z = -0.7 + 0.9j
    for d in (1, 3):
        model = (model_d1 if d == 1 else model_d3)(2)
        pair = preset_offdiag(model, 0.8)
        xp = 0.45 if d == 1 else np.array([0.4, -0.3, 0.2])
        points = [-0.6, 0.9, 2.1] if d == 1 else [np.array([0.5, 0.5, 0.1]), np.array([1.4, -0.2, 0.3])]
        packet = GaussianPacket.single(d, model.n_configs, 2, [0.3] * d, [0.9] * d, 0.7)
        dress = _dress(model, pair, z)
        chan = channel_tables(model)[2]
        src = np.where(chan == 3, defect_matrix(model, z, _point(model, xp))[:, 0], 0.0)
        weights = dress.charges(src)
        charges = _gaussian_charges(dress, packet)
        kernel = kernel_evaluator(model, pair, z, xp, 3)
        state = resolvent_state_evaluator(model, pair, z, packet)
        for x in points:
            phi = defect_matrix(model, z, _point(model, x))
            for code in range(model.n_configs):
                want = channel_sum(model, weights, phi)[code, 0]
                if code == 3:
                    disp = np.asarray(x) - np.asarray(xp)
                    want = want + green(d, z - model.shifts()[3], disp, allow_cut=True)
                assert abs(kernel(x, code) - want) <= 1e-15 * abs(want)
                pts = np.array(_point(model, x), dtype=float)
                want = (_gaussian_green(packet, code, z - model.shifts()[code], pts)[0, 0]
                        + channel_sum(model, charges, phi)[code, 0])
                assert abs(state(x, code) - want) <= 1e-15 * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# kernel tables: every row in one pass


def _table_cases():
    """(model, pair, unchecked) for every preset case of the boundary tests and a Haar pair per dimension and field."""
    from test_boundary import _preset_cases

    for model, pair, _ in _preset_cases():
        yield model, pair, not pair.validation().is_valid
    rng = np.random.default_rng(43)
    for d in (1, 3):
        for alpha in (0.0, 0.3):
            model = (model_d1 if d == 1 else model_d3)(2, alpha=[alpha, alpha])
            yield model, random_valid_pair(model, rng), False


def _table(model, n_rows, rng):
    """Rows (x, codes, xp, codes_p) off the sites, every code on both sides, codes equal on every third row."""
    d, n = model.dimension, model.n_configs
    shape = (n_rows,) if d == 1 else (n_rows, 3)
    x, xp = rng.normal(size=shape) * 1.5, rng.normal(size=shape) * 1.5
    codes = np.arange(n_rows) % n
    codes_p = (codes + 1 + rng.integers(n - 1, size=n_rows)) % n  # another code
    codes_p[::3] = codes[::3]
    return x, codes, xp, codes_p


def test_kernel_rows_are_the_closure_and_resolvent_kernel_bit_for_bit():
    """One pass over a table gives, byte for byte, the pointwise column closure and resolvent_kernel."""
    from spinpoint.krein import _dress

    rng = np.random.default_rng(47)
    z = -0.7 + 0.9j
    for model, pair, unchecked in _table_cases():
        x, codes, xp, codes_p = _table(model, 9, rng)
        got = _dress(model, pair, z, unchecked).rows(x, codes, xp, codes_p)
        assert got.shape == (9,) and np.any(codes != codes_p) and np.any(codes == codes_p)
        for i in range(9):
            column = kernel_evaluator(model, pair, z, xp[i], int(codes_p[i]), unchecked=unchecked)
            assert column(x[i], int(codes[i])) == got[i]
        for i in range(3):
            assert resolvent_kernel(model, pair, z, x[i], int(codes[i]), xp[i], int(codes_p[i]),
                                    unchecked=unchecked) == got[i]


def _haar_2x2(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_per_code_weights_are_the_full_rotation(n):
    """Kernel weights rotated on each row's own spin code equal the full rotate path, for every (code, code') row.

    Random unitary U_j on a random set of sites (and on all of them) and
    a random one-block correction: within 1e-14 of each row's largest
    weight; with U = I, bit for bit.
    """
    from spinpoint.boundary import SpinFrame
    from spinpoint.krein import _Dressing
    from spinpoint.spins import channel_blocks

    rng = np.random.default_rng(67 + n)
    for d in (1, 3):
        model = (model_d1 if d == 1 else model_d3)(n, alpha=np.zeros(n))
        pair = random_valid_pair(model, rng)
        assert [g.index.shape for g in pair.blocks()] == [(1, model.defect_dim)]
        m, c = model.defect_dim, model.n_configs
        solved = [rng.normal(size=(1, m, m)) + 1j * rng.normal(size=(1, m, m))]
        codes, codes_p, at = np.repeat(np.arange(c), c), np.tile(np.arange(c), c), np.arange(c * c)
        phi = rng.normal(size=(c * c, m // c)) + 1j * rng.normal(size=(c * c, m // c))
        blocks = channel_blocks(model)
        some = tuple(j for j in range(1, n + 1) if rng.random() < 0.5) or (n,)
        for sites in ((), some, tuple(range(1, n + 1))):
            dress = _Dressing(model, 0.5j, SpinFrame(sites, tuple(_haar_2x2(rng) for _ in sites), pair), solved, 1.0)
            got = dress._on_codes(dress.sources(phi, codes_p), codes)
            overlaps = np.zeros((at.size, m), dtype=complex)
            overlaps[at[:, None], blocks[codes_p]] = phi
            want = dress.charges(overlaps)[at[:, None], blocks[codes]]
            if sites:
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=1, keepdims=True))
            else:
                assert got.tobytes() == want.tobytes()


def test_kernel_rows_match_the_dense_solve():
    from spinpoint.krein import _dress

    rng = np.random.default_rng(53)
    z = -0.7 + 0.9j
    for model, pair, unchecked in _table_cases():
        x, codes, xp, codes_p = _table(model, 6, rng)
        got = _dress(model, pair, z, unchecked).rows(x, codes, xp, codes_p)
        for i in range(6):
            want = ref.dense_kernel(model, pair, z, x[i], codes[i], xp[i], codes_p[i])
            assert got[i] == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_kernel_table_conjugate_symmetry():
    """K(z)(x, x') = conj K(conj z)(x', x) on every row of a table, swapping the two sides of all rows."""
    from spinpoint.krein import _dress

    rng = np.random.default_rng(59)
    z = -0.4 + 0.8j
    for model, pair, unchecked in _table_cases():
        if unchecked:
            continue  # not self-adjoint
        x, codes, xp, codes_p = _table(model, 8, rng)
        up = _dress(model, pair, z).rows(x, codes, xp, codes_p)
        down = _dress(model, pair, np.conj(z)).rows(xp, codes_p, x, codes)
        np.testing.assert_allclose(up, np.conj(down), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d, bad, message", [
    (1, "source", "source point coincides with a spin site"),
    (3, "source", "source point coincides with a spin site"),
    (1, "point", "evaluation point coincides with a spin site"),
    (3, "point", "evaluation point coincides with a spin site"),
    (3, "same", "d=3 Green function is singular at zero displacement"),
])
def test_one_bad_row_rejects_the_table_before_any_row_is_evaluated(monkeypatch, d, bad, message):
    from spinpoint import krein

    model = (model_d1 if d == 1 else model_d3)(2)
    pair = preset_delta(model, -1.0)
    x, codes, xp, codes_p = _table(model, 7, np.random.default_rng(61))
    site = model.site(2)
    if bad == "source":
        xp[4] = site
    elif bad == "point":
        x[4] = site
    else:
        x[4], codes[4] = xp[4], codes_p[4]
    dress = krein._dress(model, pair, -0.7 + 0.9j)
    evaluated = []
    inner = krein._defect_factors
    monkeypatch.setattr(krein, "_defect_factors", lambda *a, **k: evaluated.append(1) or inner(*a, **k))
    with pytest.raises(ValueError, match=message):
        dress.rows(x, codes, xp, codes_p)
    assert not evaluated
