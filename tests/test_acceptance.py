"""Acceptance gate: every shipped guarantee at its pinned tolerance.

Each test covers one numbered criterion and emits a single
[PASS]/[FAIL] line (visible with -s or in captured output), so a run
of this module doubles as the release checklist. Tolerances here are
contractual; do not loosen them to make a failure go away.
"""

from contextlib import contextmanager

import numpy as np

import reference_kernels as ref
from test_krein import overlap_closed_form

from spinpoint.boundary import (preset_delta, preset_free, preset_offdiag,
                                random_valid_pair)
from spinpoint.dynamics import evolve_spectral, free_evolve
from spinpoint.greens import green
from spinpoint.krein import (boundary_data_from_evaluator, gamma_free,
                             kernel_evaluator, resolvent_kernel,
                             verify_boundary_conditions)
from spinpoint.spectral import find_bound_states
from spinpoint.spins import ModelSpec
from spinpoint.states import GaussianPacket, UniformGrid
from spinpoint import cli


@contextmanager
def criterion(label):
    try:
        yield
    except Exception as exc:
        print(f"[FAIL] {label}: {exc}")
        raise
    print(f"[PASS] {label}")


SITE3 = np.array([0.4, -0.3, 0.2])


def _model3(alpha=0.0):
    return ModelSpec(3, [SITE3], [alpha])


def _random_point3(rng):
    while True:
        x = SITE3 + rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(x - SITE3) > 0.05:
            return x


def test_criterion_1_diagonal_contact_kernel_closed_form():
    with criterion("1. diagonal contact kernel equals closed form, d=3, rel 1e-10"):
        rng = np.random.default_rng(101)
        combos = [(a, bp, bm) for a in (0.0, 0.7)
                  for bp in (-1.0, 0.3) for bm in (-1.0, 0.3)]
        for i in range(100):
            alpha, bp, bm = combos[i % len(combos)]
            model = _model3(alpha)
            pair = preset_delta(model, [[bp, bm]])
            z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 5.0))
            x = _random_point3(rng)
            xp = _random_point3(rng)
            code = int(rng.integers(2))
            got = resolvent_kernel(model, pair, z, x, code, xp, code)
            want = ref.delta_kernel_3d(z, alpha, bp, bm, x, code, xp, code, SITE3)
            assert abs(got - want) <= 1e-10 * abs(want)


def test_criterion_2_spin_flip_contact_kernel_closed_form():
    with criterion("2. spin-flip contact kernel equals closed form, rel 1e-10; "
                   "asymmetric table rejected"):
        rng = np.random.default_rng(102)
        bp, bm = 0.6, -0.35
        for i in range(100):
            alpha = (0.0, 0.7)[i % 2]
            model = _model3(alpha)
            pair = preset_offdiag(model, [[bp, bm]])
            z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 5.0))
            x = _random_point3(rng)
            xp = _random_point3(rng)
            for code in (0, 1):
                for codep in (0, 1):
                    got = resolvent_kernel(model, pair, z, x, code, xp, codep,
                                           unchecked=True)
                    want = ref.offdiag_kernel_3d(z, alpha, bp, bm, x, code,
                                                 xp, codep, SITE3)
                    assert abs(got - want) <= 1e-10 * max(abs(want), 1e-12)
        report = preset_offdiag(_model3(0.3), [[bp, bm]]).validation()
        assert not report.is_valid
        assert report.hermiticity_defect > 0.0


def test_criterion_3_free_reduction_exact():
    with criterion("3. free pair reduces to the free kernel exactly, d=1 and d=3, N<=3"):
        rng = np.random.default_rng(103)
        for d in (1, 3):
            for n in (1, 2, 3):
                if d == 1:
                    model = ModelSpec(1, 1.3 * np.arange(n), 0.4 * np.arange(n))
                else:
                    pos = [1.1 * k * np.array([1.0, 0.2, -0.1]) for k in range(n)]
                    model = ModelSpec(3, pos, 0.4 * np.arange(n))
                pair = preset_free(model)
                for _ in range(5):
                    z = complex(rng.uniform(-5, 5), rng.uniform(0.2, 3.0))
                    x = rng.normal(size=() if d == 1 else 3) * 2.0
                    xp = rng.normal(size=() if d == 1 else 3) * 2.0
                    code = int(rng.integers(model.n_configs))
                    codep = int(rng.integers(model.n_configs))
                    got = resolvent_kernel(model, pair, z, x, code, xp, codep)
                    if code != codep:
                        assert got == 0.0
                    else:
                        shift = model.shifts()[code]
                        assert got == green(d, z - shift, x - xp, allow_cut=True)


def test_criterion_4_channel_matrix_difference_identity():
    with criterion("4. channel-matrix difference equals (w-z) overlap: closed form "
                   "1e-12, cross-parity quadrature 1e-6, 50 draws per model"):
        rng = np.random.default_rng(104)
        models = []
        for n in (1, 2, 3):
            models.append(ModelSpec(1, 1.3 * np.arange(n), 0.4 * np.arange(n)))
            pos = [1.1 * k * np.array([1.0, 0.2, -0.1]) for k in range(n)]
            models.append(ModelSpec(3, pos, 0.4 * np.arange(n)))
        for model in models:
            m = model.defect_dim
            for _ in range(50):
                z = complex(rng.uniform(-3, 2), rng.uniform(0.1, 4))
                w = complex(rng.uniform(-3, 2), -rng.uniform(0.1, 4))
                target = gamma_free(model, z) - gamma_free(model, w)
                for mu in range(m):
                    for nu in range(m):
                        ov = overlap_closed_form(model, w, z, mu, nu)
                        assert abs(target[mu, nu] - (w - z) * ov) \
                            <= 1e-12 * max(1.0, abs(ov))
        # quadrature side of the same identity on 1d mixed-layer entries
        from spinpoint.krein import defect_matrix
        from spinpoint.spins import channel_tables

        for model in (models[0], models[2], models[4]):
            p, j, code = channel_tables(model)
            m = model.defect_dim
            cross = [(mu, nu) for mu in range(m) for nu in range(m)
                     if code[mu] == code[nu] and p[mu] != p[nu]]
            sites = list(np.atleast_1d(model.positions))
            for _ in range(50):
                z = complex(rng.uniform(-2, 0), rng.uniform(0.4, 2))
                w = complex(rng.uniform(-2, 0), rng.uniform(0.4, 2)) - 0.1j
                mu, nu = cross[int(rng.integers(len(cross)))]

                def integrand(t):
                    return (defect_matrix(model, w, [t])[mu, 0]
                            * defect_matrix(model, z, [t])[nu, 0])

                ov = ref.quad_complex(integrand, -45.0, 45.0, points=sites, limit=400)
                diff = (gamma_free(model, z) - gamma_free(model, w))[mu, nu]
                assert abs(diff - (w - z) * ov) <= 1e-6


def _random_model(rng, d):
    n = int(rng.integers(1, 3))
    alpha = rng.uniform(-0.8, 0.8, size=n)
    if d == 1:
        pos = np.sort(rng.uniform(-1.5, 1.5, size=n))
        while n == 2 and pos[1] - pos[0] < 0.5:
            pos = np.sort(rng.uniform(-1.5, 1.5, size=n))
    else:
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        while n == 2 and np.linalg.norm(pos[0] - pos[1]) < 0.5:
            pos = rng.uniform(-1.0, 1.0, size=(n, 3))
    return ModelSpec(d, pos, alpha)


def test_criterion_5_conjugate_symmetry():
    with criterion("5. kernel conjugate symmetry K(conj z) = K(z)^*, 1e-12, "
                   "10 random valid pairs per dimension"):
        rng = np.random.default_rng(105)
        for d in (1, 3):
            for _ in range(10):
                model = _random_model(rng, d)
                pair = random_valid_pair(model, rng)
                z = complex(rng.uniform(-3, 1), rng.uniform(0.3, 2.5))
                x = rng.normal(size=() if d == 1 else 3) * 1.8
                xp = rng.normal(size=() if d == 1 else 3) * 1.8
                code = int(rng.integers(model.n_configs))
                codep = int(rng.integers(model.n_configs))
                up = resolvent_kernel(model, pair, z, x, code, xp, codep)
                dn = resolvent_kernel(model, pair, np.conj(z), xp, codep, x, code)
                assert abs(np.conj(up) - dn) <= 1e-12 * max(1.0, abs(up))


def test_criterion_6_pinned_bound_state_energies():
    with criterion("6. bound states: d=3 contact (alpha=0, beta=-1) at -16 pi^2 and "
                   "d=1 contact (beta=-2) at -1, rel 1e-8"):
        model3 = _model3(0.0)
        states = find_bound_states(model3, preset_delta(model3, -1.0))
        want = -16.0 * np.pi**2
        assert len(states) == 1
        assert abs(states[0].energy - want) <= 1e-8 * abs(want)

        model1 = ModelSpec(1, [0.0], [0.0])
        states = find_bound_states(model1, preset_delta(model1, -2.0))
        assert len(states) == 1
        assert abs(states[0].energy - (-1.0)) <= 1e-8


def test_criterion_7_boundary_condition_residual():
    with criterion("7. boundary data from kernel columns satisfies the interface "
                   "condition, max residual 1e-5, 5 pairs x 3 sources per dimension"):
        rng = np.random.default_rng(107)
        for d in (1, 3):
            model = (ModelSpec(1, [0.0, 1.1], [0.3, 0.6]) if d == 1
                     else ModelSpec(3, [np.zeros(3), np.array([1.0, 0.3, -0.2])],
                                    [0.3, 0.6]))
            for _ in range(5):
                pair = random_valid_pair(model, rng)
                z = complex(rng.uniform(-2, 0), rng.uniform(0.5, 2))
                for _ in range(3):
                    xp = (rng.normal() * 1.5 if d == 1
                          else rng.normal(size=3) * 1.2)
                    code = int(rng.integers(model.n_configs))
                    evaluate = kernel_evaluator(model, pair, z, xp, code)
                    q, f = boundary_data_from_evaluator(model, evaluate, avoid=[xp])
                    assert verify_boundary_conditions(pair, q, f) <= 1e-5


def test_criterion_8_resolvent_identity_at_kernel_level():
    with criterion("8. first resolvent identity through kernel composition, 1e-5, "
                   "d=3 contact pair"):
        model = _model3(0.0)
        pair = preset_delta(model, -1.0)
        z = complex(-5.0, 1.3)
        w = complex(2.0, 0.9)
        x = SITE3 + np.array([0.3, -0.2, 0.5])
        xp = SITE3 + np.array([-0.4, 0.1, 0.2])

        def dressing_coeff(zz):
            # kernel minus free part, divided by the two defect values
            pa = SITE3 + np.array([0.9, 0.0, 0.0])
            pb = SITE3 + np.array([0.0, -0.8, 0.1])
            k = resolvent_kernel(model, pair, zz, pa, 0, pb, 0)
            g = green(3, zz, pa - pb)
            return (k - g) / (green(3, zz, pa - SITE3) * green(3, zz, pb - SITE3))

        cz = dressing_coeff(z)
        cw = dressing_coeff(w)
        kz = resolvent_kernel(model, pair, z, x, 0, xp, 0)
        kw = resolvent_kernel(model, pair, w, x, 0, xp, 0)
        comp = ref.two_center_product_integral_3d(z, w, x, xp)
        comp += cw * green(3, w, xp - SITE3) * ref.two_center_product_integral_3d(z, w, x, SITE3)
        comp += cz * green(3, z, x - SITE3) * ref.two_center_product_integral_3d(z, w, SITE3, xp)
        comp += (cz * cw * green(3, z, x - SITE3) * green(3, w, xp - SITE3)
                 * ref.one_center_product_integral_3d(z, w))
        assert abs((kz - kw) - (z - w) * comp) <= 1e-5 * max(1.0, abs(kz - kw))


def test_criterion_9_dynamics_sanity():
    with criterion("9. spectral evolution: free pair matches closed form to 1e-3; "
                   "diagonal pair leaks nothing; spin-flip weight > 10x estimate"):
        model = ModelSpec(1, [0.0], [0.0])
        packet = GaussianPacket.single(1, 2, 0, [0.0], [3.0], 2.0)
        grid = UniformGrid.linear(-10.0, 16.0, 200)
        res = evolve_spectral(model, preset_free(model), packet, [1.0], grid)
        exact = free_evolve(model, packet, 1.0).sample(grid)
        scale = float(np.max(np.abs(exact.values)))
        assert float(np.max(np.abs(res.state.values - exact.values))) <= 1e-3 * scale
        assert abs(res.state.norm() - exact.norm()) <= 1e-3 * exact.norm()

        crossing = GaussianPacket.single(1, 2, 0, [-4.0], [2.5], 1.0)
        grid2 = UniformGrid.linear(-14.0, 12.0, 220)
        res_diag = evolve_spectral(model, preset_delta(model, -2.0), crossing,
                                   [1.0], grid2)
        assert res_diag.state.channel_weights()[1] <= res_diag.error_estimate

        res_flip = evolve_spectral(model, preset_offdiag(model, 0.8), crossing,
                                   [1.0], grid2)
        assert res_flip.state.channel_weights()[1] > 10.0 * res_flip.error_estimate


def test_criterion_10_cli_determinism(tmp_path):
    with criterion("10. identical command invocations write byte-identical files"):
        model = tmp_path / "model.json"
        assert cli.main(["preset", "delta", "--dimension", "1", "--positions", "0.0",
                         "--beta", "-2.0", "--out", str(model)]) == 0
        state = tmp_path / "state.json"
        state.write_text(
            '{"schema": "spinpoint-state v1", "components": [{"channel": 0, '
            '"center": [-2.0], "momentum": [2.0], "variance": 1.0}], '
            '"grid": {"lo": -9.0, "hi": 9.0, "n": 120}}')
        invocations = [
            ["preset", "delta", "--dimension", "1", "--positions", "0.0",
             "--beta", "-2.0", "--out", str(tmp_path / "m2.json")],
            ["kernel", str(model), "--z", "-1.0,0.5", "--seed", "7",
             "--out", str(tmp_path / "kernel.csv")],
            ["boundstates", str(model), "--out", str(tmp_path / "bs.csv")],
            ["gamma", str(model), "--z", "-4.0,0.0", "--out", str(tmp_path / "g.csv")],
            ["evolve", str(model), "--state", str(state), "--t", "0.5",
             "--n-nodes", "256", "--out", str(tmp_path / "run")],
        ]
        outputs = [tmp_path / "m2.json", tmp_path / "kernel.csv", tmp_path / "bs.csv",
                   tmp_path / "g.csv", tmp_path / "run" / "summary.csv",
                   tmp_path / "run" / "state_000.csv"]
        first = {}
        for argv in invocations:
            assert cli.main(list(argv)) == 0
        for path in outputs:
            first[path] = path.read_bytes()
        for argv in invocations:
            assert cli.main(list(argv)) == 0
        for path in outputs:
            assert path.read_bytes() == first[path], path.name
