"""Bound-state search against analytically known energies."""

import itertools

import numpy as np
import pytest
import scipy.linalg

import reference_kernels as ref
from spinpoint import krein, spectral
from spinpoint.boundary import (
    BoundaryPair,
    ValidationError,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
)
from spinpoint.krein import gamma_dressed, gamma_free
from spinpoint.spectral import (
    default_search_floor,
    eigenfunction_eval,
    essential_spectrum_bottom,
    find_bound_states,
)
from spinpoint.spins import ModelSpec
from test_boundary import _preset_cases


def test_essential_spectrum_bottom():
    model = ModelSpec(1, [0.0, 1.0], [0.5, 0.25])
    assert essential_spectrum_bottom(model) == pytest.approx(-0.75)
    assert essential_spectrum_bottom(ModelSpec(3, [np.zeros(3)], [0.0])) == 0.0


def test_free_pair_has_no_bound_states():
    for model in (ModelSpec(1, [0.0], [0.4]), ModelSpec(3, [np.zeros(3)], [0.4])):
        assert find_bound_states(model, preset_free(model), e_min=-30.0) == []


def test_delta_bound_state_3d():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    assert len(states) == 1
    st = states[0]
    expect = ref.delta_bound_energy_3d(-1.0)
    assert st.energy == pytest.approx(expect, rel=1e-10)
    assert st.multiplicity == 2  # both spin channels bind at alpha = 0
    # positive beta binds nothing
    assert find_bound_states(model, preset_delta(model, 0.3), e_min=-200.0) == []


def test_delta_bound_state_3d_split_by_zeeman():
    alpha = 0.6
    model = ModelSpec(3, [np.zeros(3)], [alpha])
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    # channel shifts move the pair of roots apart
    expected = sorted([ref.delta_bound_energy_3d(-1.0) + alpha,
                       ref.delta_bound_energy_3d(-1.0) - alpha])
    assert len(states) == 2
    for st, e in zip(states, expected):
        assert st.energy == pytest.approx(e, rel=1e-9)
        assert st.multiplicity == 1


def test_delta_bound_state_1d():
    model = ModelSpec(1, [0.0], [0.0])
    pair = preset_delta(model, -2.0)
    states = find_bound_states(model, pair, e_min=-50.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(-1.0, abs=1e-10)
    assert states[0].multiplicity == 2


def test_delta_prime_bound_state_1d():
    model = ModelSpec(1, [0.0], [0.0])
    gamma = -1.6
    pair = preset_delta_prime(model, gamma)
    states = find_bound_states(model, pair, e_min=-50.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(ref.delta_prime_bound_energy_1d(gamma),
                                             rel=1e-10)


def test_offdiag_bound_state_3d():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_offdiag(model, 1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(ref.offdiag_bound_energy(1.0), rel=1e-10)
    assert states[0].multiplicity == 1


def test_charges_span_dressed_null_space():
    model = ModelSpec(3, [np.zeros(3)], [0.6])
    pair = preset_delta(model, -1.0)
    for st in find_bound_states(model, pair, e_min=-200.0):
        dressed = gamma_dressed(pair, gamma_free(model, complex(st.energy)))
        assert np.linalg.norm(dressed @ st.charges) <= 1e-8
        lead = st.charges[np.argmax(np.abs(st.charges))]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0


def test_default_search_floor_covers_known_roots():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    floor = default_search_floor(model, pair)
    assert floor < ref.delta_bound_energy_3d(-1.0)
    states = find_bound_states(model, pair)
    assert len(states) == 1


def test_eigenfunction_decays_and_localizes():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    st = find_bound_states(model, pair, e_min=-200.0)[0]
    pts = [np.array([r, 0.0, 0.0]) for r in (0.2, 0.5, 1.0)]
    vals = eigenfunction_eval(model, st.energy, st.charges, pts)
    assert vals.shape == (2, 3)
    mags = np.abs(vals).max(axis=0)
    assert mags[0] > mags[1] > mags[2]
    # exponential decay rate sqrt(|E|)
    kappa = np.sqrt(-st.energy)
    ratio = (mags[2] * 1.0) / (mags[1] * 0.5)
    assert np.log(ratio) == pytest.approx(-kappa * 0.5, rel=1e-6)


def test_eigenfunction_rejects_continuum_energy():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    with pytest.raises(ValueError):
        eigenfunction_eval(model, 1.0, np.array([1.0, 0.0]), [np.ones(3)])


def test_invalid_pair_requires_unchecked():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    bad = preset_offdiag(model, [[1.0, 0.3]])
    with pytest.raises(ValueError):
        find_bound_states(model, bad, e_min=-50.0)
    find_bound_states(model, bad, e_min=-50.0, unchecked=True)


def test_mismatched_pair_is_rejected_even_unchecked():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(ModelSpec(3, [np.zeros(3), np.ones(3)], [0.0, 0.0]), -1.0)
    for unchecked in (False, True):
        with pytest.raises(ValidationError, match="does not match the model"):
            find_bound_states(model, pair, e_min=-50.0, unchecked=unchecked)


def test_two_site_delta_well_count_1d():
    # two attractive wells: the single-well level splits into a
    # symmetric/antisymmetric pair straddling -1
    model = ModelSpec(1, [0.0, 4.0], [0.0, 0.0])
    pair = preset_delta(model, -2.0)
    states = find_bound_states(model, pair, e_min=-5.0)
    energies = sorted({round(st.energy, 6) for st in states})
    assert len(energies) == 2
    assert energies[0] < -1.0 < energies[1]
    for e in energies:
        assert e == pytest.approx(-1.0, abs=0.05)
    # tunneling splitting for kappa = 1, L = 4 is about 2 e^{-4}
    gap = energies[1] - energies[0]
    assert gap == pytest.approx(4.0 * np.exp(-4.0), rel=0.15)


def _two_site_model(dimension, r):
    # a generic direction and offset, so no coordinate is special
    if dimension == 1:
        return ModelSpec(1, [0.3, 0.3 + r], [0.0, 0.0])
    u = np.array([0.48, -0.6, 0.64])
    o = np.array([0.2, -0.7, 0.1])
    return ModelSpec(3, [o, o + r * u / np.linalg.norm(u)], [0.0, 0.0])


@pytest.mark.parametrize("r", [0.5, 0.7, 1.0, 1.5])
def test_two_site_even_odd_levels_3d(r):
    # each level binds in all 4 spin configurations; at r = 1.5 the even
    # and odd levels are about 2e-7 apart and must stay two levels
    model = _two_site_model(3, r)
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair)
    expect = ref.two_site_bound_energies_3d(-1.0, r)
    assert len(expect) == 2
    assert [st.multiplicity for st in states] == [4, 4]
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)
        # the odd level's charges are the second eigenvector of each block
        gamma = gamma_free(model, complex(st.energy))
        residual = np.linalg.norm(gamma_dressed(pair, gamma) @ st.charge_basis.T, axis=0)
        scale = np.linalg.norm(pair.B @ gamma, 2) + np.linalg.norm(pair.A, 2)
        assert np.all(residual <= 1e-12 * scale)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_two_site_even_odd_levels_1d(r):
    model = _two_site_model(1, r)
    states = find_bound_states(model, preset_delta(model, -2.0))
    expect = ref.two_site_bound_energies_1d(-2.0, r)
    assert [st.multiplicity for st in states] == [4] * len(expect)
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def test_zeeman_chain_levels_3d():
    # sites 3 apart bind alone to 1e-16: 16 Zeeman levels 0.2 apart,
    # each bound at all 4 sites
    alpha = [0.1, 0.2, 0.4, 0.8]
    u = np.array([0.36, 0.48, 0.8])
    model = ModelSpec(3, [3.0 * j * u for j in range(4)], alpha)
    states = find_bound_states(model, preset_delta(model, -1.0))
    shifts = sorted(np.dot(alpha, s) for s in itertools.product([1, -1], repeat=4))
    expect = [sh + ref.delta_bound_energy_3d(-1.0) for sh in shifts]
    assert [st.multiplicity for st in states] == [4] * 16
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def test_zeeman_chain_levels_1d():
    # wells 20 apart bind alone to e^{-40}: 16 Zeeman levels 0.2 apart,
    # each bound at all 4 wells
    alpha = [0.1, 0.2, 0.4, 0.8]
    model = ModelSpec(1, [0.3 + 20.0 * j for j in range(4)], alpha)
    states = find_bound_states(model, preset_delta(model, -4.0))
    expect = ref.delta_chain_levels_1d(alpha, -4.0)
    assert [st.multiplicity for st in states] == [4] * 16
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def _random_pairs(dimension, seed=None, sizes=(1, 2, 3, 1, 2, 3)):
    """Random admissible pairs with Zeeman couplings on random sites, one per size."""
    rng = np.random.default_rng(31 + dimension if seed is None else seed)
    for n in sizes:
        pos = rng.normal(size=n) * 2 if dimension == 1 else rng.normal(size=(n, 3)) * 2
        model = ModelSpec(dimension, pos, rng.uniform(-0.5, 0.5, n))
        yield model, random_valid_pair(model, rng)


@pytest.mark.parametrize("dimension", [1, 3])
def test_certified_floor_finds_every_state(dimension):
    # random admissible pairs often bind below the heuristic floor; the
    # certified floor must give the states that a floor 100 times
    # deeper gives. Deep states of such pairs can have charges almost
    # entirely in the charge layer, where Gamma(E) varies like |E|^-3/2:
    # rounding then moves their roots by ~1e-11 relative, whatever the
    # bracket
    moved = 0
    for model, pair in _random_pairs(dimension):
        mu = essential_spectrum_bottom(model)
        floor = default_search_floor(model, pair)
        scale = np.max(np.abs(pair.A)) / np.max(np.abs(pair.B))
        guess = mu - 10.0 * (1.0 + (4.0 * np.pi * scale) ** 2)
        moved += mu - floor > 2.0 * (mu - guess)  # each move multiplies mu - floor by 4
        states = find_bound_states(model, pair)
        deep = find_bound_states(model, pair, e_min=mu - 100.0 * (mu - floor))
        assert [st.multiplicity for st in states] == [st.multiplicity for st in deep]
        for st, dp in zip(states, deep):
            assert st.energy == pytest.approx(dp.energy, rel=1e-9)
            assert st.energy > floor
    assert moved > 0


# ---------------------------------------------------------------------------
# spin frame: offdiag at alpha = 0 against its isospectral delta pair


def _zero_field(d, n):
    positions = [1.3 * k for k in range(n)] if d == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(n)]
    return ModelSpec(d, positions, np.zeros(n))


def _expanded(states):
    """Energies repeated by multiplicity, ascending."""
    return np.sort(np.concatenate([np.full(st.multiplicity, st.energy) for st in states]))


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 3) for n in (4, 5, 6)])
def test_offdiag_at_zero_field_is_isospectral_to_delta(d, n):
    """At alpha = 0, offdiag's spin parts are diagonal in the sigma_y basis of each site.

    Its eigenvalues there are +-betahat (d=3, with B = I) or +-2 betahat
    (d=1, in B), which is the delta pair with that per-site table, so the
    two pairs have the same levels. Compared as energies repeated by
    multiplicity: two roots within tol may share one bracket in one run.
    """
    betahat = 0.8
    model = _zero_field(d, n)
    pair = preset_offdiag(model, betahat)
    assert pair.frame(model).sites == tuple(range(1, n + 1))
    states = find_bound_states(model, pair)
    width = betahat if d == 3 else 2.0 * betahat
    twin = find_bound_states(model, preset_delta(model, [[width, -width]] * n))
    got, want = _expanded(states), _expanded(twin)
    assert got.size == want.size > 0
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # every charge basis is a null space of B Gamma(E) + A in the pair's own frame
    for st in states:
        q = st.charge_basis.T
        residual = pair.B @ (gamma_free(model, complex(st.energy)) @ q) + pair.A @ q
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8
        assert np.allclose(np.linalg.norm(st.charge_basis, axis=1), 1.0)


# ---------------------------------------------------------------------------
# Newton steps on the crossing eigenvalue, with the count as certificate


@pytest.mark.parametrize("dimension", [1, 3])
def test_multiplicities_add_up_to_the_count(dimension):
    """Every state between the floor and the top is reported once.

    The levels' multiplicities sum to N(top) - N(floor) exactly, also
    where a deep level's eigenvalue reads noisy counts near its root:
    the last d=1 pair has a level near -710 whose count at one side of
    its Newton bracket reads one less than at the bracket's lower end,
    and it gave a fourteenth row for 13 states without the clamp.
    """
    pairs = list(_random_pairs(dimension))
    if dimension == 1:
        pairs.append(list(_random_pairs(1, seed=7, sizes=(1, 2, 3)))[-1])
    for model, pair in pairs:
        red = spectral._reduce(model, pair.frame(model))
        mu = essential_spectrum_bottom(model)
        top = mu - spectral.GAP * (1.0 + abs(mu))
        floor, n_floor, n_top = spectral._search_floor(model, pair, red, top)
        # the stacked count of floor and top is each one's own count
        assert np.array_equal(n_floor, spectral._count(red, floor))
        assert np.array_equal(n_top, spectral._count(red, top))
        states = find_bound_states(model, pair)
        assert sum(st.multiplicity for st in states) == n_top.sum() - n_floor.sum()
        energies = [st.energy for st in states]
        assert all(np.diff(energies) > 1e-13 * (1.0 + np.abs(energies[1:])))


def test_degenerate_level_is_one_row():
    """A twofold root of the one-block offdiag pair in a field is one row.

    Bisection split it into two rows 7.3e-12 apart, inside one
    tol * (1 + |E|) bracket.
    """
    model = ModelSpec(3, [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(4)], [0.3] * 4)
    states = find_bound_states(model, preset_offdiag(model, 0.8))
    assert len(states) == 24
    assert sum(st.multiplicity for st in states) == 32
    near = [st for st in states if abs(st.energy + 100.765136542) < 1e-6]
    assert [st.multiplicity for st in near] == [2]
    assert near[0].charge_basis.shape == (2, model.defect_dim)


def _recorded(monkeypatch, *names):
    """The (args, result) of every call of the named spectral functions, per name."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(*args, _f=getattr(spectral, name), _calls=calls[name]):
            _calls.append((args, _f(*args)))
            return _calls[-1][1]
        monkeypatch.setattr(spectral, name, wrapped)
    return calls


def test_two_levels_of_a_small_block_take_one_round(monkeypatch):
    """Both crossings of each 2-channel block step in one _newton call, and one _levels call dresses both levels.

    d=1 delta, beta = -2 at sites 0 and 2: each of the 4 spin codes binds
    the even and the odd level, so each block's count jumps by 2 in the
    first bracket. Stepping one eigenvalue per block took two rounds.
    """
    model = ModelSpec(1, [0.0, 2.0], [0.0, 0.0])
    calls = _recorded(monkeypatch, "_newton", "_levels")
    states = find_bound_states(model, preset_delta(model, -2.0))
    assert [st.multiplicity for st in states] == [4, 4]
    for st, e in zip(states, ref.two_site_bound_energies_1d(-2.0, 2.0)):
        assert st.energy == pytest.approx(e, rel=1e-12)
    assert len(calls["_newton"]) == len(calls["_levels"]) == 1
    blocks = calls["_newton"][0][0][4]
    assert np.array_equal(np.bincount(blocks), [2, 2, 2, 2])


def test_a_round_stopped_by_the_step_cap_resumes_from_its_next_iterate(monkeypatch):
    """The evolve-1d pair in a field: the upper level, close to its block's threshold, outruns the step cap.

    d=1 offdiag, betahat = 0.8 at sites 0 and 1.5, alpha = 0.297953 and
    0.576138: both levels lie in one small block. The first round
    converges on the lower one and stops the upper one at the cap; the
    next round starts from that entry's next iterate, not from the lower
    root, and the search takes at most 12 _crossing calls (13 when a
    round stepped one eigenvalue and resumed at the last root).
    """
    model = ModelSpec(1, [0.0, 1.5], [0.297953, 0.576138])
    calls = _recorded(monkeypatch, "_newton", "_crossing")
    states = find_bound_states(model, preset_offdiag(model, 0.8))
    assert [st.multiplicity for st in states] == [1, 1]
    for st, e in zip(states, [-1.4286028459122428, -0.8881986274290202]):
        assert st.energy == pytest.approx(e, rel=1e-13)
    (first, (root, ahead)), (second, _) = calls["_newton"]
    stopped = np.isnan(root)
    assert stopped.tolist() == [False, True] and np.isfinite(ahead[stopped]).all()
    assert second[3] == pytest.approx(ahead[stopped], rel=1e-15)  # its start
    assert len(calls["_crossing"]) <= 12


def test_large_blocks_step_one_eigenvalue_per_round(monkeypatch):
    """A block above _SMALL_BLOCK channels carries one entry per _crossing call, and its levels stay the roots.

    d=3 offdiag N = 4 in a field: one 64-channel block, 24 levels (32
    states). The reference roots come from bisection on each sorted
    eigenvalue of the dense H_k(E), all branches at once.
    """
    model = ModelSpec(3, [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(4)], [0.3] * 4)
    pair = preset_offdiag(model, 0.8)
    red = spectral._reduce(model, pair.frame(model))
    assert [rd.lam.shape for rd in red] == [(1, 64, 64)] and 64 > spectral._SMALL_BLOCK
    calls = _recorded(monkeypatch, "_crossing")
    states = find_bound_states(model, pair)
    assert calls["_crossing"] and all(np.unique(args[2]).size == args[2].size for args, _ in calls["_crossing"])
    assert len(states) == 24
    mu = essential_spectrum_bottom(model)
    rd, top = red[0], mu - spectral.GAP * (1.0 + abs(mu))
    branch = np.arange(sum(st.multiplicity for st in states))
    lo, hi = np.full(branch.size, default_search_floor(model, pair)), np.full(branch.size, top)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = np.linalg.eigvalsh(rd.hermitian(rd.plan(mid)[0], slice(None)))[:, 0, :][branch, branch] < 0.0
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    energies = np.repeat([st.energy for st in states], [st.multiplicity for st in states])
    assert np.all(np.abs(energies - 0.5 * (lo + hi)) <= 1e-13 * (1.0 + np.abs(energies)))


@pytest.mark.parametrize("dimension", [1, 3])
def test_newton_slope_is_the_derivative_of_the_eigenvalue(dimension):
    """-y* V* G V y against a central difference of the sorted eigenvalue.

    Every eigenvalue of every block comes from one batched call, each
    block at its own energy. The one-block offdiag pair in a field
    (N = 3: 24 or 48 channels) takes the single-eigenpair path of large
    blocks.
    """
    field = ModelSpec(dimension, _zero_field(dimension, 3).positions, [0.3] * 3)
    for model, pair in list(_random_pairs(dimension))[:3] + [(field, preset_offdiag(field, 0.8))]:
        red = spectral._reduce(model, pair.frame(model))

        def eigenvalues(e):  # ascending, per block in group order, all blocks at energy e
            return [ev for rd in red for ev in np.linalg.eigvalsh(rd.hermitian(rd.plan(e)[0], slice(None)))]

        n_blocks = len(eigenvalues(essential_spectrum_bottom(model) - 0.7))
        energy = essential_spectrum_bottom(model) - 0.7 - 0.05 * np.arange(n_blocks)
        at = [eigenvalues(e) for e in energy]
        blocks = np.concatenate([np.full(len(at[b][b]), b) for b in range(n_blocks)])
        index = np.concatenate([np.arange(len(at[b][b])) for b in range(n_blocks)])
        lam, slope = spectral._crossing(red, energy[blocks], blocks, index)
        h = 1e-4
        up, down = [eigenvalues(e + h) for e in energy], [eigenvalues(e - h) for e in energy]
        for k, (b, i) in enumerate(zip(blocks, index)):
            assert lam[k] == pytest.approx(at[b][b][i], abs=1e-12)
            assert slope[k] < 0.0
            assert slope[k] == pytest.approx((up[b][b][i] - down[b][b][i]) / (2 * h), rel=1e-6)


def test_zeeman_chain_takes_few_assemblies_per_level(monkeypatch):
    """Gamma evaluations of the search's plans; a Newton step's Gram shares its Gamma's.

    Bisection to tol took 37 assemblies per level on this chain, and
    Newton steps on one block at a time 87 for its 16 levels. All 16
    blocks stepped at once take 6: a count at the floor and one at the
    top, two Newton steps, one count at every window edge and one
    dressing of all 16 levels.
    """
    alpha = [0.1, 0.2, 0.4, 0.8]
    u = np.array([0.36, 0.48, 0.8])
    model = ModelSpec(3, [3.0 * j * u for j in range(4)], alpha)
    calls = []
    plan = krein._gamma_plan

    def counted(*args):
        evaluate = plan(*args)
        return lambda *a, **kw: calls.append(1) or evaluate(*a, **kw)

    monkeypatch.setattr(krein, "_gamma_plan", counted)
    states = find_bound_states(model, preset_delta(model, -1.0))
    assert len(states) == 16
    assert len(calls) <= 6


# ---------------------------------------------------------------------------
# the search on the frame's charged blocks


@pytest.mark.parametrize("kwargs, name", [
    ({"tol": 0.0}, "tol"), ({"tol": -1e-13}, "tol"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
    ({"e_min": np.nan}, "e_min"), ({"e_min": -np.inf}, "e_min"), ({"e_min": np.inf}, "e_min"),
])
def test_search_rejects_bad_tol_and_floor_before_any_work(kwargs, name):
    """A ValueError that names the argument, ahead of the gate: the pair here does not even fit the model."""
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    other = ModelSpec(3, [np.zeros(3), np.ones(3)], [0.0, 0.0])
    with pytest.raises(ValueError, match=f"^{name} must be"):
        find_bound_states(model, preset_delta(other, -1.0), **kwargs)


def _field_chain(n):
    """d=1 sites 1.3 apart with a field at the first and last site only."""
    alpha = np.zeros(n)
    alpha[0], alpha[-1] = 0.3, 0.2
    return ModelSpec(1, [1.3 * k for k in range(n)], alpha)


@pytest.mark.parametrize("make, n", [(make, n) for make in (lambda m: preset_delta(m, -1.0),
                                                            lambda m: preset_offdiag(m, 0.8)) for n in (2, 3)])
def test_mixed_rows_take_the_general_reduction(make, n):
    """(C A, C B) with C invertible has the levels and charges of (A, B): A q = B f does not change.

    C mixes every row, so no channel is inert, the pair is one dense
    block, and B_k = C B has the rank of B, half the block: _reduce takes
    the general V path there.
    """
    model = _field_chain(n)
    pair = make(model)
    rng = np.random.default_rng(40 + n)
    m = model.defect_dim
    q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    c = q * rng.uniform(1.0, 2.0, m)  # condition number at most 2
    mixed = BoundaryPair(1, n, c @ pair.A, c @ pair.B)
    red = spectral._reduce(model, mixed.frame(model))
    assert red and all(rd.v is not None for rd in red)
    want, got = find_bound_states(model, pair), find_bound_states(model, mixed)
    assert [st.multiplicity for st in got] == [st.multiplicity for st in want]
    for st, wt in zip(got, want):
        assert abs(st.energy - wt.energy) <= 1e-13 * (1.0 + abs(wt.energy))
        assert np.max(scipy.linalg.subspace_angles(st.charge_basis.T, wt.charge_basis.T)) <= 1e-12


def _structure_pairs():
    """Every preset case of the boundary tests, and Haar pairs in both dimensions."""
    for model, pair, _ in _preset_cases():
        yield model, pair
    for d in (1, 3):
        yield from _random_pairs(d, sizes=(2,))


def test_search_groups_are_the_charged_blocks():
    for model, pair in _structure_pairs():
        frame = pair.frame(model)
        red = spectral._reduce(model, frame)
        assert len(red) == len(frame.charged)
        for rd, g in zip(red, frame.charged):
            assert rd.group.index is g.index


def test_search_plans_each_charged_group_once(monkeypatch):
    """One Gamma plan per group of frame.charged for the whole search, floor and levels included."""
    builds = []
    plan = krein._gamma_plan

    def counted(model, index):
        builds.append(np.shape(index))
        return plan(model, index)

    monkeypatch.setattr(krein, "_gamma_plan", counted)
    chain = _field_chain(3)
    table = preset_delta(chain, [[-1.0, 0.0], [-2.0, -1.0], [0.0, -0.5]])  # charged blocks of 1, 2 and 3
    cases = [(chain, table), (chain, preset_offdiag(chain, 0.8)), (chain, preset_delta_prime(chain, -1.3)),
             (_zero_field(3, 3), preset_offdiag(_zero_field(3, 3), 0.8))]
    cases += list(_random_pairs(1, sizes=(2,))) + list(_random_pairs(3, sizes=(2,)))
    for model, pair in cases:
        builds.clear()
        assert find_bound_states(model, pair)
        charged = pair.frame(model).charged
        assert builds == [g.index.shape for g in charged]
    assert len(table.frame(chain).charged) == 3


def test_smallest_singular_value_is_that_of_the_charged_dressing():
    """sigma_min of the level against the dense D_J = B_JJ Gamma_JJ + A_JJ; of B Gamma + A where nothing is inert."""
    chain, field = _field_chain(3), ModelSpec(3, [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(3)], [0.3] * 3)
    cases = [(chain, preset_delta(chain, -1.0)), (chain, preset_offdiag(chain, 0.8)),
             (chain, preset_delta_prime(chain, -1.3)), (_zero_field(1, 3), preset_offdiag(_zero_field(1, 3), 0.8)),
             (field, preset_offdiag(field, 0.8)), (field, preset_delta(field, -1.0))]
    cases += list(_random_pairs(1, sizes=(2,))) + list(_random_pairs(3, sizes=(2,)))
    inert_seen = 0
    for model, pair in cases:
        J = ref.charged_channels(pair.A, pair.B)[0]
        inert_seen += len(J) < model.defect_dim
        sub = np.ix_(J, J)
        for st in find_bound_states(model, pair):
            gamma = gamma_free(model, complex(st.energy))
            dressed = pair.B[sub] @ gamma[sub] + pair.A[sub]
            assert st.smallest_singular_value == pytest.approx(np.linalg.svd(dressed, compute_uv=False)[-1],
                                                               abs=1e-14)
            if len(J) == model.defect_dim:
                full = np.linalg.svd(gamma_dressed(pair, gamma), compute_uv=False)[-1]
                assert st.smallest_singular_value == pytest.approx(full, abs=1e-14)
    assert inert_seen == 4


@pytest.mark.parametrize("make, scale", [
    (lambda m: preset_delta(m, -1.7), 1.7),  # B_JJ = -beta I
    (lambda m: preset_offdiag(m, 0.8), 1.6),  # 2 betahat times a unitary flip
    (lambda m: preset_delta_prime(m, -0.9), 0.9),
    (lambda m: preset_delta(m, [[-1.0, -2.0], [-1.5, -1.0], [-0.7, -1.2]]), None),  # unequal singular values
])
def test_multiples_of_a_unitary_take_no_values_only_svd(monkeypatch, make, scale):
    """Where every B_k of a group is c_k times a unitary, sigma_min is c_k min |eig H_k|, with no SVD of D_J."""
    chain = _field_chain(3)
    field = ModelSpec(1, chain.positions, [0.3] * 3)
    values_only = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        values_only.append(kwargs.get("compute_uv", True) is False)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for model in (chain, field):
        pair = make(model)
        red = spectral._reduce(model, pair.frame(model))
        if scale is None:
            assert all(rd.scale is None for rd in red)
        else:
            assert all(np.allclose(rd.scale, scale, rtol=1e-14, atol=0.0) for rd in red)
        J = ref.charged_channels(pair.A, pair.B)[0]
        assert pair.validation().is_valid  # its values-only SVDs are cached on the pair
        values_only.clear()
        states = find_bound_states(model, pair)
        assert states and any(values_only) == (scale is None)
        for st in states:
            dressed = (pair.B @ gamma_free(model, complex(st.energy)) + pair.A)[np.ix_(J, J)]
            assert st.smallest_singular_value == pytest.approx(svd(dressed, compute_uv=False)[-1], abs=1e-14)
            # just off the level sigma_min is well above rounding, so the factor c_k shows
            step = 1e-6 * (1.0 + abs(st.energy))
            found = [(st.energy - step / 2, spectral._count(red, st.energy - step), spectral._count(red, st.energy + step))]
            off = spectral._levels(model, pair.frame(model), red, found, True)[0]
            dressed = (pair.B @ gamma_free(model, complex(found[0][0])) + pair.A)[np.ix_(J, J)]
            assert off.smallest_singular_value == pytest.approx(svd(dressed, compute_uv=False)[-1], rel=1e-6)


# ---------------------------------------------------------------------------
# real arithmetic below threshold: real data in float64, spin-flip pairs gauged real


def _flip_pair_in_a_field(dimension):
    """CI's one-block offdiag N=3 pair in a field, alpha = (0.3, 0, 0.2): its charged blocks carry imaginary parts."""
    positions = [1.3 * k for k in range(3)] if dimension == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(3)]
    model = ModelSpec(dimension, positions, [0.3, 0.0, 0.2])
    return model, preset_offdiag(model, 0.8)


@pytest.mark.parametrize("dimension", [1, 3])
def test_spin_flip_pairs_in_a_field_are_searched_in_real_arithmetic(dimension, monkeypatch):
    """The gauged search against the complex one (the reduction without its gauge).

    Same rows and multiplicities, energies within tol (1 + |E|), charge
    bases within principal angles of 1e-8 (2.5e-13 seen), and sigma_min
    within 8 eps ||D_J||_2 at the level (4.3 seen).
    """
    model, pair = _flip_pair_in_a_field(dimension)
    assert any(g.A.imag.any() or g.B.imag.any() for g in pair.frame(model).charged)
    red = spectral._reduce(model, pair.frame(model))
    e = essential_spectrum_bottom(model) - 0.7
    assert all(rd.phase is not None and rd.lam.dtype == np.float64 for rd in red)
    assert all(rd.hermitian(rd.plan(e)[0], slice(None)).dtype == np.float64 for rd in red)
    got = find_bound_states(model, pair)
    monkeypatch.setattr(spectral, "_quarter_gauge", lambda lam, codes: (None, lam))
    assert all(rd.phase is None and rd.lam.dtype == np.complex128 for rd in spectral._reduce(model, pair.frame(model)))
    want = find_bound_states(model, pair)
    assert want and [st.multiplicity for st in got] == [st.multiplicity for st in want]
    J = np.ix_(*[ref.charged_channels(pair.A, pair.B)[0]] * 2)
    for st, wt in zip(got, want):
        assert abs(st.energy - wt.energy) <= 1e-13 * (1.0 + abs(wt.energy))
        assert np.max(scipy.linalg.subspace_angles(st.charge_basis.T, wt.charge_basis.T)) <= 1e-8
        norm = np.linalg.norm((pair.B @ gamma_free(model, complex(wt.energy)) + pair.A)[J], 2)
        assert abs(st.smallest_singular_value - wt.smallest_singular_value) <= 8.0 * np.finfo(float).eps * norm


def test_real_pairs_are_reduced_in_float64_and_haar_pairs_stay_complex():
    """Every group with real A_k and B_k is float64 and ungauged; Haar pairs cannot be gauged and stay complex."""
    real_seen = 0
    for model, pair in _structure_pairs():
        for g, rd in zip(pair.frame(model).charged, spectral._reduce(model, pair.frame(model))):
            if not (g.A.imag.any() or g.B.imag.any()):
                real_seen += 1
                assert rd.lam.dtype == np.float64 and rd.phase is None
                assert rd.v is None or rd.v.dtype == np.float64
    assert real_seen
    for d in (1, 3):
        for model, pair in _random_pairs(d, sizes=(1, 2)):
            red = spectral._reduce(model, pair.frame(model))
            assert all(rd.phase is None and rd.lam.dtype == np.complex128 for rd in red)


def test_quarter_gauge_is_one_phase_per_spin_code():
    """D in {1, i}, constant on each spin code, with D* lam D real; None where entries or codes forbid it."""
    i = 1j
    path = np.array([[[1.0, i, 2.0], [-i, 0.5, -3 * i], [2.0, 3 * i, 0.0]]])
    phase, real = spectral._quarter_gauge(path, np.array([[0, 1, 2]]))
    assert real.dtype == np.float64 and set(np.ravel(phase)) <= {1.0, 1j}
    assert np.array_equal(real, (phase.conj()[:, :, None] * path * phase[:, None, :]).real)
    assert phase[0, 0] == phase[0, 2] != phase[0, 1]
    odd_cycle = np.array([[[0.0, i, i], [-i, 0.0, i], [-i, -i, 0.0]]])  # three odd links: no parity fits
    same_code = np.array([[[0.0, i], [-i, 0.0]]])  # an imaginary link inside one spin code
    mixed = np.array([[[0.0, 1.0 + i], [1.0 - i, 0.0]]])
    for lam, codes in ((odd_cycle, [[0, 1, 2]]), (same_code, [[5, 5]]), (mixed, [[0, 1]])):
        phase, same = spectral._quarter_gauge(lam, np.array(codes))
        assert phase is None and same is lam


def test_multiples_of_the_identity_take_no_svd(monkeypatch):
    """B_k = c_k I exactly (d=3 presets; d=1 delta, c_k = -beta): Lambda = A_k / c_k made Hermitian, scale |c_k|."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    chain, field = _field_chain(3), ModelSpec(3, [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(3)], [0.3] * 3)
    cases = [(chain, preset_delta(chain, -1.7), 1.7), (chain, preset_delta(chain, 0.9), -0.9),
             (field, preset_delta(field, -1.7), 1.0), (field, preset_offdiag(field, 0.8), 1.0)]
    for model, pair, c in cases:
        frame = pair.frame(model)
        calls.clear()
        red = spectral._reduce(model, frame)
        assert not calls
        for g, rd in zip(frame.charged, red):
            assert rd.v is None and np.array_equal(rd.scale, np.full(len(g.index), abs(c)))
            lam = rd.lam if rd.phase is None else rd.phase[:, :, None] * rd.lam * rd.phase.conj()[:, None, :]
            assert np.allclose(lam, g.A / c, rtol=0.0, atol=1e-15)


def test_small_blocks_take_one_eigh_per_level_round(monkeypatch):
    """_levels on blocks of at most 16 channels: one stacked eigh gives the crossing vectors and sigma_min's values."""
    model, pair = _flip_pair_in_a_field(1)  # one group of two 12-channel blocks, each 1.6 times a unitary flip
    calls, rounds = [], []
    levels, eigh, eigvalsh, subset = spectral._levels, np.linalg.eigh, np.linalg.eigvalsh, scipy.linalg.eigh

    def counted(*args, **kwargs):
        calls.clear()
        out = levels(*args, **kwargs)
        rounds.append(list(calls))
        return out

    monkeypatch.setattr(spectral, "_levels", counted)
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append("eigh") or eigh(*a, **kw))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: calls.append("eigvalsh") or eigvalsh(*a, **kw))
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **kw: calls.append("subset") or subset(*a, **kw))
    red = spectral._reduce(model, pair.frame(model))
    assert [(rd.scale is not None, rd.lam.shape) for rd in red] == [(True, (2, 12, 12))]
    assert find_bound_states(model, pair)
    assert rounds and all(made == ["eigh"] for made in rounds)
