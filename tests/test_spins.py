"""Spin-configuration encoding and model bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinpoint.spins import (
    ModelSpec,
    channel_blocks,
    channel_sum,
    channel_tables,
    config_code,
    enumerate_configs,
    index_dimension,
)


def test_config_enumeration_order_n2():
    # code counts flipped spins in binary, spin j lives in bit j-1
    configs = enumerate_configs(2)
    assert configs.shape == (4, 2)
    assert configs.tolist() == [[1, 1], [-1, 1], [1, -1], [-1, -1]]


def test_config_code_frozen():
    assert config_code(np.array([1, 1, 1])) == 0
    assert config_code(np.array([-1, 1, 1])) == 1
    assert config_code(np.array([1, -1, 1])) == 2
    assert config_code(np.array([-1, -1, -1])) == 7


@given(st.integers(min_value=1, max_value=6), st.data())
def test_config_roundtrip(n, data):
    code = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    assert config_code(enumerate_configs(n)[code]) == code


def test_zeeman_shift():
    # the shift alpha . sigma of a configuration sits at its code in the model's one table
    shifts = ModelSpec(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, -0.25]).shifts()
    assert shifts[config_code(np.array([1, -1]))] == pytest.approx(0.75)
    assert shifts[config_code(np.array([-1, 1]))] == pytest.approx(-0.75)


def test_index_dimension_formulas():
    for n in (1, 2, 3):
        assert index_dimension(1, n) == n * 2 ** (n + 1)
        assert index_dimension(3, n) == n * 2**n


def test_model_basic_properties():
    m3 = ModelSpec(3, [np.zeros(3), np.array([1.0, 0, 0])], [0.5, 0.25])
    assert m3.n_spins == 2
    assert m3.n_configs == 4
    assert m3.defect_dim == 8
    m1 = ModelSpec(1, [0.0], [0.0])
    assert m1.defect_dim == 4


def test_model_shift_table():
    m = ModelSpec(1, [0.0, 1.0], [0.5, 0.25])
    # order follows the config codes: ++, -+, +-, --
    assert m.shifts().tolist() == pytest.approx([0.75, -0.25, 0.25, -0.75])


def test_model_tables_are_built_once_and_read_only():
    m = ModelSpec(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.25])
    for table in (m.configs, m.shifts):
        assert table() is table()
        assert not table().flags.writeable
    assert np.array_equal(m.configs(), enumerate_configs(2))
    assert np.array_equal(m.shifts(), enumerate_configs(2) @ m.alpha)


def test_model_rejects_duplicate_sites():
    with pytest.raises(ValueError):
        ModelSpec(1, [0.3, 0.3], [0.0, 0.0])
    with pytest.raises(ValueError):
        ModelSpec(3, [np.zeros(3), np.zeros(3)], [0.1, 0.2])
    with pytest.raises(ValueError):  # the first and the last of three
        ModelSpec(3, [[0.0, 0.0, 1.0], [1.1, 0.3, 0.0], [0.0, 0.0, 1.0]], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):  # their distance underflows to 0
        ModelSpec(3, [[0.0, 0.0, 0.0], [1e-200, 0.0, 0.0]], [0.1, 0.2])
    assert ModelSpec(1, [0.0, 1e-300], [0.0, 0.0]).n_spins == 2
    # distinct sites that share two coordinates, or whose coordinate differences sum to 0
    assert ModelSpec(3, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [0.0, 0.0, 0.0]).n_spins == 3


def test_model_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ModelSpec(1, [0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        ModelSpec(3, [[0.0, 0.0]], [0.5])
    with pytest.raises(ValueError):
        ModelSpec(2, [0.0], [0.5])


def test_model_rejects_non_finite_positions_and_alpha():
    # json.loads reads NaN and Infinity, so a model file can carry them
    for dimension, site in ((1, 0.0), (3, np.zeros(3))):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(dimension, [site], [np.nan])
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(dimension, [site * np.nan], [0.3])
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(dimension, [site + np.inf], [0.3])


def test_spin_cap_and_override(monkeypatch):
    positions = list(np.linspace(0.0, 6.0, 7))
    alpha = [0.0] * 7
    with pytest.raises(ValueError):
        ModelSpec(1, positions, alpha)
    monkeypatch.setenv("SPINPOINT_MAX_N", "8")
    m = ModelSpec(1, positions, alpha)
    assert m.n_spins == 7
    monkeypatch.setenv("SPINPOINT_MAX_N", "3")
    with pytest.raises(ValueError):
        ModelSpec(1, positions[:4], alpha[:4])


def test_flat_index_frozen_examples():
    # layout: parity-major, then site, then configuration code
    p, j, code = channel_tables(ModelSpec(1, [0.0], [0.0]))
    assert list(zip(p, j, code)) == [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]

    p, j, code = channel_tables(ModelSpec(3, [np.zeros(3), np.ones(3)], [0.0, 0.0]))
    assert list(zip(p, j, code)) == [(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
                                     (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3)]
    assert code[7] == config_code(np.array([-1, -1]))

    p, j, code = channel_tables(ModelSpec(1, [0.0, 2.0], [0.1, 0.2]))
    assert (p[13], j[13], code[13]) == (1, 2, 1)


@pytest.mark.parametrize("d", [1, 3])
def test_channel_tables_match_multiindex(d):
    for n in range(1, 7):
        positions = [float(k) for k in range(n)] if d == 1 else [[float(k), 0.0, 0.0] for k in range(n)]
        model = ModelSpec(d, positions, [0.0] * n)
        p, j, code = channel_tables(model)
        assert p.shape == j.shape == code.shape == (model.defect_dim,)
        # the flat index of (p, j, code) in closed form, and each part in its range
        assert np.array_equal((p * n + j - 1) * 2**n + code, np.arange(model.defect_dim))
        assert set(p.tolist()) == ({0, 1} if d == 1 else {0})
        assert j.min() == 1 and j.max() == n and code.min() == 0 and code.max() == 2**n - 1
        blocks = channel_blocks(model)
        assert (code[blocks] == np.arange(model.n_configs)[:, None]).all()
        assert (p[blocks] == p[blocks[0]]).all() and (j[blocks] == j[blocks[0]]).all()
        assert np.array_equal(np.sort(blocks, axis=None), np.arange(model.defect_dim))
        # the channel sum against a plain loop over the flat index
        rng = np.random.default_rng(n)
        weights = rng.normal(size=p.size) + 1j * rng.normal(size=p.size)
        rows = rng.normal(size=(p.size, 3))
        expect = np.zeros((model.n_configs, 3), dtype=complex)
        for mu in range(p.size):
            expect[code[mu]] += weights[mu] * rows[mu]
        assert np.allclose(channel_sum(model, weights, rows), expect, rtol=1e-13, atol=1e-13)
