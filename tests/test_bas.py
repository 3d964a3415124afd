import numpy as np
import pytest

from ddqcl.bas import (
    BasSpec,
    bas_patterns,
    bas_target_distribution,
    decode_image,
    encode_image,
)

# --- pattern sets ---


def test_2x2_pattern_set_exact():
    got = bas_patterns(BasSpec(2, 2))
    assert got == {0b0000, 0b1010, 0b0101, 0b0011, 0b1100, 0b1111}
    assert all(type(p) is int for p in got)


def test_1x1_patterns():
    assert bas_patterns(BasSpec(1, 1)) == {0, 1}


def test_2x3_pattern_count():
    spec = BasSpec(2, 3)
    pats = bas_patterns(spec)
    assert len(pats) == 10 == spec.n_patterns


def test_patterns_match_bruteforce_enumeration():
    # oracle: scan all 2^(n*m) images for constant rows or constant columns
    spec = BasSpec(2, 3)
    want = set()
    for v in range(2**6):
        grid = np.array([(v >> (5 - k)) & 1 for k in range(6)]).reshape(2, 3)
        rows_const = all(len(set(row)) == 1 for row in grid.tolist())
        cols_const = all(len(set(col)) == 1 for col in grid.T.tolist())
        if rows_const or cols_const:
            want.add(v)
    assert bas_patterns(spec) == want


def test_count_formula_holds():
    for rows, cols in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 3)]:
        spec = BasSpec(rows, cols)
        assert len(bas_patterns(spec)) == 2**rows + 2**cols - 2


def test_every_pattern_decodes_to_bar_or_stripe():
    spec = BasSpec(3, 2)
    for p in bas_patterns(spec):
        grid = decode_image(spec, p)
        rows_const = all(len(set(row)) == 1 for row in grid.tolist())
        cols_const = all(len(set(col)) == 1 for col in grid.T.tolist())
        assert rows_const or cols_const


# --- encoding ---


def test_encode_worked_examples():
    spec = BasSpec(2, 2)
    assert encode_image(spec, np.array([[1, 0], [1, 0]])) == 0b1010
    assert encode_image(spec, np.array([[1, 1], [0, 0]])) == 0b1100
    assert encode_image(spec, np.zeros((2, 2), dtype=int)) == 0b0000


def test_encode_decode_roundtrip_random():
    spec = BasSpec(3, 4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        grid = rng.integers(0, 2, size=(3, 4))
        np.testing.assert_array_equal(decode_image(spec, encode_image(spec, grid)), grid)


def test_encode_injective_on_all_grids():
    spec = BasSpec(2, 2)
    seen = {encode_image(spec, np.array([(v >> (3 - k)) & 1 for k in range(4)]).reshape(2, 2))
            for v in range(16)}
    assert len(seen) == 16


def test_encode_rejects_bad_input():
    spec = BasSpec(2, 2)
    with pytest.raises(ValueError):
        encode_image(spec, np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        encode_image(spec, np.full((2, 2), 2))


@pytest.mark.parametrize("value", [-1, 16, 2**40])
def test_decode_rejects_value_outside_register(value):
    with pytest.raises(ValueError, match="out of range for 4 qubits"):
        decode_image(BasSpec(2, 2), value)


def test_decode_msb_is_top_left():
    # qubit 0, the most significant bit, is the top-left pixel
    np.testing.assert_array_equal(decode_image(BasSpec(2, 3), 0b100000), [[1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(decode_image(BasSpec(2, 3), 0b000001), [[0, 0, 0], [0, 0, 1]])


def test_spec_validation():
    with pytest.raises(ValueError):
        BasSpec(0, 2)
    with pytest.raises(ValueError):
        BasSpec(5, 5)  # 25 qubits over the register cap


# --- target distribution ---


def test_2x2_target_uniform_sixth():
    t = bas_target_distribution(BasSpec(2, 2))
    support = {i for i in range(16) if t[i] > 0}
    assert support == {0b0000, 0b1010, 0b0101, 0b0011, 0b1100, 0b1111}
    np.testing.assert_allclose(t[sorted(support)], 1 / 6)
    assert t.sum() == pytest.approx(1.0)


def test_1x1_target():
    t = bas_target_distribution(BasSpec(1, 1))
    np.testing.assert_allclose(t, [0.5, 0.5])


def test_2x3_target_tenth():
    t = bas_target_distribution(BasSpec(2, 3))
    nz = t[t > 0]
    assert len(nz) == 10
    np.testing.assert_allclose(nz, 0.1)
