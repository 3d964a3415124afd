import numpy as np
import pytest

from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution


def _image(spec, value):
    # pixel (r, c) is bit N-1-(r*cols + c): row-major, top-left most significant
    n = spec.n_qubits
    return [
        [(value >> (n - 1 - (r * spec.cols + c))) & 1 for c in range(spec.cols)]
        for r in range(spec.rows)
    ]


def _is_bar_or_stripe(grid):
    rows_const = all(len(set(row)) == 1 for row in grid)
    cols_const = all(len(set(col)) == 1 for col in zip(*grid))
    return rows_const or cols_const


def _shapes(max_pixels):
    return [(r, c) for r in range(1, max_pixels + 1) for c in range(1, max_pixels // r + 1)]


# --- shape ---


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=repr)
def test_shape_refuses_non_integers(value):
    # unchecked, BasSpec(2.5, 2) passed as a 5.0-qubit register
    with pytest.raises(ValueError, match=r"^rows must be an integer, got "):
        BasSpec(value, 2)
    with pytest.raises(ValueError, match=r"^cols must be an integer, got "):
        BasSpec(2, value)


def test_shape_below_one_refused():
    with pytest.raises(ValueError, match=r"^rows must be >= 1, got 0$"):
        BasSpec(0, 2)
    with pytest.raises(ValueError, match=r"^cols must be >= 1, got -1$"):
        BasSpec(2, -1)


def test_numpy_integer_shape_is_stored_as_ints():
    spec = BasSpec(np.int64(2), np.uint8(3))
    assert spec == BasSpec(2, 3)
    assert type(spec.rows) is int and type(spec.cols) is int and type(spec.n_qubits) is int


# --- pattern sets ---


def test_2x2_pattern_set_exact():
    got = bas_patterns(BasSpec(2, 2))
    assert got == {0b0000, 0b1010, 0b0101, 0b0011, 0b1100, 0b1111}
    assert all(type(p) is int for p in got)


def test_1x1_patterns():
    assert bas_patterns(BasSpec(1, 1)) == {0, 1}


def test_2x3_pattern_count():
    assert len(bas_patterns(BasSpec(2, 3))) == 10


def test_patterns_match_bruteforce_enumeration():
    # oracle: scan all 2^(rows*cols) images of every shape up to 12 pixels
    # for constant rows or constant columns
    shapes = _shapes(12)
    assert len(shapes) == 35
    for rows, cols in shapes:
        spec = BasSpec(rows, cols)
        want = {v for v in range(2**spec.n_qubits) if _is_bar_or_stripe(_image(spec, v))}
        assert bas_patterns(spec) == want, (rows, cols)


def test_count_formula_holds():
    for rows, cols in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 3)]:
        spec = BasSpec(rows, cols)
        assert len(bas_patterns(spec)) == 2**rows + 2**cols - 2


def test_every_pattern_decodes_to_bar_or_stripe():
    # past the brute force's reach: shapes of 13 to 20 pixels, each side >= 2
    for rows, cols in _shapes(20):
        spec = BasSpec(rows, cols)
        if spec.n_qubits <= 12 or min(rows, cols) < 2:
            continue
        pats = bas_patterns(spec)
        assert len(pats) == 2**rows + 2**cols - 2
        assert all(0 <= p < 2**spec.n_qubits for p in pats)
        assert all(_is_bar_or_stripe(_image(spec, p)) for p in pats), (rows, cols)


# --- pixel convention ---


def test_encode_worked_examples():
    # 2x3: the dark top row, left column, bottom row, and the two left columns
    assert {0b111000, 0b100100, 0b000111, 0b110110} <= bas_patterns(BasSpec(2, 3))
    # 3x2: the dark top row and the dark left column
    assert {0b110000, 0b101010} <= bas_patterns(BasSpec(3, 2))


def test_decode_msb_is_top_left():
    # pixel (r, c) is qubit r*cols + c, axis r*cols + c of a (2,)*N state, so
    # qubit 0, the most significant bit, is the top-left pixel
    t = bas_target_distribution(BasSpec(2, 3)).reshape((2,) * 6)
    assert t[1, 1, 1, 0, 0, 0] == t[1, 0, 0, 1, 0, 0] == 0.1  # top row, left column
    assert t[1, 0, 0, 0, 0, 0] == 0.0  # the top-left pixel alone is neither


def test_spec_validation():
    with pytest.raises(ValueError):
        BasSpec(0, 2)
    with pytest.raises(ValueError):
        BasSpec(5, 5)  # 25 qubits over the register cap
    # shown in full, the width of a 10**400-row image made one 833-character line
    with pytest.raises(ValueError, match=r"x2 image needs 2000.* qubits \(max 20\)$") as refused:
        BasSpec(10**400, 2)
    assert len(str(refused.value)) < 200


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


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (2, 7)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_target_is_exactly_uniform_on_patterns_and_aligned(shape):
    spec = BasSpec(*shape)
    pats = bas_patterns(spec)
    t = bas_target_distribution(spec)
    assert t.dtype == np.float64 and t.shape == (2**spec.n_qubits,)
    assert t.ctypes.data % 64 == 0
    on = np.zeros(len(t), dtype=bool)
    on[list(pats)] = True
    assert np.all(t[on] == 1.0 / len(pats))
    # +0.0, not -0.0, everywhere else
    assert np.all(t[~on] == 0.0) and not np.signbit(t[~on]).any()
