"""The CSV float kernel against ``repr``, byte for byte.

``_shortest.cells`` must give ``repr(float(x))`` for every double: 2^20
random bit patterns (every exponent, NaN and infinity among them) and the
structured edge set of ``tools/verify.py``.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from entropiclab import _shortest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("verify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernel_texts(values):
    cells = _shortest.cells(values)
    rows = cells.reshape(-1, cells.shape[-1])
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def test_random_bit_patterns_match_repr():
    tool = load_tool()
    mismatches, compared = tool.floats(1 << 20, seed=20, chunk=1 << 18)
    assert compared > 1 << 20
    assert mismatches == []


def test_edge_values_match_repr():
    values = load_tool().edge_floats()
    assert kernel_texts(values) == [repr(value) for value in values.tolist()]
    texts = set(kernel_texts(values))
    for text in ("5e-324", "-0.0", "0.0", "inf", "-inf", "nan", "0.0001", "1e-05", "1e+16",
                 "9999999999999998.0", "1.7976931348623157e+308", "0.30000000000000004",
                 "9007199254740992.0", "2.2250738585072014e-308"):
        assert text in texts


def test_nuls_follow_the_text_but_an_exponent_ends_the_row():
    values = np.array([[1.5, -2e-300], [np.nan, 123456.0]])
    cells = _shortest.cells(values)
    assert cells.shape == (2, 2, _shortest.WIDTH)
    rows = [row.tobytes() for row in cells.reshape(4, -1)]
    assert rows[1] == b"-2" + b"\0" * 17 + b"e-300"
    for row, value in zip(rows[::2] + rows[3:], [1.5, np.nan, 123456.0]):
        text = repr(value).encode()
        assert row == text + b"\0" * (_shortest.WIDTH - len(text))
    assert _shortest.cells(np.empty(0)).shape == (0, _shortest.WIDTH)


def test_longest_texts_fill_the_cell():
    values = np.array([-0.00012345678901234567, -1.2345678901234567e-308])
    assert [len(repr(v)) for v in values.tolist()] == [_shortest.WIDTH - 1, _shortest.WIDTH]
    assert kernel_texts(values) == [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_other_dtypes_are_written_as_their_doubles(dtype):
    values = np.array([0.1, -3.0, 65504.0, 1e-3]).astype(dtype)
    assert kernel_texts(values) == [repr(float(v)) for v in values.tolist()]


def test_eight_digits_in_parallel_lanes():
    # every value of each half of the eight digits, with the other half random
    rng = np.random.default_rng(8)
    quarters = np.arange(10 ** 4, dtype=np.uint64)
    other = rng.integers(0, 10 ** 4, 10 ** 4).astype(np.uint64)
    scale = np.uint64(10 ** 4)
    x = np.concatenate([quarters * scale + other, other * scale + quarters,
                        np.array([0, 10 ** 8 - 1, 10 ** 7, 99_999_999], dtype=np.uint64)])
    digits = _shortest._eight_digits(x) + _shortest._ZERO_CHARS
    assert [bytes(row).decode() for row in digits.view(np.uint8).reshape(-1, 8)] == [
        f"{value:08d}" for value in x.tolist()]
