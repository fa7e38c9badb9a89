import math

import numpy as np
import pytest

from qpgap.errors import BracketError
from qpgap.numerics import root_find, sort_median
from qpgap.parity import sort_median_mad


def test_root_find_simple_quadratic():
    root = root_find(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_root_find_honors_tolerance():
    root = root_find(lambda x: math.cos(x), 1.0, 2.0, abs_tol=1e-14)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_root_find_rejects_bracket_without_sign_change():
    with pytest.raises(BracketError):
        root_find(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_find_accepts_root_at_bracket_edge():
    assert root_find(lambda x: x, 0.0, 1.0) == 0.0


def _with_nan(rng, shape):
    block = rng.normal(size=shape)
    block[::2, rng.integers(shape[1])] = np.nan  # every other row
    return block


_BLOCKS = {
    "gaussian": lambda rng, shape: rng.normal(size=shape),
    "integer ties": lambda rng, shape: rng.integers(-2, 3, shape) * 1.0,
    "nan rows": _with_nan,
    "signed zeros": lambda rng, shape: rng.choice([0.0, -0.0], shape),
    "near 1e300": lambda rng, shape: rng.normal(size=shape) * 1e300,
    "near 1e-300": lambda rng, shape: rng.normal(size=shape) * 1e-300,
}


@pytest.mark.parametrize("spare_rows", [0, 3])  # 3: a short last block
@pytest.mark.parametrize("n_rows", [1, 9])
@pytest.mark.parametrize("kind", _BLOCKS)
@pytest.mark.parametrize("width", [1, 2, 3, 4, 61, 161, 162])
def test_sort_median_mad_matches_two_sorts(width, kind, n_rows, spare_rows):
    rng = np.random.default_rng(width)
    block = _BLOCKS[kind](rng, (n_rows, width))
    median = sort_median(block)
    mad = sort_median(np.abs(block - median[:, None]))
    buffer = np.empty((n_rows + spare_rows, width))
    got_median, got_mad = sort_median_mad(block, buffer)
    assert got_median.tobytes() == median.tobytes()
    assert got_mad.tobytes() == mad.tobytes()
