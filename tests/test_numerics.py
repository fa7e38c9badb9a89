import math

import pytest

from qpgap.errors import BracketError
from qpgap.numerics import root_find


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
