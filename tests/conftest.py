from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO / "configs"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return REPO / "data"


def _central_differences(fn, x):
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(len(x)):
        step = 1e-6 * (abs(x[j]) or 1.0)
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] -= step
        columns.append((fn(up) - fn(down)) / (up[j] - down[j]))
    return np.column_stack(columns)


@pytest.fixture(scope="session")
def check_jacobian():
    """Assert that a closed-form Jacobian matches central differences.

    The differences step each parameter by 1e-6 of its size, and each
    column must agree to 1e-6 of its largest central-difference entry.
    """

    def check(residual_fn, jacobian_fn, x):
        analytic = np.asarray(jacobian_fn(np.asarray(x, dtype=float)))
        numeric = _central_differences(residual_fn, x)
        assert analytic.shape == numeric.shape
        for j in range(numeric.shape[1]):
            error = np.max(np.abs(analytic[:, j] - numeric[:, j]))
            scale = np.max(np.abs(numeric[:, j]))
            assert error <= 1e-6 * scale, (j, error, scale)

    return check
