"""``fitting.least_squares`` against the reference loop it replaced.

The reference keeps the loop as it was before the per-iteration work was
trimmed: the free set indexed on every iteration, the step scattered
into a zero vector and clipped into infinite bounds when none are given.
The arithmetic is meant to be unchanged, so every fit must agree bit for
bit: parameters, covariance, squared residual, iteration count and
convergence flag, and the same error with the same best point.
"""

import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from qpgap import fitting
from qpgap.datasets import synthetic_t1_series, synthetic_t2_series
from qpgap.errors import ConvergenceError, DomainError, RankDeficiencyError
from qpgap.fitting import (
    LMResult,
    _LAMBDA_DOWN,
    _LAMBDA_INIT,
    _LAMBDA_MAX,
    _LAMBDA_UP,
    _SSR_TOL,
    _STEP_TOL,
    _covariance,
    dataseries_from_csv,
    fit_t1_vs_temperature,
    fit_t2_vs_temperature,
    t1_rate_model,
)
from qpgap.transmon import (
    FrequencyTargets,
    TransmonParams,
    eigenspectrum,
    fit_ej_ec,
    transition_frequency,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def reference_least_squares(residual_fn, jacobian_fn, x0, bounds=None,
                            max_iter=fitting.DEFAULT_MAX_ITER):
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)
    if bounds is None:
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
    else:
        if len(bounds) != n:
            raise DomainError("bounds length must match parameter count")
        lower = np.array([b[0] for b in bounds], dtype=float)
        upper = np.array([b[1] for b in bounds], dtype=float)
    if np.any(x < lower) or np.any(x > upper):
        raise DomainError(f"initial guess {x.tolist()} violates bounds")

    residual = np.asarray(residual_fn(x), dtype=float)
    ssr = float(residual @ residual)
    lam = _LAMBDA_INIT
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = np.asarray(jacobian_fn(x), dtype=float)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        diag = normal.diagonal().copy()
        if (diag == 0.0).any():
            dead = int(np.flatnonzero(diag == 0.0)[0])
            raise RankDeficiencyError(
                f"parameter {dead} has zero influence on the residuals",
                best=LMResult(x, None, ssr, iterations, False),
            )
        free = ~(
            ((x <= lower) & (gradient > 0.0))
            | ((x >= upper) & (gradient < 0.0))
        )
        if not free.any():
            converged = True
            break
        reduced = normal[free][:, free]
        scaling = np.diag(diag[free])
        descent = -gradient[free]
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                delta_free = np.linalg.solve(reduced + lam * scaling, descent)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            delta = np.zeros(n)
            delta[free] = delta_free
            trial = np.clip(x + delta, lower, upper)
            if not np.isfinite(trial).all():
                lam *= _LAMBDA_UP
                continue
            step = trial - x
            trial_residual = np.asarray(residual_fn(trial), dtype=float)
            trial_ssr = float(trial_residual @ trial_residual)
            if trial_ssr <= ssr:
                rel_change = (ssr - trial_ssr) / max(ssr, 1e-300)
                rel_move = float(
                    np.max(np.abs(step) / np.maximum(np.abs(x), 1e-300))
                )
                x = trial
                residual = trial_residual
                ssr = trial_ssr
                lam = max(lam / _LAMBDA_DOWN, 1e-12)
                accepted = True
                if rel_move < _STEP_TOL or rel_change < _SSR_TOL:
                    converged = True
                break
            lam *= _LAMBDA_UP
        if not accepted:
            converged = True
        if converged:
            break

    result = LMResult(
        x=x,
        covariance=_covariance(jacobian_fn(x), ssr),
        ssr=ssr,
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations (ssr={ssr:.6e})",
            best=result,
        )
    return result


def _bits(result):
    if result is None:
        return None
    covariance = (None if result.covariance is None
                  else result.covariance.tobytes())
    return (result.x.tobytes(), covariance, float(result.ssr).hex(),
            result.iterations, result.converged)


def _outcome(solver, *args, **kwargs):
    """The result's bits, or the error's type, message and best point."""
    try:
        return _bits(solver(*args, **kwargs))
    except (ConvergenceError, DomainError) as error:
        best = getattr(error, "best", None)
        return type(error), str(error), _bits(best)


@pytest.fixture
def compared(monkeypatch):
    """Every least_squares call checked against the reference; the count."""
    solver = fitting.least_squares
    calls = []

    def checked(*args, **kwargs):
        assert _outcome(solver, *args, **kwargs) == _outcome(
            reference_least_squares, *args, **kwargs)
        calls.append(kwargs.get("bounds"))
        return solver(*args, **kwargs)

    monkeypatch.setattr(fitting, "least_squares", checked)
    return calls


def _t1_seconds(t_kelvin):
    rate = t1_rate_model(np.array([t_kelvin]), 2.2e4, 1.31, 4.0e10)
    return 1.0 / float(rate[0])


def test_criterion_9_fits_match_the_reference(compared):
    t1_temps = np.linspace(0.025, 0.35, 14)
    t2_temps = np.linspace(0.025, 0.25, 12)
    for seed in range(50):
        fit_t1_vs_temperature(synthetic_t1_series(
            8.3e4, 1.31, 4.6e10, t1_temps, 0.05, seed=seed))
        fit_t2_vs_temperature(
            synthetic_t2_series(0.027, 2.0e4, 0.55, 0.36, 7.24, _t1_seconds,
                                t2_temps, 0.03, seed=seed),
            0.55, 0.36, 7.24, _t1_seconds)
    assert len(compared) == 100


def test_bundled_data_fits_match_the_reference(compared):
    t1 = fit_t1_vs_temperature(
        dataseries_from_csv(DATA / "t1_vs_temperature_1p.csv", "t1"))
    fit_t1_vs_temperature(
        dataseries_from_csv(DATA / "t1_vs_temperature_1np.csv", "t1"))
    plateau, tc, amplitude = t1.values.values()

    def t1_seconds(t_kelvin):
        rate = t1_rate_model(np.array([t_kelvin]), plateau, tc, amplitude)
        return 1.0 / float(rate[0])

    fit_t2_vs_temperature(
        dataseries_from_csv(DATA / "t2star_vs_temperature_1p.csv", "t2star"),
        0.55, 0.36, 7.24, t1_seconds)
    assert len(compared) == 3


def test_three_target_inversion_matches_the_reference(compared):
    truth = TransmonParams(EJ=6.92, EC=0.429)
    at_zero = eigenspectrum(truth, levels=3)
    fit_ej_ec(FrequencyTargets(
        at_zero.f_ge, transition_frequency(truth.with_ng(0.5)),
        at_zero.f_ef + 0.01))
    assert compared == [None]  # unbounded


_X = np.linspace(0.0, 1.0, 20)


def _line(p):
    return p[0] * _X + p[1] - (3.0 * _X + 0.5)


def _line_jacobian(p):
    return np.column_stack([_X, np.ones(20)])


def _banana(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def _banana_jacobian(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def _beyond_max(p):
    # zero at p = 2e308; the square of the residual and of the Jacobian
    # stay inside the float range, while the Gauss-Newton step from
    # 1.5e308 is 5e307.  Like the rate models, it refuses a parameter
    # that is not finite, so an overflowed trial must not reach it.
    if not np.isfinite(p).all():
        raise DomainError(f"parameter {p.tolist()} is not finite")
    return np.array([2e-154 * (p[0] - 1.5e308) - 1e154])


def _beyond_max_jacobian(p):
    return np.array([[2e-154]])


@pytest.mark.parametrize(
    "problem, x0, kwargs",
    [
        # a parameter pinned by lower == upper, the other free
        ((_line, _line_jacobian), [1.0, 0.25],
         {"bounds": [(0.0, 10.0), (0.25, 0.25)]}),
        # the slope runs into its upper bound and stays there
        ((_line, _line_jacobian), [1.0, 0.0],
         {"bounds": [(0.0, 2.0), (-1.0, 1.0)]}),
        # every parameter pinned: a constrained stationary point
        ((lambda p: p - 3.0, lambda p: np.eye(2)), [2.0, 2.0],
         {"bounds": [(0.0, 2.0), (0.0, 2.0)]}),
        ((_banana, _banana_jacobian), [-1.2, 1.0], {}),
        ((_banana, _banana_jacobian), [-1.2, 1.0], {"max_iter": 2}),
        ((_banana, _banana_jacobian), [-1.2, 1.0],
         {"bounds": [(-2.0, 0.5), (-math.inf, math.inf)]}),
        ((lambda p: np.full(3, p[0]) - 1.0,
          lambda p: np.column_stack([np.ones(3), np.zeros(3)])),
         [0.0, 1.0], {}),
        # the slope starts at its lower bound with a positive gradient, so
        # it stays pinned there while the intercept moves
        ((_line, _line_jacobian), [3.5, 0.5],
         {"bounds": [(3.5, 10.0), (-math.inf, math.inf)]}),
        # the optimum lies past the float range: the first trials overflow
        # to inf and are rejected until the damping shortens the step
        ((_beyond_max, _beyond_max_jacobian), [1.5e308], {"overflow": True}),
    ],
    ids=["pinned", "active-bound", "all-pinned", "banana", "cap",
         "banana-bounded", "rank", "lower-bound", "overflow"],
)
def test_small_problems_match_the_reference(monkeypatch, problem, x0, kwargs):
    # the solver reads its iteration cap at each call
    if "max_iter" in kwargs:
        monkeypatch.setattr(fitting, "DEFAULT_MAX_ITER", kwargs["max_iter"])
    kwargs = dict(kwargs)
    overflow = kwargs.pop("overflow", False)
    solver_kwargs = {k: v for k, v in kwargs.items() if k != "max_iter"}
    ours = _outcome(fitting.least_squares, *problem, x0, **solver_kwargs)
    # an overflowing trial warns in the reference loop, and warnings fail
    # the tests; the library's own loop must not warn
    with np.errstate(over="ignore") if overflow else nullcontext():
        theirs = _outcome(reference_least_squares, *problem, x0, **kwargs)
    assert ours == theirs


def test_non_finite_initial_guess_is_a_domain_error():
    with pytest.raises(DomainError, match="not finite"):
        fitting.least_squares(_line, _line_jacobian, [math.inf, 0.0])


# ------------------------------------------------ the damped-step solve


def _damped_systems(rng, n):
    """Damped normal systems of random Jacobians, as the LM loop forms them.

    Column scales span 1e-8 to 1e8.  Half the Jacobians have a column
    within 1e-10 (relative) of another, which leaves the normal matrix
    near-singular, damped by lambda down to the solver's floor of 1e-12.
    """
    for k in range(100):
        jac = rng.normal(size=(13, n)) * 10.0 ** rng.uniform(-8, 8, size=n)
        if k % 2:
            jac[:, 1] = jac[:, 0] * (1.0 + 1e-10 * rng.normal(size=13))
        normal = jac.T @ jac
        scaling = np.diag(normal.diagonal())
        descent = -(jac.T @ rng.normal(size=13))
        for lam in (1e-12, 1e-6, 1e-3, 1.0, 1e6):
            yield normal + lam * scaling, descent


@pytest.mark.parametrize("n", [2, 3])
def test_damped_step_solve_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for matrix, rhs in _damped_systems(rng, n):
        expected = np.linalg.solve(matrix, rhs)
        assert fitting._solve(matrix, rhs).tobytes() == expected.tobytes()
    # a nearly singular matrix, not a normal one: an ill-conditioned LU
    u = rng.normal(size=n)
    matrix = np.outer(u, u) + 1e-13 * np.eye(n)
    rhs = rng.normal(size=n)
    assert (fitting._solve(matrix, rhs).tobytes()
            == np.linalg.solve(matrix, rhs).tobytes())


def test_singular_damped_system_escalates_lambda(monkeypatch):
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for solve in (np.linalg.solve, fitting._solve):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve(singular, np.ones(2))

    def singular_first(solve, seen):
        # the first damped system is swapped for the singular one
        def patched(matrix, rhs):
            seen.append(matrix.copy())
            return solve(singular if len(seen) == 1 else matrix, rhs)
        return patched

    ours, theirs = [], []
    monkeypatch.setattr(fitting, "_solve", singular_first(fitting._solve, ours))
    monkeypatch.setattr(np.linalg, "solve",
                        singular_first(np.linalg.solve, theirs))
    x0 = [-1.2, 1.0]
    assert _outcome(fitting.least_squares, _banana, _banana_jacobian, x0) == (
        _outcome(reference_least_squares, _banana, _banana_jacobian, x0))
    # the singular solve raised, and the next system has lambda 10x larger
    normal = _banana_jacobian(x0).T @ _banana_jacobian(x0)
    scaling = np.diag(normal.diagonal())
    lam = _LAMBDA_INIT
    assert ours[0].tobytes() == (normal + lam * scaling).tobytes()
    lam *= _LAMBDA_UP
    assert ours[1].tobytes() == (normal + lam * scaling).tobytes()
    assert [m.tobytes() for m in ours] == [m.tobytes() for m in theirs]


def test_trial_clip_matches_np_clip_bit_for_bit():
    rng = np.random.default_rng(7)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308]
    for _ in range(300):
        n = int(rng.integers(1, 4))
        x = rng.choice(specials + list(rng.normal(size=8) * 10.0), size=n)
        ends = np.sort(rng.choice(
            [-np.inf, np.inf, 0.0, -0.0, 1e-300] + list(rng.normal(size=6)),
            size=(n, 2)), axis=1)
        lower, upper = ends[:, 0].copy(), ends[:, 1].copy()
        expected = np.clip(x, lower, upper)
        assert fitting._clip(x, lower, upper).tobytes() == expected.tobytes()
