import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qpgap.datasets import synthetic_t1_series, synthetic_t2_series
from qpgap import _dephasing, fitting
from qpgap.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    RankDeficiencyError,
)
from qpgap.fitting import (
    DataSeries,
    dataseries_from_csv,
    fit_t1_vs_temperature,
    fit_t2_vs_temperature,
    least_squares,
    pure_dephasing_from_echo,
    resonator_thermometry,
    shot_noise_dephasing,
    t1_rate_model,
    t2_rate_model,
)

TEMPS = np.linspace(0.025, 0.35, 14)
EXAMPLES = (Path(__file__).resolve().parent.parent / "scripts"
            / "example_datasets.py")


def _example_datasets():
    """``scripts/example_datasets.py``, the writer of the shipped CSVs."""
    spec = importlib.util.spec_from_file_location("example_datasets", EXAMPLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _t1_curve(plateau: float, tc: float, amplitude: float):
    def t1_seconds(t_kelvin: float) -> float:
        rate = t1_rate_model(np.array([t_kelvin]), plateau, tc, amplitude)
        return 1.0 / float(rate[0])

    return t1_seconds


# ------------------------------------------------------------ containers


def test_series_sorts_points():
    series = DataSeries(
        kind="t1",
        t_kelvin=np.array([0.3, 0.1, 0.2]),
        value_s=np.array([1e-5, 3e-5, 2e-5]),
    )
    np.testing.assert_allclose(series.t_kelvin, [0.1, 0.2, 0.3])
    np.testing.assert_allclose(series.value_s, [3e-5, 2e-5, 1e-5])


def test_series_fit_is_order_invariant():
    rng = np.random.default_rng(0)
    t = np.linspace(0.03, 0.3, 10)
    v = 1.0 / t1_rate_model(t, 1e5, 1.3, 5e10)
    order = rng.permutation(10)
    a = DataSeries(kind="t1", t_kelvin=t, value_s=v)
    b = DataSeries(kind="t1", t_kelvin=t[order], value_s=v[order])
    fit_a = fit_t1_vs_temperature(a)
    fit_b = fit_t1_vs_temperature(b)
    assert fit_a.values == fit_b.values


def test_series_validation():
    t = np.array([0.1, 0.2])
    v = np.array([1e-5, 2e-5])
    with pytest.raises(DomainError):
        DataSeries(kind="ramsey", t_kelvin=t, value_s=v)
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=t, value_s=v[:1])
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=-t, value_s=v)
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=t, value_s=v, sigma_s=np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_series_rejects_non_finite_arrays(bad):
    t = np.array([0.1, 0.2])
    v = np.array([1e-5, 2e-5])
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=np.array([0.1, bad]), value_s=v)
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=t, value_s=np.array([bad, 2e-5]))
    with pytest.raises(DomainError):
        DataSeries(kind="t1", t_kelvin=t, value_s=v,
                   sigma_s=np.array([1e-6, bad]))


@pytest.mark.parametrize(
    "value, sigma", [(1e-310, None), (1e-200, np.array([1e-6, 1e-6]))]
)
def test_series_rejects_overflowing_rates(value, sigma):
    with pytest.raises(DomainError, match="overflows"):
        DataSeries(kind="t1", t_kelvin=np.array([0.1, 0.2]),
                   value_s=np.array([value, 2e-5]), sigma_s=sigma)


def test_rates_view_propagates_sigma():
    series = DataSeries(
        kind="t1",
        t_kelvin=np.array([0.1]),
        value_s=np.array([2e-5]),
        sigma_s=np.array([1e-6]),
    )
    rate, sigma = series.rates()
    assert rate[0] == pytest.approx(5e4)
    assert sigma[0] == pytest.approx(1e-6 / 4e-10)


def test_csv_round_trip(tmp_path):
    series = synthetic_t1_series(1e5, 1.3, 5e10, TEMPS, 0.05, seed=1)
    path = tmp_path / "series.csv"
    _example_datasets().dataseries_to_csv(series, path)
    back = dataseries_from_csv(path, "t1")
    np.testing.assert_allclose(back.t_kelvin, series.t_kelvin, rtol=1e-5)
    np.testing.assert_allclose(back.value_s, series.value_s, rtol=1e-6)
    np.testing.assert_allclose(back.sigma_s, series.sigma_s, rtol=1e-6)


def test_csv_accepts_rate_column(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("T_K,rate_per_s\n0.1,50000\n0.2,100000\n")
    series = dataseries_from_csv(path, "t1")
    np.testing.assert_allclose(series.value_s, [2e-5, 1e-5])


def test_csv_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("T_K,value_us\n0.1,12\n0.2,oops\n")
    with pytest.raises(ConfigError, match="row 3"):
        dataseries_from_csv(path, "t1")
    path.write_text("T_K,value_us,rate_per_s\n0.1,12,5\n")
    with pytest.raises(ConfigError, match="exactly one"):
        dataseries_from_csv(path, "t1")
    path.write_text("temp,value_us\n0.1,12\n")
    with pytest.raises(ConfigError, match="T_K"):
        dataseries_from_csv(path, "t1")
    path.write_text("T_K,value_us\n")
    with pytest.raises(ConfigError, match="no data rows"):
        dataseries_from_csv(path, "t1")


@pytest.mark.parametrize(
    "header, message",
    [
        ("T_K,value_us,value_us", "duplicate column 'value_us'"),
        ("T_K, value_us,value_us ", "duplicate column 'value_us'"),
        ("T_K,T_K,value_us", "duplicate column 'T_K'"),
        ("T_K,value_us,sigma_us", "unknown column 'sigma_us'; expected "
         "T_K, value_us, rate_per_s, sigma"),
        ("T_K,value_us,", "unknown column ''; expected "
         "T_K, value_us, rate_per_s, sigma"),
    ],
    ids=["value", "value-spaced", "T_K", "misspelt-sigma", "empty-name"],
)
def test_csv_header_names_each_known_column_once(tmp_path, header, message):
    # a repeated name would keep its last column and an unknown one would
    # be dropped: a misspelt sigma column fits unweighted
    path = tmp_path / "header.csv"
    path.write_text(f"{header}\n0.1,12,1\n0.2,30,2\n")
    with pytest.raises(ConfigError) as caught:
        dataseries_from_csv(path, "t1")
    assert str(caught.value) == f"{path}: {message}"


def test_csv_row_longer_than_the_header_names_the_row(tmp_path):
    # a sigma cell under no sigma header would be dropped: the fit would
    # run unweighted
    path = tmp_path / "long.csv"
    path.write_text("T_K,value_us\n0.1,12\n\n0.2,30,2\n0.3,31\n")
    with pytest.raises(ConfigError) as caught:
        dataseries_from_csv(path, "t1")
    assert str(caught.value) == (
        f"{path}: row 4 has more cells than the header's 2 columns")


def test_csv_header_names_are_stripped(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("T_K, value_us , sigma\n0.1,12,1\n0.2,30,2\n")
    series = dataseries_from_csv(path, "t1")
    np.testing.assert_array_equal(series.value_s, np.array([12, 30]) * 1e-6)
    np.testing.assert_array_equal(series.sigma_s, np.array([1, 2]) * 1e-6)


_OUT_OF_RANGE = "1/value or sigma/value**2 overflows or is zero: rate out of range"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("T_K,value_us\n0.1,12\n-0.2,30\n", "non-positive value"),
        ("T_K,value_us,sigma\n0.1,12,1\n0.2,30,0\n", "non-positive value"),
        # 1e-320 us is 0 s
        ("T_K,value_us\n0.1,12\n0.2,1e-320\n", "non-positive value"),
        # its value 1/rate overflows
        ("T_K,rate_per_s\n0.1,5e4\n0.2,1e-320\n", _OUT_OF_RANGE),
        ("T_K,rate_per_s\n0.1,5e4\n0.2,inf\n", "non-finite value"),
    ],
    ids=["T_K", "sigma", "value_us-underflow", "rate_per_s-tiny", "rate-inf"],
)
def test_csv_point_errors_name_the_file_and_row(tmp_path, text, reason):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as caught:
        dataseries_from_csv(path, "t1")
    assert str(caught.value) == f"{path}: {reason} in row 3"


@pytest.mark.parametrize(
    "text, message",
    [
        ("T_K,value_us\n0.03,40\n\n0.1,42\n0.2,-3\n",
         "non-positive value in row 5"),
        ("T_K,value_us\n0.03,40\n\n0.1,oops\n",
         "malformed row 4: {'T_K': '0.1', 'value_us': 'oops'}"),
        # a form feed is white space to float(), not a line break
        ("T_K,value_us\n0.1,12\x0c\n0.2,-3\n", "non-positive value in row 3"),
        ("", "empty file"),
    ],
    ids=["point", "malformed", "form-feed", "empty"],
)
def test_csv_errors_name_the_line(tmp_path, text, message):
    # the row number is the file's line number, blank lines included
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as caught:
        dataseries_from_csv(path, "t1")
    assert str(caught.value) == f"{path}: {message}"


def test_series_error_names_the_point():
    with pytest.raises(DomainError, match=r"non-positive value at point 1 "
                       r"\(T = 0.2 K\)"):
        DataSeries(kind="t1", t_kelvin=np.array([0.1, 0.2, 0.3]),
                   value_s=np.array([1e-5, -2e-5, 0.0]))
    # a rate sigma that underflows to zero would weigh its point infinitely
    with pytest.raises(DomainError, match="at point 0"):
        DataSeries(kind="t1", t_kelvin=np.array([0.1]),
                   value_s=np.array([1e200]), sigma_s=np.array([1e-200]))


# ------------------------------------------------------------- optimizer


def test_linear_least_squares_is_exact():
    x_data = np.linspace(0.0, 1.0, 20)
    y = 3.0 * x_data + 0.5

    def residual(p):
        return p[0] * x_data + p[1] - y

    def jacobian(p):
        return np.column_stack([x_data, np.ones(20)])

    result = least_squares(residual, jacobian, [1.0, 0.0])
    assert result.x[0] == pytest.approx(3.0, abs=1e-8)
    assert result.x[1] == pytest.approx(0.5, abs=1e-8)
    assert result.ssr < 1e-15


def test_linear_covariance_matches_closed_form():
    rng = np.random.default_rng(5)
    x_data = np.linspace(0.0, 1.0, 50)
    y = 2.0 * x_data + 1.0 + rng.normal(0.0, 0.1, size=50)

    def residual(p):
        return p[0] * x_data + p[1] - y

    def jacobian(p):
        return np.column_stack([x_data, np.ones(50)])

    result = least_squares(residual, jacobian, [1.0, 0.0])
    design = np.column_stack([x_data, np.ones(50)])
    expected = np.linalg.inv(design.T @ design) * result.ssr / (50 - 2)
    np.testing.assert_allclose(result.covariance, expected, rtol=1e-4)


def test_nonlinear_round_trip():
    x_data = np.linspace(0.0, 5.0, 40)
    y = 2.5 * np.exp(-1.3 * x_data)

    def residual(p):
        return p[0] * np.exp(-p[1] * x_data) - y

    def jacobian(p):
        decay = np.exp(-p[1] * x_data)
        return np.column_stack([decay, -p[0] * x_data * decay])

    result = least_squares(residual, jacobian, [1.0, 0.5])
    assert result.x[0] == pytest.approx(2.5, rel=1e-6)
    assert result.x[1] == pytest.approx(1.3, rel=1e-6)


def test_bounds_clip_the_solution():
    x_data = np.linspace(0.0, 1.0, 20)
    y = 3.0 * x_data

    def residual(p):
        return p[0] * x_data - y

    def jacobian(p):
        return x_data[:, None]

    result = least_squares(residual, jacobian, [1.0], bounds=[(0.0, 2.0)])
    assert result.x[0] == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(DomainError):
        least_squares(residual, jacobian, [5.0], bounds=[(0.0, 2.0)])


def test_parameter_fixed_by_equal_bounds_stays_put():
    # a parameter with lower == upper is held, not differentiated away
    x_data = np.linspace(0.0, 1.0, 20)
    y = 3.0 * x_data + 0.5

    def residual(p):
        return p[0] * x_data + p[1] - y

    def jacobian(p):
        return np.column_stack([x_data, np.ones(20)])

    result = least_squares(
        residual, jacobian, [1.0, 0.25], bounds=[(0.0, 10.0), (0.25, 0.25)]
    )
    assert result.converged
    assert result.x[1] == 0.25
    # the least-squares slope through the origin shifted by 0.25
    slope = float(x_data @ (y - 0.25) / (x_data @ x_data))
    assert result.x[0] == pytest.approx(slope, rel=1e-9)


def test_unused_parameter_raises_rank_deficiency():
    y = np.array([1.0, 2.0, 3.0])

    def residual(p):
        return np.full(3, p[0]) - y

    def jacobian(p):
        return np.column_stack([np.ones(3), np.zeros(3)])

    with pytest.raises(RankDeficiencyError):
        least_squares(residual, jacobian, [0.0, 1.0])


def test_iteration_cap_raises_with_best_point(monkeypatch):
    # banana valley needs many more than two iterations
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def jacobian(p):
        return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    monkeypatch.setattr("qpgap.fitting.DEFAULT_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        least_squares(residual, jacobian, [-1.2, 1.0])
    best = info.value.best
    start = np.array([10.0 * (1.0 - 1.44), 2.2])
    assert best.ssr < float(start @ start)


# ---------------------------------------------------- closed-form Jacobians

T1_TRUTH = (8.3e4, 1.31, 4.6e10)  # criterion 9
T2_TRUTH = (0.027, 2.0e4)
T2_TEMPS = np.linspace(0.025, 0.25, 12)


def _t2_jacobian_case(series, t1_model, params, check_jacobian):
    terms = _dephasing._t2_terms(series.t_kelvin, 7.24, t1_model)
    residual, jacobian = _dephasing._t2_problem(series, 0.55, 0.36, terms)
    check_jacobian(residual, jacobian, params)


@pytest.mark.parametrize("device", ["1np", "1p"])
def test_t1_jacobian_at_shipped_fit(data_dir, check_jacobian, device):
    series = dataseries_from_csv(
        data_dir / f"t1_vs_temperature_{device}.csv", "t1"
    )
    fit = fit_t1_vs_temperature(series)
    check_jacobian(*fitting._t1_problem(series), list(fit.values.values()))


def test_t1_jacobian_at_criterion_truth(check_jacobian):
    series = synthetic_t1_series(*T1_TRUTH, TEMPS, 0.05, seed=0)
    check_jacobian(*fitting._t1_problem(series), T1_TRUTH)
    unweighted = DataSeries("t1", series.t_kelvin, series.value_s)
    check_jacobian(*fitting._t1_problem(unweighted), T1_TRUTH)


def test_t1_jacobian_is_finite_where_the_gap_ratio_overflows():
    # at T = 5e-324 K, Delta/T is inf and the thermal term underflows to 0
    t = np.array([5e-324, 0.1, 0.2])
    with np.errstate(all="raise"):
        jac = fitting._t1_jacobian(fitting._thermal_terms(t, 0.55), 0.55,
                                   1.5e6)
    assert np.isfinite(jac).all()
    assert jac[0].tolist() == [1.0, 0.0, 0.0]


def test_t2_jacobian_at_shipped_fit(data_dir, check_jacobian):
    t1_fit = fit_t1_vs_temperature(
        dataseries_from_csv(data_dir / "t1_vs_temperature_1p.csv", "t1")
    )
    t1_model = _t1_curve(*t1_fit.values.values())
    series = dataseries_from_csv(
        data_dir / "t2star_vs_temperature_1p.csv", "t2star"
    )
    fit = fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
    _t2_jacobian_case(series, t1_model, list(fit.values.values()),
                      check_jacobian)


def test_t2_jacobian_at_criterion_truth(check_jacobian):
    t1_model = _t1_curve(2.2e4, 1.31, 4.0e10)
    series = synthetic_t2_series(
        *T2_TRUTH, 0.55, 0.36, 7.24, t1_model, T2_TEMPS, 0.03, seed=0
    )
    _t2_jacobian_case(series, t1_model, T2_TRUTH, check_jacobian)


# The points of the memo tests: a trial a, a rejected trial b at another
# memo key, c at a's key with its other parameters changed, in LM order:
# the residual and Jacobian at a, the rejected b, the Jacobian back at a
# after b, then c.
def _lm_order(a, b, c):
    return [("residual", a), ("jacobian", a), ("residual", b),
            ("jacobian", a), ("jacobian", a), ("residual", c),
            ("jacobian", c), ("residual", a), ("jacobian", b)]


def _check_memo_order(problem, fresh, points):
    residual, jacobian = problem
    calls = {"residual": residual, "jacobian": jacobian}
    for kind, point in _lm_order(*points):
        x = np.array(point)
        assert calls[kind](x).tobytes() == fresh[kind](x).tobytes(), (
            kind, point)


def test_t1_memo_gives_the_bits_of_fresh_calls():
    series = synthetic_t1_series(*T1_TRUTH, TEMPS, 0.05, seed=3)
    t = series.t_kelvin
    rates, sigmas = series.rates()
    weights = 1.0 / sigmas
    fresh = {
        "residual": lambda p: (t1_rate_model(t, *p) - rates) * weights,
        "jacobian": lambda p: fitting._t1_jacobian(
            fitting._thermal_terms(t, p[1]), p[1], p[2]) * weights[:, None],
    }
    a = T1_TRUTH
    b = (T1_TRUTH[0], T1_TRUTH[1] * 1.01, T1_TRUTH[2])
    c = (T1_TRUTH[0] * 2.0, T1_TRUTH[1], T1_TRUTH[2] * 0.5)
    _check_memo_order(fitting._t1_problem(series), fresh, (a, b, c))


def test_t2_memo_gives_the_bits_of_fresh_calls():
    t1_model = _t1_curve(2.2e4, 1.31, 4.0e10)
    series = synthetic_t2_series(
        *T2_TRUTH, 0.55, 0.36, 7.24, t1_model, T2_TEMPS, 0.03, seed=3
    )
    t = series.t_kelvin
    rates, sigmas = series.rates()
    weights = 1.0 / sigmas
    terms = _dephasing._t2_terms(t, 7.24, t1_model)

    def model(p):
        return t2_rate_model(t, *p, 0.55, 0.36, 7.24, t1_model)

    def fresh_jacobian(p):
        shot = _dephasing._t2_shot(terms, p[0], 0.55, 0.36)
        return _dephasing._t2_jacobian(shot, 0.36) * weights[:, None]

    fresh = {"residual": lambda p: (model(p) - rates) * weights,
             "jacobian": fresh_jacobian}
    problem = _dephasing._t2_problem(series, 0.55, 0.36, terms)
    a, b, c = T2_TRUTH, (0.0, T2_TRUTH[1]), (T2_TRUTH[0], 0.0)
    _check_memo_order(problem, fresh, (a, b, c))
    # a negative n_th raises as the model does, and leaves no memo entry
    negative = np.array([-1.0, 0.0])
    with pytest.raises(DomainError) as expected:
        model(negative)
    residual, jacobian = problem
    for call in (residual, jacobian, residual):
        with pytest.raises(DomainError) as raised:
            call(negative)
        assert str(raised.value) == str(expected.value)
    assert "n_th must be non-negative" in str(expected.value)
    _check_memo_order(problem, fresh, (a, b, c))


# ------------------------------------------------------------ shot noise


def test_shot_noise_quoted_value():
    rate = shot_noise_dephasing(0.55, 0.36, 0.027)
    assert rate == pytest.approx(54787.747815147, rel=1e-9)
    assert rate == pytest.approx(56e3, rel=0.05)


def test_shot_noise_zero_at_zero_photons():
    assert shot_noise_dephasing(0.55, 0.36, 0.0) == 0.0


def test_shot_noise_small_photon_limit():
    # linearization: kappa_angular n (2 chi/kappa)^2 / (1 + (2 chi/kappa)^2)
    ratio = 2.0 * 0.55 / 0.36
    expected = (
        2.0 * math.pi * 0.36e6 * 1e-4 * ratio**2 / (1.0 + ratio**2)
    )
    assert shot_noise_dephasing(0.55, 0.36, 1e-4) == pytest.approx(
        expected, rel=0.01
    )


def test_shot_noise_monotone_in_photons():
    values = [
        shot_noise_dephasing(0.55, 0.36, n) for n in (0.001, 0.01, 0.1, 1.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_shot_noise_rejects_bad_arguments():
    with pytest.raises(DomainError):
        shot_noise_dephasing(0.55, 0.0, 0.027)
    with pytest.raises(DomainError):
        shot_noise_dephasing(0.55, 0.36, -0.01)


def test_thermometry_inverts_shot_noise():
    rate = shot_noise_dephasing(0.55, 0.36, 0.027)
    result = resonator_thermometry(rate, 0.55, 0.36, 7.24)
    assert result.n_th == pytest.approx(0.027, rel=1e-9)
    assert not result.at_lower_limit


def test_thermometry_round_trip_is_exact():
    # the closed-form inverse meets the forward rate over eight decades of
    # n_th, past the old root-find bracket of n_th <= 10, for both signs
    # of chi and for chi far below and above kappa / 2
    for chi in (-0.55, 0.05, 0.55, 2.0):
        for n_th in np.geomspace(1e-6, 1e2):
            rate = shot_noise_dephasing(chi, 0.36, float(n_th))
            result = resonator_thermometry(rate, chi, 0.36, 7.24)
            assert result.n_th == pytest.approx(n_th, rel=1e-9), (chi, n_th)


def test_thermometry_rejects_zero_chi():
    with pytest.raises(DomainError, match="chi"):
        resonator_thermometry(56e3, 0.0, 0.36, 7.24)


def test_thermometry_quoted_photon_number():
    result = resonator_thermometry(56e3, 0.55, 0.36, 7.24)
    assert result.n_th == pytest.approx(0.027, rel=0.05)
    assert result.temperature_k == pytest.approx(0.096, abs=0.002)


def test_thermometry_zero_rate_is_lower_limit():
    result = resonator_thermometry(0.0, 0.55, 0.36, 7.24)
    assert result.at_lower_limit
    assert result.n_th == 0.0
    assert result.temperature_k == 0.0


def test_pure_dephasing_from_echo():
    rate = pure_dephasing_from_echo(8.15e-6, 15.0e-6)
    assert rate == pytest.approx(56032.71983640082, rel=1e-12)
    assert rate == pytest.approx(56e3, rel=0.01)
    with pytest.raises(DomainError):
        pure_dephasing_from_echo(16e-6, 15e-6)


# ----------------------------------------------------------- model fits


def test_t1_fit_recovers_noiseless_truth():
    series = DataSeries(
        kind="t1",
        t_kelvin=TEMPS,
        value_s=1.0 / t1_rate_model(TEMPS, 8.3e4, 1.31, 4.6e10),
    )
    fit = fit_t1_vs_temperature(series)
    assert fit.values["gamma_plateau_per_s"] == pytest.approx(8.3e4, rel=1e-4)
    assert fit.values["tc_K"] == pytest.approx(1.31, rel=1e-4)
    assert fit.values["amplitude_per_s"] == pytest.approx(4.6e10, rel=1e-3)
    assert fit.derived["x_nqp_inferred"] == pytest.approx(
        8.3e4 / 4.6e10, rel=1e-3
    )


def test_t1_fit_round_trip_within_two_sigma():
    truth = (8.3e4, 1.31, 4.6e10)
    series = synthetic_t1_series(*truth, TEMPS, 0.05, seed=77)
    fit = fit_t1_vs_temperature(series)
    for name, true_value in zip(fit.param_names, truth):
        pull = abs(fit.values[name] - true_value) / fit.sigmas[name]
        assert pull < 3.0


def test_t1_fit_preconditions():
    t = np.array([0.1, 0.11, 0.12, 0.13])
    v = np.full(4, 1e-5)
    with pytest.raises(DomainError, match="span"):
        fit_t1_vs_temperature(DataSeries(kind="t1", t_kelvin=t, value_s=v))
    with pytest.raises(DomainError, match="4 points"):
        fit_t1_vs_temperature(
            DataSeries(
                kind="t1", t_kelvin=t[:3] * 3.0, value_s=v[:3]
            )
        )
    with pytest.raises(DomainError, match="t1"):
        fit_t1_vs_temperature(
            DataSeries(kind="t2star", t_kelvin=TEMPS, value_s=np.full(14, 1e-5))
        )


def test_t1_fit_of_bundled_device_data(data_dir):
    series = dataseries_from_csv(data_dir / "t1_vs_temperature_1np.csv", "t1")
    fit = fit_t1_vs_temperature(series)
    assert fit.values["tc_K"] == pytest.approx(1.31, abs=0.04)
    assert 1.0e-6 < fit.derived["x_nqp_inferred"] < 3.0e-6
    assert 0.14 < fit.derived["crossover_K"] < 0.20


def test_t2_fit_recovers_noiseless_truth():
    t1_model = _t1_curve(2.2e4, 1.31, 4.0e10)
    temps = np.linspace(0.025, 0.25, 12)
    rates = t2_rate_model(temps, 0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model)
    series = DataSeries(kind="t2star", t_kelvin=temps, value_s=1.0 / rates)
    fit = fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
    assert fit.values["n0"] == pytest.approx(0.027, rel=1e-3)
    assert fit.values["gamma_offset_per_s"] == pytest.approx(2.0e4, rel=1e-3)
    assert fit.derived["t_resonator_effective_K"] == pytest.approx(
        0.096, abs=0.003
    )


def test_t2_fit_round_trip_within_two_sigma():
    t1_model = _t1_curve(2.2e4, 1.31, 4.0e10)
    temps = np.linspace(0.025, 0.25, 12)
    series = synthetic_t2_series(
        0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model, temps, 0.03, seed=43
    )
    fit = fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
    pull = abs(fit.values["n0"] - 0.027) / fit.sigmas["n0"]
    assert pull < 3.0


def test_t2_fit_of_bundled_device_data(data_dir):
    t1_series = dataseries_from_csv(
        data_dir / "t1_vs_temperature_1p.csv", "t1"
    )
    t1_fit = fit_t1_vs_temperature(t1_series)
    t1_model = _t1_curve(
        t1_fit.values["gamma_plateau_per_s"],
        t1_fit.values["tc_K"],
        t1_fit.values["amplitude_per_s"],
    )
    series = dataseries_from_csv(
        data_dir / "t2star_vs_temperature_1p.csv", "t2star"
    )
    fit = fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
    assert abs(fit.values["n0"] - 0.027) < 2.0 * fit.sigmas["n0"]
    assert fit.values["gamma_offset_per_s"] < 2.0e5


def test_t1_fit_coverage_over_seeds():
    # quick 2-sigma coverage check; the full 500-trial suite runs in the
    # acceptance tests
    truth = (8.3e4, 1.31, 4.6e10)
    hits = 0
    trials = 40
    for seed in range(trials):
        series = synthetic_t1_series(*truth, TEMPS, 0.05, seed=seed)
        fit = fit_t1_vs_temperature(series)
        if abs(fit.values["tc_K"] - 1.31) <= 2.0 * fit.sigmas["tc_K"]:
            hits += 1
    assert hits / trials >= 0.80


def test_bundled_datasets_regenerate_byte_identically(data_dir, tmp_path):
    for path in _example_datasets().write_example_datasets(tmp_path):
        assert path.read_bytes() == (data_dir / path.name).read_bytes()


def test_fit_result_rate_is_the_fitted_model(data_dir):
    t1_fit = fit_t1_vs_temperature(
        dataseries_from_csv(data_dir / "t1_vs_temperature_1p.csv", "t1")
    )
    t1_model = _t1_curve(*t1_fit.values.values())
    t2_fit = fit_t2_vs_temperature(
        dataseries_from_csv(
            data_dir / "t2star_vs_temperature_1p.csv", "t2star"
        ),
        0.55, 0.36, 7.24, t1_model,
    )
    temps = np.linspace(0.02, 0.4, 50)
    expected_t1 = t1_rate_model(temps, *t1_fit.values.values())
    expected_t2 = t2_rate_model(
        temps, *t2_fit.values.values(), 0.55, 0.36, 7.24, t1_model
    )
    assert t1_fit.rate(temps).tobytes() == expected_t1.tobytes()
    assert t2_fit.rate(temps).tobytes() == expected_t2.tobytes()


def test_t2_fit_evaluates_t1_once_per_temperature():
    t1_curve = _t1_curve(2.2e4, 1.31, 4.0e10)
    calls = []

    def t1_model(t_kelvin: float) -> float:
        calls.append(t_kelvin)
        return t1_curve(t_kelvin)

    temps = np.linspace(0.025, 0.25, 12)
    rates = t2_rate_model(temps, 0.027, 2.0e4, 0.55, 0.36, 7.24, t1_curve)
    series = DataSeries(kind="t2star", t_kelvin=temps, value_s=1.0 / rates)
    fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
    assert calls == temps.tolist()


def _fit_bits(fit):
    """Values, sigmas, ssr (as float.hex), covariance bytes and iterations."""
    floats = [*fit.values.values(), *fit.sigmas.values(), fit.ssr]
    return ([float(x).hex() for x in floats], fit.covariance.tobytes(),
            fit.iterations)


def _unit_rate_sigmas(series):
    """The series with no sigmas, and with sigmas that are 1/s in rate."""
    args = (series.kind, series.t_kelvin, series.value_s)
    return DataSeries(*args), DataSeries(*args, sigma_s=series.value_s**2)


def test_unweighted_fits_match_unit_sigma_fits_bit_for_bit():
    plain, unit = _unit_rate_sigmas(
        synthetic_t1_series(8.3e4, 1.31, 4.6e10, TEMPS, 0.05, seed=5)
    )
    assert unit.rates()[1].tolist() == [1.0] * len(unit)
    assert _fit_bits(fit_t1_vs_temperature(plain)) == _fit_bits(
        fit_t1_vs_temperature(unit)
    )
    t1_model = _t1_curve(2.2e4, 1.31, 4.0e10)
    plain, unit = _unit_rate_sigmas(synthetic_t2_series(
        0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model,
        np.linspace(0.025, 0.25, 12), 0.03, seed=5,
    ))
    assert unit.rates()[1].tolist() == [1.0] * len(unit)
    fits = [fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
            for series in (plain, unit)]
    assert _fit_bits(fits[0]) == _fit_bits(fits[1])
