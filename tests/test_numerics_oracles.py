"""The in-package solvers against scipy, which serves here as an oracle only.

``root_find`` ports scipy's brentq and must return the same bits on every
call the package makes; the gap-edge rule must agree with the closed-form
normalization and with itself at a lower order; and the direct LAPACK
eigensolve must return the bits of scipy's tridiagonal wrappers.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.special

import qpgap._inversion
import qpgap.numerics
import qpgap.quasiparticles
import qpgap.transmon
from qpgap.errors import ConvergenceError, DomainError
from qpgap.fitting import resonator_thermometry, shot_noise_dephasing
from qpgap.numerics import root_find
from qpgap.quasiparticles import _gap_edge_integrals, crossover_temperature
from qpgap.thermal import delta_from_tc, thermal_qp_term
from qpgap.transmon import (
    CavityCoupling,
    FrequencyTargets,
    TransmonParams,
    charge_dispersion,
    chi_shift,
    eigenspectrum,
    fit_ej_ec,
    resonator_dispersion,
    transition_frequency,
)


@pytest.fixture
def brent_calls(monkeypatch):
    """Record every root_find call the package makes, with its result."""
    calls = []

    def recording(func, lower, upper, abs_tol=1e-12, max_iter=200):
        root = root_find(func, lower, upper, abs_tol, max_iter)
        calls.append((func, lower, upper, abs_tol, max_iter, root))
        return root

    for module in (qpgap.numerics, qpgap._inversion):
        monkeypatch.setattr(module, "root_find", recording)
    return calls


def _assert_same_bits_as_brentq(calls):
    assert calls
    for func, lower, upper, abs_tol, max_iter, root in calls:
        oracle = scipy.optimize.brentq(
            func, lower, upper, xtol=abs_tol, maxiter=max_iter
        )
        assert root == oracle, (lower, upper, root, oracle)


@pytest.mark.parametrize("ratio", [14.0, 26.0, 60.0, 145.0])
@pytest.mark.parametrize("kind", ["ng05", "ef"])
def test_ratio_inversion_matches_brentq_bit_for_bit(brent_calls, ratio, kind):
    truth = TransmonParams(EJ=ratio * 0.25, EC=0.25)
    if kind == "ng05":
        targets = FrequencyTargets(
            f_ge_ng0=transition_frequency(truth),
            f_ge_ng05=transition_frequency(truth.with_ng(0.5)),
        )
    else:
        targets = FrequencyTargets(
            f_ge_ng0=transition_frequency(truth),
            f_ef=eigenspectrum(truth, levels=3).f_ef,
        )
    fit_ej_ec(targets)
    _assert_same_bits_as_brentq(brent_calls)


@pytest.mark.parametrize("x_nqp", [1e-8, 8e-7, 1e-5])
def test_crossover_temperature_matches_brentq(brent_calls, x_nqp):
    # the closed-form crossover makes no root_find call; brentq on the
    # forward fraction, solved to float resolution, is its oracle
    delta = delta_from_tc(1.31)
    result = crossover_temperature(x_nqp, delta)
    assert not brent_calls
    oracle = scipy.optimize.brentq(
        lambda t: thermal_qp_term(t, delta) - x_nqp,
        0.01,
        delta / 2.0,
        xtol=1e-300,
    )
    assert result == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("gamma_phi", [1e2, 56e3, 1e6])
def test_thermometry_matches_brentq(brent_calls, gamma_phi):
    # the closed-form inverse makes no root_find call; brentq on the
    # forward rate, solved to float resolution, is its oracle
    result = resonator_thermometry(gamma_phi, 0.55, 0.36, 7.24)
    assert not brent_calls
    oracle = scipy.optimize.brentq(
        lambda n: shot_noise_dephasing(0.55, 0.36, n) - gamma_phi,
        0.0,
        10.0,
        xtol=1e-300,
    )
    assert result.n_th == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize(
    "func, lower, upper, abs_tol",
    [
        (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12),
        (math.cos, 1.0, 2.0, 1e-14),
        (lambda x: math.exp(x) - 10.0, -3.0, 7.0, 1e-12),
        (lambda x: (x - 0.3) ** 5, -1.0, 1.0, 1e-12),
        (lambda x: math.atan(1e3 * (x - 0.1)), -5.0, 5.0, 1e-10),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-15),
    ],
)
def test_analytic_brackets_match_brentq(func, lower, upper, abs_tol):
    assert root_find(func, lower, upper, abs_tol) == scipy.optimize.brentq(
        func, lower, upper, xtol=abs_tol, maxiter=200
    )


def test_exhausted_iterations_raise_convergence_error():
    with pytest.raises(ConvergenceError) as info:
        root_find(lambda x: (x - 0.3) ** 5, -1.0, 1.0, max_iter=3)
    assert -1.0 <= info.value.best <= 1.0


@pytest.mark.parametrize("where", ["lower", "upper", "inside"])
def test_nan_function_value_names_x(where):
    evaluations = []

    def func(x):
        evaluations.append(x)
        if where == "lower" and x == -1.0 or where == "upper" and x == 2.0:
            return math.nan
        return math.nan if where == "inside" and -1.0 < x < 2.0 else x

    with pytest.raises(DomainError, match=r"NaN at x = "):
        root_find(func, -1.0, 2.0)
    assert len(evaluations) <= 3


def test_gap_edge_rule_certificate_and_normalization():
    # the 48- and 64-node rules agree, and I(0) is e^s K1(s)
    scales = np.geomspace(0.5, 1000.0, 30)
    excess = np.concatenate([[0.0], np.geomspace(1e-4, 3.0, 20)])
    for scale in scales:
        fine = _gap_edge_integrals(scale, excess)
        coarse = _gap_edge_integrals(scale, excess, rule=leggauss(48))
        resolved = fine > 1e-300
        drift = np.abs(coarse[resolved] / fine[resolved] - 1.0)
        assert np.all(drift < 1e-12), scale
        assert fine[0] == pytest.approx(scipy.special.k1e(scale), rel=1e-13)


def test_edge_rule_is_numpys_64_node_legendre_rule():
    nodes, weights = qpgap.quasiparticles._EDGE_RULE
    expected_nodes, expected_weights = leggauss(64)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)
    assert not (nodes.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("scale", [0.5, 5.0, 57.3, 400.0])
@pytest.mark.parametrize("excess", [1e-4, 0.02, 0.23, 1.0, 3.0])
def test_gap_edge_fraction_against_adaptive_quadrature(scale, excess):
    def integrand(u):
        q = 2.0 * math.sinh(0.5 * u) ** 2
        return (1.0 + q) * math.exp(-scale * q)

    start = 2.0 * math.asinh(math.sqrt(excess / 2.0))
    end = 2.0 * math.asinh(math.sqrt((excess + 800.0 / scale) / 2.0))
    oracle = scipy.integrate.quad(
        integrand, start, end, epsabs=0.0, epsrel=1e-13, limit=500
    )[0] / scipy.special.k1e(scale)
    above, total = _gap_edge_integrals(scale, [excess, 0.0])
    if oracle > 1e-300:
        assert above / total == pytest.approx(oracle, rel=1e-12)


def test_gap_edge_rule_rejects_unresolvable_temperature():
    with pytest.raises(DomainError):
        qpgap.quasiparticles.above_barrier_fraction(0.1, 1e31, 2.0)


def _run_python(code: str, *path_entries: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``path_entries`` and ``src/``
    first on the import path."""
    src = str(Path(qpgap.numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(
        None, [*path_entries, src, os.environ.get("PYTHONPATH")]
    ))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )


def test_scipy_linalg_imports_after_transmon_and_agrees():
    code = (
        "import sys, qpgap.transmon as t\n"
        "params = t.TransmonParams(EJ=14.0 * 0.3, EC=0.3, ng=0.25)\n"
        "d, e = t._tridiagonal_bands(params)\n"
        "ours = t._tridiagonal_eigh(d, e, 3, vectors=True)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg\n"
        "theirs = scipy.linalg.eigh_tridiagonal(\n"
        "    d, e, select='i', select_range=(0, 2), check_finite=False)\n"
        "print(all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs)))\n"
        "print(scipy.linalg.lapack.dstebz is t._lapack().dstebz)\n"
    )
    assert _run_python(code).stdout.split() == ["True", "True"]


def test_missing_lapack_extension_names_the_searched_directory(tmp_path):
    # a scipy package without the compiled LAPACK module: the first solve
    # searches it directly, then again after running its __init__
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("print('init ran')")
    code = (
        "import qpgap.transmon as t\n"
        "try:\n"
        "    t.eigenspectrum(t.TransmonParams(EJ=14.0, EC=1.0))\n"
        "except ImportError as error:\n"
        "    print(error)\n"
    )
    out = _run_python(code, str(tmp_path)).stdout
    assert out.startswith("init ran\n")
    assert "_flapack" in out
    assert str(tmp_path / "scipy" / "linalg") in out


@pytest.fixture
def fresh_memo():
    """An empty transmon solve memo, emptied again afterwards."""
    qpgap.transmon._solve.cache_clear()
    yield
    qpgap.transmon._solve.cache_clear()


@pytest.mark.parametrize("levels", [2, 3, 10])
@pytest.mark.parametrize("ng", [0.0, 0.25, 0.5, 0.731])
@pytest.mark.parametrize("ratio", [0.0, 1.0, 14.0, 60.0, 145.0, 2000.0])
def test_tridiagonal_eigh_matches_scipy_bit_for_bit(
    fresh_memo, ratio, ng, levels
):
    # EJ = 0 leaves the matrix diagonal: LAPACK splits it into 1x1 blocks
    params = TransmonParams(EJ=ratio * 0.3, EC=0.3, ng=ng)
    diagonal, off_diagonal = qpgap.transmon._tridiagonal_bands(params)
    select = dict(select="i", select_range=(0, levels - 1), check_finite=False)
    oracle = scipy.linalg.eigvalsh_tridiagonal(
        diagonal, off_diagonal, **select
    )
    oracle_energies, oracle_vectors = scipy.linalg.eigh_tridiagonal(
        diagonal, off_diagonal, **select
    )

    energies = qpgap.transmon._tridiagonal_eigh(
        diagonal, off_diagonal, levels, vectors=False
    )
    assert energies.tobytes() == oracle.tobytes()
    system = qpgap.transmon._tridiagonal_eigh(
        diagonal, off_diagonal, levels, vectors=True
    )
    memoized = qpgap.transmon._eigensystem(params, levels)
    for pair in (system, memoized):
        assert pair[0].tobytes() == oracle_energies.tobytes()
        assert pair[1].shape == oracle_vectors.shape
        assert pair[1].tobytes() == oracle_vectors.tobytes()
    assert eigenspectrum(params, levels).energies.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_info_is_a_convergence_error(fresh_memo, monkeypatch, routine):
    original = getattr(qpgap.transmon._lapack(), routine)

    def failing(*args):
        *results, _ = original(*args)
        return (*results, 1)

    monkeypatch.setattr(qpgap.transmon._lapack(), routine, failing)
    with pytest.raises(ConvergenceError, match=f"{routine} failed .* = 1"):
        qpgap.transmon._eigensystem(TransmonParams(EJ=14.0, EC=1.0), 3)


def test_memoized_results_are_read_only(fresh_memo):
    params = TransmonParams(EJ=14.0, EC=1.0)
    spectrum = eigenspectrum(params, levels=3)
    before = spectrum.energies.copy()
    with pytest.raises(ValueError):
        spectrum.energies[0] = 0.0
    again = eigenspectrum(params, levels=3).energies
    assert again.tobytes() == before.tobytes()
    for array in qpgap.transmon._eigensystem(params, 3):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_call_sequence_solves_each_point_once(fresh_memo, monkeypatch):
    original = qpgap.transmon._lapack().dstebz
    calls = []

    def counting(d, e, select, vl, vu, il, iu, tol, order):
        calls.append((d.tobytes(), e.tobytes(), iu, order))
        return original(d, e, select, vl, vu, il, iu, tol, order)

    monkeypatch.setattr(qpgap.transmon._lapack(), "dstebz", counting)
    params = TransmonParams(EJ=7.417, EC=0.403)
    coupling = CavityCoupling(g_mhz=122.0, nu_r_ghz=7.24, q_loaded=2.0e4)
    # the spectrum subcommand's grid, even and odd branch
    for ng in np.linspace(0.0, 0.5, 26):
        eigenspectrum(params.with_ng(ng), levels=3)
        eigenspectrum(params.with_ng(ng + 0.5), levels=2)
    charge_dispersion(params, "ge")
    charge_dispersion(params, "ef")
    chi_shift(params, coupling)
    resonator_dispersion(params, coupling, method="ground")
    resonator_dispersion(params, coupling, method="chi")
    assert len(calls) == len(set(calls))
    # 26 + 26 grid solves, ge at (ng 0, 2 levels), shifts at ng 0 and 0.5
    assert len(calls) == 55
