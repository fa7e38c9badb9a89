import math
import warnings

import numpy as np
import pytest

from qpgap.errors import (
    DomainError,
    NearResonanceError,
    UnderdeterminedError,
)
from qpgap import _inversion, transmon
from qpgap.transmon import (
    CavityCoupling,
    FrequencyTargets,
    TransmonParams,
    charge_dispersion,
    chi_shift,
    dispersive_shift,
    eigenspectrum,
    fit_ej_ec,
    resonator_dispersion,
    transition_frequency,
)
from oracles import (
    build_hamiltonian, charge_offsets, parity_frequencies, tridiagonal_bands,
)

# (EJ, EC, quoted f_ge midpoint, quoted eps_ge) for the five shipped devices
DEVICES = {
    "1NP": (21.67, 0.150, 4.95, None),
    "2NP": (7.417, 0.403, 4.443, 0.010),
    "1P": (13.69, 0.150, 3.897, None),
    "2P": (6.92, 0.429, 4.391, 0.022),
    "3P": (5.92, 0.400, 3.900, 0.026),
}


def _midpoint_f_ge(ej: float, ec: float) -> float:
    p = TransmonParams(EJ=ej, EC=ec)
    return 0.5 * (
        transition_frequency(p) + transition_frequency(p.with_ng(0.5))
    )


# ------------------------------------------------------------ hamiltonian


def test_hamiltonian_structure():
    p = TransmonParams(EJ=10.0, EC=0.3, ng=0.2, n_cut=5)
    h = build_hamiltonian(p)
    n = 2 * p.effective_n_cut + 1
    assert h.shape == (n, n)
    charges = np.arange(-p.effective_n_cut, p.effective_n_cut + 1)
    np.testing.assert_allclose(np.diag(h), 4.0 * 0.3 * (charges - 0.2) ** 2)
    np.testing.assert_allclose(np.diag(h, 1), -5.0)
    np.testing.assert_allclose(h, h.T)


def test_tridiagonal_solve_matches_the_dense_hamiltonian():
    for ej, ec, _, _ in DEVICES.values():
        for ng in (0.0, 0.31, 0.5):
            p = TransmonParams(EJ=ej, EC=ec, ng=ng)
            dense = np.linalg.eigvalsh(build_hamiltonian(p))[:4]
            np.testing.assert_allclose(
                eigenspectrum(p, levels=4).energies, dense, rtol=0, atol=1e-9
            )


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_tridiagonal_eigenvectors_match_the_dense_hamiltonian(device):
    # the vectors the cavity shift sums read: orthonormal columns that
    # the dense matrix maps onto themselves times their energies
    ej, ec, _, _ = DEVICES[device]
    for ng in (0.0, 0.31, 0.5):
        p = TransmonParams(EJ=ej, EC=ec, ng=ng)
        h = build_hamiltonian(p)
        energies, vectors = transmon._eigensystem(p, 4)
        assert vectors.shape == (h.shape[0], 4)
        np.testing.assert_allclose(
            vectors.T @ vectors, np.eye(4), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            h @ vectors, vectors * energies, rtol=0,
            atol=1e-12 * np.abs(h).max(),
        )


def test_auto_cutoff_grows_with_ej_over_ec():
    p = TransmonParams(EJ=7.417, EC=0.403)
    floor = math.ceil(5.0 * math.sqrt(7.417 / (8 * 0.403))) + 10
    assert p.effective_n_cut >= floor
    assert build_hamiltonian(p).shape[0] >= 2 * floor + 1


def test_explicit_cutoff_wins_when_larger():
    p = TransmonParams(EJ=1.0, EC=1.0, n_cut=40)
    assert p.effective_n_cut == 40


def test_charging_limit_spectrum_is_analytic():
    # EJ = 0 decouples charge states: E_n = 4 EC (n - ng)^2
    p = TransmonParams(EJ=0.0, EC=1.0, ng=0.0, n_cut=6)
    s = eigenspectrum(p, levels=5)
    np.testing.assert_allclose(
        s.energies, [0.0, 4.0, 4.0, 16.0, 16.0], atol=1e-12
    )


def test_charging_limit_spectrum_off_sweet_spot():
    p = TransmonParams(EJ=0.0, EC=0.25, ng=0.1, n_cut=6)
    s = eigenspectrum(p, levels=5)
    expected = sorted((n - 0.1) ** 2 for n in range(-6, 7))[:5]
    np.testing.assert_allclose(s.energies, expected, atol=1e-12)


def test_charging_limit_degeneracy_at_half_cooper_pair():
    p = TransmonParams(EJ=0.0, EC=1.0, ng=0.5, n_cut=5)
    s = eigenspectrum(p, levels=4)
    assert s.energies[0] == pytest.approx(s.energies[1], abs=1e-12)
    assert s.energies[2] == pytest.approx(s.energies[3], abs=1e-12)


def test_truncation_convergence_below_nano_ghz():
    for ej, ec, _, _ in DEVICES.values():
        base = TransmonParams(EJ=ej, EC=ec, ng=0.31)
        bigger = TransmonParams(
            EJ=ej, EC=ec, ng=0.31, n_cut=base.effective_n_cut + 10
        )
        e1 = eigenspectrum(base, levels=4).energies
        e2 = eigenspectrum(bigger, levels=4).energies
        np.testing.assert_allclose(e1, e2, atol=1e-9)


@pytest.mark.parametrize(
    "levels", [3.7, 3.0, "3", True, 1],
    ids=["fraction", "float", "string", "bool", "one"],
)
@pytest.mark.parametrize(
    "solve", [eigenspectrum, transmon._eigensystem],
    ids=["eigenspectrum", "eigensystem"],
)
def test_level_count_must_be_an_integer_of_at_least_two(solve, levels):
    # 3.7 returned 3 levels and "3" escaped as a bare TypeError; the memo
    # keys 3.0 as 3, so the check must refuse 3.0 on a memo hit too
    params = TransmonParams(EJ=7.417, EC=0.403)
    solve(params, 3)
    with pytest.raises(DomainError, match="^levels must be an integer >= 2"):
        solve(params, levels)


@pytest.mark.parametrize(
    "i, j, name", [(0, 5, "j"), (-1, 1, "i")], ids=["beyond", "negative"]
)
def test_spectrum_transition_rejects_an_index_outside_the_spectrum(i, j, name):
    # (0, 5) escaped as a bare IndexError, and -1 read the top level
    spectrum = eigenspectrum(TransmonParams(EJ=7.417, EC=0.403), levels=3)
    with pytest.raises(DomainError,
                       match=f"^{name} must be an integer from 0 to 2"):
        spectrum.transition(i, j)


def test_transition_from_a_level_to_itself_is_zero():
    # (0, 0) asked eigenspectrum for 1 level and raised "levels must be
    # ...", naming an argument the caller never passed
    p = TransmonParams(EJ=7.417, EC=0.403)
    f = transition_frequency(p, 0, 0)
    assert f == eigenspectrum(p, 2).transition(0, 0) == 0.0


def test_spectrum_validates_level_count():
    p = TransmonParams(EJ=1.0, EC=1.0, n_cut=3)
    dim = 2 * p.effective_n_cut + 1
    with pytest.raises(DomainError):
        eigenspectrum(p, levels=dim + 1)
    with pytest.raises(DomainError):
        eigenspectrum(p, levels=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: transmon._eigensystem(p, 50),
        lambda p: dispersive_shift(p, _coupling(), level=0),
        lambda p: chi_shift(p, _coupling()),
        lambda p: resonator_dispersion(p, _coupling()),
        lambda p: resonator_dispersion(p, _coupling(), method="chi"),
    ],
    ids=[
        "eigensystem",
        "dispersive_shift",
        "chi_shift",
        "resonator_dispersion_ground",
        "resonator_dispersion_chi",
    ],
)
def test_levels_above_dimension_is_a_domain_error(monkeypatch, call):
    # the same check as test_spectrum_validates_level_count, via
    # eigensystems; the shift sums read their truncation at each call
    monkeypatch.setattr(transmon, "DEFAULT_SHIFT_LEVELS", 50)
    p = TransmonParams(EJ=1.0, EC=1.0)
    assert 2 * p.effective_n_cut + 1 < 50
    with pytest.raises(DomainError, match="exceeds Hilbert space dimension"):
        call(p)


@pytest.mark.parametrize(
    "level", [-1, 10, 1.0, True], ids=["negative", "ten", "float", "bool"]
)
def test_dispersive_shift_rejects_a_level_outside_the_truncation(level):
    # -1 read level 9's shift through negative indexing, and a float level
    # escaped as a bare TypeError
    params = TransmonParams(EJ=7.417, EC=0.403)
    with pytest.raises(DomainError,
                       match="^level must be an integer from 0 to 9"):
        dispersive_shift(params, _coupling(), level)


def test_negative_ej_rejected():
    with pytest.raises(DomainError):
        TransmonParams(EJ=-1.0, EC=0.2)
    with pytest.raises(DomainError):
        TransmonParams(EJ=5.0, EC=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["EJ", "EC", "ng"])
def test_non_finite_params_rejected(field, bad):
    values = {"EJ": 5.0, "EC": 0.2, "ng": 0.0, field: bad}
    with pytest.raises(DomainError, match=f"{field} must be"):
        TransmonParams(**values)


# ------------------------------------------------------- quoted spectra


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_quoted_device_frequencies(name):
    ej, ec, f_quoted, _ = DEVICES[name]
    assert _midpoint_f_ge(ej, ec) == pytest.approx(f_quoted, abs=0.025)


@pytest.mark.parametrize(
    "name", [n for n, d in sorted(DEVICES.items()) if d[3] is not None]
)
def test_quoted_device_dispersions(name):
    ej, ec, _, eps_quoted = DEVICES[name]
    eps = charge_dispersion(TransmonParams(EJ=ej, EC=ec), "ge")
    assert eps == pytest.approx(eps_quoted, rel=0.20)


def test_charge_insensitive_devices_have_tiny_dispersion():
    for name in ("1NP", "1P"):
        ej, ec, _, _ = DEVICES[name]
        eps = charge_dispersion(TransmonParams(EJ=ej, EC=ec), "ge")
        assert eps < 1e-4  # GHz; far below the MHz spectroscopy linewidth
    assert charge_dispersion(TransmonParams(EJ=21.67, EC=0.150)) < 1e-5


def test_ef_dispersion_exceeds_ge_dispersion():
    p = TransmonParams(EJ=6.92, EC=0.429)
    assert charge_dispersion(p, "ef") > 5 * charge_dispersion(p, "ge")


def test_dispersion_rejects_unknown_transition():
    with pytest.raises(DomainError):
        charge_dispersion(TransmonParams(EJ=5.0, EC=0.4), "fh")


# ------------------------------------------------- offset-charge symmetry


def test_spectrum_is_periodic_in_ng():
    p = TransmonParams(EJ=5.92, EC=0.4)
    for ng in (0.0, 0.13, 0.37):
        f_a = transition_frequency(p.with_ng(ng))
        f_b = transition_frequency(p.with_ng(ng + 1.0))
        assert f_a == pytest.approx(f_b, abs=1e-9)


def test_spectrum_is_even_in_ng():
    p = TransmonParams(EJ=5.92, EC=0.4)
    for ng in (0.05, 0.21, 0.44):
        f_pos = transition_frequency(p.with_ng(ng))
        f_neg = transition_frequency(p.with_ng(-ng))
        assert f_pos == pytest.approx(f_neg, abs=1e-9)


@pytest.mark.parametrize(
    "ng, fraction",
    [(12345.25, 0.25), (-12345.25, -0.25), (1e16, 0.0), (1e300, 0.0)],
)
def test_a_large_offset_charge_solves_as_its_fraction(ng, fraction):
    # past |ng| = 1.5 the basis is offset by ng - round(ng), bit for bit;
    # the basis offset by ng itself lost the fraction of 12345.25, found
    # <0|n|1> = 0 at 1e16 and overflowed at 1e300
    params = TransmonParams(EJ=7.417, EC=0.403)  # the 2NP transmon
    coupling = CavityCoupling(g_mhz=122.0, nu_r_ghz=7.24, q_loaded=2.0e4)
    large, small = params.with_ng(ng), params.with_ng(fraction)
    assert np.array_equal(eigenspectrum(large, 5).energies,
                          eigenspectrum(small, 5).energies)
    for level in (0, 1):
        assert (dispersive_shift(large, coupling, level)
                == dispersive_shift(small, coupling, level))


def test_parity_branches_cross_at_quarter_charge():
    p = TransmonParams(EJ=5.92, EC=0.4, ng=0.25)
    f_even, f_odd = parity_frequencies(p)
    assert f_even == pytest.approx(f_odd, abs=1e-9)


def _parity_splitting(p: TransmonParams) -> float:
    f_even, f_odd = parity_frequencies(p)
    return abs(f_even - f_odd)


def test_parity_splitting_maximal_at_sweet_spots():
    p = TransmonParams(EJ=7.417, EC=0.403)
    eps = charge_dispersion(p, "ge")
    assert _parity_splitting(p) == pytest.approx(eps, abs=1e-12)
    assert _parity_splitting(p.with_ng(0.5)) == pytest.approx(eps, abs=1e-12)
    for ng in (0.1, 0.2, 0.35):
        assert _parity_splitting(p.with_ng(ng)) <= eps + 1e-12


def test_quoted_device_splitting_scale():
    # charge-sensitive devices show 10-30 MHz splitting at ng = 0
    splitting = _parity_splitting(TransmonParams(EJ=7.417, EC=0.403))
    assert 0.005 < splitting < 0.030


# ------------------------------------------------------ matrix elements


def charge_matrix_elements(p: TransmonParams, levels: int) -> np.ndarray:
    # the |<i| n |j>| that scale the cavity couplings of the shift sums
    return transmon._charge_elements(p, transmon._eigensystem(p, levels)[1])


def test_matrix_elements_symmetric_and_nonnegative():
    m = charge_matrix_elements(TransmonParams(EJ=7.0, EC=0.4), 5)
    assert m.shape == (5, 5)
    assert np.all(m >= 0)
    np.testing.assert_allclose(m, m.T, atol=1e-12)


def test_matrix_element_harmonic_asymptote():
    # EJ/EC = 144: |<0|n|1>| approaches (EJ / 32 EC)^(1/4)
    m = charge_matrix_elements(TransmonParams(EJ=21.6, EC=0.15), 2)
    asymptote = (21.6 / (32.0 * 0.15)) ** 0.25
    assert m[0, 1] == pytest.approx(asymptote, rel=0.05)


def test_matrix_elements_vanish_in_charging_limit():
    m = charge_matrix_elements(TransmonParams(EJ=0.0, EC=1.0, n_cut=4), 3)
    off_diag = m - np.diag(np.diag(m))
    np.testing.assert_allclose(off_diag, 0.0, atol=1e-12)


def test_ge_element_dominates_row_zero():
    m = charge_matrix_elements(TransmonParams(EJ=21.67, EC=0.150), 6)
    assert m[0, 1] == max(m[0, j] for j in range(1, 6))


# ------------------------------------------------------ dispersive shifts


def _coupling(g: float = 122.0) -> CavityCoupling:
    return CavityCoupling(g_mhz=g, nu_r_ghz=7.24, q_loaded=2.0e4)


def test_chi_values_for_shipped_devices():
    cases = {
        "1NP": (21.67, 0.150, 130.0, -0.65, 0.40),
        "2NP": (7.417, 0.403, 122.0, -1.63, 0.40),
        "1P": (13.69, 0.150, 153.0, -0.55, 0.40),
        "2P": (6.92, 0.429, 122.0, -1.93, 0.40),
    }
    for ej, ec, g, chi_quoted, tol in cases.values():
        chi = chi_shift(TransmonParams(EJ=ej, EC=ec), _coupling(g))
        assert chi == pytest.approx(chi_quoted, rel=tol)


def test_twelve_levels_move_the_shipped_shifts_under_one_percent(monkeypatch):
    # the truncation dispersive_shift documents, read at each call
    devices = ((21.67, 0.150, 130.0), (7.417, 0.403, 122.0),
               (13.69, 0.150, 153.0), (6.92, 0.429, 122.0))

    def shifts():
        return [
            (dispersive_shift(TransmonParams(ej, ec), _coupling(g), 0),
             chi_shift(TransmonParams(ej, ec), _coupling(g)))
            for ej, ec, g in devices
        ]

    assert transmon.DEFAULT_SHIFT_LEVELS == 10
    ten = shifts()
    monkeypatch.setattr(transmon, "DEFAULT_SHIFT_LEVELS", 12)
    for wide, narrow in zip(shifts(), ten):
        assert wide != narrow
        assert wide == pytest.approx(narrow, rel=0.01)


def test_coupling_requires_positive_g():
    with pytest.raises(DomainError):
        _coupling(0.0)


def test_chi_at_zero_ej_is_a_domain_error():
    # the charge states do not mix, so <0|n|1> is 0 at every ng
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ng in (0.0, 0.25, 0.5):
            with pytest.raises(DomainError, match="vanishes at EJ = 0.0 GHz"):
                chi_shift(TransmonParams(0.0, 0.2, ng), _coupling())


def test_chi_scales_quadratically_in_g():
    p = TransmonParams(EJ=7.417, EC=0.403)
    chi_1 = chi_shift(p, _coupling(61.0))
    chi_2 = chi_shift(p, _coupling(122.0))
    assert chi_2 == pytest.approx(4.0 * chi_1, rel=1e-9)


def test_near_resonance_error_names_level_pair():
    with pytest.raises(NearResonanceError) as info:
        dispersive_shift(
            TransmonParams(EJ=5.92, EC=0.400), _coupling(), level=1
        )
    assert "(1, 4)" in str(info.value)


def test_resonator_dispersion_values():
    quoted = {
        (7.417, 0.403): 26.7,
        (6.92, 0.429): 50.1,
        (5.92, 0.400): 71.2,
    }
    computed = []
    for (ej, ec), value in quoted.items():
        pull = resonator_dispersion(
            TransmonParams(EJ=ej, EC=ec), _coupling()
        )
        computed.append(pull)
        assert pull == pytest.approx(value, rel=0.50)
    # pull grows monotonically as EJ/EC falls across the three devices
    assert computed[0] < computed[1] < computed[2]


def test_charge_insensitive_resonator_dispersion_is_negligible():
    pull = resonator_dispersion(
        TransmonParams(EJ=21.67, EC=0.150), _coupling(130.0)
    )
    assert pull < 0.1  # kHz


def test_kappa_from_loaded_q():
    coupling = _coupling()
    assert coupling.kappa_mhz == pytest.approx(0.36, rel=0.05)


# ------------------------------------------------------------- inversion


def test_fit_recovers_generating_parameters():
    truth = TransmonParams(EJ=6.92, EC=0.429)
    targets = FrequencyTargets(
        f_ge_ng0=transition_frequency(truth),
        f_ge_ng05=transition_frequency(truth.with_ng(0.5)),
    )
    fitted = fit_ej_ec(targets)
    assert fitted.EJ == pytest.approx(6.92, rel=1e-3)
    assert fitted.EC == pytest.approx(0.429, rel=1e-3)


def test_fit_from_quoted_frequencies():
    fitted = fit_ej_ec(FrequencyTargets(f_ge_ng0=4.402, f_ge_ng05=4.380))
    assert fitted.EJ == pytest.approx(6.92, rel=0.03)
    assert fitted.EC == pytest.approx(0.429, rel=0.03)


def test_fit_with_ef_target():
    truth = TransmonParams(EJ=13.69, EC=0.150)
    spectrum = eigenspectrum(truth, levels=3)
    targets = FrequencyTargets(
        f_ge_ng0=spectrum.transition(0, 1),
        f_ef=spectrum.transition(1, 2),
    )
    fitted = fit_ej_ec(targets)
    assert fitted.EJ == pytest.approx(13.69, rel=1e-3)
    assert fitted.EC == pytest.approx(0.150, rel=1e-3)


def test_fit_is_deterministic():
    targets = FrequencyTargets(f_ge_ng0=4.402, f_ge_ng05=4.380)
    a = fit_ej_ec(targets)
    b = fit_ej_ec(targets)
    assert (a.EJ, a.EC) == (b.EJ, b.EC)


def test_fit_requires_two_frequencies():
    with pytest.raises(UnderdeterminedError):
        fit_ej_ec(FrequencyTargets(f_ge_ng0=4.4))


def test_fit_rejects_inconsistent_targets():
    with pytest.raises(DomainError):
        FrequencyTargets(f_ge_ng0=4.4, f_ge_ng05=9.9)
    with pytest.raises(DomainError):
        FrequencyTargets(f_ge_ng0=4.4, f_ef=5.0)  # positive anharmonicity


def _targets_of(truth: TransmonParams, kind: str) -> FrequencyTargets:
    at_zero = eigenspectrum(truth, levels=3)
    f_ge_ng05 = transition_frequency(truth.with_ng(0.5))
    return FrequencyTargets(
        f_ge_ng0=at_zero.f_ge,
        f_ge_ng05=f_ge_ng05 if kind in ("ng05", "both") else None,
        f_ef=at_zero.f_ef if kind in ("ef", "both") else None,
    )


def _worst_residual(params: TransmonParams, targets: FrequencyTargets):
    at_zero = eigenspectrum(params, levels=3)
    residuals = [at_zero.f_ge - targets.f_ge_ng0]
    if targets.f_ge_ng05 is not None:
        residuals.append(
            transition_frequency(params.with_ng(0.5)) - targets.f_ge_ng05
        )
    if targets.f_ef is not None:
        residuals.append(at_zero.f_ef - targets.f_ef)
    return max(abs(r) for r in residuals)


@pytest.mark.parametrize("kind", ["ng05", "ef"])
@pytest.mark.parametrize("ratio", [14.0, 26.0, 60.0, 145.0])
def test_fit_round_trip_across_transmon_regime(kind, ratio):
    truth = TransmonParams(EJ=ratio * 0.3, EC=0.3)
    targets = _targets_of(truth, kind)
    fitted = fit_ej_ec(targets)
    assert _worst_residual(fitted, targets) < 1e-9
    if kind == "ef" or ratio <= 26.0:
        # the ge dispersion fixes EJ/EC only while it is resolvable
        assert fitted.EJ == pytest.approx(truth.EJ, rel=1e-9)
        assert fitted.EC == pytest.approx(truth.EC, rel=1e-9)


def test_fit_with_three_targets():
    truth = TransmonParams(EJ=6.92, EC=0.429)
    targets = _targets_of(truth, "both")
    fitted = fit_ej_ec(targets)
    assert fitted.EJ == pytest.approx(truth.EJ, rel=1e-9)
    assert fitted.EC == pytest.approx(truth.EC, rel=1e-9)
    # inconsistent targets: least squares beats the exact (ng0, ng05) pair
    skewed = FrequencyTargets(
        targets.f_ge_ng0, targets.f_ge_ng05, targets.f_ef + 0.01
    )
    pair = fit_ej_ec(
        FrequencyTargets(skewed.f_ge_ng0, f_ge_ng05=skewed.f_ge_ng05)
    )
    compromise = fit_ej_ec(skewed)
    assert _worst_residual(compromise, skewed) < _worst_residual(pair, skewed)


def test_log_ej_ec_jacobian_matches_central_differences(check_jacobian):
    # Hellmann-Feynman rows of the three-target refinement, at the truth
    # and at the compromise for skewed targets
    truth = TransmonParams(EJ=6.92, EC=0.429)
    targets = _targets_of(truth, "both")
    skewed = FrequencyTargets(
        targets.f_ge_ng0, targets.f_ge_ng05, targets.f_ef + 0.01
    )
    for params, goal in ((truth, targets), (fit_ej_ec(skewed), skewed)):
        check_jacobian(
            lambda x: _inversion._target_residuals(
                _inversion._log_params(x), goal
            ),
            lambda x: _inversion._target_jacobian(
                _inversion._log_params(x), goal
            ),
            [math.log(params.EJ), math.log(params.EC)],
        )


def test_cavity_shifts_solve_one_eigensystem_per_point(monkeypatch):
    params = TransmonParams(EJ=7.417, EC=0.403)
    calls = []
    original = transmon._eigensystem

    def counting(params, levels):
        calls.append(levels)
        return original(params, levels)

    monkeypatch.setattr(transmon, "_eigensystem", counting)
    dispersive_shift(params, _coupling(), level=0)
    assert len(calls) == 1
    calls.clear()
    chi_shift(params, _coupling())
    assert len(calls) == 1
    calls.clear()
    resonator_dispersion(params, _coupling(), method="chi")
    assert len(calls) == 2


def test_chi_is_half_the_level_shift_difference_exactly():
    params = TransmonParams(EJ=7.417, EC=0.403)
    lam_e = dispersive_shift(params, _coupling(), level=1)
    lam_g = dispersive_shift(params, _coupling(), level=0)
    assert chi_shift(params, _coupling()) == (lam_e - lam_g) / 2.0


# ------------------------------------------------------ reference kernels


def _band_params():
    """Random points plus EJ = 0, a raised cutoff and negative ng."""
    rng = np.random.default_rng(23)
    points = [
        TransmonParams(EJ=0.0, EC=0.3, ng=0.25),
        TransmonParams(EJ=4.0, EC=0.2, ng=-0.37, n_cut=60),
        TransmonParams(EJ=400.0, EC=0.2, ng=-1.5),
    ]
    for _ in range(40):
        ec = float(rng.uniform(0.05, 1.0))
        points.append(TransmonParams(
            EJ=ec * float(np.exp(rng.uniform(0.0, np.log(2000.0)))),
            EC=ec,
            ng=float(rng.uniform(-2.0, 2.0)),
            n_cut=int(rng.integers(0, 80)),
        ))
    return points


def _recorded_bands(monkeypatch, points):
    """The (diagonal, off-diagonal) pair each solve of ``points`` hands to
    LAPACK, each point solved afresh."""
    original = transmon._lapack().dstebz
    bands = []

    def recording(d, e, *args):
        bands.append((d, e))
        return original(d, e, *args)

    monkeypatch.setattr(transmon._lapack(), "dstebz", recording)
    transmon._solve.cache_clear()
    try:
        for params in points:
            eigenspectrum(params, levels=2)
    finally:
        transmon._solve.cache_clear()
    return bands


def test_bands_match_the_closed_form_bit_for_bit(monkeypatch):
    points = _band_params()
    bands = _recorded_bands(monkeypatch, points)
    assert len(bands) == len(points)
    for params, (diagonal, off_diagonal) in zip(points, bands):
        cut = params.effective_n_cut
        expected, expected_off = tridiagonal_bands(params)
        assert diagonal.tobytes() == expected.tobytes(), params
        assert off_diagonal.tobytes() == expected_off.tobytes(), params
        # the diagonal is the solve's own array, not the shared grid
        grid = transmon._charge_grid(cut)
        assert not np.shares_memory(diagonal, grid)
        assert diagonal.flags.writeable and not grid.flags.writeable
        assert grid.tobytes() == np.arange(-cut, cut + 1.0).tobytes()


def test_off_diagonal_is_shared_across_ng_and_read_only(monkeypatch):
    params = TransmonParams(EJ=12.5, EC=0.31, n_cut=40)
    bands = _recorded_bands(monkeypatch, [
        params.with_ng(ng) for ng in (0.0, 0.25, 0.5, -1.75)
    ])
    off_diagonal = transmon._hopping(params.effective_n_cut, params.EJ)
    assert len(bands) == 4
    for _, band in bands:
        assert band is off_diagonal
    assert not off_diagonal.flags.writeable
    with pytest.raises(ValueError):
        off_diagonal[0] = 0.0


def test_with_ng_record_equals_a_checked_one():
    # the solve memo is keyed by the record: equal records, equal hashes
    base = TransmonParams(EJ=12.5, EC=0.31, ng=0.1, n_cut=40)
    for ng in (0.0, 0.5, -1.25, 3.0, np.float64(0.25), 7):
        moved = base.with_ng(ng)
        built = TransmonParams(base.EJ, base.EC, ng, base.n_cut)
        assert type(moved) is TransmonParams
        assert moved == built and hash(moved) == hash(built)
        assert repr(moved) == repr(built)
        assert moved.effective_n_cut == built.effective_n_cut


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_with_ng_rejects_a_non_finite_ng(bad):
    base = TransmonParams(EJ=12.5, EC=0.31)
    with pytest.raises(DomainError) as expected:
        TransmonParams(base.EJ, base.EC, bad, base.n_cut)
    with pytest.raises(DomainError) as raised:
        base.with_ng(bad)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == f"ng must be finite, got {bad}"


def _reference_level_shift(params, coupling, level, levels):
    """lambda_l (MHz) summed over numpy scalars, the loop's former form."""
    energies, vectors = transmon._eigensystem(params, levels)
    charge = charge_offsets(params)
    elements = np.abs(vectors.T @ (charge[:, None] * vectors))
    norm = elements[0, 1]
    g_ghz = coupling.g_mhz / 1e3
    shift = 0.0
    for other in range(levels):
        if other == level:
            continue
        g_lj = g_ghz * elements[level, other] / norm
        detuning = energies[level] - energies[other]
        for sign in (-1.0, 1.0):
            shift += g_lj**2 / (detuning + sign * coupling.nu_r_ghz)
    return shift * 1e3


def test_level_shifts_match_the_numpy_scalar_sum_bit_for_bit():
    coupling = CavityCoupling(g_mhz=122.0, nu_r_ghz=7.24, q_loaded=2.0e4)
    checked = 0
    for params in _band_params()[1:]:
        for level in (0, 1):
            try:
                shift = dispersive_shift(params, coupling, level)
            except NearResonanceError:
                continue
            expected = _reference_level_shift(
                params, coupling, level, transmon.DEFAULT_SHIFT_LEVELS)
            assert float(shift).hex() == float(expected).hex(), params
            checked += 1
    assert checked > 40


def test_shift_beyond_the_float_range_is_a_domain_error():
    params = TransmonParams(EJ=7.417, EC=0.403)
    huge = CavityCoupling(g_mhz=1e160, nu_r_ghz=1e200, q_loaded=2.0e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"overflows at levels \(0, 1\)"):
            dispersive_shift(params, huge, level=0)
        # the largest coupling whose square is finite: every term is below
        # g_lj / 10, so the shift is finite too
        edge = CavityCoupling(g_mhz=1e156, nu_r_ghz=1e200, q_loaded=2.0e4)
        assert math.isfinite(dispersive_shift(params, edge, level=0))


@pytest.mark.parametrize("kind", ["ng05", "ef"])
def test_ratio_inversion_with_cached_bracket_matches_a_fresh_root_find(kind):
    # the parent algorithm: the observable at every Brent iterate,
    # the bracket ends included, with nothing cached
    dispersion = kind == "ng05"
    for ratio in (3.0, 14.0, 60.0, 145.0):
        truth = TransmonParams(EJ=ratio * 0.3, EC=0.3)
        targets = _targets_of(truth, kind)
        measured = (targets.f_ge_ng0,
                    targets.f_ge_ng05 if dispersion else targets.f_ef)
        target = _inversion._observable(*measured, dispersion)
        log_ratio = _inversion.root_find(
            lambda x: _inversion._observable(
                *_inversion._unit_pair(math.exp(x), dispersion), dispersion
            ) - target,
            *_inversion._RATIO_BRACKET,
            abs_tol=1e-12,
        )
        scale = (lambda a, b: (a + b) / 2.0) if dispersion else (
            lambda a, b: a)
        ec = scale(*measured) / scale(
            *_inversion._unit_pair(math.exp(log_ratio), dispersion))
        fitted = fit_ej_ec(targets)
        assert fitted.EJ == math.exp(log_ratio) * ec
        assert fitted.EC == ec


def test_warm_inversions_solve_no_bracket_end(monkeypatch):
    ends = {math.exp(x) for x in _inversion._RATIO_BRACKET}
    fit_ej_ec(_targets_of(TransmonParams(EJ=4.2, EC=0.3), "ng05"))
    fit_ej_ec(_targets_of(TransmonParams(EJ=18.0, EC=0.3), "ef"))
    ratios = []
    original = _inversion._unit_pair

    def recording(ratio, dispersion):
        ratios.append(ratio)
        return original(ratio, dispersion)

    monkeypatch.setattr(_inversion, "_unit_pair", recording)
    for kind in ("ng05", "ef"):
        fit_ej_ec(_targets_of(TransmonParams(EJ=5.1, EC=0.25), kind))
    assert ratios and not ends & set(ratios)
