"""Semantics of the package's immutable records.

Each public record class gets one sample instance.  Assignment is refused,
equal records compare and hash equal, fields left out of comparison do
not affect it, and each ``repr`` is pinned to its text.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import qpgap
from qpgap._record import Record
from qpgap.config import DeviceConfig, ScanSettings
from qpgap.device import MAX_EJ_OVER_EC, MAX_N_CUT
from qpgap.fitting import DataSeries, FitResult, LMResult, ThermometryResult
from qpgap.parity import (
    ChargeTrace, LifetimeEstimate, NoiseModel, ParityTrace, ScanConfig,
    SpectroscopyScan,
)
from qpgap.quasiparticles import (
    GapProfile, GapSegment, GeometryVerdict, QPEnvironment, SideVerdict,
    StackSegment, ThicknessTcTable,
)
from qpgap.transmon import (
    CavityCoupling, FrequencyTargets, Spectrum, TransmonParams,
)
from qpgap.units import Constants


def _array(*values):
    return np.array(values, dtype=float)


def _side(side):
    return SideVerdict(side, 2.1, 0.3, 1.5, 0.5, True)


SAMPLES = {
    "Constants": lambda: Constants(),
    "LMResult": lambda: LMResult(_array(1, 2), np.eye(2), 0.25, 7, True),
    "TransmonParams": lambda: TransmonParams(15.0, 0.3, 0.25, 12),
    "CavityCoupling": lambda: CavityCoupling(80.0, 7.2, 2000.0),
    "Spectrum": lambda: Spectrum(
        _array(0, 4.5, 8.8), TransmonParams(15.0, 0.3)),
    "FrequencyTargets": lambda: FrequencyTargets(4.5, f_ef=4.2),
    "ThicknessTcTable": lambda: ThicknessTcTable(((20.0, 1.7), (40.0, 1.3))),
    "GapSegment": lambda: GapSegment(10.0, 2.1),
    "GapProfile": lambda: GapProfile(
        (GapSegment(10.0, 2.1), GapSegment(5.0, 2.0)), 10.0),
    "StackSegment": lambda: StackSegment(10.0, thickness_nm=30.0),
    "QPEnvironment": lambda: QPEnvironment(x_nqp=1e-6),
    "SideVerdict": lambda: _side("left"),
    "GeometryVerdict": lambda: GeometryVerdict(
        _side("left"), _side("right"), True),
    "NoiseModel": lambda: NoiseModel(0.5),
    "ParityTrace": lambda: ParityTrace(_array(0.5), 2.0, 1, seed=3),
    "ChargeTrace": lambda: ChargeTrace(
        _array(1.0), _array(0.1, 0.7), 2.0, seed=4),
    "ScanConfig": lambda: ScanConfig(4.0, 5.0, n_freq=11),
    "SpectroscopyScan": lambda: SpectroscopyScan(
        _array(4, 5, 6), _array(0), np.ones((1, 3)), _array(4.2, 4.8)[None],
        1.0, 20.0, 0.2, 9),
    "LifetimeEstimate": lambda: LifetimeEstimate(
        "estimate", 1.5, 4, 0.1, 0.8, np.array([1, 2]),
        _array(4.2, np.nan, 4.2, 4.8).reshape(2, 2), _array(0.5, 0.6)),
    "DataSeries": lambda: DataSeries(
        "t1", _array(0.2, 0.1), _array(2e-5, 1e-5)),
    "FitResult": lambda: FitResult(
        "t1", ("a",), {"a": 1.0}, {"a": 0.1}, np.eye(1), 0.5, 4, 3,
        {"b": 2.0}, abs),
    "ThermometryResult": lambda: ThermometryResult(0.01, 0.05, False),
    "ScanSettings": lambda: ScanSettings(snr=10.0),
    "DeviceConfig": lambda: DeviceConfig(
        "dev", TransmonParams(15.0, 0.3), CavityCoupling(80.0, 7.2, 2000.0),
        GapProfile((GapSegment(10.0, 2.1), GapSegment(5.0, 2.0)), 10.0),
        QPEnvironment(), NoiseModel(0.5), ScanSettings(), 7,
        measured={"T1_us": 50.0}),
}


# samples whose compared fields hold arrays or dicts: equal only when they
# share those objects, and unhashable
UNHASHABLE = {
    "LMResult", "Spectrum", "ParityTrace", "ChargeTrace", "SpectroscopyScan",
    "DataSeries", "FitResult", "DeviceConfig",
}

REPRS = {
    "Constants": (
        'Constants(kB_over_h=20.836619123327576, '
        'h_over_kB=0.04799243073366221, kB_in_eV=8.617333262145179e-05, '
        'RK=25812.807459304513, bcs_ratio=1.764)'
    ),
    "LMResult": (
        'LMResult(x=array([1., 2.]), covariance=array([[1., 0.],\n       [0., '
        '1.]]), ssr=0.25, iterations=7, converged=True)'
    ),
    "TransmonParams": 'TransmonParams(EJ=15.0, EC=0.3, ng=0.25, n_cut=12)',
    "CavityCoupling": (
        'CavityCoupling(g_mhz=80.0, nu_r_ghz=7.2, q_loaded=2000.0)'
    ),
    "Spectrum": 'Spectrum(energies=array([0. , 4.5, 8.8]))',
    "FrequencyTargets": (
        'FrequencyTargets(f_ge_ng0=4.5, f_ge_ng05=None, f_ef=4.2)'
    ),
    "ThicknessTcTable": 'ThicknessTcTable(anchors=((20.0, 1.7), (40.0, 1.3)))',
    "GapSegment": 'GapSegment(length_um=10.0, delta_k=2.1)',
    "GapProfile": (
        'GapProfile(segments=(GapSegment(length_um=10.0, delta_k=2.1), '
        'GapSegment(length_um=5.0, delta_k=2.0)), junction_um=10.0)'
    ),
    "StackSegment": (
        'StackSegment(length_um=10.0, thickness_nm=30.0, delta_k=None)'
    ),
    "QPEnvironment": (
        'QPEnvironment(x_nqp=1e-06, diffusion_m2_per_s=0.01, '
        'tau_anchors=((0.5, 1e-05), (14.0, 1e-11)), xi_um=0.1, '
        'nu0_per_ev_um3=16000000000.0, t_qp_kelvin=0.04)'
    ),
    "SideVerdict": (
        "SideVerdict(side='left', adjacent_delta_k=2.1, delta_delta_k=0.3, "
        'length_um=1.5, required_um=0.5, adequate=True)'
    ),
    "GeometryVerdict": (
        "GeometryVerdict(left=SideVerdict(side='left', adjacent_delta_k=2.1, "
        'delta_delta_k=0.3, length_um=1.5, required_um=0.5, adequate=True), '
        "right=SideVerdict(side='right', adjacent_delta_k=2.1, "
        'delta_delta_k=0.3, length_um=1.5, required_um=0.5, adequate=True), '
        'adequate=True)'
    ),
    "NoiseModel": (
        'NoiseModel(gamma_parity_per_s=0.5, '
        'tls_rate_per_s=0.005555555555555556)'
    ),
    "ParityTrace": (
        'ParityTrace(switch_times=array([0.5]), duration_s=2.0, '
        'initial_parity=1)'
    ),
    "ChargeTrace": (
        'ChargeTrace(jump_times=array([1.]), ng_values=array([0.1, 0.7]), '
        'duration_s=2.0)'
    ),
    "ScanConfig": (
        'ScanConfig(f_min_ghz=4.0, f_max_ghz=5.0, n_freq=11, pixel_seconds=0.2)'
    ),
    "SpectroscopyScan": (
        'SpectroscopyScan(frequencies_ghz=array([4., 5., 6.]), '
        'pixel_starts_s=array([0.]), amplitudes=array([[1., 1., 1.]]), '
        'branch_freqs_ghz=array([[4.2, 4.8]]), linewidth_mhz=1.0, snr=20.0, '
        'pixel_seconds=0.2, seed=9)'
    ),
    "LifetimeEstimate": (
        "LifetimeEstimate(kind='estimate', seconds=1.5, alternations=4, "
        'two_peak_fraction=0.1, single_peak_fraction=0.8)'
    ),
    "DataSeries": (
        "DataSeries(kind='t1', t_kelvin=array([0.1, 0.2]), "
        'value_s=array([1.e-05, 2.e-05]), sigma_s=None)'
    ),
    "FitResult": (
        "FitResult(model='t1', param_names=('a',), values={'a': 1.0}, "
        "sigmas={'a': 0.1}, ssr=0.5, n_points=4, iterations=3, derived={'b': "
        '2.0})'
    ),
    "ThermometryResult": (
        'ThermometryResult(n_th=0.01, temperature_k=0.05, at_lower_limit=False)'
    ),
    "ScanSettings": (
        'ScanSettings(linewidth_mhz=1.0, snr=10.0, pixel_seconds=0.2, '
        'n_freq=161, pad_linewidths=5.0)'
    ),
    "DeviceConfig": (
        "DeviceConfig(name='dev', params=TransmonParams(EJ=15.0, EC=0.3, "
        'ng=0.0, n_cut=0), cavity=CavityCoupling(g_mhz=80.0, nu_r_ghz=7.2, '
        'q_loaded=2000.0), profile=GapProfile(segments=(GapSegment(length_um=10'
        '.0, delta_k=2.1), GapSegment(length_um=5.0, delta_k=2.0)), '
        'junction_um=10.0), env=QPEnvironment(x_nqp=8e-07, '
        'diffusion_m2_per_s=0.01, tau_anchors=((0.5, 1e-05), (14.0, 1e-11)), '
        'xi_um=0.1, nu0_per_ev_um3=16000000000.0, t_qp_kelvin=0.04), '
        'noise=NoiseModel(gamma_parity_per_s=0.5, '
        'tls_rate_per_s=0.005555555555555556), '
        'scan=ScanSettings(linewidth_mhz=1.0, snr=20.0, pixel_seconds=0.2, '
        'n_freq=161, pad_linewidths=5.0), seed=7, chi_override_mhz=None, '
        "kappa_override_mhz=None, measured={'T1_us': 50.0}, source_hash='', "
        'gamma_parity_computed=False)'
    ),
}


def test_every_public_record_has_a_sample():
    records = {
        name for name in qpgap.__all__
        if isinstance(getattr(qpgap, name), type)
        and not issubclass(getattr(qpgap, name), Exception)
    }
    assert records == set(SAMPLES) == set(REPRS)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_assignment_and_deletion_are_refused(name):
    record = SAMPLES[name]()
    field = REPRS[name].partition("(")[2].partition("=")[0]
    for target in (field, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, target, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_records_compare_and_hash_equal(name):
    record = SAMPLES[name]()
    # a copy holds the same field objects, so array fields compare too
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    assert record != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    other = SAMPLES[name]()
    assert other == record and hash(other) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_differ_by_a_compared_field():
    params = TransmonParams(15.0, 0.3)
    assert params != params.with_ng(0.25)
    assert params != TransmonParams(15.0, 0.3, n_cut=40)
    assert {params, TransmonParams(15.0, 0.3)} == {params}
    assert GapSegment(1.0, 2.0) != GapSegment(2.0, 1.0)


def test_uncompared_fields_do_not_affect_equality():
    estimate = SAMPLES["LifetimeEstimate"]()
    other = LifetimeEstimate(
        estimate.kind, estimate.seconds, estimate.alternations,
        estimate.two_peak_fraction, estimate.single_peak_fraction,
        np.array([0]), np.full((1, 2), np.nan), _array(9.0),
    )
    assert other == estimate and hash(other) == hash(estimate)
    fit = SAMPLES["FitResult"]()
    assert dataclasses.replace(fit, rate=np.exp).rate is np.exp
    twin = dataclasses.replace(fit, rate=np.exp, covariance=fit.covariance)
    assert twin == fit


def test_fit_result_stays_a_dataclass():
    fit = SAMPLES["FitResult"]()
    changed = dataclasses.replace(fit, values={"a": 2.0})
    assert changed.values == {"a": 2.0} and changed.model == fit.model
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.ssr = 1.0


# records that build their fields themselves: the two made per eigensolve,
# and the two that convert arguments or make a fresh default
OWN_INIT = {"TransmonParams", "Spectrum", "DataSeries", "DeviceConfig"}
BASE_INIT = sorted(
    name for name in SAMPLES
    if isinstance(SAMPLES[name](), Record) and name not in OWN_INIT
)


def test_only_records_that_convert_define_init():
    defined = {
        name for name in SAMPLES
        if isinstance(SAMPLES[name](), Record)
        and "__init__" in vars(type(SAMPLES[name]()))
    }
    assert defined == OWN_INIT


@pytest.mark.parametrize("name", sorted(set(BASE_INIT) | OWN_INIT))
def test_keyword_construction_equals_positional(name):
    record = SAMPLES[name]()
    cls = type(record)
    values = [getattr(record, field) for field in cls._fields]
    positional = cls(*values)
    keyword = cls(**dict(zip(cls._fields, values)))
    for built in (positional, keyword):
        assert type(built) is cls
        np.testing.assert_equal(
            [getattr(built, field) for field in cls._fields], values
        )


@pytest.mark.parametrize("name", BASE_INIT)
def test_bad_arguments_are_type_errors_naming_the_record(name):
    record = SAMPLES[name]()
    cls = type(record)
    values = [getattr(record, field) for field in cls._fields]
    required = [f for f in cls._fields if f not in cls._defaults]
    if required:
        first = cls._fields.index(required[0])
        with pytest.raises(TypeError, match=f"{name}.*{required[0]}"):
            cls(*values[:first])
    with pytest.raises(TypeError, match=f"{name}.*'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"{name}.*got {len(values) + 1}"):
        cls(*values, 1)
    field = cls._fields[0]
    with pytest.raises(TypeError, match=f"{name}.*{field}"):
        cls(*values, **{field: values[0]})


def test_defaults_must_name_fields():
    with pytest.raises(TypeError, match="Odd._defaults.*'b'"):
        class Odd(Record):
            __slots__ = ("a",)
            _defaults = {"a": 0, "b": 1}


@pytest.mark.parametrize("n_cut", [30.5, 30.0, -1, True, "30", MAX_N_CUT + 1])
def test_transmon_cutoff_must_be_a_non_negative_integer(n_cut):
    # 30.5 or 30.0 would reach np.full as a float basis size, and a cutoff
    # of 10**12 would ask the first solve for 2e12 charge states
    message = f"^n_cut must be an integer from 0 to {MAX_N_CUT}, got "
    with pytest.raises(qpgap.DomainError, match=message):
        TransmonParams(EJ=1.0, EC=1.0, n_cut=n_cut)
    assert TransmonParams(EJ=1.0, EC=1.0, n_cut=np.int64(30)).n_cut == 30


def test_transmon_cutoff_cap_is_the_automatic_cutoff_at_the_largest_ratio():
    # by construction only: no basis of this size is solved
    assert MAX_N_CUT == 5601
    largest = TransmonParams(EJ=MAX_EJ_OVER_EC, EC=1.0)
    assert largest.effective_n_cut == MAX_N_CUT
    assert TransmonParams(EJ=1.0, EC=1.0, n_cut=MAX_N_CUT).n_cut == MAX_N_CUT


def test_checks_run_on_construction():
    with pytest.raises(qpgap.DomainError):
        TransmonParams(-1.0, 0.3)
    with pytest.raises(qpgap.DomainError):
        NoiseModel(float("nan"))
    with pytest.raises(qpgap.GeometryError):
        GapProfile((GapSegment(1.0, 2.0), GapSegment(1.0, 1.0)), 0.5)
    series = DataSeries("t1", _array(0.2, 0.1), _array(2e-5, 1e-5))
    assert series.t_kelvin.tolist() == [0.1, 0.2]
    assert DeviceConfig(*[None] * 8).measured == {}
