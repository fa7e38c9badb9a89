"""Which of the package's modules a cold run loads, and the lazy package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpgap

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

# the modules every command loads: the CLI, the config and what it reads
BASE = {
    "qpgap", "qpgap._record", "qpgap.cli", "qpgap.config", "qpgap.errors",
    "qpgap.noise", "qpgap.numerics", "qpgap.quasiparticles", "qpgap.thermal",
    "qpgap.transmon", "qpgap.units",
}

# runs argv without, then with --svg, printing qpgap's modules after each
# (and numpy.ma, which np.median imports, if loaded)
_COMMAND_PROBE = """
import json, sys
from qpgap.cli import main

argv = json.loads(sys.argv[1])
loaded = []
for extra in ([], ["--svg"]):
    assert main(argv + extra) == 0
    loaded.append(sorted(
        m for m in sys.modules
        if m.split(".")[0] == "qpgap" or m == "numpy.ma"
    ))
print(json.dumps(loaded))
"""


def _python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter with ``src/`` first."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["spectrum", "configs/device_1p.json"], set()),
        (["qp", "configs/device_1p.json"], set()),
        (["parity-sim", "configs/device_2np.json", "--duration", "2"],
         {"qpgap.parity", "qpgap._floatcsv"}),
        (["fit", "t1", "data/t1_vs_temperature_1np.csv",
          "configs/device_1np.json"], {"qpgap.fitting"}),
        (["fit", "t2", "data/t2star_vs_temperature_1p.csv",
          "configs/device_1p.json", "--t1-data",
          "data/t1_vs_temperature_1p.csv"], {"qpgap.fitting"}),
    ],
    ids=["spectrum", "qp", "parity-sim", "fit-t1", "fit-t2"],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    argv = [*argv, "--out", str(tmp_path)]
    plain, svg = json.loads(_python(_COMMAND_PROBE, json.dumps(argv))
                            .splitlines()[-1])
    assert set(plain) == BASE | extra
    assert set(svg) == BASE | extra | {"qpgap.svgplot"}


def test_qp_loads_no_numpy_polynomial(tmp_path):
    # the gap-edge integrals of qp's barrier fractions and of a parity rate
    # computed from the profile take their Legendre rule from a table
    code = (
        "import json, sys\n"
        "from qpgap.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.poly')))\n"
    )
    argv = ["qp", "configs/device_1p.json", "--out", str(tmp_path)]
    assert _python(code, json.dumps(argv)).splitlines()[-1] == "[]"


def test_bare_import_loads_no_submodule_and_resolves_them():
    code = (
        "import sys, qpgap\n"
        "print(sorted(m for m in sys.modules if m.startswith('qpgap.')))\n"
        "print(qpgap.transmon.__name__, qpgap.svgplot.__name__)\n"
    )
    assert _python(code).splitlines() == [
        "[]", "qpgap.transmon qpgap.svgplot",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in qpgap.__all__ if not hasattr(qpgap, name)]
    assert missing == []
    assert len(set(qpgap.__all__)) == len(qpgap.__all__)


def test_star_import_binds_all():
    namespace = {}
    exec("from qpgap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qpgap.__all__)


def test_lazy_names_are_the_module_objects():
    assert qpgap.least_squares is qpgap.numerics.least_squares
    assert qpgap.NoiseModel is qpgap.parity.NoiseModel
    assert qpgap.TransmonParams is qpgap.transmon.TransmonParams
    assert qpgap.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qpgap.nonexistent
    assert "transmon" in dir(qpgap) and "NoiseModel" in dir(qpgap)
