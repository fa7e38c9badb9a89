"""Which modules of the package, of scipy and of the standard library a
cold run loads, the lazy package, the names that moved between modules,
and that a cold run writes no bytecode."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qpgap

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

# the modules every command loads: the CLI, its output helpers, the
# config and what it reads
BASE = {
    "qpgap", "qpgap._output", "qpgap._record", "qpgap.cli", "qpgap.config",
    "qpgap.device", "qpgap.errors", "qpgap.units",
}
# what both fits load: the thermal functions (which qp runs too) and the
# sorted median of numerics
FIT = {"qpgap._fit", "qpgap.fitting", "qpgap.numerics", "qpgap.thermal"}
# scipy's LAPACK extension, loaded at a command's first eigensolve without
# the scipy package itself
LAPACK = {"scipy.linalg._flapack"}

# the command line of each shared probe, one per distinct command the
# layout tests run
COMMANDS = {
    "spectrum-1p": ["spectrum", "configs/device_1p.json"],
    "spectrum-2np": ["spectrum", "configs/device_2np.json"],
    "spectrum-2p": ["spectrum", "configs/device_2p.json"],
    "qp": ["qp", "configs/device_1p.json"],
    "parity-sim": ["parity-sim", "configs/device_2np.json", "--duration", "2"],
    "fit-t1": ["fit", "t1", "data/t1_vs_temperature_1np.csv",
               "configs/device_1np.json"],
    "fit-t2": ["fit", "t2", "data/t2star_vs_temperature_1p.csv",
               "configs/device_1p.json", "--t1-data",
               "data/t1_vs_temperature_1p.csv"],
}

# prints sorted(sys.modules) after ``import qpgap.cli``, after the command
# line argv[1] runs, then after it runs again with --svg; with no command
# line, after a bare ``import qpgap``, and then the names of two submodules
# the package resolves on access
_PROBE = """
import json, sys
argv, records = json.loads(sys.argv[1]), []
if argv:
    from qpgap.cli import main
    records.append(sorted(sys.modules))
    for extra in ([], ["--svg"]):
        assert main(argv + extra) == 0
        records.append(sorted(sys.modules))
else:
    import qpgap
    records.append(sorted(sys.modules))
    records.append([qpgap.transmon.__name__, qpgap.svgplot.__name__])
print(json.dumps(records))
"""


def _site_packages() -> list[str]:
    """The directories numpy and scipy are imported from."""
    return sorted({
        os.path.dirname(os.path.dirname(importlib.util.find_spec(name).origin))
        for name in ("numpy", "scipy")
    })


@pytest.fixture(scope="session")
def probes(tmp_path_factory) -> dict:
    """(stdout, stderr, return code) of each probe: one per command line of
    ``COMMANDS``, and ``"import"`` for the bare import.

    Each probe is a cold ``python -S`` interpreter, so no ``.pth`` file of
    the host preloads a module; it finds numpy and scipy by their
    directories alone and runs BLAS and OpenMP on one thread.  All are
    started before any is read.
    """
    env = {
        **os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([SRC, *_site_packages()]),
    }
    procs = {}
    try:
        for name, argv in {**COMMANDS, "import": []}.items():
            if argv:
                argv = [*argv, "--out", str(tmp_path_factory.mktemp(name))]
            procs[name] = subprocess.Popen(
                [sys.executable, "-S", "-c", _PROBE, json.dumps(argv)],
                cwd=REPO, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
        return {name: (*proc.communicate(timeout=120), proc.returncode)
                for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _records(probes: dict, name: str) -> list[list[str]]:
    """What the probe ``name`` printed: its module lists, in order."""
    stdout, stderr, code = probes[name]
    assert code == 0, stderr
    return json.loads(stdout.splitlines()[-1])


def _python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter with ``src/`` first."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=REPO,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


@pytest.mark.parametrize(
    "name, extra",
    [
        ("spectrum-1p", {"qpgap._spectrum", "qpgap.transmon", *LAPACK}),
        # a transmon given as frequency targets runs the inversion
        ("spectrum-2p",
         {"qpgap._spectrum", "qpgap.transmon", "qpgap._inversion",
          "qpgap.numerics", *LAPACK}),
        ("qp",
         {"qpgap._qp", "qpgap.quasiparticles", "qpgap.transmon",
          "qpgap.thermal", *LAPACK}),
        ("parity-sim",
         {"qpgap._parity_sim", "qpgap.parity", "qpgap._floatcsv",
          "qpgap.transmon", *LAPACK}),
        ("fit-t1", FIT),
        ("fit-t2", {"qpgap._dephasing", *FIT}),
    ],
    ids=["spectrum", "spectrum-targets", "qp", "parity-sim", "fit-t1",
         "fit-t2"],
)
def test_each_command_loads_only_its_modules(probes, name, extra):
    # qpgap's and scipy's modules (and numpy.ma, which np.median imports,
    # if loaded) after the plain run, then after the --svg run
    plain, svg = (
        {m for m in loaded
         if m.split(".")[0] in ("qpgap", "scipy") or m == "numpy.ma"}
        for loaded in _records(probes, name)[1:]
    )
    assert plain == BASE | extra
    assert svg == BASE | extra | {"qpgap.svgplot"}


@pytest.mark.parametrize(
    "name", ["spectrum-2np", "spectrum-2p", "qp", "fit-t1", "fit-t2"],
    ids=["spectrum-svg", "spectrum-targets", "qp", "fit-t1", "fit-t2"],
)
def test_short_commands_load_no_hashlib_or_pathlib(probes, name):
    # the config hash takes the interpreter's own sha256 module, and files
    # are opened by name; read after the probe's --svg run
    loaded = _records(probes, name)[-1]
    assert sorted({"hashlib", "_hashlib", "pathlib"} & set(loaded)) == []


# shutil and the modules it imports.  Without a width, argparse imports
# shutil to measure the terminal for each argument it adds.
SHUTIL = {"shutil", "fnmatch", "zlib", "bz2", "lzma"}


def test_commands_load_no_shutil(probes):
    # numpy.random, which only parity-sim loads, imports zlib itself
    loaded = {name: set(_records(probes, name)[-1]) for name in COMMANDS}
    assert {name: SHUTIL & modules for name, modules in loaded.items()} == {
        **dict.fromkeys(COMMANDS, set()), "parity-sim": {"zlib"}}
    assert "numpy.random" in loaded["parity-sim"]


def _helps(parser) -> list[str]:
    """The help text of ``parser`` and of each of its subcommands."""
    (subparsers,) = parser._subparsers._group_actions
    return [parser.format_help(),
            *(sub.format_help() for sub in subparsers.choices.values())]


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_matches_stock_argparse(monkeypatch, columns):
    from qpgap import cli

    monkeypatch.setenv("COLUMNS", columns)
    ours = _helps(cli.build_parser())
    monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
    stock = _helps(cli.build_parser())
    assert ours == stock
    assert max(len(line) for text in ours for line in text.splitlines()) <= (
        int(columns) - 2)


@pytest.mark.parametrize("columns", [None, "60", "200", "0", "-5", "wide"])
def test_help_width_follows_shutil(monkeypatch, columns):
    from qpgap import cli

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._columns() == shutil.get_terminal_size().columns


def _has_targets(path: Path) -> bool:
    return "targets" in json.loads(path.read_text())["transmon"]


def test_inversion_loads_only_for_a_config_with_targets():
    # the configs without targets are loaded first, in one interpreter
    paths = sorted((REPO / "configs").glob("*.json"), key=_has_targets)
    code = (
        "import json, sys\n"
        "from qpgap.config import load_device_config\n"
        "loaded = []\n"
        "for path in sys.argv[1:]:\n"
        "    load_device_config(path)\n"
        "    loaded.append('qpgap._inversion' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(_python(code, *map(str, paths)).splitlines()[-1])
    assert loaded == [_has_targets(path) for path in paths]
    assert False in loaded and True in loaded


def test_config_hash_is_the_sha256_of_the_canonical_json():
    paths = sorted((REPO / "configs").glob("*.json"))
    expected = []
    for path in paths:
        canonical = json.dumps(json.loads(path.read_text()), sort_keys=True,
                               separators=(",", ":"))
        expected.append(hashlib.sha256(canonical.encode()).hexdigest())
    from qpgap.config import load_device_config

    assert [load_device_config(path).source_hash for path in paths] == expected
    # with the interpreter's own sha256 module blocked, hashlib's
    code = (
        "import json, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib\n"
        "from qpgap import config\n"
        "assert config._sha256 is hashlib.sha256\n"
        "print(json.dumps([config.load_device_config(path).source_hash\n"
        "                  for path in sys.argv[1:]]))\n"
    )
    hashes = json.loads(_python(code, *map(str, paths)).splitlines()[-1])
    assert hashes == expected


def test_a_cold_command_writes_no_bytecode(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(REPO / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(copy),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    code = (
        "import runpy, sys, qpgap\n"
        "print(qpgap.__file__)\n"
        "sys.argv = ['qpgap', *sys.argv[1:]]\n"
        "runpy.run_module('qpgap.cli', run_name='__main__')\n"
    )
    argv = ["spectrum", "configs/device_2p.json", "--svg",
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == str(copy / "qpgap" / "__init__.py")
    assert sorted(copy.rglob("__pycache__")) == []
    assert sorted(copy.rglob("*.pyc")) == []


def _imports_cli(node) -> bool:
    """Whether an import statement of a ``qpgap`` module names ``qpgap.cli``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "qpgap.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # the package's modules sit directly in qpgap, so "." is qpgap
    module = ".".join(filter(None, ["qpgap" if node.level else "",
                                    node.module]))
    return module == "qpgap.cli" or (
        module == "qpgap" and any(alias.name == "cli" for alias in node.names)
    )


def test_no_module_imports_the_cli():
    # the commands take their output helpers from _output, so cli -> command
    # -> cli is no cycle
    importers = sorted(
        path.name for path in (REPO / "src" / "qpgap").glob("*.py")
        if any(_imports_cli(node)
               for node in ast.walk(ast.parse(path.read_text())))
    )
    assert importers == []
    forms = ["from .cli import main", "from . import cli", "import qpgap.cli",
             "from qpgap.cli import main", "from qpgap import cli"]
    assert all(_imports_cli(ast.parse(form).body[0]) for form in forms)


def test_cli_run_as_main_runs_once(tmp_path):
    # ``python -m qpgap.cli`` runs cli.py as __main__, and nothing imports
    # it again as qpgap.cli
    code = (
        "import runpy, sys\n"
        "sys.argv = ['qpgap', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('qpgap.cli', run_name='__main__',\n"
        "                     alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print('qpgap.cli' in sys.modules)\n"
    )
    argv = ["qp", "configs/device_1p.json", "--out", str(tmp_path)]
    assert _python(code, *argv).splitlines()[-1] == "False"
    assert (tmp_path / "qp_grid.csv").is_file()


def test_qp_loads_no_numpy_polynomial(probes):
    # the gap-edge integrals of qp's barrier fractions and of a parity rate
    # computed from the profile take their Legendre rule from a table
    loaded = _records(probes, "qp")[-1]
    assert [m for m in loaded if m.startswith("numpy.poly")] == []


def test_cli_import_loads_nothing_of_scipy(probes):
    # read in each command probe before its command runs
    for name in COMMANDS:
        loaded = _records(probes, name)[0]
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == [], name


def test_bare_import_loads_no_submodule_and_resolves_them(probes):
    loaded, names = _records(probes, "import")
    assert [m for m in loaded if m.startswith("qpgap.")] == []
    assert names == ["qpgap.transmon", "qpgap.svgplot"]


def test_every_exported_name_resolves():
    missing = [name for name in qpgap.__all__ if not hasattr(qpgap, name)]
    assert missing == []
    assert len(set(qpgap.__all__)) == len(qpgap.__all__)


def test_star_import_binds_all():
    namespace = {}
    exec("from qpgap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qpgap.__all__)


def test_lazy_names_are_the_module_objects():
    assert qpgap.least_squares is qpgap.fitting.least_squares
    assert qpgap.NoiseModel is qpgap.parity.NoiseModel
    assert qpgap.TransmonParams is qpgap.transmon.TransmonParams
    assert qpgap.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qpgap.nonexistent
    assert "transmon" in dir(qpgap) and "NoiseModel" in dir(qpgap)


# name -> (the module it moved to, the modules it moved from, which still
# provide it)
MOVED = {
    "TransmonParams": ("device", ("transmon", "parity")),
    "CavityCoupling": ("device", ("transmon",)),
    "FrequencyTargets": ("device", ("transmon",)),
    "ThicknessTcTable": ("device", ("quasiparticles",)),
    "DEFAULT_THICKNESS_TABLE": ("device", ("quasiparticles",)),
    "tc_from_thickness": ("device", ("quasiparticles",)),
    "GapSegment": ("device", ("quasiparticles",)),
    "GapProfile": ("device", ("quasiparticles",)),
    "StackSegment": ("device", ("quasiparticles",)),
    "QPEnvironment": ("device", ("quasiparticles",)),
    "DEFAULT_ENVIRONMENT": ("device", ("quasiparticles",)),
    "DEFAULT_T_QP": ("device", ("quasiparticles",)),
    "NoiseModel": ("device", ("parity",)),
    "DEFAULT_TLS_RATE": ("device", ("parity",)),
    "DEFAULT_PIXEL_SECONDS": ("device", ("parity",)),
    "MAX_SCAN_SAMPLES": ("device", ("parity",)),
    "thermal_qp_fraction": ("thermal", ("quasiparticles",)),
    "crossover_temperature": ("thermal", ("quasiparticles",)),
    "thermal_crossover": ("thermal", ("quasiparticles",)),
    "delta_from_tc": ("units", ("thermal",)),
    "fit_ej_ec": ("_inversion", ("transmon",)),
    "ThermometryResult": ("_dephasing", ("fitting",)),
    "fit_t2_vs_temperature": ("_dephasing", ("fitting",)),
    "pure_dephasing_from_echo": ("_dephasing", ("fitting",)),
    "resonator_thermometry": ("_dephasing", ("fitting",)),
    "shot_noise_dephasing": ("_dephasing", ("fitting",)),
    "t2_rate_model": ("_dephasing", ("fitting",)),
}


def _module(name: str):
    return importlib.import_module(f"qpgap.{name}")


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_names_resolve_in_their_old_modules(name):
    home, old_modules = MOVED[name]
    value = getattr(_module(home), name)
    for old in old_modules:
        assert getattr(_module(old), name) is value, old


def test_benchmark_imports_of_the_package_resolve():
    # every ``from qpgap.<module> import <name>`` of the benchmark's files
    imported = []
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("qpgap.")):
                imported += [(node.module, alias.name) for alias in node.names]
    assert ("qpgap.quasiparticles", "crossover_temperature") in imported
    assert ("qpgap.transmon", "TransmonParams") in imported
    missing = [(module, name) for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _benchmark_calls(tree):
    """(line, name, target, positional count or None, keywords) of every
    call in ``tree`` of a name imported from qpgap, or of an attribute of
    an imported qpgap module; the count is None after a ``*`` argument."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module.split(".")[0] == "qpgap"
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(
                    module, alias.name
                )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name, target = func.id, imported[func.id]
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and inspect.ismodule(imported.get(func.value.id))):
            name = f"{func.value.id}.{func.attr}"
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        yield (node.lineno, name, target,
               None if starred else len(node.args), keywords)


def test_benchmark_calls_of_the_package_bind():
    # every keyword a benchmark file passes to a qpgap function or record
    # binds, and no call passes more positional arguments than it takes:
    # a trimmed signature that would break the benchmark fails here
    from qpgap._record import Record

    called, unbound = set(), []
    for path in sorted((REPO / "perfbench").glob("*.py")):
        calls = _benchmark_calls(ast.parse(path.read_text()))
        for line, name, target, count, keywords in calls:
            called.add(name)
            if isinstance(target, type) and issubclass(target, Record):
                fields = target._fields
                if set(keywords) - set(fields) or (count or 0) > len(fields):
                    unbound.append(f"{path.name}:{line} {name}")
                continue
            try:
                inspect.signature(target).bind_partial(
                    *[None] * (count or 0), **dict.fromkeys(keywords)
                )
            except TypeError as exc:
                unbound.append(f"{path.name}:{line} {name}: {exc}")
    assert {"simulate_parity", "estimate_parity_lifetime", "ScanConfig",
            "resonator_dispersion", "parity_rate_model", "cli.main"} <= called
    assert unbound == []


def test_package_keeps_its_public_names():
    assert len(qpgap.__all__) == 81
    assert {"LMResult", "least_squares"} <= set(qpgap.__all__)


def test_lm_solver_lives_only_in_fitting():
    holders = sorted(
        path.stem for path in (REPO / "src" / "qpgap").glob("*.py")
        if path.stem != "__init__"
        and {"least_squares", "LMResult", "_covariance"}
        & set(vars(_module(path.stem)))
    )
    assert holders == ["fitting"]
