"""Start-up stays light: importing the CLI compiles no dataclasses, scans no
installed-package metadata, and the reported version is the package's own.

Submodules load on first use, so each subcommand compiles only the modules it
runs. The per-subcommand checks run in fresh processes: in this one, other
tests have loaded every module already.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crtrans
from crtrans.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh(code: str, *args: str) -> str:
    """stdout of `code` run in a new interpreter that imports crtrans from SRC."""
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_adds_no_dataclasses_inspect_or_metadata():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crtrans.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    added = set(fresh(code).split())
    assert "crtrans.cli" in added
    assert not added & {"dataclasses", "inspect", "importlib.metadata"}


# Runs the CLI, then reports which crtrans modules it loaded. A lazy module is
# registered in sys.modules with a subclass of ModuleType until its first
# attribute read; `type` does not read one.
RUN_AND_LIST = """\
import contextlib, io, json, sys, types
from crtrans.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
                if n.startswith("crtrans.") and type(m) is types.ModuleType)
parsing = [n for n in ("argparse", "gettext", "locale") if n in sys.modules]
print(json.dumps({"code": code, "loaded": loaded, "openssl": "_hashlib" in sys.modules,
                  "parsing": parsing}))
"""

BASE = {"cli", "errors", "grammar", "multiindex", "record", "scalar", "series"}
RANK = {"hypersurface", "linalg", "verdict"}
REGISTRY = (BASE - {"grammar"}) | RANK | {"crmap", "models", "verify"}

SUBCOMMANDS = {
    "print-grammar": ([], None, BASE),
    "prolong": (
        [],
        "A = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n",
        BASE | {"fracseries", "prolongation"},
    ),
    "classify": (["--degree", "6"], "M = graph(z*chi + z^2*chi^2*s)\nclassify M\n", BASE | RANK),
    "check-map": (
        [],
        "H = map(F = z*w, G = w)\nM = blowup(4,4)\nN = blowup(3,4)\ncheckmap H : M -> N\n",
        BASE | RANK | {"crmap", "models"},
    ),
    "verify": (["--suite", "easystuff", "--degree", "8"], None, REGISTRY),
    "examples": (["--degree", "8"], None, REGISTRY),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    flags, document, expected = SUBCOMMANDS[command]
    argv = [command, *flags]
    if document is not None:
        path = tmp_path / "doc.txt"
        path.write_text(document, encoding="utf-8")
        argv.append(str(path))
    run = json.loads(fresh(RUN_AND_LIST, *argv))
    assert run["code"] == 0
    assert set(run["loaded"]) == expected
    # a document's digest comes from the builtin SHA-256, so no command loads OpenSSL
    assert run["openssl"] is False
    # the command line is parsed without argparse, which loads gettext and locale
    assert run["parsing"] == []


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS, tracer.OPERATORS


def test_every_module_the_tracer_wraps_is_registered_by_the_cli_import():
    layers, operators = _tracer_tables()
    wrapped = sorted(set(layers) | {modname for modname, *_ in operators} | {"scalar"})
    code = (
        "import json, sys\n"
        "import crtrans.cli\n"
        "print(json.dumps(sorted(n.split('.', 1)[1] for n in sys.modules"
        " if n.startswith('crtrans.'))))\n"
    )
    registered = set(json.loads(fresh(code)))
    assert set(wrapped) <= registered


def test_tracer_installs_over_lazy_modules(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("A = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n", encoding="utf-8")
    out = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "t", "prolong",
                    str(doc)], env=child_env(), capture_output=True, check=True)
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert stats["prolongation.solve"][0] == 1
    assert stats["series.mul"][0] > 0


def test_package_names_are_the_objects_of_their_modules():
    assert len(crtrans.__all__) == len(set(crtrans.__all__))
    for module, names in crtrans._EXPORTS.items():
        mod = sys.modules[f"crtrans.{module}"]
        assert getattr(crtrans, module) is mod
        for name in names:
            obj = getattr(crtrans, name)
            assert obj is getattr(mod, name)
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == mod.__name__
    assert set(crtrans.__all__) == {n for names in crtrans._EXPORTS.values() for n in names}


def test_package_dir_star_import_and_unknown_names():
    listed = dir(crtrans)
    assert "__all__" in listed and set(crtrans.__all__) <= set(listed)
    assert {"series", "grammar", "__version__"} <= set(listed)
    namespace: dict = {}
    exec("from crtrans import *", namespace)
    assert set(crtrans.__all__) <= set(namespace)
    assert namespace["Series"] is crtrans.series.Series
    with pytest.raises(AttributeError, match="no_such_name"):
        crtrans.no_such_name
    with pytest.raises(ImportError):
        exec("from crtrans import no_such_name", {})


def test_no_source_file_uses_dataclass():
    users = [p.name for p in sorted(SRC.rglob("*.py")) if "@dataclass" in p.read_text()]
    assert users == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert crtrans.__version__ == project["version"]


def test_reports_carry_the_package_version(capsys):
    assert main(["verify", "--suite", "easystuff"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == crtrans.__version__
