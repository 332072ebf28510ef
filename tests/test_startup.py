"""Start-up stays light: importing the CLI compiles no dataclasses, scans no
installed-package metadata, and the reported version is the package's own.

Submodules load on first use, so each subcommand compiles only the modules it
runs. The per-subcommand checks run in fresh processes: in this one, other
tests have loaded every module already.
"""

import builtins
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crtrans
from crtrans.cli import _sha256_hex, main

from test_classify import DEGENERATE

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
# attribute read; `type` does not read one. Whether the run loaded `json` is
# read before this script imports it. `fractions` also loads `decimal` and
# `numbers`; no command needs any of them.
RUN_AND_LIST = """\
import contextlib, io, sys, types
from crtrans.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # -h and usage errors
        code = exc.code
loaded = sorted(n.split(".", 1)[1] for n, m in sys.modules.items()
                if n.startswith("crtrans.") and type(m) is types.ModuleType)
parsing = [n for n in ("argparse", "gettext", "locale") if n in sys.modules]
numeric = [n for n in ("fractions", "decimal", "numbers") if n in sys.modules]
uses_json = "json" in sys.modules
import json
print(json.dumps({"code": code, "loaded": loaded, "openssl": "_hashlib" in sys.modules,
                  "parsing": parsing, "json": uses_json, "numeric": numeric}))
"""

# print-grammar, -h and usage errors load neither the parser nor its records
FRONT = {"cli", "errors"}
PARSE = FRONT | {"grammar", "record"}
BASE = PARSE | {"multiindex", "scalar", "series"}
# classify certifies every rank by the minor scan of `rank`; the maps also
# take scalar and series determinants from `linalg`
RANK = {"hypersurface", "rank", "verdict"}
MAPS = RANK | {"crmap", "linalg", "models"}
REGISTRY = (BASE - {"grammar"}) | MAPS | {"verify"}

# row id -> (argv, document, loaded modules, exit code); a document that fails
# to parse never reaches the evaluator, the one user of the series kernel
SUBCOMMANDS = {
    "print-grammar": (["print-grammar"], None, FRONT | {"grammar_text"}, 0),
    "--help": (["--help"], None, FRONT, 0),
    "usage error": (["classify", "--degree", "x"], None, FRONT, 2),
    "prolong": (
        ["prolong"],
        "A = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n",
        BASE | {"fracseries", "prolongation"},
        0,
    ),
    "classify": (["classify", "--degree", "6"], "M = graph(z*chi + z^2*chi^2*s)\nclassify M\n",
                 BASE | RANK, 0),
    # every rank scan of this document runs to its cap, and none loads linalg
    "classify a degenerate graph": (["classify", "--degree", "8"],
                                    f"M = graph({DEGENERATE})\nclassify M\n", BASE | RANK, 0),
    "classify with a syntax error": (["classify"], "M = = graph(z*chi)\nclassify M\n", PARSE, 1),
    "check-map": (
        ["check-map"],
        "H = map(F = z*w, G = w)\nM = blowup(4,4)\nN = blowup(3,4)\ncheckmap H : M -> N\n",
        BASE | MAPS,
        0,
    ),
    "verify": (["verify", "--suite", "easystuff", "--degree", "8"], None, REGISTRY, 0),
    "examples": (["examples", "--degree", "8"], None, REGISTRY, 0),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    argv, document, expected, code = SUBCOMMANDS[command]
    if document is not None:
        path = tmp_path / "doc.txt"
        path.write_text(document, encoding="utf-8")
        argv = [*argv, str(path)]
    run = json.loads(fresh(RUN_AND_LIST, *argv))
    assert run["code"] == code
    assert set(run["loaded"]) == expected
    # a document's digest comes from the builtin SHA-256, so no command loads OpenSSL
    assert run["openssl"] is False
    # the command line is parsed without argparse, which loads gettext and locale
    assert run["parsing"] == []
    # the report is written without the json package
    assert run["json"] is False
    # scalars are (re, im, den) ints, so nothing loads fractions
    assert run["numeric"] == []


def test_input_digest_imports_only_the_builtin_sha256_of_this_version(monkeypatch):
    # trying the other version's module first costs a failed `sys.path` search per document
    failed = []
    real_import = builtins.__import__

    def recording(name, *args, **kwargs):
        try:
            return real_import(name, *args, **kwargs)
        except ImportError:
            failed.append(name)
            raise

    monkeypatch.setattr(builtins, "__import__", recording)
    assert _sha256_hex(b"M = graph(z*chi)\n") == hashlib.sha256(b"M = graph(z*chi)\n").hexdigest()
    assert failed == []


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


def traced_calls(tmp_path, argv, document) -> dict:
    """Calls per metric name of one run of `document` under perfbench's tracer."""
    doc = tmp_path / "doc.txt"
    doc.write_text(document, encoding="utf-8")
    out = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "t", *argv,
                    str(doc)], env=child_env(), capture_output=True, check=True)
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    return {name: calls for name, (calls, *_) in stats.items()}


def test_tracer_installs_over_lazy_modules(tmp_path):
    calls = traced_calls(tmp_path, *SUBCOMMANDS["prolong"][:2])
    assert calls["prolongation.solve"] == 1
    assert calls["series.mul"] > 0
    # the tracer wraps the rank functions through `linalg`, which takes them
    # from `rank`: a classify and a check-map must still reach the wrappers
    calls = traced_calls(tmp_path, *SUBCOMMANDS["classify a degenerate graph"][:2])
    assert calls["linalg.generic_rank"] > 0
    assert calls["linalg.det"] > 0
    calls = traced_calls(tmp_path, *SUBCOMMANDS["check-map"][:2])
    assert calls["linalg.generic_rank"] > 0
    assert calls["linalg.det"] > 0
    assert calls["linalg.determinant"] > 0


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


def test_no_source_file_imports_fractions_at_module_level():
    # an indented import, inside a function no command calls, is allowed
    users = [p.name for p in sorted(SRC.rglob("*.py"))
             for line in p.read_text().splitlines()
             if line.startswith(("from fractions ", "import fractions"))]
    assert users == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert crtrans.__version__ == project["version"]


def test_reports_carry_the_package_version(capsys):
    assert main(["verify", "--suite", "easystuff"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == crtrans.__version__
