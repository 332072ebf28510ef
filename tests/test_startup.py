"""Start-up stays light: importing the CLI compiles no dataclasses, scans no
installed-package metadata, and the reported version is the package's own."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crtrans
from crtrans.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_cli_import_adds_no_dataclasses_inspect_or_metadata():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crtrans.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = set(out.split())
    assert "crtrans.cli" in added
    assert not added & {"dataclasses", "inspect", "importlib.metadata"}


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
