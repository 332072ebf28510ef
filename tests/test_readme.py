"""The README's CLI examples, each run as written in a fresh process.

Every `$ ... crtrans ...` example must exit 0 and print the summary line
written under it. The input-language block must run under `classify` and
`check-map`.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def crtrans(argv, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "crtrans", *argv], input=stdin, text=True,
                          capture_output=True, env=child_env(), timeout=120)


def examples():
    """(command line, summary line) of each `$` example that runs crtrans."""
    out = []
    lines = README.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("$ "):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines[i].strip()
            i += 1
        comments = []
        while i < len(lines) and lines[i].startswith("# "):
            comments.append(lines[i][2:])
            i += 1
        if "crtrans" in shlex.split(command):
            out.append((command, comments[-1]))
    return out


EXAMPLES = examples()


def test_readme_has_the_examples():
    subcommands = [command.split("crtrans ")[1].split()[0] for command, _ in EXAMPLES]
    assert subcommands == ["classify", "check-map", "prolong", "verify", "examples"]


@pytest.mark.parametrize("command, summary", EXAMPLES, ids=[s.split(":")[0] for _, s in EXAMPLES])
def test_readme_example(command, summary):
    stdin = ""
    if "|" in command:
        producer, command = (part.strip() for part in command.split("|"))
        word, text = shlex.split(producer)
        assert word == "printf"
        stdin = text.replace("\\n", "\n")
    argv = shlex.split(command)
    assert argv[0] == "crtrans"
    proc = crtrans(argv[1:], stdin)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stderr.splitlines()


def input_language_block() -> str:
    m = re.search(r"The input language.*?```text\n(.*?)```", README, re.S)
    return m.group(1)


@pytest.mark.parametrize("command", ["classify", "check-map"])
def test_readme_input_language_block(command, tmp_path):
    doc = tmp_path / "block.crt"
    doc.write_text(input_language_block())
    proc = crtrans([command, str(doc)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")


def test_readme_block_names_only_grammar_constructors():
    from crtrans import GRAMMAR_TEXT

    (listed,) = re.findall(r"# or: (.*)", input_language_block())
    for name in re.findall(r"(\w+)\(", listed):
        assert f'"{name}" "("' in GRAMMAR_TEXT, name
