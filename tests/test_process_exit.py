"""The process entry `cli.run`, in fresh processes: the exit code and the
report are those of `main`, `atexit` callbacks run, and the interpreter is not
torn down unless something still watches it. A report that cannot be written
ends with one error line and exit 2.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crtrans.cli import main

ROOT = Path(__file__).resolve().parent.parent
VALID_DOC = "M = graph(z*chi + z^2*chi^2*s)\nclassify M\n"
TASK_ERROR_DOC = "M = blowup(1, 2)\nclassify M\n"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def crtrans(argv, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "crtrans", *argv], input=stdin.encode(),
                          capture_output=True, env=child_env(), timeout=120)


def in_process(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:  # the usage exit of the command line parser
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv, stdin, expected",
    [
        (["classify", "--degree", "6"], VALID_DOC, 0),
        (["classify"], TASK_ERROR_DOC, 1),
        (["bogus"], "", 2),
    ],
)
def test_exit_code_is_the_code_of_main(capsys, monkeypatch, argv, stdin, expected):
    assert in_process(capsys, monkeypatch, argv, stdin)[0] == expected
    assert crtrans(argv, stdin).returncode == expected


@pytest.mark.parametrize(
    "argv, stdin",
    [(["classify", "--degree", "6"], VALID_DOC), (["verify", "--suite", "easystuff"], ""),
     (["verify", "--degree", "10"], "")],  # the last in many pieces
)
def test_stdout_is_byte_identical_to_main(capsys, monkeypatch, argv, stdin):
    _, out, err = in_process(capsys, monkeypatch, argv, stdin)
    proc = crtrans(argv, stdin)
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == err.encode("utf-8")


# Runs `python -m crtrans print-grammar` through runpy; the `finally` line is
# printed only when `run` leaves by `sys.exit`, the ordinary exit.
PROBE = """\
import atexit, runpy, sys
atexit.register(print, "atexit callback ran", file=sys.stderr)
{setup}
sys.argv = ["crtrans", "print-grammar"]
try:
    runpy.run_module("crtrans", run_name="__main__")
finally:
    print("ordinary exit", file=sys.stderr)
"""


def probe(setup: str = "", flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", PROBE.format(setup=setup)],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          env=child_env(), timeout=120)


def test_a_finished_run_runs_atexit_callbacks_and_skips_teardown():
    proc = probe()
    assert proc.returncode == 0
    assert proc.stdout.startswith("document")
    assert proc.stderr == "atexit callback ran\n"


GUARDS = {
    "trace function": ("sys.settrace(lambda *args: None)", ()),
    "profile function": ("sys.setprofile(lambda *args: None)", ()),
    "second thread": (
        "import threading, time\nthreading.Thread(target=time.sleep, args=(0.5,)).start()", ()
    ),
    "-X dev": ("", ("-X", "dev")),
    "-i": ("", ("-i",)),
}
if hasattr(sys, "monitoring"):
    GUARDS["sys.monitoring tool"] = ("sys.monitoring.use_tool_id(3, 'probe')", ())


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_a_watched_interpreter_gets_the_ordinary_exit(guard):
    setup, flags = GUARDS[guard]
    proc = probe(setup, flags)
    assert proc.returncode == 0
    assert "atexit callback ran" in proc.stderr
    assert "ordinary exit" in proc.stderr


def test_cprofile_still_prints_its_stats():
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "crtrans", "print-grammar"],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


def assert_one_error_line(returncode: int, stderr: bytes, reason: str, what: str = "report") -> None:
    assert returncode == 2
    err = stderr.decode()
    assert err.startswith(f"error: cannot write the {what}: ") and reason in err
    assert err.count("\n") == 1  # no traceback, no "Exception ignored" line


def test_unwritable_json_path_exits_two(tmp_path):
    proc = crtrans(["verify", "--suite", "easystuff", "--json", str(tmp_path / "no" / "x.json")])
    assert_one_error_line(proc.returncode, proc.stderr, "No such file or directory")
    assert proc.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_on_stdout_exits_two():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "crtrans", "verify", "--suite", "easystuff"],
                              stdout=full, stderr=subprocess.PIPE, env=child_env(), timeout=120)
    assert_one_error_line(proc.returncode, proc.stderr, "No space left on device")


# the texts besides the report, each written through the report's guarded path
TEXTS = {"print-grammar": "grammar", "--help": "help"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", sorted(TEXTS))
def test_full_device_on_stdout_exits_two_for_each_text(command):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "crtrans", command],
                              stdout=full, stderr=subprocess.PIPE, env=child_env(), timeout=120)
    assert_one_error_line(proc.returncode, proc.stderr, "No space left on device", TEXTS[command])


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
@pytest.mark.parametrize(
    "argv, what",
    [(["classify", "-"], "report"), (["verify", "--suite", "easystuff"], "report"),
     *(([command], what) for command, what in sorted(TEXTS.items()))],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_a_process_started_with_stdout_closed_exits_two(argv, what):
    # `>&-` starts the interpreter without file descriptor 1, so sys.stdout is None
    proc = subprocess.run(["/bin/sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "crtrans", *argv],
                          input=VALID_DOC.encode(), stderr=subprocess.PIPE, env=child_env(),
                          timeout=120)
    assert_one_error_line(proc.returncode, proc.stderr, "stdout is closed", what)


def test_stdout_closed_before_the_report_exits_two():
    with subprocess.Popen([sys.executable, "-m", "crtrans", "verify", "--suite", "easystuff"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
        child.stdout.close()  # long before the report: start-up alone takes longer
        err = child.stderr.read()
        returncode = child.wait(timeout=120)
    assert_one_error_line(returncode, err, "Broken pipe")


def test_stdout_closed_in_the_middle_of_the_report_exits_two():
    # the 140 KB report is sent in pieces of cli.CHUNK characters and does not
    # fit in a pipe (64 KB on Linux), so pieces are still to come when the reader
    # has gone
    with subprocess.Popen([sys.executable, "-m", "crtrans", "verify", "--degree", "10"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                          env=child_env()) as child:
        head = child.stdout.read(64)
        child.stdout.close()
        err = child.stderr.read()
        returncode = child.wait(timeout=120)
    assert head.startswith(b'{\n  "command": "verify"')
    assert_one_error_line(returncode, err, "Broken pipe")


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor before exec")
@pytest.mark.parametrize(
    "argv, stdin, expected",
    [
        (["classify", "--degree", "6"], VALID_DOC, 0),
        (["verify", "--suite", "easystuff"], "", 0),
        (["classify"], TASK_ERROR_DOC, 1),
        (["classify"], "M = = graph(z*chi)\nclassify M\n", 1),
        (["bogus"], "", 2),
    ],
    ids=["classify", "verify", "task error", "syntax error", "usage error"],
)
def test_a_process_started_with_stderr_closed_writes_only_the_report(
        capsys, monkeypatch, argv, stdin, expected):
    # without file descriptor 2 the interpreter starts with sys.stderr None, where
    # `print(..., file=sys.stderr)` would write to stdout
    code, out, _ = in_process(capsys, monkeypatch, argv, stdin)
    proc = subprocess.run([sys.executable, "-m", "crtrans", *argv], input=stdin.encode(),
                          stdout=subprocess.PIPE, env=child_env(), timeout=120,
                          preexec_fn=lambda: os.close(2))
    assert code == expected
    assert proc.returncode == expected
    assert proc.stdout == out.encode("utf-8")
