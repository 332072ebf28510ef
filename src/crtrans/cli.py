"""Command line front end: read the command line, run the command, emit a JSON report.

The JSON report goes to stdout (or to --json PATH); a short human summary goes
to stderr. The document commands (classify, check-map, prolong) read, parse
and run their document in `document`, which no other command loads; this
module keeps what every command shares: the command table, the help, the
report envelope, the report writer and process exit. Exit codes: 0 when
everything certified or gated cleanly, 1 when a suite row is falsified or the
document is invalid, 2 for usage, I/O and encoding errors.

The command line is read against one table, `_COMMANDS`: the flags each
command accepts, each with its type or its choices, and whether it takes a
document. A usage error is one `error:` line and SystemExit(2). argparse is
not used: its import loads `gettext` and `locale`, and with building the
parsers it cost about 7 ms of every process (Python 3.11.7, 2-core host).

`main` returns the exit code; `run`, the process entry of `python -m crtrans`
and of the `crtrans` script, ends the process with it.
"""

from __future__ import annotations

import atexit
import os
import sys
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

# modules, not names: a module loads when a command first reads from it
from . import __version__, document, grammar_text, hypersurface, verify
from .errors import CrtransError

SCHEMA = "crtrans-report/1"
CHUNK = 1 << 14  # characters the report writer gathers before it sends them on

__all__ = ["main", "run", "SCHEMA"]


# ---------------- the report ----------------


def _send_report(report: dict, send: Callable[[str], object]) -> None:
    """Send `json.dumps(report, sort_keys=True, indent=2) + "\n"`, byte for byte,
    to `send`, for what a report holds: dicts with str keys, lists, tuples, str,
    int, bool and None. Anything else, a float or a non-str key included,
    raises TypeError. Each piece it sends, the last aside, is the first run of
    whole tokens to reach CHUNK characters, so it holds one piece at a time.

    Strings are quoted by the function json itself uses. The `json` package
    is not imported: its import costs about as much as writing a report, and
    with `indent` its encoder runs in pure Python at about half this writer's
    speed. The recursion stays inside this call, so a tracer sees one call
    per report.
    """
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter built without json's accelerator
        from json.encoder import py_encode_basestring_ascii as quote
    parts: List[str] = []
    size = 0

    def put(text: str) -> None:  # `text` is whole tokens, so a cut after it splits none
        nonlocal parts, size
        parts.append(text)
        size += len(text)
        if size >= CHUNK:
            send("".join(parts))
            parts, size = [], 0

    def write(value, indent: str) -> None:
        # the order of json's own type checks; `indent` starts with the newline
        if isinstance(value, str):
            put(quote(value))
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = indent + "  "
            lead = "[" + inner
            for item in value:
                put(lead)
                lead = "," + inner
                write(item, inner)
            put(indent + "]")
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = indent + "  "
            lead = "{" + inner
            for key in sorted(value):  # a key that is not a str fails here or in `quote`
                put(lead + quote(key) + ": ")
                lead = "," + inner
                write(value[key], inner)
            put(indent + "}")
        else:
            raise TypeError(f"a report holds no {type(value).__name__}")

    write(report, "\n")
    send("".join(parts) + "\n")


def _say(line: str) -> None:
    """Write one diagnostic line to stderr. A process started with stderr
    closed has `sys.stderr` None, where `print` would write to stdout after the
    report; the line is dropped then, and when stderr cannot be written, so
    stdout carries only the report and the exit code stays `main`'s."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")
    except (OSError, ValueError):
        pass


def _write(path: Optional[str], what: str, render: Callable) -> bool:
    """Write what `render(write)` writes to `path`, or to stdout when `path` is
    None. False, after one `error:` line naming `what`, when it cannot be written."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                render(fh.write)
        elif sys.stdout is None:  # the process started with stdout closed
            raise OSError("stdout is closed")
        else:
            render(sys.stdout.write)
            sys.stdout.flush()
    except OSError as exc:
        if not path and sys.stdout is not None:
            # what stdout still buffers would fail again at exit (see the
            # note on SIGPIPE in the `signal` documentation)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _say(f"error: cannot write the {what}: {exc}")
        return False
    return True


def _emit(report: dict, json_path: Optional[str], summary: List[str], code: int) -> int:
    """Write the report, then the summary; return `code`, or 2 with one error
    line and no summary when the report cannot be written."""
    if not _write(json_path, "report", lambda send: _send_report(report, send)):
        return 2
    for line in summary:
        _say(line)
    return code


def _envelope(command: str, degree: int, conv: str, seed: int) -> dict:
    """The keys every report starts with."""
    return {"schema": SCHEMA, "version": __version__, "command": command, "degree": degree,
            "convention": conv, "seed": seed}


# ---------------- command line ----------------

_COMMON = {"--degree": int, "--complexify": ("2i", "i"), "--seed": int, "--json": str}

# command -> (the flags it accepts, each with its type or its choices; whether it takes a document)
_COMMANDS = {
    "classify": (_COMMON, True),
    "check-map": (_COMMON, True),
    "prolong": (_COMMON, True),
    "verify": ({**_COMMON, "--suite": ("finite_type", "infinite_type", "easystuff")}, False),
    "examples": (_COMMON, False),
    "print-grammar": ({}, False),
}

_HELP = """\
usage: crtrans COMMAND [FLAGS] [DOCUMENT]

exact truncated-series toolkit for normal-form hypersurfaces and the maps between them

commands:
  classify        classify declared hypersurfaces
  check-map       run checkmap tasks from a document
  prolong         run prolong tasks from a document
  verify          run the statement suites on the built-in registry
  examples        list the built-in model families and instances
  print-grammar   print the input grammar (takes no flags)

flags, as --flag VALUE or --flag=VALUE, before or after the document, spelled
in full (abbreviations are refused); the last repeat of a flag wins:
  -h, --help             print this help
  --degree N             truncation degree (default 10)
  --complexify {2i,i}    graph complexification convention (default 2i)
  --seed N               recorded in the report (default 0); no computation
                         reads it
  --json PATH            write the JSON report here
  --suite {finite_type,infinite_type,easystuff}
                         verify only: run a single suite instead of all three

classify, check-map and prolong read DOCUMENT, or stdin when it is '-' or absent;
after '--' every argument is a document.
"""


def _usage_error(message: str) -> NoReturn:
    _say(f"error: {message}")
    raise SystemExit(2)


def _help() -> NoReturn:
    raise SystemExit(0 if _write(None, "help", lambda send: send(_HELP)) else 2)


def _is_flag(arg: str, flags) -> bool:
    """Whether `arg` reads as a flag rather than a value. As in argparse, one
    of `flags`, also as `--flag=...`, is a flag, while `-`, negative numbers
    and other strings with a space are values."""
    if arg.partition("=")[0] in flags:
        return True
    if arg[:1] != "-" or arg == "-" or " " in arg:
        return False
    whole, dot, frac = arg[1:].partition(".")
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return not number


def _parse_command_line(argv: Sequence[str]) -> Tuple[str, dict]:
    """The command and its values: `degree`, `complexify`, `seed`, `json`,
    `suite` and `document`. A flag's last repeat wins; after `--` every
    argument is a document. `-h`/`--help` prints the help and raises
    SystemExit(0), a usage error one `error:` line and SystemExit(2)."""
    if not argv:
        _usage_error(f"missing command; choose from {', '.join(_COMMANDS)}")
    command = argv[0]
    if command in ("-h", "--help"):
        _help()
    if command not in _COMMANDS:
        _usage_error(f"unknown command {command!r}; choose from {', '.join(_COMMANDS)}")
    flags, takes_document = _COMMANDS[command]
    values = {"degree": None, "complexify": None, "seed": 0, "json": None, "suite": None}
    documents: List[str] = []
    unknown: List[str] = []  # refused after the loop, as a later -h still gives the help
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        if arg == "--":
            documents += args
        elif arg in ("-h", "--help"):
            _help()
        elif name in flags:
            if not eq:
                value = next(args, None)
                if value is None or _is_flag(value, flags):
                    _usage_error(f"{name} needs a value")
            kind = flags[name]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"{name}: invalid int value {value!r}")
                if name == "--degree" and value < 1:
                    _usage_error("--degree must be at least 1")
            elif kind is not str and value not in kind:
                _usage_error(f"{name}: invalid choice {value!r}; choose from {', '.join(kind)}")
            values[name[2:]] = value
        elif _is_flag(arg, flags):
            unknown.append(name)
        else:
            documents.append(arg)
    if unknown:
        _usage_error(f"{command} has no flag {unknown[0]!r}; its flags: {', '.join(flags) or 'none'}")
    if documents and not takes_document:
        _usage_error(f"{command} takes no document, got {documents[0]!r}")
    if len(documents) > 1:
        _usage_error(f"{command} takes one document, got a second: {documents[1]!r}")
    values["document"] = documents[0] if documents else None
    return command, values


def main(argv: Optional[Sequence[str]] = None) -> int:
    command, opts = _parse_command_line(sys.argv[1:] if argv is None else argv)

    if command == "print-grammar":
        return 0 if _write(None, "grammar", lambda send: send(grammar_text.GRAMMAR_TEXT)) else 2

    if command not in ("verify", "examples"):
        return document.run(command, opts)

    degree = opts["degree"] if opts["degree"] is not None else 10
    conv = hypersurface.Convention(opts["complexify"] or "2i")
    try:
        if command == "verify":
            body = verify.verify_report(opts["suite"], degree, conv)
            counts = body["counts"]
            summary = (
                f"verify: {counts['confirmed']} confirmed, "
                f"{counts['hypothesis_not_certified']} gated, "
                f"{counts['falsified']} falsified"
            )
        else:
            body = verify.examples_report(degree, conv)
            summary = (
                f"examples: {len(body['families'])} families, "
                f"{len(body['map_instances'])} map instances"
            )
    except CrtransError as exc:
        _say(f"error: {exc}")
        return 2
    report = {**_envelope(command, degree, conv.value, opts["seed"]), **body}
    return _emit(report, opts["json"], [summary], 1 if body.get("falsified") else 0)


def _interpreter_needed() -> bool:
    """Whether something still watches or needs the interpreter after `main`:
    a trace or profile function, from Python 3.12 on any `sys.monitoring` tool
    (how cProfile and coverage attach there), `-i` or `-X dev`, a second
    thread, or an interpreter without `atexit._run_exitfuncs`."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)):
        return True
    if sys.flags.inspect or sys.flags.dev_mode:
        return True
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return True
    return not hasattr(atexit, "_run_exitfuncs")


def _flushed() -> bool:
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with it closed
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def run() -> NoReturn:
    """Run `main` on the command line and end the process with its exit code.

    A finished run needs no interpreter teardown: its report is written and
    flushed, and module teardown with the final collection costs more than the
    mathematics of a one-document process. So once stdout and stderr are
    flushed, the process runs its `atexit` callbacks, flushes again and ends
    with `os._exit`. It takes the ordinary `sys.exit` when `main` raised
    (the SystemExit of `-h` and of a usage error included), when a flush
    fails, or when `_interpreter_needed` says something still watches the
    interpreter.
    """
    code = main()
    if not _interpreter_needed() and _flushed():
        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
