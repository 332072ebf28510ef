"""Command line front end: parse a document, run its tasks, emit a JSON report.

The JSON report goes to stdout (or to --json PATH); a short human summary goes
to stderr. Exit codes: 0 when everything certified or gated cleanly, 1 when a
suite row is falsified or the document is invalid, 2 for usage, I/O and
encoding errors.

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
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

# modules, not names: a module loads when a command first reads from it
from . import (__version__, crmap, grammar, grammar_text, hypersurface, models, prolongation,
               verify)
from .errors import CrtransError, GrammarError

SCHEMA = "crtrans-report/1"

__all__ = ["main", "run", "SCHEMA"]


# ---------------- realizing declarations ----------------


def _resolve(ref: grammar.Ref, env: Dict[str, grammar.Decl]) -> Tuple[str, object]:
    """The report name of a reference and its value: an expression or a CtorRef."""
    if isinstance(ref, grammar.NameRef):
        return ref.name, env[ref.name].value
    return grammar._render_ref(ref), ref


def _surface(value, degree: int, conv: str) -> hypersurface.NormalHypersurface:
    """The hypersurface a value names; a bare expression means hypersurface(expr).
    Its expressions are evaluated before `hypersurface` and `models` load, so
    the series kernel compiles first: without a bytecode cache that compile
    is the process's memory peak, and it peaks higher with those two alive."""
    if not isinstance(value, grammar.CtorRef):
        value = grammar.CtorRef("hypersurface", (value,))
    kind, args = value.kind, value.args
    context = grammar._CTORS[kind][0]
    if context is not None:
        n, args = grammar.realize(context, args, degree)
    conv = hypersurface.Convention(conv)
    if kind == "hypersurface":
        return hypersurface.NormalHypersurface(n, args[0], conv)
    if kind == "graph":
        return hypersurface.from_graph(args[0], conv)
    if kind == "m_psi":
        return models.m_psi(args, degree, conv)
    make = {"heisenberg": models.heisenberg, "blowup": models.blowup_hypersurface,
            "exp_model": models.exp_model}[kind]
    return make(*args, degree, conv)


def _map(value: grammar.CtorRef, degree: int) -> crmap.CRMap:
    comps, normal = value.args
    _, (*f, g) = grammar.realize("map", (*comps, normal), degree)
    return crmap.CRMap(tuple(f), g)


# ---------------- task runners ----------------


def _run_classify(task: grammar.ClassifyTask, env, degree: int, conv: str) -> Tuple[dict, str]:
    name, value = _resolve(task.target, env)
    m = _surface(value, degree, conv)
    cls, validity, class_c = m.classification, m.validity, hypersurface.is_class_c(m)
    result = {
        "task": "classify",
        "name": name,
        "n": m.n,
        "classification": cls.to_json(),
        "validate": validity.to_json(),
        "class_c": class_c.to_json(),
        "holomorphically_nondegenerate": hypersurface.is_holomorphically_nondegenerate(m).to_json(),
        "class_cm": None,
    }
    if cls.kind is hypersurface.TypeKind.INFINITE:
        result["class_cm"] = hypersurface.is_class_cm(m).to_json()
    kind = cls.kind.value if cls.m is None else f"{cls.kind.value}, m = {cls.m}"
    return result, (f"classify {name}: {kind}; validate {validity.status.value}, "
                    f"class C {class_c.status.value}")


def _run_checkmap(task: grammar.CheckMapTask, env, degree: int, conv: str) -> Tuple[dict, str]:
    hname, h = _resolve(task.map, env)
    sname, src = _resolve(task.source, env)
    tname, tgt = _resolve(task.target, env)
    a = crmap.InstanceAnalysis(
        _map(h, degree), _surface(src, degree, conv), _surface(tgt, degree, conv))
    equidim = a.equidimensional.is_true
    # fields are decided in this order, so a failing document reports its first error
    result = {
        "task": "check_map",
        "map": hname,
        "source": sname,
        "target": tname,
        "sends_into": a.sends_into.to_json(),
        "transversal_order": a.transversal_order.to_json(),
        "transversally_flat": a.transversally_flat.to_json(),
        "cr_transversal": a.cr_transversal.to_json(),
        "not_totally_degenerate": a.not_totally_degenerate.to_json(),
        "normal_unit_reality": a.normal_unit_reality.to_json(),
        "order_bound": a.order_bound.to_json(),
        "jacobian_nonzero": a.jacobian_nonzero.to_json() if equidim else None,
        "automorphism": a.automorphism.to_json() if equidim else None,
        "unit_scale_law": a.unit_scale_law.to_json() if a.self_map.is_true else None,
    }
    trord = a.transversal_order.value
    return result, (f"checkmap {hname}: {sname} -> {tname}: "
                    f"sends_into {a.sends_into.status.value}, "
                    f"trord {'flat' if trord is None else trord}, "
                    f"cr_transversal {a.cr_transversal.status.value}")


def _run_prolong(task: grammar.ProlongTask, env, degree: int, *_) -> Tuple[dict, str]:
    """The convention does not enter a prolongation."""
    names = (task.a, *task.components)
    n, (a, *comps) = grammar.realize("pair", [env[name].value for name in names], degree)
    if len(task.alpha) != n:
        raise CrtransError(
            f"jet index {task.alpha} has length {len(task.alpha)}, but the data uses {n} z variables"
        )
    pivot = prolongation.minimal_ordered_nonzero(a, n)
    max_order = sum(task.alpha) + sum(pivot)
    jets = prolongation.forward_expand(a, n, comps, max_order)
    instance = prolongation.ProlongationInstance(a, n, jets)
    solution = prolongation.prolongation_solve(instance, task.alpha)
    matches = prolongation.matches_direct_expansion(solution, comps)
    chi_names = [f"chi{j + 1}" for j in range(n)]
    result = {
        "task": "prolong",
        "a": task.a,
        "components": list(task.components),
        "alpha": list(solution.alpha),
        "pivot": list(solution.pivot),
        "values": [v.to_str(chi_names) for v in solution.values],
        "max_jet_order_used": solution.max_jet_order_used,
        "degree_used": solution.degree_used,
        "matches_direct_expansion": matches,
    }
    return result, (f"prolong {task.a} at {solution.alpha}: pivot {solution.pivot}, "
                    f"jet order used {solution.max_jet_order_used}, "
                    f"matches forward data: {matches}")


# ---------------- orchestration ----------------


def _read_document(path: Optional[str]) -> str:
    """The document decoded as strict UTF-8 (UnicodeDecodeError otherwise).

    A file's newlines are translated as text-mode `open` translates them;
    stdin keeps its own, as `sys.stdin` does on POSIX. Either way the text,
    and so the report's `input_digest`, is the one a text-mode read gives.
    """
    if path is None or path == "-":
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:  # a text stream put in place of stdin
            return sys.stdin.read()
        return stdin.read().decode("utf-8")
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _report_text(report: dict) -> str:
    """`json.dumps(report, sort_keys=True, indent=2)`, byte for byte, for what a
    report holds: dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else, a float or a non-str key included, raises TypeError.

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
    put = parts.append

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
    return "".join(parts)


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


def _write(text: str, path: Optional[str], what: str) -> bool:
    """Write `text` to `path`, or to stdout when `path` is None. False, after
    one `error:` line naming `what`, when it cannot be written."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process started with stdout closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
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
    if not _write(_report_text(report) + "\n", json_path, "report"):
        return 2
    for line in summary:
        _say(line)
    return code


def _sha256_hex(data: bytes) -> str:
    """SHA-256 from the interpreter's builtin module, so that no command loads
    OpenSSL: `hashlib` imports it for every algorithm. `hashlib` serves only
    an interpreter built without the builtin one; the digest is the same. The
    version picks the module, so no import fails after a `sys.path` search."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


def _envelope(command: str, degree: int, conv: str, seed: int) -> dict:
    """The keys every report starts with."""
    return {"schema": SCHEMA, "version": __version__, "command": command, "degree": degree,
            "convention": conv, "seed": seed}


def _document_command(command: str, opts: dict, kind, runner) -> int:
    try:
        text = _read_document(opts["document"])
    except OSError as exc:
        _say(f"error: {exc}")
        return 2
    except UnicodeDecodeError as exc:
        source = "stdin" if opts["document"] in (None, "-") else opts["document"]
        _say(f"error: {source} is not UTF-8: {exc.reason} at byte offset {exc.start}")
        return 2
    try:
        doc = grammar.parse(text)
    except GrammarError as exc:
        _say(f"error: {exc}")
        return 1
    degree = opts["degree"] if opts["degree"] is not None else (doc.degree or 10)
    conv = opts["complexify"] or doc.convention or "2i"  # a Convention's value
    env = {d.name: d for d in doc.declarations}
    tasks = [t for t in doc.tasks if isinstance(t, kind)]
    results: List[dict] = []
    summary: List[str] = []
    errors: List[dict] = []
    if not tasks and kind is grammar.ClassifyTask:
        # default work: classify every declared hypersurface
        tasks = [
            grammar.ClassifyTask(grammar.NameRef(d.name))
            for d in doc.declarations
            if isinstance(d.value, grammar.CtorRef) and d.value.kind != "map"
        ]
    if not tasks:
        errors.append({"task": None, "error": "document contains no task for this command"})
    for task in tasks:
        try:
            result, line = runner(task, env, degree, conv)
            results.append(result)
            summary.append(line)
        except CrtransError as exc:
            errors.append({"task": grammar._render_task(task), "error": str(exc)})
    report = {
        **_envelope(command, degree, conv, opts["seed"]),
        "input_digest": _sha256_hex(text.encode("utf-8")),
        "results": results,
        "errors": errors,
    }
    summary += [f"error: {e['error']}" for e in errors]
    return _emit(report, opts["json"], summary, 1 if errors else 0)


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
    raise SystemExit(0 if _write(_HELP, None, "help") else 2)


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
        return 0 if _write(grammar_text.GRAMMAR_TEXT, None, "grammar") else 2

    if command not in ("verify", "examples"):
        # built only here: reading a task class loads the grammar, which
        # `verify` and `examples` do not use
        kind, runner = {
            "classify": (grammar.ClassifyTask, _run_classify),
            "check-map": (grammar.CheckMapTask, _run_checkmap),
            "prolong": (grammar.ProlongTask, _run_prolong),
        }[command]
        return _document_command(command, opts, kind, runner)

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
