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
import json
import os
import sys
from math import factorial
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

# modules, not names: a module loads when a command first reads from it
from . import __version__, crmap, fracseries, grammar, hypersurface, models, prolongation, verify
from .errors import CrtransError, GrammarError

SCHEMA = "crtrans-report/1"

__all__ = ["main", "run", "SCHEMA"]


# ---------------- realizing declarations ----------------


def _realize_surface(
    ref: grammar.Ref,
    env: Dict[str, grammar.Declaration],
    degree: int,
    conv: hypersurface.Convention,
) -> Tuple[str, hypersurface.NormalHypersurface]:
    if isinstance(ref, grammar.NameRef):
        decl = env[ref.name]
        if isinstance(decl, grammar.SeriesDecl):
            return ref.name, _surface_from_q_expr(decl.expr, degree, conv)
        assert isinstance(decl, grammar.SurfaceDecl)
        return ref.name, _surface_from_ctor(decl.kind, decl.args, degree, conv)
    return grammar._render_ref(ref), _surface_from_ctor(ref.kind, ref.args, degree, conv)


def _surface_from_q_expr(
    expr, degree: int, conv: hypersurface.Convention
) -> hypersurface.NormalHypersurface:
    n = grammar.block_size([expr])
    layout, arity = grammar.q_layout(n)
    q = grammar.evaluate(expr, layout, arity, degree)
    return hypersurface.NormalHypersurface(n, q, conv)


def _surface_from_ctor(
    kind: str, args, degree: int, conv: hypersurface.Convention
) -> hypersurface.NormalHypersurface:
    if kind == "hypersurface":
        return _surface_from_q_expr(args[0], degree, conv)
    if kind == "graph":
        n = grammar.block_size([args[0]])
        layout, arity = grammar.graph_layout(n)
        phi = grammar.evaluate(args[0], layout, arity, degree)
        return hypersurface.from_graph(phi, conv)
    if kind == "heisenberg":
        return models.heisenberg(args[0], degree, conv)
    if kind == "blowup":
        return models.blowup_hypersurface(args[0], args[1], degree, conv)
    if kind == "exp_model":
        return models.exp_model(args[0], degree, conv)
    if kind == "m_psi":
        n = grammar.block_size(list(args))
        layout, arity = grammar.psi_layout(n)
        psi = tuple(grammar.evaluate(a, layout, arity, degree) for a in args)
        return models.m_psi(psi, degree, conv)
    raise CrtransError(f"unknown hypersurface constructor {kind}")


def _realize_map(
    ref: grammar.Ref, env: Dict[str, grammar.Declaration], degree: int
) -> Tuple[str, crmap.CRMap]:
    if isinstance(ref, grammar.NameRef):
        decl = env[ref.name]
        assert isinstance(decl, grammar.MapDecl)
        name, comps, normal = ref.name, decl.components, decl.normal
    else:
        comps, normal = ref.args
        name = grammar._render_ref(ref)
    n = grammar.block_size(list(comps) + [normal])
    layout, arity = grammar.map_layout(n)
    f = tuple(grammar.evaluate(c, layout, arity, degree) for c in comps)
    g = grammar.evaluate(normal, layout, arity, degree)
    return name, crmap.CRMap(f, g)


# ---------------- task runners ----------------


def _run_classify(task: grammar.ClassifyTask, env, degree: int, conv: str, seed: int) -> dict:
    name, m = _realize_surface(task.target, env, degree, hypersurface.Convention(conv))
    cls = m.classification
    result = {
        "task": "classify",
        "name": name,
        "n": m.n,
        "classification": cls.to_json(),
        "validate": m.validity.to_json(),
        "class_c": hypersurface.is_class_c(m, seed=seed).to_json(),
        "holomorphically_nondegenerate": hypersurface.is_holomorphically_nondegenerate(
            m, seed=seed
        ).to_json(),
        "class_cm": None,
    }
    if cls.kind is hypersurface.TypeKind.INFINITE:
        result["class_cm"] = hypersurface.is_class_cm(m, seed=seed).to_json()
    return result


def _run_checkmap(task: grammar.CheckMapTask, env, degree: int, conv: str, seed: int) -> dict:
    conv = hypersurface.Convention(conv)
    hname, h = _realize_map(task.map, env, degree)
    sname, src = _realize_surface(task.source, env, degree, conv)
    tname, tgt = _realize_surface(task.target, env, degree, conv)
    a = crmap.InstanceAnalysis(h, src, tgt, seed)
    equidim = a.equidimensional.is_true
    # fields are decided in this order, so a failing document reports its first error
    return {
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


def _run_prolong(task: grammar.ProlongTask, env, degree: int, *_) -> dict:
    """The convention and the seed do not enter a prolongation."""
    a_decl = env[task.a]
    exprs = [a_decl.expr] + [env[c].expr for c in task.components]
    n = grammar.block_size(exprs)
    layout, arity = grammar.pair_layout(n)
    a = grammar.evaluate(a_decl.expr, layout, arity, degree)
    comps = tuple(grammar.evaluate(env[c].expr, layout, arity, degree) for c in task.components)
    if len(task.alpha) != n:
        raise CrtransError(
            f"jet index {task.alpha} has length {len(task.alpha)}, but the data uses {n} z variables"
        )
    pivot = prolongation.minimal_ordered_nonzero(a, n)
    max_order = sum(task.alpha) + sum(pivot)
    jets = prolongation.forward_expand(a, n, comps, max_order)
    instance = prolongation.ProlongationInstance(a, n, jets)
    solution = prolongation.prolongation_solve(instance, task.alpha)

    chi_names = [f"chi{j + 1}" for j in range(n)]
    z_block = tuple(range(n))
    scale = 1
    for e in task.alpha:
        scale *= factorial(e)
    matches = all(
        value
        == fracseries.FracSeries.from_series(
            comp.coefficient_series(z_block, task.alpha).scale(scale)
        )
        for value, comp in zip(solution.values, comps)
    )
    return {
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


def _run_verify(
    suite: Optional[str], degree: int, conv: hypersurface.Convention, seed: int
) -> dict:
    if suite is None:
        return verify.run_all(degree=degree, convention=conv, seed=seed)
    maps, easy = verify.build_registry(degree, conv)
    rows = {
        "finite_type": lambda: verify.suite_finite_type(maps, seed=seed),
        "infinite_type": lambda: verify.suite_infinite_type(maps, seed=seed),
        "easystuff": lambda: verify.suite_easystuff(easy, seed=seed),
    }[suite]()
    return verify.suite_report({suite: rows})


_FAMILIES = [
    {"name": "heisenberg(n)", "kind": "finite type quadric", "m": None},
    {"name": "m_psi(psi_1, ..., psi_d)", "kind": "sum of squares over a holomorphic map", "m": None},
    {"name": "blowup(b, c)", "kind": "infinite type blowup model, needs 2b > c", "m": "2b - c + 1"},
    {"name": "exp_model(k)", "kind": "1-infinite exponential model", "m": 1},
]


def _run_examples(degree: int, conv: hypersurface.Convention) -> dict:
    maps, easy = verify.build_registry(degree, conv)
    instances = []
    for inst in maps:
        instances.append(
            {
                "id": inst.id,
                "realm": inst.realm,
                "sends_into": crmap.sends_into(inst.h, inst.source, inst.target).to_json(),
                "note": inst.note or None,
            }
        )
    return {
        "families": _FAMILIES,
        "map_instances": instances,
        "intertwined_instances": [
            {"id": e.id, "note": e.note or None} for e in easy
        ],
    }


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


def _emit(report: dict, json_path: Optional[str], summary: List[str], code: int) -> int:
    """Write the report, then the summary; return `code`, or 2 with one error
    line and no summary when the report cannot be written."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if json_path:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not json_path:
            # what stdout still buffers would fail again at exit (see the
            # note on SIGPIPE in the `signal` documentation)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    for line in summary:
        print(line, file=sys.stderr)
    return code


def _verdict_word(v: Optional[dict]) -> str:
    return "n/a" if v is None else v["status"]


def _summarize(results: List[dict]) -> List[str]:
    lines = []
    for r in results:
        if r["task"] == "classify":
            cls = r["classification"]
            kind = cls["kind"]
            if cls["m"] is not None:
                kind += f", m = {cls['m']}"
            lines.append(
                f"classify {r['name']}: {kind}; validate {r['validate']['status']}, "
                f"class C {r['class_c']['status']}"
            )
        elif r["task"] == "check_map":
            trord = r["transversal_order"]["value"]
            lines.append(
                f"checkmap {r['map']}: {r['source']} -> {r['target']}: "
                f"sends_into {_verdict_word(r['sends_into'])}, "
                f"trord {'flat' if trord is None else trord}, "
                f"cr_transversal {_verdict_word(r['cr_transversal'])}"
            )
        elif r["task"] == "prolong":
            lines.append(
                f"prolong {r['a']} at {tuple(r['alpha'])}: pivot {tuple(r['pivot'])}, "
                f"jet order used {r['max_jet_order_used']}, "
                f"matches forward data: {r['matches_direct_expansion']}"
            )
    return lines


def _sha256_hex(data: bytes) -> str:
    """SHA-256 from the interpreter's builtin module, so that no command loads
    OpenSSL: `hashlib` imports it for every algorithm. `hashlib` serves only
    an interpreter built without the builtin one; the digest is the same."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _document_command(command: str, opts: dict, kind, runner) -> int:
    try:
        text = _read_document(opts["document"])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        source = "stdin" if opts["document"] in (None, "-") else opts["document"]
        print(f"error: {source} is not UTF-8: {exc.reason} at byte offset {exc.start}",
              file=sys.stderr)
        return 2
    try:
        doc = grammar.parse(text)
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    degree = opts["degree"] if opts["degree"] is not None else (doc.degree or 10)
    conv = opts["complexify"] or doc.convention or "2i"  # a Convention's value
    env = {d.name: d for d in doc.declarations}
    tasks = [t for t in doc.tasks if isinstance(t, kind)]
    results: List[dict] = []
    errors: List[dict] = []
    if not tasks and kind is grammar.ClassifyTask:
        # default work: classify every declared hypersurface
        tasks = [
            grammar.ClassifyTask(grammar.NameRef(d.name))
            for d in doc.declarations
            if isinstance(d, grammar.SurfaceDecl)
        ]
    if not tasks:
        errors.append({"task": None, "error": "document contains no task for this command"})
    for task in tasks:
        try:
            results.append(runner(task, env, degree, conv, opts["seed"]))
        except CrtransError as exc:
            errors.append({"task": grammar._render_task(task), "error": str(exc)})
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input_digest": _sha256_hex(text.encode("utf-8")),
        "degree": degree,
        "convention": conv,
        "seed": opts["seed"],
        "results": results,
        "errors": errors,
    }
    summary = _summarize(results) + [f"error: {e['error']}" for e in errors]
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
  --seed N               seed for randomized rank certificates (default 0)
  --json PATH            write the JSON report here
  --suite {finite_type,infinite_type,easystuff}
                         verify only: run a single suite instead of all three

classify, check-map and prolong read DOCUMENT, or stdin when it is '-' or absent;
after '--' every argument is a document.
"""


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help() -> NoReturn:
    sys.stdout.write(_HELP)
    raise SystemExit(0)


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
        sys.stdout.write(grammar.GRAMMAR_TEXT)
        return 0

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
            body = _run_verify(opts["suite"], degree, conv, opts["seed"])
            counts = body["counts"]
            summary = (
                f"verify: {counts['confirmed']} confirmed, "
                f"{counts['hypothesis_not_certified']} gated, "
                f"{counts['falsified']} falsified"
            )
        else:
            body = _run_examples(degree, conv)
            summary = (
                f"examples: {len(body['families'])} families, "
                f"{len(body['map_instances'])} map instances"
            )
    except CrtransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "degree": degree,
        "convention": conv.value,
        "seed": opts["seed"],
        **body,
    }
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
        sys.stdout.flush()
        sys.stderr.flush()
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
