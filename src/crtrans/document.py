"""The document commands of the command line: classify, check-map and prolong.

`run` reads the document (a file, or stdin), parses it, runs each of its
tasks of the command's kind and emits the report through `cli`: the results,
one error entry per failed task, and the SHA-256 of the document's text.
Each runner returns its task's result and its own stderr summary line.
`_surface` realizes every hypersurface a document names and `_map` every
map. `cli` loads this module only for these three commands, so `verify`,
`examples`, `print-grammar`, the help and usage errors do not compile it.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

# modules, not names: a module loads when a command first reads from it
from . import cli, crmap, grammar, hypersurface, models, prolongation
from .errors import CrtransError, GrammarError

__all__ = ["run"]


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


# ---------------- the document ----------------


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


def run(command: str, opts: dict) -> int:
    """Run `command` on the document `opts` names and emit its report; the exit code."""
    kind, runner = {
        "classify": (grammar.ClassifyTask, _run_classify),
        "check-map": (grammar.CheckMapTask, _run_checkmap),
        "prolong": (grammar.ProlongTask, _run_prolong),
    }[command]
    try:
        text = _read_document(opts["document"])
    except OSError as exc:
        cli._say(f"error: {exc}")
        return 2
    except UnicodeDecodeError as exc:
        source = "stdin" if opts["document"] in (None, "-") else opts["document"]
        cli._say(f"error: {source} is not UTF-8: {exc.reason} at byte offset {exc.start}")
        return 2
    try:
        doc = grammar.parse(text)
    except GrammarError as exc:
        cli._say(f"error: {exc}")
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
        **cli._envelope(command, degree, conv, opts["seed"]),
        "input_digest": _sha256_hex(text.encode("utf-8")),
        "results": results,
        "errors": errors,
    }
    summary += [f"error: {e['error']}" for e in errors]
    return cli._emit(report, opts["json"], summary, 1 if errors else 0)
