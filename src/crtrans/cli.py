"""Command line front end: parse a document, run its tasks, emit a JSON report.

The JSON report goes to stdout (or to --json PATH); a short human summary goes
to stderr. Exit codes: 0 when everything certified or gated cleanly, 1 when a
suite row is falsified or the document is invalid, 2 for usage and I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

# modules, not names: a module loads when a command first reads from it
from . import __version__, crmap, fracseries, grammar, hypersurface, models, prolongation, verify
from .errors import CrtransError, GrammarError

SCHEMA = "crtrans-report/1"

__all__ = ["main", "SCHEMA"]


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
    return verify.suite_report({suite: rows}, degree, conv, seed)


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
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report: dict, json_path: Optional[str], summary: List[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in summary:
        print(line, file=sys.stderr)


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


def _document_command(args, kind, runner) -> int:
    try:
        text = _read_document(args.document)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = grammar.parse(text)
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    degree = args.degree if args.degree is not None else (doc.degree or 10)
    conv = args.complexify or doc.convention or "2i"  # a Convention's value
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
            results.append(runner(task, env, degree, conv, args.seed))
        except CrtransError as exc:
            errors.append({"task": grammar._render_task(task), "error": str(exc)})
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "input_digest": _sha256_hex(text.encode("utf-8")),
        "degree": degree,
        "convention": conv,
        "seed": args.seed,
        "results": results,
        "errors": errors,
    }
    summary = _summarize(results) + [f"error: {e['error']}" for e in errors]
    _emit(report, args.json, summary)
    return 1 if errors else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crtrans",
        description="exact truncated-series toolkit for normal-form hypersurfaces and the maps between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, document: bool) -> None:
        p.add_argument("--degree", type=int, default=None, help="truncation degree (default 10)")
        p.add_argument(
            "--complexify",
            choices=("2i", "i"),
            default=None,
            help="graph complexification convention (default 2i)",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for randomized rank certificates")
        p.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
        if document:
            p.add_argument(
                "document",
                nargs="?",
                default=None,
                help="input document (defaults to stdin; '-' also reads stdin)",
            )

    common(sub.add_parser("classify", help="classify declared hypersurfaces"), True)
    common(sub.add_parser("check-map", help="run checkmap tasks from a document"), True)
    common(sub.add_parser("prolong", help="run prolong tasks from a document"), True)
    p_verify = sub.add_parser("verify", help="run the statement suites on the built-in registry")
    common(p_verify, False)
    p_verify.add_argument(
        "--suite",
        choices=("finite_type", "infinite_type", "easystuff"),
        default=None,
        help="run a single suite instead of all three",
    )
    common(sub.add_parser("examples", help="list the built-in model families and instances"), False)
    sub.add_parser("print-grammar", help="print the input grammar")

    args = parser.parse_args(argv)

    if args.command == "print-grammar":
        sys.stdout.write(grammar.GRAMMAR_TEXT)
        return 0

    if args.command not in ("verify", "examples"):
        # built only here: reading a task class loads the grammar, which
        # `verify` and `examples` do not use
        kind, runner = {
            "classify": (grammar.ClassifyTask, _run_classify),
            "check-map": (grammar.CheckMapTask, _run_checkmap),
            "prolong": (grammar.ProlongTask, _run_prolong),
        }[args.command]
        return _document_command(args, kind, runner)

    degree = args.degree if args.degree is not None else 10
    conv = hypersurface.Convention(args.complexify or "2i")
    try:
        if args.command == "verify":
            body = _run_verify(args.suite, degree, conv, args.seed)
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
        "command": args.command,
        "degree": degree,
        "convention": conv.value,
        "seed": args.seed,
        **body,
    }
    _emit(report, args.json, [summary])
    return 1 if body.get("falsified") else 0


if __name__ == "__main__":
    sys.exit(main())
