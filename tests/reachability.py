"""Which functions of crtrans no command enters.

    python tests/reachability.py            # one JSON object on stdout
    python tests/reachability.py --summary  # a Markdown table per module

A call-only `sys.settrace` tracer is set before `crtrans` is imported; then
`cli.main(argv)` runs in this process, with its output captured, over a fixed
set of command lines: the seed-0, seed-1 and smoke documents of the four
benchmark workloads (from `perfbench/workloads.py`), `verify` and `examples`
at degree 10 under both conventions, `print-grammar`, `--help`, the README's
example commands and its input-language block, and one document per kind of
error. Run it in a fresh process: the `lru_cache` constructors of `models`
and the cached properties would hide calls that an earlier run made.

A function is every function, method, property getter and cached property
that a crtrans module's namespace or the `__dict__` of its classes reaches
and that the module defines, keyed by its attribute path
(`crmap.InstanceAnalysis.sends_into`; the package's own are `crtrans.NAME`).
The JSON object maps each key to whether a call entered it and to the number
of source lines it spans. `tests/test_reachability.py` checks it against the
allow-list of functions kept for a named reason.
"""

from __future__ import annotations

import importlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # nothing left behind in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402  (the benchmark's document generators)
from test_readme import EXAMPLES, example_run, input_language_block  # noqa: E402

ENTERED = set()  # every code object a call entered


def _on_call(frame, event, arg):
    ENTERED.add(frame.f_code)  # returns None: no line or return events


# (argv, stdin or None, a document file's bytes or None); a document file is
# appended to argv. One per kind of error: syntax, undeclared name, a degree
# below 1, a missing file, an unknown command, an argument too large, division
# by zero, a zero A, a jet order past the degree, a statement that is a
# command, a document that is not UTF-8
ERRORS = [
    (["classify", "-"], "M = = graph(z*chi)\nclassify M\n", None),
    (["classify", "-"], "classify M\n", None),
    (["classify", "--degree", "0", "-"], "", None),
    (["classify", "{folder}/missing.crt"], None, None),
    (["bogus"], None, None),
    (["classify", "-"], "M = heisenberg(100000000000000000000)\nclassify M\n", None),
    (["classify", "-"], "M = graph(z*chi/0)\nclassify M\n", None),
    (["prolong", "-"], "A = 0\nb = z1\nprolong A, b at (1)\n", None),
    (["prolong", "-"], "degree 2\nA = chi1 + z1\nb = z1\nprolong A, b at (3)\n", None),
    (["classify", "-"], "M = heisenberg(1)\nverify\n", None),
    (["classify"], None, b"M = heisenberg(1)\n\xff\n"),
]


def runs():
    """Every audited command line, as in ERRORS."""
    out = []
    for name in workloads.WORKLOADS:
        docs = workloads.generate(name, 0) + workloads.generate(name, 1)
        for doc in docs + [workloads.smoke_doc(name)]:
            text = None if doc.text is None else doc.text.encode()
            out.append((list(doc.argv), None, text))
    for command in ("verify", "examples"):
        for conv in ("2i", "i"):
            out.append(([command, "--degree", "10", "--complexify", conv], None, None))
    out += [(["print-grammar"], None, None), (["--help"], None, None)]
    out += [(*example_run(command), None) for command, _ in EXAMPLES]
    block = input_language_block().encode()
    out += [(["classify"], None, block), (["check-map"], None, block)]
    return out + ERRORS


def _run(main, argv, stdin, text, folder: Path) -> None:
    argv = [arg.format(folder=folder) for arg in argv]
    if text is not None:
        path = folder / "document.crt"
        path.write_bytes(text)
        argv.append(str(path))
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO((stdin or "").encode()), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        main(argv)
    except SystemExit:  # --help and usage errors
        pass
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def _functions(module: types.ModuleType, prefix: str):
    """(key, code object) of every function `module` defines that its
    namespace or its classes reach."""
    file = module.__file__

    def code_of(value):
        while True:  # lru_cache, property, cached_property, staticmethod
            inner = (getattr(value, "__wrapped__", None) or getattr(value, "fget", None)
                     or getattr(value, "func", None) or getattr(value, "__func__", None))
            if inner is None:
                break
            value = inner
        code = getattr(value, "__code__", None)
        return code if isinstance(code, types.CodeType) and code.co_filename == file else None

    def walk(namespace, path, seen):
        for attr, value in list(namespace.items()):
            if isinstance(value, type):
                if value.__module__ == module.__name__ and value not in seen:
                    yield from walk(vars(value), f"{path}{attr}.", seen | {value})
            else:
                code = code_of(value)
                if code is not None:
                    yield f"{path}{attr}", code

    yield from walk(vars(module), prefix, frozenset())


def _lines(code: types.CodeType) -> int:
    last = code.co_firstlineno
    stack = [code]
    while stack:
        c = stack.pop()
        last = max([last] + [line for _, _, line in c.co_lines() if line is not None])
        stack += [k for k in c.co_consts if isinstance(k, types.CodeType)]
    return last - code.co_firstlineno + 1


def audit() -> dict:
    """{key: {"entered": bool, "lines": int}} over every crtrans function."""
    sys.settrace(_on_call)
    try:
        import crtrans
        from crtrans.cli import main  # as `python -m crtrans` imports it

        with tempfile.TemporaryDirectory() as folder:
            for argv, stdin, text in runs():
                _run(main, argv, stdin, text, Path(folder))
    finally:
        sys.settrace(None)
    modules = [("crtrans.", crtrans)] + [
        (f"{name}.", importlib.import_module(f"crtrans.{name}"))
        for name in (*crtrans._EXPORTS, "cli", "_nested")
    ]
    return {key: {"entered": code in ENTERED, "lines": _lines(code)}
            for prefix, module in modules for key, code in _functions(module, prefix)}


def summary(functions: dict) -> str:
    """A Markdown table: per module, the functions never entered and their lines."""
    counts = {}
    for key, info in functions.items():
        if not info["entered"]:
            row = counts.setdefault(key.split(".")[0], [0, 0])
            row[0] += 1
            row[1] += info["lines"]
    rows = ["| module | functions no command runs | their lines |", "| --- | --- | --- |"]
    rows += [f"| {m} | {n} | {lines} |" for m, (n, lines) in sorted(counts.items())]
    total = [sum(r[i] for r in counts.values()) for i in (0, 1)]
    rows.append(f"| all | {total[0]} of {len(functions)} | {total[1]} |")
    return "\n".join(rows)


if __name__ == "__main__":
    result = audit()
    if sys.argv[1:] == ["--summary"]:
        print(summary(result))
    else:
        import json

        print(json.dumps(result, sort_keys=True))
