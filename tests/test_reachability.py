"""Every crtrans function runs under some command, or is kept for a named reason.

`tests/reachability.py` runs the CLI over the benchmark's seed-0, seed-1 and
smoke documents, `verify` and `examples`, the README examples and one
document per kind of error, in a fresh process, and reports which functions
no call entered. Each of those must be in ALLOWED with the reason it stays;
a listed name that a command enters, or that no longer exists, fails too, so
the list is exactly what no command runs. A function with no reason to stay
is deleted, not listed; no input is added only to make a function count as run.

The holders a reason names: `perfbench/tracer.py`, which wraps its LAYERS and
OPERATORS by name and counts SCALAR_COUNTS, so deleting one breaks the
benchmark until ROADMAP item 1 refreshes it (items 6 and 11 then delete
them); a test file or the README that uses it as public API; process exit;
the names ROADMAP item 6 keeps; and validity by composition, which only the
surfaces that `from_graph` does not build need.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "reachability.py"

TRACED = "wrapped by name in perfbench/tracer.py"
TRACED_CALLEE = "only called from a function " + TRACED
SCALAR_API = "public scalar field API (tests/test_scalar.py, tests/test_scalar_reference.py)"
RECORD = "Record equality, hashing, repr and immutability (tests/test_record.py)"
SHOWN = "printed by pytest when an assertion on one fails"
EXIT = "process exit: only `crtrans` and `python -m crtrans` run it (tests/test_process_exit.py)"
KEPT = "a name ROADMAP item 6 keeps: acceptance tests and items 5 and 16 use it"
VALIDITY = ("the validity of a surface not built by from_graph, which takes it from its "
            "construction: exp_model and hypersurface(...) documents; no audited command reads "
            "one (tests/test_hypersurface.py, tests/test_graph_validity.py)")

ALLOWED = {
    # perfbench/tracer.py LAYERS, until item 1 frees the names; item 6 deletes them
    "hypersurface.exceptional_hypersurface": f"LAYERS; {TRACED} (item 1, then item 6)",
    "hypersurface.to_graph": f"LAYERS; {TRACED} (item 1, then item 6)",
    "series.invert_unit": f"LAYERS; {TRACED} (item 1, then item 6)",
    "linalg.rank_at_point": f"LAYERS; {TRACED} (item 1, then item 6)",
    "linalg.evaluate_row": f"{TRACED_CALLEE}: linalg.rank_at_point (item 1, then item 6)",
    "linalg.solve_triangular": f"LAYERS; {TRACED} (item 1, then item 6)",
    "linalg.span_membership": f"LAYERS; {TRACED} (item 1, then item 6)",
    "linalg._clear_denominators": f"{TRACED_CALLEE}: linalg.span_membership (item 1, then item 6)",
    "rank.SeriesMatrix.arity": f"{TRACED_CALLEE}: linalg.solve_triangular (item 1, then item 6)",
    "linalg.scalar_determinant": f"LAYERS; {TRACED}; the Bareiss reference of rank._det in "
                                 "tests/test_linalg_kernels.py (item 1, then item 6)",
    "linalg._gaussian_integer_rows": f"{TRACED_CALLEE}: linalg.scalar_determinant; the Bareiss "
                                     "reference (item 1, then item 6)",
    "linalg._bareiss": "called from linalg.scalar_determinant and linalg.rank_at_point, each "
                       + TRACED + "; the Bareiss reference (item 1, then item 6)",
    # perfbench/tracer.py OPERATORS "fracseries.op", until item 1; item 11 retires FracSeries
    **{f"fracseries.FracSeries.{op}": f"OPERATORS; {TRACED} (item 1, then item 11)"
       for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__neg__")},
    "fracseries.FracSeries.reciprocal": f"{TRACED_CALLEE}: FracSeries.__truediv__ (item 11)",
    "fracseries.FracSeries.valuation": f"{TRACED_CALLEE}s: FracSeries.__mul__ and "
                                       "reciprocal (item 11)",
    "fracseries.FracSeries.is_zero": "the zero test of the FracSeries arithmetic that OPERATORS "
                                     "wraps, in tests/test_fracseries.py (item 11)",
    "fracseries.FracSeries.zero": "the zero of the FracSeries arithmetic that OPERATORS wraps, "
                                  "in tests/test_fracseries.py (item 11)",
    "fracseries.FracSeries.__repr__": f"{SHOWN} in tests/test_fracseries.py (item 11)",
    # perfbench/tracer.py SCALAR_COUNTS, until item 1; the rest of the scalar field API
    "scalar.GaussianRational.__add__": f"SCALAR_COUNTS 'scalar.add'; {TRACED}; {SCALAR_API}",
    "scalar.GaussianRational.__radd__": f"SCALAR_COUNTS 'scalar.add'; {TRACED}; {SCALAR_API}",
    "scalar.GaussianRational.__sub__": f"SCALAR_COUNTS 'scalar.add'; {TRACED}; {SCALAR_API}",
    "scalar.GaussianRational.__rsub__": SCALAR_API,
    "scalar.GaussianRational.__rtruediv__": SCALAR_API,
    "scalar.GaussianRational.__neg__": SCALAR_API,
    "scalar.GaussianRational.conjugate": SCALAR_API,
    "scalar.GaussianRational.__hash__": SCALAR_API,
    "scalar.GaussianRational.__repr__": SCALAR_API,
    "scalar.GaussianRational.re": f"{SCALAR_API}; the README's `.re` and `.im`",
    "scalar.GaussianRational.im": f"{SCALAR_API}; the README's `.re` and `.im`",
    # the public series API of the README's Library section
    "series.Series.__rsub__": "public series API: `2 - f` (tests/test_series.py)",
    "series.Series.__repr__": f"{SHOWN} in tests/test_series.py",
    "series._Terms.__repr__": f"{SHOWN}, as `s.terms == {{...}}` in tests/test_hypersurface.py",
    # Record semantics; no command compares, hashes, prints or assigns a record
    "record.Record.__eq__": RECORD,
    "record.Record.__hash__": RECORD,
    "record.Record.__repr__": RECORD,
    "record.Record.__setattr__": RECORD,
    "record.Record.__delattr__": RECORD,
    "record.Record._values": f"{RECORD}: the field tuple __eq__ and __hash__ read",
    "_nested._parts": f"{RECORD}: record equality and repr without recursion",
    "_nested.equal": f"{RECORD}: record equality without recursion",
    "_nested.repr_of": f"{RECORD}: record repr without recursion",
    # the package
    "crtrans.__getattr__": "`crtrans.Series`, `from crtrans import sends_into`: the README's "
                           "Library section (tests/test_startup.py)",
    "crtrans.__dir__": "`dir(crtrans)` lists the lazy public names (tests/test_startup.py)",
    # process exit
    "cli.run": EXIT,
    "cli._interpreter_needed": EXIT,
    "cli._flushed": EXIT,
    # validity by composition, for the surfaces from_graph does not build
    "hypersurface.validate": VALIDITY,
    "hypersurface.NormalHypersurface.validity": f"{VALIDITY}: the cached entry that runs validate",
    "hypersurface.NormalHypersurface.z_block": f"{VALIDITY}: read by validate; "
                                               "tests/test_hypersurface.py",
    "hypersurface.NormalHypersurface.chi_block": f"{VALIDITY}: read by validate; "
                                                 "tests/test_hypersurface.py",
    "hypersurface.NormalHypersurface.conjugate_swapped": f"{VALIDITY}: read by validate; "
                                                         "tests/test_hypersurface.py",
    # ROADMAP item 6's names that stay
    "crmap.compose_maps": KEPT,
    "models.scaled_heisenberg": KEPT,
    "models.unscaled_blowup_map": KEPT,
}


def test_every_function_runs_under_a_command_or_is_allowed():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    functions = json.loads(proc.stdout)
    never = {name for name, info in functions.items() if not info["entered"]}
    assert sorted(never - set(ALLOWED)) == [], "never entered and not allowed: delete or list"
    assert sorted(set(ALLOWED) & set(functions) - never) == [], "allowed but entered"
    assert sorted(set(ALLOWED) - set(functions)) == [], "allowed but gone"
