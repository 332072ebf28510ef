import io
import json
import sys

import pytest

from crtrans import verify
from crtrans.cli import SCHEMA, main
from crtrans.models import MAX_N
from crtrans.verdict import certified_false

from test_classify import DEGENERATE, DENSE

POWER_DOC = """\
T2 = map(F = z, G = w^2)
M2 = exp_model(2)
M1 = exp_model(1)
checkmap T2 : M2 -> M1
"""


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv, stdin=None, monkeypatch=None):
    code, out, err = run(capsys, argv, stdin, monkeypatch)
    return code, json.loads(out), err


def test_classify_blowup_from_stdin(capsys, monkeypatch):
    code, rep, err = run_json(
        capsys, ["classify"], stdin="M = blowup(2,3)\nclassify M\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert rep["schema"] == SCHEMA
    assert rep["command"] == "classify"
    assert rep["degree"] == 10 and rep["convention"] == "2i"
    (r,) = rep["results"]
    assert r["name"] == "M"
    assert r["classification"]["kind"] == "infinite_type"
    assert r["classification"]["m"] == 2
    assert r["validate"]["status"] == "certified_true"
    assert r["class_cm"]["status"] == "certified_true"
    assert "classify M: infinite_type, m = 2" in err


def test_classify_defaults_to_all_declared_hypersurfaces(capsys, monkeypatch):
    code, rep, _ = run_json(
        capsys,
        ["classify"],
        stdin="A = heisenberg(1)\nB = exp_model(3)\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert [r["name"] for r in rep["results"]] == ["A", "B"]
    assert rep["results"][0]["classification"]["kind"] == "finite_type"
    assert rep["results"][1]["classification"]["m"] == 1


def test_check_map_power_document(capsys, monkeypatch, tmp_path):
    doc = tmp_path / "power.doc"
    doc.write_text(POWER_DOC)
    code, rep, err = run_json(capsys, ["check-map", "--degree", "12", str(doc)])
    assert code == 0
    (r,) = rep["results"]
    assert r["sends_into"]["status"] == "certified_true"
    assert r["transversal_order"]["value"] == 2
    assert r["normal_unit_reality"]["status"] == "certified_true"
    assert r["normal_unit_reality"]["witness"] == {"order": 2, "value": "1"}
    assert r["order_bound"]["status"] == "certified_true"
    assert r["jacobian_nonzero"]["status"] == "certified_true"
    assert r["unit_scale_law"] is None  # source and target differ
    assert "trord 2" in err


def test_check_map_negative_control_is_reported_not_errored(capsys, monkeypatch):
    doc = "M2 = exp_model(2)\ncheckmap map(F = 2*z, G = w) : M2 -> M2\n"
    code, rep, _ = run_json(capsys, ["check-map"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    (r,) = rep["results"]
    assert r["sends_into"]["status"] == "certified_false"
    assert r["sends_into"]["witness"] == {"index": [1, 1, 1], "value": "-3/2i"}
    assert rep["errors"] == []


def test_prolong_document(capsys, monkeypatch):
    doc = "A = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n"
    code, rep, err = run_json(
        capsys, ["prolong", "--degree", "8"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 0
    (r,) = rep["results"]
    assert r["pivot"] == [0, 1]
    assert r["values"] == ["2"]
    assert r["matches_direct_expansion"] is True
    assert "matches forward data: True" in err


def test_in_document_degree_and_convention_defaults(capsys, monkeypatch):
    doc = "degree 6\nconvention i\nM = hypersurface(tau + i*z*chi)\nclassify M\n"
    code, rep, _ = run_json(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert rep["degree"] == 6 and rep["convention"] == "i"
    assert rep["results"][0]["validate"]["status"] == "certified_true"


def test_flag_overrides_document_convention(capsys, monkeypatch):
    # complexifying Im w = |z|^2 gives Q = tau + 2i z chi or tau + i z chi
    # depending on the convention; the flag must beat the directive
    doc = "convention i\nM = graph(z*chi)\nclassify M\n"
    code, rep, _ = run_json(
        capsys, ["classify", "--complexify", "2i"], stdin=doc, monkeypatch=monkeypatch
    )
    assert code == 0
    assert rep["convention"] == "2i"
    assert rep["results"][0]["classification"]["witness"]["value"] == "2i"
    code, rep, _ = run_json(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert rep["convention"] == "i"
    assert rep["results"][0]["classification"]["witness"]["value"] == "i"


def test_verify_runs_clean(capsys):
    code, rep, err = run_json(capsys, ["verify"])
    assert code == 0
    assert rep["falsified"] is False
    assert rep["counts"] == {
        "confirmed": 49,
        "hypothesis_not_certified": 53,
        "falsified": 0,
    }
    assert "0 falsified" in err


def test_verify_exits_one_on_a_falsified_row(capsys, monkeypatch):
    theorem, names, conclude = verify._FINITE_TYPE[1]
    forced = []

    def false_once(a):
        # the first instance whose hypotheses all hold gets a false conclusion
        if not forced and all(getattr(a, name).is_true for name in names):
            forced.append(a)
            return certified_false({"note": "forced"})
        return conclude(a)

    rows = list(verify._FINITE_TYPE)
    rows[1] = (theorem, names, false_once)
    monkeypatch.setattr(verify, "_FINITE_TYPE", tuple(rows))
    code, rep, err = run_json(capsys, ["verify", "--suite", "finite_type"])
    assert code == 1
    assert rep["falsified"] is True
    assert "1 falsified" in err


def test_verify_single_suite(capsys):
    code, rep, _ = run_json(capsys, ["verify", "--suite", "easystuff"])
    assert code == 0
    assert (rep["degree"], rep["convention"], rep["seed"]) == (10, "2i", 0)
    assert list(rep["suites"]) == ["easystuff"]
    assert rep["counts"] == {
        "confirmed": 4,
        "hypothesis_not_certified": 1,
        "falsified": 0,
    }


def test_verify_json_file_is_byte_stable(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--seed", "5", "--json", str(p1)]) == 0
    assert main(["verify", "--seed", "5", "--json", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


# argv -> stdin document (None for the commands that read none): a dense and
# a Levi-degenerate classify, whose rank scans run to their caps, a check-map
# and the registry commands
SEED_FREE = {
    "classify dense": (["classify", "--degree", "8"], f"M = graph({DENSE})\nclassify M\n"),
    "classify degenerate": (["classify", "--degree", "8"], f"M = graph({DEGENERATE})\nclassify M\n"),
    "check-map": (["check-map", "--degree", "12"], POWER_DOC),
    "verify easystuff": (["verify", "--suite", "easystuff"], None),
    "examples": (["examples"], None),
}


@pytest.mark.parametrize("argv, doc", list(SEED_FREE.values()), ids=list(SEED_FREE))
def test_reports_do_not_depend_on_the_seed(capsys, monkeypatch, argv, doc):
    reports = []
    for seed in (0, 999):
        code, rep, err = run_json(capsys, argv + ["--seed", str(seed)], doc, monkeypatch)
        assert rep.pop("seed") == seed
        reports.append((code, rep, err))
    assert reports[0] == reports[1]


def test_examples_catalog(capsys):
    code, rep, _ = run_json(capsys, ["examples"])
    assert code == 0
    assert len(rep["families"]) == 4
    assert len(rep["map_instances"]) == 16
    assert len(rep["intertwined_instances"]) == 5
    by_id = {r["id"]: r for r in rep["map_instances"]}
    assert by_id["power_map_exp_2"]["sends_into"]["status"] == "certified_true"
    assert by_id["dilation_excluded_exp_2"]["sends_into"]["status"] == "certified_false"
    assert "either graph convention" in by_id["singular_factor_map"]["note"]


def test_print_grammar(capsys):
    code, out, _ = run(capsys, ["print-grammar"])
    assert code == 0
    assert out.startswith("document")
    assert "checkmap" in out and "m_psi" in out


def test_invalid_document_exits_one(capsys, monkeypatch):
    code, out, err = run(capsys, ["classify"], stdin="Q = tau + cow\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "undeclared name 'cow'" in err


def test_task_level_error_is_embedded(capsys, monkeypatch):
    # blowup(1, 2) violates 2b > c; the task fails but the report is written
    doc = "M = blowup(1, 2)\nG = heisenberg(1)\nclassify M\nclassify G\n"
    code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1
    rep = json.loads(out)
    assert len(rep["errors"]) == 1
    assert rep["errors"][0]["task"] == "classify M"
    assert [r["name"] for r in rep["results"]] == ["G"]


@pytest.mark.parametrize(
    "ctor, message",
    [
        ("heisenberg(0)", "n must be a positive integer"),
        # past MAX_N, up to an n that cannot size the model's exponent tuples
        (f"heisenberg({10**20})", f"n = {10**20} exceeds the maximum {MAX_N}"),
        (f"heisenberg({MAX_N + 1})", f"n = {MAX_N + 1} exceeds the maximum {MAX_N}"),
        ("exp_model(0)", "k must be a positive integer"),
        ("blowup(0, 0)", "b and c must be positive integers"),
    ],
)
def test_model_refusal_is_one_error_line(capsys, monkeypatch, ctor, message):
    doc = f"M = {ctor}\nclassify M\n"
    code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["errors"] == [{"task": "classify M", "error": message}]
    assert err == f"error: {message}\n"


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["classify", "/no/such/file.doc"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--degree", "6"],
        ["verify", "--degree", "6", "--suite", "easystuff"],
        ["examples", "--degree", "6"],
    ],
)
def test_registry_degree_too_low_exits_two(capsys, argv):
    # the blowup models need truncation degree 7; the error is reported, not raised
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "truncation degree" in err


def test_degree_beyond_the_key_fields_is_refused(capsys, monkeypatch):
    # series keys hold 16-bit fields: degree 65536 is a task error, 70000 a verify error
    doc = "M = graph(z*chi + z^2*chi^2)\nclassify M\n"
    code, out, err = run(capsys, ["classify", "--degree", "65536"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["errors"] == [
        {"task": "classify M", "error": "truncation degree 65536 exceeds the maximum 65535"}
    ]
    code, out, err = run(capsys, ["verify", "--degree", "70000"])
    assert (code, out, err) == (2, "", "error: truncation degree 70000 exceeds the maximum 65535\n")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


PARSER_DOC = "M = graph(z*chi + z^2*chi^2)\nclassify M\n"

# (canonical argv, an equivalent form); "{doc}" is a file holding PARSER_DOC,
# which the classify forms otherwise read from stdin
EQUIVALENT_ARGV = [
    (["classify", "--degree", "6", "-"], ["classify", "-", "--degree=6"]),
    (["classify", "--degree", "6", "-"], ["classify", "--degree", "6"]),
    (["classify", "--degree", "6", "-"], ["classify", "--degree", "5", "--degree", "6", "-"]),
    (["classify", "--degree", "6", "-"], ["classify", "{doc}", "--degree", "6"]),
    (["classify", "--degree", "6", "-"], ["classify", "--degree=6", "--", "{doc}"]),
    (["classify", "--seed", "-3", "--complexify", "i", "-"], ["classify", "--complexify=i", "--seed=-3"]),
    (["verify", "--suite", "easystuff", "--degree", "8"], ["verify", "--degree=8", "--suite=easystuff"]),
    (
        ["verify", "--suite", "easystuff", "--degree", "8"],
        ["verify", "--suite", "finite_type", "--degree", "8", "--suite", "easystuff"],
    ),
]


@pytest.mark.parametrize("canonical, form", EQUIVALENT_ARGV, ids=lambda a: " ".join(a))
def test_equivalent_argv_forms_give_the_same_report(capsys, monkeypatch, tmp_path, canonical, form):
    path = tmp_path / "doc.txt"
    path.write_text(PARSER_DOC, encoding="utf-8")
    form = [str(path) if a == "{doc}" else a for a in form]
    want = run(capsys, canonical, stdin=PARSER_DOC, monkeypatch=monkeypatch)
    assert want[0] == 0
    assert run(capsys, form, stdin=PARSER_DOC, monkeypatch=monkeypatch) == want


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus"],
    "unknown flag": ["classify", "--bogus", "-"],
    "abbreviated flag": ["classify", "--deg", "5"],
    "flag of another command": ["classify", "--suite", "easystuff"],
    "flag without a value at the end": ["classify", "--degree"],
    "flag followed by a flag": ["classify", "--json", "--degree", "5"],
    "non-int degree": ["classify", "--degree", "x"],
    "'--' as a degree": ["classify", "--degree=--"],
    "non-int seed": ["verify", "--seed=1.5"],
    "complexify outside the choices": ["classify", "--complexify", "j"],
    "suite outside the choices": ["verify", "--suite", "all"],
    "second document": ["classify", "a.doc", "b.doc"],
    "document to verify": ["verify", "a.doc"],
    "document to examples": ["examples", "a.doc"],
    "document to print-grammar": ["print-grammar", "a.doc"],
    "flag to print-grammar": ["print-grammar", "--degree", "5"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["classify", "--degree", "0", "-"], ["verify", "--degree=0"], ["prolong", "--degree", "-1"],
     ["examples", "--degree=-5"], ["check-map", "--degree", "0", "--degree", "6"]],
)
def test_degree_below_one_is_a_usage_error(capsys, argv):
    """A degree below 1 is refused before any document is read, as a
    document's `degree 0` is refused by the grammar."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (2, "", "error: --degree must be at least 1\n")


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["classify", "-h"], ["verify", "--degree", "5", "--help"]]
)
def test_help_names_every_command_and_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    for name in ("classify", "check-map", "prolong", "verify", "examples", "print-grammar",
                 "--degree", "--complexify", "--seed", "--json", "--suite"):
        assert name in out


# (command, document, its one stderr summary line)
SUMMARY_LINES = [
    ("check-map", "checkmap map(F = z1, G = 0*w) : heisenberg(1) -> heisenberg(1)\n",
     "checkmap map(F = z1, G = 0*w): heisenberg(1) -> heisenberg(1): sends_into certified_false,"
     " trord flat, cr_transversal certified_false"),
    ("check-map", POWER_DOC,
     "checkmap T2: M2 -> M1: sends_into certified_true, trord 2, cr_transversal certified_false"),
    ("classify", "E = exp_model(1)\nclassify E\n",
     "classify E: infinite_type, m = 1; validate certified_true, class C unknown_at_truncation"),
    ("classify", "M = heisenberg(1)\nclassify M\n",
     "classify M: finite_type; validate certified_true, class C certified_true"),
    ("prolong", "A = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n",
     "prolong A at (2, 1): pivot (0, 1), jet order used 4, matches forward data: True"),
    ("prolong", "degree 4\nA = z1*chi1^3\nb = z1*exp(chi1)\nprolong A, b at (1)\n",
     "prolong A at (1,): pivot (1,), jet order used 2, matches forward data: False"),
]


@pytest.mark.parametrize("command, doc, line", SUMMARY_LINES,
                         ids=["flat-map", "power-map", "infinite-type", "finite-type", "exact-quotient",
                              "no-certified-degree"])
def test_summary_line(capsys, monkeypatch, command, doc, line):
    code, _, err = run(capsys, [command], stdin=doc, monkeypatch=monkeypatch)
    assert (code, err) == (0, line + "\n")


def test_result_lines_come_before_error_lines(capsys, monkeypatch):
    """The first task fails, the second classifies: its line comes first."""
    doc = "classify heisenberg(0)\nE = exp_model(1)\nclassify E\n"
    code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, err.splitlines()) == (1, [SUMMARY_LINES[2][2], "error: n must be a positive integer"])


def test_document_without_matching_tasks_exits_one(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["check-map"], stdin="M = heisenberg(1)\n", monkeypatch=monkeypatch
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["errors"][0]["error"] == "document contains no task for this command"


def test_reports_record_input_digest(capsys, monkeypatch):
    doc = "M = heisenberg(1)\nclassify M\n"
    code, rep, _ = run_json(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    import hashlib

    assert rep["input_digest"] == hashlib.sha256(doc.encode()).hexdigest()


NON_ASCII_DOC = "# Gewöhnliche Prolongation — ∂/∂z, χ\nA = z2*chi1 + z1^2\nb = z1^2*z2\nprolong A, b at (2, 1)\n"


@pytest.mark.parametrize("hidden", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_input_digest_is_sha256_of_a_non_ascii_document(capsys, monkeypatch, hidden):
    """Whichever module the digest comes from, the builtin SHA-256 or hashlib's,
    it is the SHA-256 of the document's UTF-8 bytes."""
    import hashlib

    for name in hidden:
        monkeypatch.setitem(sys.modules, name, None)  # its import raises ImportError
    code, rep, _ = run_json(capsys, ["prolong"], stdin=NON_ASCII_DOC, monkeypatch=monkeypatch)
    assert code == 0
    assert rep["input_digest"] == hashlib.sha256(NON_ASCII_DOC.encode("utf-8")).hexdigest()


def binary_stdin(monkeypatch, data: bytes) -> None:
    # newline="\n" as for sys.stdin on POSIX: no translation on read
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    monkeypatch.setattr("sys.stdin", stdin)


BAD_BYTE_DOC = b"degree 6\n# \xff\nM = graph(z*chi)\nclassify M\n"


def test_non_utf8_document_exits_two(capsys, monkeypatch, tmp_path):
    # the stray byte sits in a comment: it must fail the read, not the input digest
    path = tmp_path / "doc.txt"
    path.write_bytes(BAD_BYTE_DOC)
    code, out, err = run(capsys, ["classify", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not UTF-8: invalid start byte at byte offset 11\n"
    binary_stdin(monkeypatch, BAD_BYTE_DOC)
    code, out, err = run(capsys, ["classify", "-"])
    assert (code, out) == (2, "")
    assert err == "error: stdin is not UTF-8: invalid start byte at byte offset 11\n"


def test_crlf_document_digests_are_those_of_a_text_read(capsys, monkeypatch, tmp_path):
    """A file's newlines are translated, as text-mode `open` does; stdin keeps them."""
    import hashlib

    data = b"degree 6\r\nM = graph(z*chi)\r\nclassify M\r\n"
    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    code, rep, _ = run_json(capsys, ["classify", str(path)])
    assert code == 0
    assert rep["input_digest"] == hashlib.sha256(data.replace(b"\r\n", b"\n")).hexdigest()
    binary_stdin(monkeypatch, data)
    code, rep, _ = run_json(capsys, ["classify", "-"])
    assert code == 0
    assert rep["input_digest"] == hashlib.sha256(data).hexdigest()


BIG_SUM = " + ".join(["1/5000*z*chi"] * 5000)
VERDICTS = ("classification", "validate", "class_c", "holomorphically_nondegenerate")


@pytest.mark.parametrize("doc", [f"M = graph({BIG_SUM})\nclassify M\n", f"classify graph({BIG_SUM})\n"],
                         ids=["declared", "inline"])
def test_a_5000_term_graph_classifies_as_its_sum(capsys, monkeypatch, doc):
    code, rep, _ = run_json(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, rep["errors"]) == (0, [])
    _, want, _ = run_json(capsys, ["classify"], stdin="classify graph(z*chi)\n",
                          monkeypatch=monkeypatch)
    (got,), (expected,) = rep["results"], want["results"]
    assert {k: got[k] for k in VERDICTS} == {k: expected[k] for k in VERDICTS}


def test_a_3000_deep_document_is_one_error_line(capsys, monkeypatch):
    doc = "M = graph(" + "(" * 3000 + "z*chi" + ")" * 3000 + ")\nclassify M\n"
    code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == "error: expression nested deeper than 100 levels (line 1, column 111)\n"


@pytest.mark.parametrize("word", ["verify", "examples"])
def test_a_registry_statement_in_a_document_is_one_error_line(capsys, monkeypatch, word):
    doc = f"M = heisenberg(1)\n{word}\n"
    code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"error: '{word}' is a command, not a statement: run crtrans {word} (line 2, column 1)\n"


# constructor -> (the value declared as M, the same value inline)
FORMS = {
    "hypersurface": ("hypersurface(tau + 2*i*z*chi)", "hypersurface(tau + 2*i*z*chi)"),
    "bare expression": ("tau + 2*i*z*chi - z^2*chi^2", "hypersurface(tau + 2*i*z*chi - z^2*chi^2)"),
    "graph": ("graph(z*chi + z^2*chi^2*s)", "graph(z*chi + z^2*chi^2*s)"),
    "heisenberg": ("heisenberg(2)", "heisenberg(2)"),
    "blowup": ("blowup(2, 3)", "blowup(2, 3)"),
    "exp_model": ("exp_model(2)", "exp_model(2)"),
    "m_psi": ("m_psi(z1, z1*z2)", "m_psi(z1, z1*z2)"),
}


@pytest.mark.parametrize("declared, inline", list(FORMS.values()), ids=list(FORMS))
def test_a_declared_surface_is_its_inline_form(capsys, monkeypatch, declared, inline):
    results = []
    for doc in (f"M = {declared}\nclassify M\n", f"classify {inline}\n"):
        code, rep, _ = run_json(capsys, ["classify", "--degree", "8"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, rep["errors"]) == (0, [])
        (result,) = rep["results"]
        results.append({k: v for k, v in result.items() if k != "name"})
    assert results[0] == results[1]


def test_a_declared_map_is_its_inline_form(capsys, monkeypatch):
    results = []
    for doc in ("H = map(F = z*w, G = w)\ncheckmap H : blowup(4, 4) -> blowup(3, 4)\n",
                "checkmap map(F = z*w, G = w) : blowup(4, 4) -> blowup(3, 4)\n"):
        code, rep, _ = run_json(capsys, ["check-map"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, rep["errors"]) == (0, [])
        (result,) = rep["results"]
        results.append({k: v for k, v in result.items() if k != "map"})
    assert results[0] == results[1]
