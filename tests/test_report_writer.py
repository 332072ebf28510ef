"""The report writer `cli._report_text` against `json.dumps(v, sort_keys=True,
indent=2)`: byte for byte on nested dicts, lists, tuples, str, int, bool and
None, with the strings json escapes (control characters, quotes, backslashes,
non-ASCII text and lone surrogates), large ints and empty containers; a
TypeError for a float and for a non-str key, which json would write. Needs the
optional `hypothesis` package (the `test` extra); the module is skipped
without it.
"""

import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans.cli import _report_text  # noqa: E402


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


CHARS = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80 é￿\U0001f600'),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
)
TEXT = st.text(CHARS, max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert _report_text(value) == dumps(value)


def test_writer_matches_json_dumps_on_a_report_shape():
    report = {
        "schema": "crtrans-report/1", "degree": 10, "seed": -3, "errors": [], "notes": {},
        "results": [{"task": "classify", "class_cm": None, "exact": True, "ok": False,
                     "witness": {"index": [1, 1, 0], "value": "2i"}, "pair": ("a", 2**70)}],
    }
    assert _report_text(report) == dumps(report)


def test_writer_quotes_without_json_accelerator(monkeypatch):
    # `None` in sys.modules makes `import _json` raise ImportError
    monkeypatch.setitem(sys.modules, "_json", None)
    value = {"é\ud800\"\\\x01": ["tab\there", 7, None]}
    assert _report_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0, 2.0]}, {1: "a"}, {"a": {None: 1}}, {True: 0}, {("a",): 0}, {"a": {1, 2}}],
    ids=["float", "nested float", "int key", "None key", "bool key", "tuple key", "set"],
)
def test_writer_refuses_what_json_would_coerce_or_refuse(value):
    with pytest.raises(TypeError):
        _report_text(value)
