"""The report writer `cli._send_report` against `json.dumps(v, sort_keys=True,
indent=2) + "\n"`: byte for byte on nested dicts, lists, tuples, str, int, bool
and None, with the strings json escapes (control characters, quotes,
backslashes, non-ASCII text and lone surrogates), large ints and empty
containers; a TypeError for a float and for a non-str key, which json would
write. With the piece size made small, every value spans many pieces, and each
piece but the last reaches it and ends between two tokens. Needs the optional
`hypothesis` package (the `test` extra); the module is skipped without it.
"""

import json
import re
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans import cli  # noqa: E402


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def pieces(value) -> list:
    out = []
    cli._send_report(value, out.append)
    return out


def sent(value) -> str:
    return "".join(pieces(value))


STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def assert_cut_between_tokens(out) -> None:
    for piece in out:
        assert STRING.sub("", piece).count('"') == 0, piece  # no string is cut
    for left, right in zip(out, out[1:]):
        assert not (left[-1].isalnum() and right[0].isalnum()), (left, right)  # nor a number or literal


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
    assert sent(value) == dumps(value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(VALUES, st.integers(1, 40))
def test_writer_sends_pieces_of_at_least_chunk_characters_cut_between_tokens(value, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", chunk)
        out = pieces(value)
    assert "".join(out) == dumps(value)
    assert all(len(piece) >= chunk for piece in out[:-1])
    assert_cut_between_tokens(out)


def test_writer_matches_json_dumps_on_a_report_shape():
    report = {
        "schema": "crtrans-report/1", "degree": 10, "seed": -3, "errors": [], "notes": {},
        "results": [{"task": "classify", "class_cm": None, "exact": True, "ok": False,
                     "witness": {"index": [1, 1, 0], "value": "2i"}, "pair": ("a", 2**70)}],
    }
    assert sent(report) == dumps(report)


def test_writer_quotes_without_json_accelerator(monkeypatch):
    # `None` in sys.modules makes `import _json` raise ImportError
    monkeypatch.setitem(sys.modules, "_json", None)
    value = {"é\ud800\"\\\x01": ["tab\there", 7, None]}
    assert sent(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0, 2.0]}, {1: "a"}, {"a": {None: 1}}, {True: 0}, {("a",): 0}, {"a": {1, 2}}],
    ids=["float", "nested float", "int key", "None key", "bool key", "tuple key", "set"],
)
def test_writer_refuses_what_json_would_coerce_or_refuse(value):
    with pytest.raises(TypeError):
        sent(value)
