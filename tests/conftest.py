"""Fixtures shared by the count tests."""

import pytest

from crtrans.series import Series


@pytest.fixture
def grouping_passes(monkeypatch):
    """The series whose terms are scanned for coefficient blocks, one entry a scan.

    A call of `coefficient_series` or `coefficient_blocks` is one scan; a call
    made inside another one is part of it and not counted again.
    """
    passes, depth = [], [0]
    for name in ("coefficient_series", "coefficient_blocks"):
        original = getattr(Series, name, None)
        if original is None:
            continue

        def counting(self, *args, _original=original):
            if not depth[0]:
                passes.append(self)
            depth[0] += 1
            try:
                return _original(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Series, name, counting)
    return passes
