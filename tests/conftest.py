"""Fixtures shared by the test modules."""

import pytest

from rsl import extension


@pytest.fixture
def search_calls(monkeypatch):
    """The (K, degree) of every uncached modulus search, in order."""
    calls = []
    find = extension._find_modulus

    def counted(K, degree):
        calls.append((K, degree))
        return find(K, degree)
    monkeypatch.setattr(extension, "_find_modulus", counted)
    return calls
