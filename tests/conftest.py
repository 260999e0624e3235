"""Fixtures shared by every test module."""

import pytest

from qfcert import memo


@pytest.fixture(autouse=True)
def memo_scope():
    """Run each test in one memo scope, as ``run_documents`` runs each
    document, so library calls made straight from a test share hom spaces,
    decompositions and generators the same way."""
    with memo.scope():
        yield
