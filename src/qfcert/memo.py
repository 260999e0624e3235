"""One content-keyed memo of the pure constructions, scoped to a run.

``scope()`` opens a memo for the length of a ``with`` block;
``cli.run_documents`` opens one per call, so the command line and the
battery share results within one document and free them when it ends.
The public decisions are ``scoped``: called with no scope open, they open
one for their own call, so a library caller shares results the same way.
Outside a scope ``cached`` just calls the function: nothing is kept.

Keys are exact.  ``array_key`` holds the dtype, shape and bytes of each
array and marks the array read-only, so a key cannot go stale; an
algebra builds its key once, on first use (``Algebra.memo_key``).
Memoized bodies return read-only arrays, so a caller cannot corrupt a
later hit by writing into one.

Each scope counts hits and misses per memoized function (``counts``).
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager

import numpy as np

_SCOPE = contextvars.ContextVar("qfcert_memo_scope", default=None)
_MISSING = object()


class Scope:
    """The entries and the per-function hit and miss counts of one scope."""

    def __init__(self):
        self.entries = {}
        self.hits = {}
        self.misses = {}

    def counts(self) -> dict:
        """{function name: (hits, misses)} for every function called."""
        names = sorted(set(self.hits) | set(self.misses))
        return {n: (self.hits.get(n, 0), self.misses.get(n, 0)) for n in names}


@contextmanager
def scope():
    """Open a fresh memo until the block ends; an enclosing one is shadowed."""
    s = Scope()
    token = _SCOPE.set(s)
    try:
        yield s
    finally:
        _SCOPE.reset(token)
        s.entries.clear()


def scoped(func):
    """``func`` run in the open scope, or in a scope of its own when none is
    open."""

    @functools.wraps(func)
    def run(*args, **kwargs):
        if _SCOPE.get() is not None:
            return func(*args, **kwargs)
        with scope():
            return func(*args, **kwargs)

    return run


def readonly(*arrays):
    """Mark arrays read-only (results and keyed inputs are never written)."""
    for a in arrays:
        a.flags.writeable = False


def array_key(*arrays) -> tuple:
    """Exact key of arrays: dtype, shape and bytes; freezes each array."""
    readonly(*arrays)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _arg_key(a):
    if isinstance(a, int):
        return a
    if isinstance(a, np.ndarray):
        return array_key(a)
    return a.memo_key()


def cached(name: str, compute, *args):
    """``compute(*args)``, memoized in the open scope under ``name``.

    Every argument is an int, an array (keyed by ``array_key``, which
    freezes it) or has a ``memo_key()`` method; the key is the name plus
    those values and keys.  Argument checks belong before this call, so
    that they run on hits too.
    """
    s = _SCOPE.get()
    if s is None:
        return compute(*args)
    key = (name,) + tuple(_arg_key(a) for a in args)
    value = s.entries.get(key, _MISSING)
    if value is not _MISSING:
        s.hits[name] = s.hits.get(name, 0) + 1
        return value
    # outside any ``except``: an error here must not chain a KeyError holding the key
    value = compute(*args)
    s.entries[key] = value
    s.misses[name] = s.misses.get(name, 0) + 1
    return value
