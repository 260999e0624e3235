"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
All routines are deterministic: row reduction always picks the leftmost
pivot column and, within a column, the smallest usable row index.

Matrix products route through float64 BLAS when the result is provably
exact (``(p-1)^2 * inner_dim <= 2**53``), which covers every size this
package produces; an int64 fallback keeps the function total.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPrime, UsageError

Mat = np.ndarray

_FLOAT_EXACT_BOUND = 2**53


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """A prime field F_p with p an odd prime (p = 2 is rejected)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, (int, np.integer)) or p < 3 or not is_prime(int(p)):
            raise InvalidPrime(p)
        self.p = int(p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def asmat(data, p: int) -> Mat:
    """Coerce to an int64 matrix with entries reduced mod p."""
    a = np.asarray(data, dtype=np.int64)
    return a % p


def identity(n: int) -> Mat:
    return np.eye(n, dtype=np.int64)


def zeros(r: int, c: int) -> Mat:
    return np.zeros((r, c), dtype=np.int64)


def matmul(a: Mat, b: Mat, p: int) -> Mat:
    """Exact a @ b mod p."""
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError(f"matmul expects 2-D arrays, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    inner = a.shape[1]
    if inner == 0:
        return zeros(a.shape[0], b.shape[1])
    if (p - 1) * (p - 1) * inner <= _FLOAT_EXACT_BOUND:
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(c).astype(np.int64) % p
    # int64 is exact while (p-1)^2 * inner < 2^63; p here is tiny so this
    # branch is effectively unreachable, but keep the function total.
    return (a @ b) % p


def matmul_chain(p: int, *mats: Mat) -> Mat:
    out = mats[0]
    for m in mats[1:]:
        out = matmul(out, m, p)
    return out


_RREF_PANEL = 32


def rref(a, p: int):
    """Reduced row echelon form.

    Returns ``(r, pivots, rank)`` where ``r`` is the reduced matrix,
    ``pivots`` the list of pivot column indices in increasing order, and
    ``rank == len(pivots)``.

    Elimination is panel-blocked: factor columns and normalized pivot rows
    accumulate until the panel fills, then a single exact matmul applies
    them to the whole matrix.  Pending updates are folded into any value
    read before the flush, so the result is the usual (unique) reduced
    form with pivot rows stacked at the top.
    """
    a = np.array(asmat(a, p), dtype=np.int64)
    if a.ndim != 2:
        raise UsageError("rref expects a 2-D array")
    m, n = a.shape
    pivots = []
    if m == 0 or n == 0:
        return a, pivots, 0
    w = _RREF_PANEL
    fac = np.zeros((m, w), dtype=np.int64)
    rows = np.zeros((w, n), dtype=np.int64)
    j = 0  # pivots pending in the panel

    def flush():
        nonlocal j
        if j:
            a[...] = (a - matmul(fac[:, :j], rows[:j], p)) % p
            j = 0

    r = 0
    for col in range(n):
        if r == m:
            break
        cur = a[:, col].copy()
        if j:
            cur = (cur - matmul(fac[:, :j], rows[:j, col : col + 1], p).ravel()) % p
        nz = np.flatnonzero(cur[r:])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            fac[[r, i]] = fac[[i, r]]
            cur[[r, i]] = cur[[i, r]]
        row = a[r].copy()
        if j:
            row = (row - matmul(fac[r : r + 1, :j], rows[:j], p).ravel()) % p
        inv = pow(int(cur[r]), p - 2, p)
        if inv != 1:
            row = row * inv % p
        cur[r] = 0
        a[r] = row
        fac[r, :j] = 0
        fac[:, j] = cur
        rows[j] = row
        pivots.append(col)
        r += 1
        j += 1
        if j == w:
            flush()
    flush()
    return a, pivots, len(pivots)


def rank(a, p: int) -> int:
    return rref(a, p)[2]


def solve_right(a, b, p: int):
    """One solution X of a @ X = b with free variables set to 0, or None.

    ``b`` may be a vector or a matrix (columns solved simultaneously).
    """
    a = asmat(a, p)
    b = asmat(b, p)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise UsageError(f"solve_right shape mismatch: {a.shape} vs {b.shape}")
    m, n = a.shape
    aug = np.concatenate([a, b], axis=1)
    red, pivots, _ = rref(aug, p)
    if any(c >= n for c in pivots):
        return None
    x = zeros(n, b.shape[1])
    for row, col in enumerate(pivots):
        x[col] = red[row, n:]
    return x[:, 0] if vector_rhs else x


def _free_basis(a, p: int):
    """Right-nullspace basis of ``a`` and the free columns of its rref.

    Basis vector k is the unit vector at the k-th free column, completed
    on the pivot columns so that ``a`` annihilates it.
    """
    red, pivots, r = rref(a, p)
    n = red.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = zeros(n, len(free))
    basis[free, range(len(free))] = 1
    basis[pivots] = (-red[:r, free]) % p
    return basis, free


def nullspace(a, p: int) -> Mat:
    """Basis of the right nullspace, as columns of the returned matrix.

    The basis vectors correspond to the free columns of the rref in
    increasing column order; the number of columns is ``cols - rank``.
    """
    return _free_basis(a, p)[0]


def invert(a, p: int):
    """Inverse of a square matrix, or None if singular.

    Raises UsageError on non-square input.
    """
    a = asmat(a, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"invert expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return zeros(0, 0)
    aug = np.concatenate([a, identity(n)], axis=1)
    red, pivots, r = rref(aug, p)
    if pivots != list(range(n)):
        return None
    return red[:, n:]


def vec(m: Mat) -> Mat:
    """Row-major flattening; vec of an outer product a b^T is kron(a, b)."""
    return m.reshape(-1)


def column_space_basis(a, p: int) -> Mat:
    """Columns of ``a`` at the rref pivot positions (a basis of the image)."""
    a = asmat(a, p)
    _, pivots, _ = rref(a, p)
    return a[:, pivots]


def in_span(basis_cols: Mat, target: Mat, p: int) -> bool:
    return solve_right(basis_cols, target, p) is not None


def row_space_quotient(rel_rows, dim: int, p: int):
    """Quotient of F_p^dim by the row space of ``rel_rows``.

    Returns ``(proj, sect)``: ``proj`` is (q x dim), ``sect`` is (dim x q),
    with ``proj @ sect = I_q`` and ``proj @ r = 0`` for every relation row
    ``r``.  The chosen coset representatives are the unit vectors at the
    non-pivot columns of the relation rref, in increasing order.
    """
    rel_rows = asmat(rel_rows, p)
    if rel_rows.size == 0:
        rel_rows = zeros(0, dim)
    if rel_rows.shape[1] != dim:
        raise UsageError(
            f"row_space_quotient: relations have {rel_rows.shape[1]} cols, expected {dim}"
        )
    basis, free = _free_basis(rel_rows, p)
    sect = zeros(dim, len(free))
    sect[free, range(len(free))] = 1
    return basis.T.copy(), sect
