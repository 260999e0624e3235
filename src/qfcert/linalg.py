"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
All routines are deterministic; ``rref`` returns the reduced row echelon
form, which is unique, so the order in which it picks pivots never shows.

One exactness rule covers every product.  A residue plus ``k`` products of
two residues has magnitude at most ``(p-1) + k (p-1)^2``.  In float64 (and
so in BLAS) such a value is kept below 2^51, two bits under the 2^53 limit
of exact integers, so that ``_mod`` can reduce it with one multiply and a
floor; in int64 it is kept below 2^63.  ``_exact_plan`` takes float64 when
``k = 1`` fits there and int64 otherwise, and returns the largest ``k``
for that dtype and for int64; ``matmul`` splits its inner dimension into
chunks of ``k``.  The supported primes are the odd p with
``(p-1)^2 + p < 2^63``, that is p <= 3,037,000,493 (``in_range``);
``PrimeField`` and the schema reject larger ones.  Float64 serves every p
with ``(p-1)^2 + p < 2^51``, that is p <= 47,453,133.

Small primes have a float32 tier, where single-precision BLAS runs about
twice as fast and moves half the bytes.  The same rule on float32's
24-bit significand keeps values below 2^22, so ``_exact_plan`` also
returns the largest ``k`` with ``(p-1) + k (p-1)^2 < 2^22`` (0 from
p = 2053 on; 1 at p = 2039, 4 at p = 1021, 262,143 at p = 5).  ``matmul``
takes float32 only when its whole inner dimension fits that ``k``, so a
float32 product is one BLAS call and one reduction, never a chunk loop;
any other product takes the float64 or int64 plan above.  ``_mod``
reduces the product buffer in place, with one temporary.

``rref`` reads no budget: every entry it updates is a residue minus one
product of two residues, above ``-(p-1)^2``, so int64 holds it at every
supported p.

Small inputs take a cheaper path, since the fixed numpy cost per call
outweighs their arithmetic.  Both switches depend on size alone:

- ``matmul`` with at most ``_MATMUL_SMALL`` multiply-adds, and an inner
  dimension within the int64 budget of ``_exact_plan``, takes one int64
  product and one ``%``.  Each entry is a sum of at most that many
  products of residues, so it stays under 2^63.
- ``rref`` on at most ``_RREF_SMALL`` entries runs Gauss-Jordan on rows
  of Python integers, which are exact at every p.  It finds the same
  unique reduced form as the int64 kernel.

``rref`` reduces only what carries rank: the reduced form depends on the
row space alone, so a larger system is compacted to its distinct nonzero
rows on its nonzero columns, which take the path their own size picks.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidPrime, UsageError

Mat = np.ndarray

# magnitude bounds for unreduced values, by working dtype
_INT64_BOUND = 2**63
_BOUNDS = ((np.float64, 2**51), (np.int64, _INT64_BOUND))
_FLOAT32_BOUND = 2**22
# below this many entries one float ``%`` beats ``_mod``'s five passes
_MOD_SMALL = 256
# at most this many multiply-adds, one int64 product beats the float path
_MATMUL_SMALL = 4096
# at most this many entries, Gauss-Jordan on Python integers beats the int64 kernel's numpy calls
_RREF_SMALL = 1024
# Miller-Rabin with these bases is deterministic for every n < 3.18e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n < 3.18e23."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def in_range(p: int) -> bool:
    """Whether the kernel's arithmetic is exact at p: ``(p-1)^2 + p < 2^63``."""
    return (p - 1) ** 2 + p < 2**63


@functools.lru_cache(maxsize=None)
def _exact_plan(p: int):
    """``(dtype, k, k64, k32)`` for ``matmul``: the working dtype for F_p,
    the largest k such that a residue plus k products of two residues stays
    under its bound, that largest k in int64 (at least 1 at every supported
    prime) and in float32 (0 where not even one product fits).  ``rref``
    does not read it."""
    p = int(p)
    sq = (p - 1) ** 2
    k32 = max(0, (_FLOAT32_BOUND - p) // sq)
    for dtype, bound in _BOUNDS:
        if sq + p < bound:
            return dtype, (bound - p) // sq, (_INT64_BOUND - p) // sq, k32
    raise InvalidPrime(p)


def _mod(x, p):
    """x mod p in [0, p), in place, for a product buffer that ``matmul``
    owns, in a working dtype from ``_exact_plan``.

    numpy's float ``%`` is exact but costs about 25 ns an entry.  On larger
    float arrays, with |x| below the dtype's bound (2^51 in float64, 2^22
    in float32, two bits under its exact integers), ``(x + 1/2) / p`` lies
    at least 1/(2p) from every integer and is computed with a smaller
    error, so its floor is exactly ``x // p`` and five fast passes over one
    temporary replace it.
    """
    if x.dtype == np.int64 or x.size <= _MOD_SMALL:
        return np.remainder(x, p, out=x)
    q = x + 0.5
    q *= 1.0 / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


class PrimeField:
    """A prime field F_p with p an odd prime in the supported range
    (p = 2 is rejected)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, (int, np.integer)) or p < 3 or not in_range(int(p)) or not is_prime(int(p)):
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
    """Exact a @ b mod p, for entries of a and b in [0, p)."""
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError(f"matmul expects 2-D arrays, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    dtype, k, k64, k32 = _exact_plan(p)
    inner = a.shape[1]
    if inner <= k64 and a.shape[0] * inner * b.shape[1] <= _MATMUL_SMALL:
        return (a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)) % p
    if inner <= k32:
        # the whole inner dimension in one float32 product
        dtype, k = np.float32, max(inner, 1)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    out = a[:, :k] @ b[:k]
    for k0 in range(k, inner, k):
        out = _mod(out, p)
        out += a[:, k0 : k0 + k] @ b[k0 : k0 + k]
    return _mod(out, p).astype(np.int64, copy=False)


def matmul_pairs(a: Mat, b: Mat, p: int) -> Mat:
    """Exact ``a[i] @ b[j]`` for every pair (i, j) of two stacks of
    matrices, as one ``matmul``: an (n, r, s) and an (m, s, c) stack give
    an (n, m, r, c) array."""
    n, r, s = a.shape
    m, c = b.shape[0], b.shape[2]
    out = matmul(a.reshape(n * r, s), b.transpose(1, 0, 2).reshape(s, m * c), p)
    return out.reshape(n, r, m, c).transpose(0, 2, 1, 3)


def combine(coeffs: Mat, stack: Mat, p: int) -> Mat:
    """Exact ``sum_a coeffs[a, k] stack[a]`` for every column k of an
    (n, m) ``coeffs``, as one ``matmul``: an (n, r, c) stack gives an
    (m, r, c) stack."""
    n, r, c = stack.shape
    return matmul(coeffs.T, stack.reshape(n, r * c), p).reshape(coeffs.shape[1], r, c)


def intertwines(f: Mat, src: Mat, dst: Mat, p: int):
    """Whether ``f @ src[a] == dst[a] @ f`` for every a, from two stacked
    products, for (n, c, c) and (n, r, r) stacks ``src`` and ``dst``.  An
    (r, c) map ``f`` gives one bool; an (m, r, c) stack of maps gives a
    bool array with one answer per map."""
    maps = f if f.ndim == 3 else f[None]
    lhs = matmul_pairs(maps, src, p)
    rhs = matmul_pairs(dst, maps, p).transpose(1, 0, 2, 3)
    ok = (lhs == rhs).all(axis=(1, 2, 3))
    return ok if f.ndim == 3 else bool(ok[0])


def matmul_chain(p: int, *mats: Mat) -> Mat:
    out = mats[0]
    for m in mats[1:]:
        out = matmul(out, m, p)
    return out


def kron_apply(p: int, b: Mat, s: Mat, c: int, eye_first: bool) -> Mat:
    """``kron(I_c, b) @ s`` if ``eye_first``, else ``kron(b, I_c) @ s``,
    as one product with ``b`` on a reshaped ``s``, so no Kronecker matrix
    is built.  Transposing both sides gives ``a @ kron(., .)`` as well."""
    n, q = b.shape
    w = s.shape[1]
    if not eye_first:
        return matmul(b, s.reshape(q, c * w), p).reshape(n * c, w)
    s = s.reshape(c, q, w).transpose(1, 0, 2).reshape(q, c * w)
    return matmul(b, s, p).reshape(n, c, w).transpose(1, 0, 2).reshape(c * n, w)


# the pivot search tests this many columns below the pivot row at once
_RREF_SCAN = 64


def rref(a, p: int):
    """Reduced row echelon form.

    Returns ``(r, pivots, rank)`` where ``r`` is the reduced matrix (a new
    int64 array; ``a`` is left as it is), ``pivots`` the list of pivot
    column indices in increasing order, and ``rank == len(pivots)``.

    Systems of at most ``_RREF_SMALL`` entries go to ``_rref_small``.
    Larger ones are compacted to their distinct nonzero rows on their
    nonzero columns, which go to ``_rref_small`` or ``_rref_eager`` by
    their own size; the answer is scattered back into an (m, n) array.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise UsageError("rref expects a 2-D array")
    m, n = a.shape
    if a.size <= _RREF_SMALL:
        return _rref_small(a % p, p)
    rows, cols = np.flatnonzero(a.any(axis=1)), np.flatnonzero(a.any(axis=0))
    work = a[np.ix_(rows, cols)] % p
    # distinct rows by their bytes, in first-occurrence order
    first = np.unique(work.view(np.dtype((np.void, 8 * cols.size))).ravel(), return_index=True)[1]
    if first.size < rows.size:
        work = work[np.sort(first)]
    red, pivots, r = (_rref_small if work.size <= _RREF_SMALL else _rref_eager)(work, p)
    out = zeros(m, n)
    out[:r, cols] = red[:r]
    return out, cols[pivots].tolist(), r


def _rref_eager(work, p: int):
    """``rref`` of residues in place, by eager Gauss-Jordan on int64: each
    pivot row, scaled to a leading 1 unless it has one, is subtracted from
    every other row with a nonzero entry in its column, on the columns
    from the pivot on, and the result is reduced mod p at once.  The pivot
    search tests the next ``_RREF_SCAN`` columns below row r in one step:
    a column zero there stays zero below every later pivot row, so it is
    passed over for good."""
    m, n = work.shape
    pivots = []
    r = col = 0
    while r < m and col < n:
        hit = np.flatnonzero(work[r:, col : col + _RREF_SCAN].any(axis=0))
        if not hit.size:
            col += _RREF_SCAN
            continue
        col += int(hit[0])
        i = r + int(np.flatnonzero(work[r:, col])[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
        row = work[r, col:]
        lead = int(row[0])
        if lead != 1:
            row *= pow(lead, -1, p)
            row %= p
        nz = np.flatnonzero(work[:, col])
        nz = nz[nz != r]
        if nz.size:
            rest = work[nz, col:]
            rest -= np.outer(rest[:, 0], row)
            rest %= p
            work[nz, col:] = rest
        pivots.append(col)
        r += 1
        col += 1
    return work, pivots, r


def _rref_small(work, p: int):
    """``rref`` of residues by Gauss-Jordan on rows of Python integers.
    Python integers are exact at every p, and on a few dozen entries one
    list comprehension per row update costs less than the numpy calls a
    pivot would take."""
    rows, (m, n) = work.tolist(), work.shape
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        for i in range(r, m):
            if rows[i][col]:
                break
        else:
            continue
        piv = rows[i]
        rows[i] = rows[r]
        lead = piv[col]
        if lead != 1:
            inv = pow(lead, -1, p)
            piv = [y * inv % p for y in piv]
        rows[r] = piv
        for s, row in enumerate(rows):
            c = row[col]
            if c and s != r:
                rows[s] = [(x - c * y) % p for x, y in zip(row, piv)]
        pivots.append(col)
    return np.array(rows, dtype=np.int64).reshape(m, n), pivots, len(pivots)


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


def rref_nullspace(red, pivots, p: int):
    """Right-nullspace basis and free columns of a matrix in reduced row
    echelon form ``red`` with the given pivot columns.

    Basis vector k is the unit vector at the k-th free column, completed
    on the pivot columns so that ``red`` annihilates it.
    """
    r, n = len(pivots), red.shape[1]
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
    return rref_nullspace(*rref(a, p)[:2], p)[0]


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
    basis, free = rref_nullspace(*rref(rel_rows, p)[:2], p)
    sect = zeros(dim, len(free))
    sect[free, range(len(free))] = 1
    return basis.T.copy(), sect
