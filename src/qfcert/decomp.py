"""Indecomposable decompositions of modules over F_p-algebras.

Strategy: compute End(M) by structure constants, split off idempotents,
recurse.  Every step is exact at every odd p, from commutators and the
Frobenius map y -> y^p alone:

* ``radical``: the commutators of E generate a two-sided ideal I.  If I is
  not nilpotent, some commutator lies outside rad E, so E/rad E is not
  commutative and E is certainly not local.  Otherwise E/I is
  commutative, y -> y^p is F_p-linear on it, and rad E is I plus the
  preimage of the kernel of y -> y^(p^k), p^k >= dim E/I;
* in a commutative algebra the Frobenius fixed space {x : x^p = x} is
  spanned by the primitive idempotents, one per local factor.  E is local
  exactly when I is nilpotent and E/I has fixed space F_p (E/I and
  E/rad E have the same local factors, rad E/I being the nilradical), so
  that "no idempotent" answer is certain (never randomized) and reads the
  Frobenius matrix that ``radical`` builds on E/I;
* otherwise candidates x (basis vectors, their sums and products, then
  seeded random elements) are tried until the commutative subalgebra
  F_p[x] is not local.  For a seeded random a in its fixed space,
  b = a^((p-1)/2) is 0 or +-1 on each local factor, and (b^2 + b)/2 is an
  idempotent of E, computed exactly with no lift.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg, report
from .algebra import Algebra, equal_algebras
from .errors import InternalCheckError, UsageError
from .linalg import Mat
from .modrep import LeftModule, hom_space, split_pair_reasons, trace_split

# ---------------------------------------------------------------------------
# endomorphism rings


class EndomorphismRing(Algebra):
    """End(M) as a structure-constant algebra with its matrix basis."""

    def __init__(self, module: LeftModule, matrices: Mat, mul, unit):
        super().__init__(module.algebra.field, mul, unit)
        self.module = module
        self.matrices = matrices  # (k, d, d)

    def matrix_of(self, coords) -> Mat:
        k, d = self.matrices.shape[0], self.module.dim
        c = linalg.asmat(coords, self.p).reshape(1, k)
        return linalg.matmul(c, self.matrices.reshape(k, d * d), self.p).reshape(d, d)


def end_ring(m: LeftModule) -> EndomorphismRing:
    if m.dim == 0:
        raise UsageError("end_ring of the zero module is not represented")
    h = hom_space(m, m)
    # mul[s, t] holds the coordinates of basis[s] @ basis[t]
    mul = h.action(linalg.matmul_pairs(h.basis, h.basis, m.p)).transpose(0, 2, 1)
    unit = h.coords(linalg.identity(m.dim))
    if unit is None:
        raise InternalCheckError("identity endomorphism missing from hom basis")
    return EndomorphismRing(m, h.basis, mul, unit)


def _products(e_alg: Algebra, mults: Mat, cols: Mat) -> Mat:
    """Basis (as columns) of the span of every ``mults[a] @ cols[:, c]``."""
    n, p = e_alg.dim, e_alg.p
    prods = linalg.matmul(mults.reshape(-1, n), cols, p).reshape(len(mults), n, -1)
    return linalg.column_space_basis(prods.transpose(1, 0, 2).reshape(n, -1), p)


def _frobenius(alg: Algebra) -> Mat:
    """Matrix of y -> y^p: column i holds the coordinates of e_i^p."""
    return alg.power(linalg.identity(alg.dim), alg.p).T


def _fixed_space(frob: Mat, p: int) -> Mat:
    """Basis (as columns) of {x : x^p = x} from the Frobenius matrix; in a
    commutative algebra its dimension is the number of local factors."""
    return linalg.nullspace((frob - linalg.identity(len(frob))) % p, p)


def _commutative_quotient(e_alg: Algebra) -> tuple[Mat, Mat, Mat] | None:
    """(I, section of E/I, Frobenius matrix of E/I) for the commutator
    ideal I, with I's basis and the section as columns, or None when I is
    not nilpotent.

    ``radical`` and the locality test of ``find_idempotent`` both read
    this one quotient and its one Frobenius matrix.
    """
    p, n = e_alg.p, e_alg.dim
    comm = (e_alg.mul - e_alg.mul.transpose(1, 0, 2)).reshape(n * n, n).T % p
    ideal = linalg.column_space_basis(comm, p)
    ideal = _products(e_alg, e_alg.right_mult, _products(e_alg, e_alg.left_mult, ideal))
    power = ideal
    while power.shape[1]:
        # the products of I^k with I span I^(k+1), inside I^k
        shrunk = _products(e_alg, linalg.combine(power, e_alg.left_mult, p), ideal)
        if shrunk.shape[1] == power.shape[1]:
            return None
        power = shrunk
    proj, sect = linalg.row_space_quotient(ideal.T, n, p)
    return ideal, sect, _frobenius(_quotient_algebra(e_alg, proj, sect))


def radical(e_alg: Algebra) -> Mat | None:
    """Basis (as columns) of the Jacobson radical J, or None when the
    commutator ideal I is not nilpotent, by the rule of the module
    docstring.

    None means E/J is noncommutative, so E is certainly not local.  J is
    exact at every p: I lies in J, and J/I is the nilradical of the
    commutative E/I, which is the kernel of y -> y^(p^k) there.
    """
    quotient = _commutative_quotient(e_alg)
    if quotient is None:
        return None
    ideal, sect, frob = quotient
    p = e_alg.p
    step, reach = frob, p
    while reach < sect.shape[1]:
        frob, reach = linalg.matmul(frob, step, p), reach * p
    return np.concatenate([ideal, linalg.matmul(sect, linalg.nullspace(frob, p), p)], axis=1)


def _quotient_algebra(e_alg: Algebra, proj: Mat, sect: Mat) -> Algebra:
    p = e_alg.p
    n, q = sect.shape
    # sum_(a,b) sect[a, i] sect[b, j] mul[a, b] in coordinates proj, one index at a time
    left = linalg.matmul(sect.T, e_alg.mul.reshape(n, n * n), p).reshape(q, n, n)
    both = linalg.matmul(sect.T, left.transpose(1, 0, 2).reshape(n, q * n), p)
    mul = linalg.matmul(both.reshape(q * q, n), proj.T, p).reshape(q, q, q).transpose(1, 0, 2)
    unit = linalg.matmul(proj, e_alg.unit.reshape(-1, 1), p).reshape(-1)
    return Algebra(e_alg.field, mul, unit)


def _generated_subalgebra(alg: Algebra, x: Mat) -> tuple[Algebra, Mat]:
    """F_p[x] in its power basis 1, x, ..., x^(k-1), with those powers as
    columns (the inclusion into ``alg``)."""
    p = alg.p
    powers = [alg.unit, linalg.asmat(x, p).reshape(-1)]
    while linalg.rank(np.stack(powers, axis=1), p) == len(powers):
        powers.append(alg.multiply(powers[-1], x))
    k = len(powers) - 1
    # e_i e_j = x^(i+j): the powers up to x^(2k-2), in the power basis
    while len(powers) < 2 * k - 1:
        powers.append(alg.multiply(powers[-1], x))
    basis = np.stack(powers[:k], axis=1)
    coords = linalg.solve_right(basis, np.stack(powers[: 2 * k - 1], axis=1), p)
    if coords is None:
        raise InternalCheckError("a power of x left the span of the lower powers")
    mul = coords.T[np.add.outer(np.arange(k), np.arange(k))]
    return Algebra(alg.field, mul, linalg.identity(k)[0], _validate=False), basis


def _split_commutative(alg: Algebra, rng) -> Mat | None:
    """A nontrivial idempotent of a commutative algebra, or None when it is
    local, by the fixed-space rule of the module docstring.

    Exact with no lift: a in the fixed space is a sum of F_p multiples of
    the primitive idempotents.  A draw fails when a is a nonzero square on
    every local factor or on none, with probability at most 5/9 (two
    factors, p = 3).
    """
    p = alg.p
    fix = _fixed_space(_frobenius(alg), p)
    if fix.shape[1] == 1:
        return None
    half = (p + 1) // 2
    for _ in range(64):
        c = np.array([[rng.randrange(p)] for _ in range(fix.shape[1])], dtype=np.int64)
        b = alg.power(linalg.matmul(fix, c, p).reshape(-1), (p - 1) // 2)
        e = (alg.multiply(b, b) + b) % p * half % p
        if e.any() and not np.array_equal(e, alg.unit):
            return e
    raise InternalCheckError("64 draws from the Frobenius fixed space gave no idempotent")


def find_idempotent(e_alg: Algebra, seed: int = 0):
    """A nontrivial idempotent of E (coordinates), or None meaning E is local.

    None answers are certain: they arise only when the commutator ideal I
    is nilpotent and the commutative E/I has Frobenius fixed space F_p.
    J/I is the nilradical of E/I, and idempotents lift along it, so E/J
    then has one local factor too and is a field.  Otherwise
    candidates x (basis vectors, their sums and products, then seeded
    random elements) are swept, and the first idempotent that
    ``_split_commutative`` reads off F_p[x] inside E is returned.
    """
    rng = random.Random(seed)
    p = e_alg.p
    n = e_alg.dim
    if n == 1:
        return None  # E is F_p
    quotient = _commutative_quotient(e_alg)
    if quotient is not None and _fixed_space(quotient[2], p).shape[1] == 1:
        return None  # E/J is a field: E is local, certainly

    def candidates():
        eye = np.eye(n, dtype=np.int64)
        yield from eye
        for i in range(n):
            for j in range(i + 1, n):
                yield (eye[i] + eye[j]) % p
        for i in range(n):
            for j in range(n):
                yield e_alg.multiply(eye[i], eye[j])
        for _ in range(500):
            yield np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)

    for x in candidates():
        sub, basis = _generated_subalgebra(e_alg, x)
        e = _split_commutative(sub, rng)
        if e is not None:
            return linalg.matmul(basis, e.reshape(-1, 1), p).reshape(-1)
    raise InternalCheckError("idempotent search exhausted its candidates")


# ---------------------------------------------------------------------------
# decomposition


class Summand:
    """One isomorphism class in a decomposition."""

    def __init__(self, module: LeftModule, injections, projections):
        self.module = module
        self.injections = injections
        self.projections = projections

    @property
    def multiplicity(self):
        return len(self.injections)


class Decomposition:
    def __init__(self, module: LeftModule, summands):
        self.module = module
        self.summands = summands
        self._verify()

    def _verify(self):
        """Check the copies split the module, as ``verify`` will.

        The injections and projections of every copy are a split pair
        (``split_pair_reasons``, on the algebra's generators), and the
        projections stacked times the injections side by side are the
        identity, so the copies are orthogonal.  Raises InternalCheckError.
        """
        mod, p, d = self.module, self.module.p, self.module.dim
        gens = mod.algebra.generators().T
        classes = [
            (np.stack(s.projections), np.stack(s.injections), (linalg.combine(gens, s.module.action, p),))
            for s in self.summands
        ]
        family = ("A", linalg.combine(gens, mod.action, p))
        reasons = split_pair_reasons(p, d, classes, [family], ("projection", "injection"))
        if reasons:
            raise InternalCheckError("decomposition: " + "; ".join(reasons))
        inj = np.concatenate([linalg.zeros(d, 0)] + [i for s in self.summands for i in s.injections], axis=1)
        proj = np.concatenate([linalg.zeros(0, d)] + [q for s in self.summands for q in s.projections], axis=0)
        if not np.array_equal(linalg.matmul(proj, inj, p), linalg.identity(inj.shape[1])):
            raise InternalCheckError("decomposition: copies are not orthogonal")

    def class_signature(self):
        """Multiset of (dim, multiplicity), sorted."""
        return sorted((s.module.dim, s.multiplicity) for s in self.summands)


def decomposition_payload(dec: Decomposition) -> dict:
    """JSON-ready certificate: all injection/projection pairs per class."""
    return {
        "kind": "decomposition",
        "p": dec.module.p,
        "module_action": report.payload_array(dec.module.action),
        "classes": [
            {
                "dim": s.module.dim,
                "multiplicity": s.multiplicity,
                "action": report.payload_array(s.module.action),
                "injections": [report.payload_array(v) for v in s.injections],
                "projections": [report.payload_array(v) for v in s.projections],
            }
            for s in dec.summands
        ],
    }


def _submodule(mod: LeftModule, basis_cols: Mat, proj_rows: Mat) -> LeftModule:
    p, n, d, k = mod.p, mod.algebra.dim, mod.dim, basis_cols.shape[1]
    # proj_rows X_a basis_cols for every a: X_a basis_cols in one product, then proj_rows
    moved = linalg.matmul(mod.action.reshape(n * d, d), basis_cols, p).reshape(n, d, k)
    act = linalg.matmul(proj_rows, moved.transpose(1, 0, 2).reshape(d, n * k), p)
    return LeftModule(mod.algebra, act.reshape(proj_rows.shape[0], n, k).transpose(1, 0, 2), _validate=False)


def _iso_indecomposable(a: LeftModule, b: LeftModule) -> tuple[Mat, Mat] | None:
    """Iso a -> b and its inverse, between modules with local endomorphism
    rings, or None (exact).

    One ``trace_split`` on bases of Hom(a, b) and Hom(b, a): no solution
    means a is no summand of a power of b, so not isomorphic to b.  A
    solution sum_j g_j h_j = id_a has some g_j h_j invertible, since the
    non-units of the local ring End(a) form an ideal; then h_j is split
    injective, and with dim a = dim b an isomorphism.
    """
    if a.dim != b.dim:
        return None
    f = hom_space(a, b).basis
    split = trace_split(a.p, f, hom_space(b, a).basis) if len(f) else None
    if split is None:
        return None
    for h in split[1]:
        hinv = linalg.invert(h, a.p)
        if hinv is not None:
            return h, hinv
    raise InternalCheckError("no copy of a split pair between local modules is an isomorphism")


def match_classes(dm: Decomposition, dn: Decomposition):
    """Pair each class of ``dm`` with its isomorphic class in ``dn``.

    Returns a list of (summand of dm, summand of dn, isomorphism from the
    first representative to the second), or None when some class of
    ``dm`` has no isomorphic class in ``dn``.  Classes within one
    decomposition are pairwise non-isomorphic, so each match is unique.
    """
    matches = []
    for sm in dm.summands:
        for sn in dn.summands:
            pair = _iso_indecomposable(sm.module, sn.module)
            if pair is not None:
                matches.append((sm, sn, pair[0]))
                break
        else:
            return None
    return matches


def decompose(m: LeftModule, seed: int = 0) -> Decomposition:
    """Indecomposable decomposition with verified inclusion/projection data."""
    rng = random.Random(seed)
    p = m.p
    leaves = []

    def split(mod, inj, proj):
        if mod.dim == 0:
            return
        er = end_ring(mod)
        idem = find_idempotent(er, seed=rng.randrange(2**30))
        if idem is None:
            leaves.append((mod, inj, proj))
            return
        emat = er.matrix_of(idem)
        u1 = linalg.column_space_basis(emat, p)
        u2 = linalg.column_space_basis((linalg.identity(mod.dim) - emat) % p, p)
        w = np.concatenate([u1, u2], axis=1)
        winv = linalg.invert(w, p)
        if winv is None:
            raise InternalCheckError("images of e and 1-e do not span")
        k1 = u1.shape[1]
        p1, p2 = winv[:k1], winv[k1:]
        split(_submodule(mod, u1, p1), linalg.matmul(inj, u1, p), linalg.matmul(p1, proj, p))
        split(_submodule(mod, u2, p2), linalg.matmul(inj, u2, p), linalg.matmul(p2, proj, p))

    split(m, linalg.identity(m.dim), linalg.identity(m.dim))
    leaves.sort(key=lambda leaf: (leaf[0].dim, leaf[0].action.reshape(-1).tolist()))
    classes = []  # (rep_module, [(inj, proj), ...])
    for mod, inj, proj in leaves:
        placed = False
        for rep, members in classes:
            pair = _iso_indecomposable(mod, rep)
            if pair is not None:
                g, ginv = pair
                members.append((linalg.matmul(inj, ginv, p), linalg.matmul(g, proj, p)))
                placed = True
                break
        if not placed:
            classes.append((mod, [(inj, proj)]))
    summands = [
        Summand(rep, [ij for ij, _ in members], [pr for _, pr in members])
        for rep, members in classes
    ]
    return Decomposition(m, summands)


def iso(m: LeftModule, n: LeftModule, seed: int = 0):
    """An isomorphism matrix M -> N, or None (decision is exact).

    Decomposes both modules and pairs their classes with ``match_classes``:
    M and N are isomorphic exactly when that pairing is a bijection that
    keeps multiplicities (Krull-Schmidt).
    """
    if not equal_algebras(m.algebra, n.algebra):
        raise UsageError("iso between modules over different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return linalg.zeros(0, 0)
    p = m.p
    dm, dn = decompose(m, seed=seed), decompose(n, seed=seed)
    matches = match_classes(dm, dn)
    # M ~ N iff the class matching is a bijection preserving multiplicities
    if matches is None or len(matches) != len(dn.summands):
        return None
    if any(sm.multiplicity != sn.multiplicity for sm, sn, _ in matches):
        return None
    f = linalg.zeros(n.dim, m.dim)
    for sm, sn, g in matches:
        for injn, projm in zip(sn.injections, sm.projections):
            f = (f + linalg.matmul_chain(p, injn, g, projm)) % p
    if linalg.invert(f, p) is None:
        raise InternalCheckError("classwise-assembled isomorphism is singular")
    return f
