"""Indecomposable decompositions of modules over F_p-algebras.

Strategy: compute End(M) by structure constants, split off idempotents,
recurse.  The radical of the endomorphism ring comes from the trace form
(valid for p > dim End, hence the CharTooSmall guard).  Idempotents of the
semisimple quotient B come from linear algebra and powering alone:

* commutative B: the Frobenius fixed space {x : x^p = x} is F_p^s, one
  coordinate per field factor, so s = 1 answers "no idempotent" with
  certainty (never randomized).  Otherwise, for a seeded random a in it,
  b = a^((p-1)/2) is 0 or +-1 on each factor, and (b^2 + b)/2 is the
  idempotent that is 1 where a is a nonzero square; at most 64 draws;
* noncommutative B: an idempotent always exists.  Candidates x (basis
  vectors, their sums and products, then seeded random elements) are
  tried until the commutative subalgebra F_p[x] splits, by the rule above.

Idempotents lift through the nilpotent radical by Newton iteration
(e <- 3e^2 - 2e^3) and every lift is re-verified exactly.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg, report
from .algebra import Algebra, equal_algebras
from .errors import CharTooSmall, InternalCheckError, UsageError
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


def radical(e_alg: Algebra) -> Mat:
    """Basis (as columns) of the Jacobson radical, via the trace form.

    Requires p > dim E; the kernel of the trace form always contains the
    radical, and is equal to it exactly when nilpotent, which is verified
    by explicit powering (so a returned answer is unconditionally right).
    """
    p = e_alg.p
    n = e_alg.dim
    if p <= n:
        raise CharTooSmall(p, n)
    tracevec = np.trace(e_alg.left_mult, axis1=1, axis2=2) % p
    tform = linalg.matmul(e_alg.mul.reshape(n * n, n), tracevec.reshape(n, 1), p).reshape(n, n)
    ker = linalg.nullspace(tform, p)
    power = ker
    for _ in range(n + 1):
        if power.shape[1] == 0:
            break
        # column (a, c) is power_a ker_c
        left_by = linalg.matmul(power.T, e_alg.left_mult.reshape(n, n * n), p)
        prods = linalg.matmul(left_by.reshape(-1, n), ker, p).reshape(power.shape[1], n, -1)
        power = linalg.column_space_basis(prods.transpose(1, 0, 2).reshape(n, -1), p)
    if power.shape[1] != 0:
        raise InternalCheckError("trace-form kernel failed the nilpotency check")
    return ker


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


def _split_commutative(bar: Algebra, rng) -> Mat | None:
    """A nontrivial idempotent of a commutative semisimple algebra, or None
    when it is a field, by the fixed-space rule of the module docstring.

    A draw fails when a is a nonzero square on every factor or on none,
    with probability at most 5/9 (two factors, p = 3).
    """
    p, q = bar.p, bar.dim
    frob = linalg.zeros(q, q)
    for i in range(q):
        frob[:, i] = bar.power(np.eye(q, dtype=np.int64)[i], p)
    fix = linalg.nullspace((frob - linalg.identity(q)) % p, p)
    if fix.shape[1] == 1:
        return None
    half = (p + 1) // 2
    for _ in range(64):
        c = np.array([[rng.randrange(p)] for _ in range(fix.shape[1])], dtype=np.int64)
        b = bar.power(linalg.matmul(fix, c, p).reshape(-1), (p - 1) // 2)
        e = (bar.multiply(b, b) + b) % p * half % p
        if e.any() and not np.array_equal(e, bar.unit):
            return e
    raise InternalCheckError("64 draws from the Frobenius fixed space gave no idempotent")


def find_idempotent(e_alg: Algebra, seed: int = 0):
    """A nontrivial idempotent of E (coordinates), or None meaning E is local.

    None answers are certain: they arise only when E/rad(E) is F_p or a
    finite field (Frobenius fixed space of dimension 1).  Randomness is
    used only to find idempotents that provably exist: a random element a
    of the fixed space gives the idempotent (b^2 + b)/2 with
    b = a^((p-1)/2), at most 64 draws; a noncommutative quotient is split
    through the commutative subalgebra F_p[x] of a candidate x.
    """
    rng = random.Random(seed)
    p = e_alg.p
    n = e_alg.dim
    rad = radical(e_alg)
    proj, sect = linalg.row_space_quotient(rad.T, n, p)
    q = proj.shape[0]
    if q == 1:
        return None
    bar = _quotient_algebra(e_alg, proj, sect)
    if np.array_equal(bar.mul, bar.mul.transpose(1, 0, 2)):
        ebar = _split_commutative(bar, rng)
        if ebar is None:
            return None  # a single field factor: E is local, certainly
    else:
        # an idempotent certainly exists, and F_p[e] = F_p x F_p holds one;
        # sweep deterministic candidates x, then seeded random ones, for an
        # x whose commutative F_p[x] splits
        def candidates():
            eye = np.eye(q, dtype=np.int64)
            for i in range(q):
                yield eye[i]
            for i in range(q):
                for j in range(i + 1, q):
                    yield (eye[i] + eye[j]) % p
            for i in range(q):
                for j in range(q):
                    yield bar.multiply(eye[i], eye[j])
            for _ in range(500):
                yield np.array([rng.randrange(p) for _ in range(q)], dtype=np.int64)

        for x in candidates():
            sub, basis = _generated_subalgebra(bar, x)
            esub = find_idempotent(sub, rng.randrange(2**30))
            if esub is not None:
                ebar = linalg.matmul(basis, esub.reshape(-1, 1), p).reshape(-1)
                break
        else:
            raise InternalCheckError("noncommutative semisimple quotient: idempotent search exhausted")
    # sanity in the quotient, then lift through the radical
    if not np.array_equal(bar.multiply(ebar, ebar), ebar):
        raise InternalCheckError("candidate is not idempotent in the quotient")
    e = linalg.matmul(sect, ebar.reshape(-1, 1), p).reshape(-1)
    steps = max(1, int(np.ceil(np.log2(max(2, n)))) + 1)
    for _ in range(steps):
        e2 = e_alg.multiply(e, e)
        e3 = e_alg.multiply(e2, e)
        e = (3 * e2 - 2 * e3) % p
    if not np.array_equal(e_alg.multiply(e, e), e):
        raise InternalCheckError("idempotent lift failed to converge")
    if not e.any() or np.array_equal(e, e_alg.unit):
        raise InternalCheckError("idempotent lift degenerated to 0 or 1")
    return e


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


def _iso_indecomposable(a: LeftModule, b: LeftModule) -> Mat | None:
    """Iso a -> b between modules with local endomorphism rings, or None (exact).

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
        if linalg.invert(h, a.p) is not None:
            return h
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
            g = _iso_indecomposable(sm.module, sn.module)
            if g is not None:
                matches.append((sm, sn, g))
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
            g = _iso_indecomposable(mod, rep)
            if g is not None:
                ginv = linalg.invert(g, p)
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
    """An isomorphism matrix M -> N, or None (decision is exact)."""
    if not equal_algebras(m.algebra, n.algebra):
        raise UsageError("iso between modules over different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return linalg.zeros(0, 0)
    p = m.p
    h = hom_space(m, n)
    if h.k == 0:
        return None
    rng = random.Random(seed)
    for _ in range(20):
        f = h.element([rng.randrange(p) for _ in range(h.k)])
        if linalg.invert(f, p) is not None:
            return f
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
