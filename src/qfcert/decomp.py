"""Indecomposable decompositions of modules over F_p-algebras.

Strategy: compute End(M) by structure constants, split off idempotents,
recurse.  The radical of the endomorphism ring comes from the trace form
(valid for p > dim End, hence the CharTooSmall guard); idempotents are
found deterministically where possible:

* commutative semisimple quotient: the dimension of the Frobenius fixed
  space {x : x^p = x} counts the field factors, so "no idempotent" answers
  are certain (never randomized);
* noncommutative semisimple quotient: an idempotent always exists and is
  built from a reducible minimal polynomial (coprime splitting) or a
  nilpotent zero divisor, falling back to seeded random sampling for the
  existence search only.

Idempotents lift through the nilpotent radical by Newton iteration
(e <- 3e^2 - 2e^3) and every lift is re-verified exactly.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg, memo, report
from .algebra import Algebra, equal_algebras
from .errors import CharTooSmall, InternalCheckError, UsageError
from .linalg import Mat
from .modrep import LeftModule, hom_space

# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian coefficient lists)


def _pnorm(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdeg(f):
    return len(f) - 1


def _psub(f, g, p):
    n = max(len(f), len(g))
    return _pnorm([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)], p)


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _pnorm(out, p)


def _pdivmod(f, g, p):
    f = list(f)
    if not g:
        raise UsageError("polynomial division by zero")
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and _pnorm(f, p):
        f = _pnorm(f, p)
        if len(f) < len(g):
            break
        c = f[-1] * inv % p
        d = len(f) - len(g)
        q[d] = c
        for i in range(len(g)):
            f[d + i] = (f[d + i] - c * g[i]) % p
        f = _pnorm(f, p)
    return _pnorm(q, p), _pnorm(f, p)


def _pgcd(f, g, p):
    f, g = _pnorm(f, p), _pnorm(g, p)
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def _pxgcd(f, g, p):
    """(d, u, v) with u f + v g = d, d monic."""
    r0, r1 = _pnorm(f, p), _pnorm(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def _ppowmod(f, e, m, p):
    out = [1]
    base = _pdivmod(f, m, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return out


def _pderiv(f, p):
    return _pnorm([i * f[i] for i in range(1, len(f))], p)


def _pth_root(f, p):
    """p-th root of f(t) = g(t^p); over F_p coefficients are fixed by Frobenius."""
    return _pnorm([f[i] for i in range(0, len(f), p)], p)


def _squarefree_decomp(f, p):
    """List of (squarefree monic factor, multiplicity)."""
    f = _pnorm(f, p)
    out = []
    if _pdeg(f) < 1:
        return out
    fp = _pderiv(f, p)
    if not fp:
        for h, m in _squarefree_decomp(_pth_root(f, p), p):
            out.append((h, m * p))
        return out
    c = _pgcd(f, fp, p)
    w = _pdivmod(f, c, p)[0]
    i = 1
    while _pdeg(w) > 0:
        y = _pgcd(w, c, p)
        z = _pdivmod(w, y, p)[0]
        if _pdeg(z) > 0:
            out.append((z, i))
        i += 1
        w = y
        c = _pdivmod(c, y, p)[0]
    if _pdeg(c) > 0:
        for h, m in _squarefree_decomp(c, p):
            out.append((h, m * p))
    return out


def _ddf(f, p):
    """Distinct-degree factorization of a squarefree monic f."""
    out = []
    h = [0, 1]  # t
    i = 1
    g = list(f)
    while _pdeg(g) >= 2 * i:
        h = _ppowmod(h, p, g, p)
        d = _pgcd(g, _psub(h, [0, 1], p), p)
        if _pdeg(d) > 0:
            out.append((d, i))
            g = _pdivmod(g, d, p)[0]
            h = _pdivmod(h, g, p)[1]
        i += 1
    if _pdeg(g) > 0:
        out.append((g, _pdeg(g)))
    return out


def _edf(f, d, p, rng):
    """Equal-degree factorization (Cantor-Zassenhaus), p odd."""
    if _pdeg(f) == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(_pdeg(f))]
        r = _pnorm(r, p)
        if _pdeg(r) < 1:
            continue
        g = _pgcd(_psub(_ppowmod(r, e, f, p), [1], p), f, p)
        if 0 < _pdeg(g) < _pdeg(f):
            rest = _pdivmod(f, g, p)[0]
            return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


def _factor_poly(f, p, rng):
    """Monic irreducible factors with multiplicities."""
    out = {}
    for g, mult in _squarefree_decomp(f, p):
        for h, d in _ddf(g, p):
            for irr in _edf(h, d, p, rng):
                key = tuple(irr)
                out[key] = out.get(key, 0) + mult
    return [(list(k), m) for k, m in sorted(out.items())]


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


def _minpoly(alg: Algebra, x: Mat):
    """Monic minimal polynomial of an element (little-endian coeffs)."""
    p = alg.p
    powers = [alg.unit.copy()]
    while True:
        mat = np.stack(powers, axis=1)
        nxt = alg.multiply(powers[-1], x)
        sol = linalg.solve_right(mat, nxt, p)
        if sol is not None:
            coeffs = [(-int(c)) % p for c in sol] + [1]
            return _pnorm(coeffs, p)
        powers.append(nxt)
        if len(powers) > alg.dim + 1:
            raise InternalCheckError("minimal polynomial search exceeded the dimension")


def _eval_poly(alg: Algebra, f, x: Mat) -> Mat:
    out = linalg.zeros(alg.dim, 1).reshape(-1)
    xpow = alg.unit.copy()
    for c in f:
        out = (out + c * xpow) % alg.p
        xpow = alg.multiply(xpow, x)
    return out


def _is_scalar(alg: Algebra, x: Mat) -> bool:
    stack = np.stack([alg.unit, x], axis=1)
    return linalg.rank(stack, alg.p) < 2


def _idem_from_element(bar: Algebra, x: Mat, rng) -> Mat | None:
    """Try to manufacture a nontrivial idempotent from F_p[x] inside bar."""
    p = bar.p
    if _is_scalar(bar, x):
        return None
    m = _minpoly(bar, x)
    factors = _factor_poly(m, p, rng)
    if len(factors) >= 2:
        a = [1]
        f0, mult0 = factors[0]
        for _ in range(mult0):
            a = _pmul(a, f0, p)
        b = _pdivmod(m, a, p)[0]
        _, u, _ = _pxgcd(a, b, p)
        e_poly = _pdivmod(_pmul(u, a, p), m, p)[1]
        e = _eval_poly(bar, e_poly, x)
        if not e.any() or np.array_equal(e, bar.unit):
            raise InternalCheckError("CRT idempotent degenerated")
        return e
    f0, mult0 = factors[0]
    if mult0 >= 2:
        # z = f0(x) is a nonzero nilpotent: its left ideal has a right
        # identity in a semisimple algebra, and that identity is a proper
        # idempotent because z is a zero divisor.
        z = _eval_poly(bar, f0, x)
        if not z.any():
            return None
        n = bar.dim
        # A z is spanned by the e_i z, the columns of x -> x z
        ideal = linalg.column_space_basis(bar.right_mult_matrix(z), p)
        r = ideal.shape[1]
        # e = ideal sol with y_j e = y_j for every column y_j of ideal
        ys = linalg.combine(ideal, bar.left_mult, p)
        system = linalg.matmul(ys.reshape(r * n, n), ideal, p)
        sol = linalg.solve_right(system, ideal.T.reshape(-1), p)
        if sol is None:
            raise InternalCheckError("left ideal of a semisimple quotient has no right identity")
        e = linalg.matmul(ideal, sol.reshape(-1, 1), p).reshape(-1)
        if not e.any() or np.array_equal(e, bar.unit):
            return None
        return e
    return None


def find_idempotent(e_alg: Algebra, seed: int = 0):
    """A nontrivial idempotent of E (coordinates), or None meaning E is local.

    None answers are certain: they arise only when E/rad(E) is F_p or a
    finite field (Frobenius fixed space of dimension 1).  Randomness is
    used only to find idempotents that provably exist.  The idempotent is
    read-only, and within a memo scope equal inputs share it.
    """
    return memo.cached("find_idempotent", _find_idempotent, e_alg, seed)


def _find_idempotent(e_alg: Algebra, seed: int):
    rng = random.Random(seed)
    p = e_alg.p
    n = e_alg.dim
    rad = radical(e_alg)
    proj, sect = linalg.row_space_quotient(rad.T, n, p)
    q = proj.shape[0]
    if q == 1:
        return None
    bar = _quotient_algebra(e_alg, proj, sect)
    commutative = np.array_equal(bar.mul, bar.mul.transpose(1, 0, 2))
    ebar = None
    if commutative:
        frob = linalg.zeros(q, q)
        for i in range(q):
            frob[:, i] = bar.power(np.eye(q, dtype=np.int64)[i], p)
        fix = linalg.nullspace((frob - linalg.identity(q)) % p, p)
        if fix.shape[1] == 1:
            return None  # a single field factor: E is local, certainly
        xbar = None
        for t in range(fix.shape[1]):
            if not _is_scalar(bar, fix[:, t]):
                xbar = fix[:, t]
                break
        if xbar is None:
            raise InternalCheckError("Frobenius fixed space of dim >= 2 is scalar")
        m = _minpoly(bar, xbar)
        # m splits into distinct linear factors iff it divides t^p - t; only
        # then may _edf run, since it never ends on a factor of higher degree
        t = _pdivmod([0, 1], m, p)[1]
        roots = []
        if _ppowmod(t, p, m, p) == t:
            roots = sorted(-g[0] % p for g in _edf(m, 1, p, rng))
        if len(roots) != _pdeg(m) or len(roots) < 2 or any(_eval_poly_scalar(m, c, p) for c in roots):
            raise InternalCheckError("fixed-space element has a non-split minimal polynomial")
        c0 = roots[0]
        e_poly = [1]
        denom = 1
        for c in roots[1:]:
            e_poly = _pmul(e_poly, [(-c) % p, 1], p)
            denom = denom * (c0 - c) % p
        e_poly = [cc * pow(denom, p - 2, p) % p for cc in e_poly]
        ebar = _eval_poly(bar, e_poly, xbar)
    else:
        # an idempotent certainly exists; sweep deterministic candidates,
        # then seeded random elements
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
            ebar = _idem_from_element(bar, x, rng)
            if ebar is not None:
                break
        if ebar is None:
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
    memo.readonly(e)
    return e


def _eval_poly_scalar(f, c, p):
    out = 0
    for coeff in reversed(f):
        out = (out * c + coeff) % p
    return out


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

        With the injections side by side in I and the projections stacked
        in P: I P = id, P I = id, and a I = I D(a) for every generator a of
        the algebra, where D(a) is block diagonal with each copy's class
        action.  So every injection is a module map, and every projection
        too, since P = I^-1 gives D(a) P = P a.  Raises InternalCheckError.
        """
        mod = self.module
        p, d = mod.p, mod.dim
        gens = mod.algebra.generators()
        g = gens.shape[0]

        def on_gens(m):
            return linalg.combine(gens.T, m.action, p)

        inj = np.concatenate([linalg.zeros(d, 0)] + [i for s in self.summands for i in s.injections], axis=1)
        proj = np.concatenate([linalg.zeros(0, d)] + [q for s in self.summands for q in s.projections], axis=0)
        if inj.shape != (d, d):
            raise InternalCheckError("decomposition: copy dimensions do not add up")
        ident = linalg.identity(d)
        if not np.array_equal(linalg.matmul(inj, proj, p), ident):
            raise InternalCheckError("decomposition: sum of inj.proj is not the identity")
        if not np.array_equal(linalg.matmul(proj, inj, p), ident):
            raise InternalCheckError("decomposition: copies are not orthogonal")
        diag = linalg.zeros(g * d, d).reshape(g, d, d)
        o = 0
        for s in self.summands:
            k, acts = s.module.dim, on_gens(s.module)
            for _ in range(s.multiplicity):
                diag[:, o : o + k, o : o + k] = acts
                o += k
        if not linalg.intertwines(inj, diag, on_gens(mod), p):
            raise InternalCheckError("decomposition: an injection is not a module map")

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


def _iso_indecomposable(a: LeftModule, b: LeftModule, rng) -> Mat | None:
    """Iso between modules with local endomorphism rings, or None (exact)."""
    if a.dim != b.dim:
        return None
    p = a.p
    hab = hom_space(a, b)
    if hab.k == 0:
        return None
    hba = hom_space(b, a)
    if hba.k == 0:
        return None
    for _ in range(12):
        f = hab.element([rng.randrange(p) for _ in range(hab.k)])
        if linalg.invert(f, p) is not None:
            return f
    # complete deterministic fallback: some g_j f_i is invertible iff a ~ b
    # (non-units in the local ring End(a) form an ideal)
    for i in range(hab.k):
        for j in range(hba.k):
            prod = linalg.matmul(hba.basis[j], hab.basis[i], p)
            if linalg.invert(prod, p) is not None:
                f = hab.basis[i]
                if linalg.invert(f, p) is None:
                    raise InternalCheckError("split injection between equal dims not invertible")
                return f
    return None


def match_classes(dm: Decomposition, dn: Decomposition, rng):
    """Pair each class of ``dm`` with its isomorphic class in ``dn``.

    Returns a list of (summand of dm, summand of dn, isomorphism from the
    first representative to the second), or None when some class of
    ``dm`` has no isomorphic class in ``dn``.  Classes within one
    decomposition are pairwise non-isomorphic, so each match is unique.
    """
    matches = []
    for sm in dm.summands:
        for sn in dn.summands:
            g = _iso_indecomposable(sm.module, sn.module, rng)
            if g is not None:
                matches.append((sm, sn, g))
                break
        else:
            return None
    return matches


def decompose(m: LeftModule, seed: int = 0) -> Decomposition:
    """Indecomposable decomposition with verified inclusion/projection data.

    Its arrays are read-only, and within a memo scope equal inputs share
    one decomposition.
    """
    return memo.cached("decompose", _decompose, m, seed)


def _decompose(m: LeftModule, seed: int) -> Decomposition:
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
            g = _iso_indecomposable(mod, rep, rng)
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
    for s in summands:
        memo.readonly(s.module.action, *s.injections, *s.projections)
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
    matches = match_classes(dm, dn, rng)
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
