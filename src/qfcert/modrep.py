"""Left modules and bimodules with explicit action matrices.

A left module over an n-dimensional algebra is an action tensor of shape
(n, d, d): ``action[i]`` is the matrix of the action of the i-th basis
element, acting on coordinate columns.  A bimodule over (R, S) stores both
one-sided action families plus the induced left module over the enveloping
algebra R (x) S^op (basis pair (i, j) at index i*dim(S)+j acts by
``left[i] @ right[j]``).

Every balanced tensor product M (x)_S N comes from one routine,
``_presented_projection``: with a presentation S^k -> N -> 0 of the right
factor, M (x)_S N is M^k modulo the image of M (x) ker, a system with
dim M * k columns instead of dim M * dim N.  ``tensor_over`` then recovers
the canonical basis from that projection, the unique one that is the
identity on the non-pivot columns of the balancing relations' rref, so the
basis does not depend on the generators taken.  The returned object
carries the projection/section pair so that callers can transport maps
along the quotient.  Triple products (M (x) M') (x) N go through the same
routine (``triple_projection``).
"""

from __future__ import annotations

import numpy as np

from . import linalg, memo
from .algebra import Algebra, EnvelopingAlgebra, enveloping, equal_algebras, opposite
from .errors import (
    ActionsDoNotCommute,
    InternalCheckError,
    ModuleLawViolation,
    UnitViolation,
    UsageError,
)
from .linalg import Mat


def _validate_action(alg: Algebra, action: Mat):
    p = alg.p
    n, d = action.shape[0], action.shape[1]
    ident = linalg.identity(d)
    flat = action.reshape(n, d * d)
    u = linalg.matmul(alg.unit.reshape(1, n), flat, p).reshape(d, d)
    if not np.array_equal(u, ident):
        raise UnitViolation(int(np.nonzero((u - ident) % p)[0][0]) if d else 0)
    # action[i] @ action[j] and sum_k mul[i, j, k] action[k], for every (i, j);
    # the first mismatch in C order is the reported (i, j)
    side_by_side = action.transpose(1, 0, 2).reshape(d, n * d)
    lhs = linalg.matmul(action.reshape(n * d, d), side_by_side, p).reshape(n, d, n, d).transpose(0, 2, 1, 3)
    rhs = linalg.matmul(alg.mul.reshape(n * n, n), flat, p).reshape(n, n, d, d)
    if not np.array_equal(lhs, rhs):
        i, j = np.argwhere(lhs != rhs)[0][:2]
        raise ModuleLawViolation(int(i), int(j))


class LeftModule:
    """Finite-dimensional left module given by its action tensor."""

    def __init__(self, algebra: Algebra, action, _validate=True):
        self.algebra = algebra
        p = algebra.p
        self.action = linalg.asmat(action, p)
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim or self.action.shape[1] != self.action.shape[2]:
            raise UsageError(
                f"action tensor must be ({algebra.dim}, d, d), got {self.action.shape}"
            )
        self.dim = self.action.shape[1]
        self._memo_key = None
        if _validate:
            _validate_action(algebra, self.action)

    @property
    def p(self) -> int:
        return self.algebra.p

    def memo_key(self) -> tuple:
        """Exact memo key: the algebra's key and the action, which becomes
        read-only; built once, on first use."""
        if self._memo_key is None:
            self._memo_key = (self.algebra.memo_key(),) + memo.array_key(self.action)
        return self._memo_key

    def act(self, x) -> Mat:
        """Matrix of the action of an algebra element given by coordinates."""
        x = linalg.asmat(x, self.p).reshape(1, -1)
        d = self.dim
        return linalg.matmul(x, self.action.reshape(-1, d * d), self.p).reshape(d, d)

    def __repr__(self):
        return f"LeftModule(dim={self.dim} over dim-{self.algebra.dim} algebra, p={self.p})"


def regular_left(algebra: Algebra) -> LeftModule:
    return LeftModule(algebra, algebra.left_mult, _validate=False)


def equal_modules(m: LeftModule, n: LeftModule) -> bool:
    return equal_algebras(m.algebra, n.algebra) and np.array_equal(m.action, n.action)


def direct_sum(*modules: LeftModule):
    """Direct sum plus the block injection/projection matrices."""
    if not modules:
        raise UsageError("direct_sum needs at least one summand")
    alg = modules[0].algebra
    p = alg.p
    for m in modules[1:]:
        if not equal_algebras(m.algebra, alg):
            raise UsageError("direct_sum over mixed algebras")
    total = sum(m.dim for m in modules)
    action = linalg.zeros(alg.dim * total * total, 1).reshape(alg.dim, total, total)
    offs = []
    o = 0
    for m in modules:
        action[:, o : o + m.dim, o : o + m.dim] = m.action
        offs.append(o)
        o += m.dim
    out = LeftModule(alg, action, _validate=False)
    injs, projs = [], []
    for m, o in zip(modules, offs):
        inj = linalg.zeros(total, m.dim)
        inj[o : o + m.dim] = linalg.identity(m.dim)
        injs.append(inj)
        projs.append(inj.T.copy())
    return out, injs, projs


class HomSpace:
    """A basis of the space of module maps M -> N (matrices act on columns)."""

    def __init__(self, source: LeftModule, target: LeftModule, basis: Mat):
        self.source = source
        self.target = target
        self.basis = basis  # (k, dim N, dim M)
        self.k = basis.shape[0]

    def matrix(self) -> Mat:
        """Basis as columns of a (dimN*dimM, k) matrix of flattened maps."""
        return self.basis.reshape(self.k, self.target.dim * self.source.dim).T

    def coords(self, f: Mat):
        return linalg.solve_right(self.matrix(), linalg.vec(f), self.source.p)

    def coords_batch(self, fs: Mat) -> Mat:
        """Coordinates of a stack (m, dN, dM); columns of the result."""
        targets = fs.reshape(fs.shape[0], self.target.dim * self.source.dim).T
        sol = linalg.solve_right(self.matrix(), targets, self.source.p)
        if sol is None:
            raise InternalCheckError("map expected to lie in hom space does not")
        return sol

    def element(self, coeffs) -> Mat:
        p, dn, dm = self.source.p, self.target.dim, self.source.dim
        c = linalg.asmat(coeffs, p).reshape(1, self.k)
        return linalg.matmul(c, self.basis.reshape(self.k, dn * dm), p).reshape(dn, dm)


def hom_space(source: LeftModule, target: LeftModule) -> HomSpace:
    """All module maps source -> target, via intertwining conditions.

    Constraints are imposed for the algebra's ``generators``, one at a
    time, shrinking the solution space incrementally.  This is equivalent
    to the full system stacked over every basis element, because the
    intertwining condition is closed under sums and products and the unit
    acts as the identity.  The returned basis is the nullspace basis of
    that full system (unit vectors at its free columns, completed on the
    pivots), which depends only on the solution space, so it is the same
    for any generating set and any order.  The basis is read-only, and
    within a memo scope equal inputs share it.
    """
    if not equal_algebras(source.algebra, target.algebra):
        raise UsageError("hom_space endpoints live over different algebras")
    return HomSpace(source, target, memo.cached("hom_space", _hom_basis, source, target))


def _hom_basis(source: LeftModule, target: LeftModule) -> Mat:
    p = source.p
    dm, dn = source.dim, target.dim
    k = dn * dm
    v = linalg.identity(k)
    for x in source.algebra.generators():
        cur = v.shape[1]
        if cur == 0:
            break
        stack = v.T.reshape(cur, dn, dm)
        # f a - a f for every basis map f at once, as two exact 2-D products
        fa = linalg.matmul(stack.reshape(cur * dn, dm), source.act(x), p).reshape(cur, dn, dm)
        af = linalg.matmul(target.act(x), stack.transpose(1, 0, 2).reshape(dn, cur * dm), p)
        resid = (fa - af.reshape(dn, cur, dm).transpose(1, 0, 2)) % p
        coeffs = linalg.nullspace(resid.reshape(cur, k).T, p)
        v = linalg.matmul(v, coeffs, p)
    basis = v.T.reshape(v.shape[1], dn, dm)
    memo.readonly(basis)
    return basis


class Bimodule:
    """An (R, S)-bimodule; carrier is a left module over R (x) S^op."""

    def __init__(self, left_alg: Algebra, right_alg: Algebra, left_acts, right_acts, env=None, _validate=True):
        if left_alg.field != right_alg.field:
            raise UsageError("bimodule sides live over different fields")
        p = left_alg.p
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.left_acts = linalg.asmat(left_acts, p)
        self.right_acts = linalg.asmat(right_acts, p)
        if self.left_acts.ndim != 3 or self.left_acts.shape[0] != left_alg.dim:
            raise UsageError(f"left action tensor has shape {self.left_acts.shape}")
        if self.right_acts.ndim != 3 or self.right_acts.shape[0] != right_alg.dim:
            raise UsageError(f"right action tensor has shape {self.right_acts.shape}")
        self.dim = self.left_acts.shape[1]
        if self.right_acts.shape[1] != self.dim:
            raise UsageError("left and right actions act on different spaces")
        d, nl, nr = self.dim, left_alg.dim, right_alg.dim
        la, ra = self.left_acts, self.right_acts
        # left[i] @ right[j] for every pair (i, j), as one product
        carrier_action = linalg.matmul(la.reshape(nl * d, d), ra.transpose(1, 0, 2).reshape(d, nr * d), p)
        carrier_action = carrier_action.reshape(nl, d, nr, d).transpose(0, 2, 1, 3)
        if _validate:
            _validate_action(left_alg, la)
            _validate_action(opposite(right_alg), ra)
            # compatibility (a m) b = a (m b); the first mismatch in C order
            # is the reported (i, j)
            rhs = linalg.matmul(ra.reshape(nr * d, d), la.transpose(1, 0, 2).reshape(d, nl * d), p)
            rhs = rhs.reshape(nr, d, nl, d).transpose(2, 0, 1, 3)
            if not np.array_equal(carrier_action, rhs):
                i, j = np.argwhere(carrier_action != rhs)[0][:2]
                raise ActionsDoNotCommute(int(i), int(j))
        self.env = env if env is not None else enveloping(left_alg, right_alg)
        # module laws over the enveloping algebra follow from the three
        # validations above, so the carrier skips re-validation.
        self.carrier = LeftModule(self.env, carrier_action.reshape(nl * nr, d, d), _validate=False)

    @property
    def p(self) -> int:
        return self.left_alg.p

    def __repr__(self):
        return (
            f"Bimodule(dim={self.dim} over ({self.left_alg.dim}, {self.right_alg.dim}), p={self.p})"
        )


def bimodule_from_actions(left_alg, right_alg, left_acts, right_acts, env=None) -> Bimodule:
    return Bimodule(left_alg, right_alg, left_acts, right_acts, env=env)


def regular_bimodule(a: Algebra) -> Bimodule:
    return Bimodule(a, a, a.left_mult, a.right_mult)


def restrict_bimodule(m: Bimodule, side: str) -> LeftModule:
    """One-sided restriction.  'left': over R.  'right': over S^op."""
    if side == "left":
        return LeftModule(m.left_alg, m.left_acts, _validate=False)
    if side == "right":
        return LeftModule(opposite(m.right_alg), m.right_acts, _validate=False)
    raise UsageError(f"side must be 'left' or 'right', got {side!r}")


def as_bimodule(m: LeftModule) -> Bimodule:
    """View a left module as an (A, F_p)-bimodule (trivial right side)."""
    from .algebra import field_algebra

    k = field_algebra(m.p)
    ra = linalg.identity(m.dim).reshape(1, m.dim, m.dim)
    return Bimodule(m.algebra, k, m.action, ra)


def power_bimodule(m: Bimodule, k: int) -> Bimodule:
    """Direct sum of k copies of m."""
    d = m.dim * k
    la = linalg.zeros(m.left_alg.dim * d * d, 1).reshape(m.left_alg.dim, d, d)
    ra = linalg.zeros(m.right_alg.dim * d * d, 1).reshape(m.right_alg.dim, d, d)
    for c in range(k):
        sl = slice(c * m.dim, (c + 1) * m.dim)
        la[:, sl, sl] = m.left_acts
        ra[:, sl, sl] = m.right_acts
    return Bimodule(m.left_alg, m.right_alg, la, ra, env=m.env, _validate=False)


class BalancedTensor(Bimodule):
    """M (x)_S N as an (R, T)-bimodule, with the quotient data attached.

    ``proj``/``sect`` mediate between the full tensor space (dimension
    dim M * dim N, index i*dimN + j for e_i (x) f_j) and the chosen
    quotient basis; ``proj @ sect`` is the identity.
    """

    def __init__(self, middle, m, n, left_alg, right_alg, left_acts, right_acts, proj, sect):
        super().__init__(left_alg, right_alg, left_acts, right_acts)
        self.middle = middle
        self.factor_left = m
        self.factor_right = n
        self.proj = proj
        self.sect = sect

    def pure(self, vm, vn) -> Mat:
        """Class of the pure tensor vm (x) vn in quotient coordinates."""
        p = self.p
        w = np.kron(linalg.asmat(vm, p).reshape(-1), linalg.asmat(vn, p).reshape(-1)) % p
        return linalg.matmul(self.proj, w.reshape(-1, 1), p).reshape(-1)


def _generators(p, left_acts) -> list:
    """Greedy generators of a left module given by its action tensor: the
    basis vectors e_v, in order, outside the submodule that the earlier
    ones span.  One rref of the blocks [A e_0 | A e_1 | ...] finds them
    all, since e_v is kept exactly when block v holds a pivot."""
    da, d = left_acts.shape[0], left_acts.shape[1]
    # column v*da + t is e_t . e_v
    _, pivots, _ = linalg.rref(left_acts.transpose(1, 2, 0).reshape(d, d * da), p)
    return list(dict.fromkeys(c // da for c in pivots))


def _push(p, right_acts, x, k):
    """The vectors (m_j . x_i)_i of M^k, for every basis vector m_j of a
    right module M and every column x of a matrix whose rows are k blocks
    of algebra coordinates: entry [(y, i), (j, c)] is
    sum_t right_acts[t, y, j] * x[i*dim A + t, c]."""
    da, dm = right_acts.shape[0], right_acts.shape[1]
    w = x.shape[1]
    blocks = x.reshape(k, da, w).transpose(1, 0, 2).reshape(da, k * w)
    out = linalg.matmul(right_acts.reshape(da, dm * dm).T, blocks, p)
    return out.reshape(dm, dm, k, w).transpose(0, 2, 1, 3).reshape(dm * k, dm * w)


def _presented_projection(p, m_right_acts, n_left_acts) -> Mat:
    """The projection of raw M (x) N coordinates (index j*dim N + v) onto
    M (x)_A N, from a presentation A^k -> N -> 0 of the right factor.

    With greedy generators g_1..g_k of N, P: A^k -> N sends the i-th unit
    vector to g_i; its kernel K is a submodule and sigma is a linear
    section of P.  Then M (x)_A N is M^k modulo the image of M (x) K:
    (m_i) |-> sum m_i (x) g_i is an isomorphism onto it, inverted by
    m (x) v |-> (m . sigma(v)_i)_i, which is balanced because
    sigma(a v) - a sigma(v) lies in K.  The linear systems have dim M * k
    columns instead of dim M * dim N, and the kernel of the result is the
    balancing subspace whatever generators are taken.
    """
    da, dn = n_left_acts.shape[0], n_left_acts.shape[1]
    dm = m_right_acts.shape[1]
    gens = _generators(p, n_left_acts)
    k = len(gens)
    # column i*da + t of the presentation is e_t . g_i
    pres = n_left_acts[:, :, gens].transpose(1, 2, 0).reshape(dn, k * da)
    sigma = linalg.solve_right(pres, linalg.identity(dn), p)
    if sigma is None:
        raise InternalCheckError("module generators do not span the module")
    rel = _push(p, m_right_acts, linalg.nullspace(pres, p), k)
    proj_q, _ = linalg.row_space_quotient(rel.T, dm * k, p)
    return linalg.matmul(proj_q, _push(p, m_right_acts, sigma, k), p)


def _moved_classes(p, proj, acts, c, eye_first):
    """``proj @ kron(X, I_c)`` (or ``kron(I_c, X)`` if ``eye_first``) for
    every X in the stack ``acts``, as a (len(acts), q, dim) stack."""
    k, d, q = acts.shape[0], acts.shape[1], proj.shape[0]
    # proj @ kron(X, I) is (kron(X.T, I) @ proj.T).T, and X.T stacks by rows
    moved = linalg.kron_apply(p, acts.transpose(0, 2, 1).reshape(k * d, d), proj.T, c, eye_first)
    if eye_first:
        moved = moved.reshape(c, k, d, q).transpose(1, 0, 2, 3)
    return moved.reshape(k, d * c, q).transpose(0, 2, 1)


def tensor_over(s_alg: Algebra, m: Bimodule, n: Bimodule) -> BalancedTensor:
    """Balanced tensor product of an (R, S)- and an (S, T)-bimodule.

    The kernel comes from ``_presented_projection``; the basis is the
    canonical one, the unique projection that is the identity on the
    non-pivot columns of the balancing relations' rref.  Those columns are
    the pivots of the kernel's annihilator reduced in reversed column
    order, so one rref of the reversed presented projection recovers it.
    """
    if not (equal_algebras(m.right_alg, s_alg) and equal_algebras(n.left_alg, s_alg)):
        raise UsageError("tensor_over: middle algebra does not match the factors")
    p = s_alg.p
    dm, dn = m.dim, n.dim
    dim0 = dm * dn
    presented = _presented_projection(p, m.right_acts, n.left_acts)
    q = presented.shape[0]
    red, pivots, _ = linalg.rref(presented[:, ::-1], p)
    proj = np.ascontiguousarray(red[::-1, ::-1])
    free = [dim0 - 1 - c for c in reversed(pivots)]
    sect = linalg.zeros(dim0, q)
    sect[free, range(q)] = 1
    # an outer action is well defined on classes when proj X = (proj X sect) proj
    induced = []
    for acts, c, eye_first in ((m.left_acts, dn, False), (n.right_acts, dm, True)):
        moved = _moved_classes(p, proj, acts, c, eye_first)
        on_classes = moved[:, :, free]
        k = acts.shape[0]
        lifted = linalg.matmul(on_classes.reshape(k * q, q), proj, p)
        if not np.array_equal(lifted, moved.reshape(k * q, dim0)):
            raise InternalCheckError("balanced tensor action not well-defined")
        induced.append(on_classes)
    return BalancedTensor(s_alg, m, n, m.left_alg, n.right_alg, induced[0], induced[1], proj, sect)


def triple_projection(t: BalancedTensor, n: Bimodule) -> Mat:
    """The projection of raw M (x) M' (x) N coordinates onto
    (M (x) M') (x) N for ``t`` = M (x) M' and a third factor ``n``: the
    presented ``t`` (x) N projection after kron(t.proj, I).  Its kernel is
    spanned by both balancing families, (M-M' relations) (x) N and
    M (x) (M'-N relations)."""
    p = t.p
    presented = _presented_projection(p, t.right_acts, n.left_acts)
    # presented @ kron(t.proj, I) is (kron(t.proj.T, I) @ presented.T).T
    return linalg.kron_apply(p, t.proj.T, presented.T, n.dim, False).T


def left_dual(m: Bimodule) -> Bimodule:
    """Hom_R(M, R) for an (R, S)-bimodule M, as an (S, R)-bimodule.

    Actions: (s . f . r)(x) = f(x s) r.
    """
    r_alg, s_alg = m.left_alg, m.right_alg
    p = m.p
    h = hom_space(restrict_bimodule(m, "left"), regular_left(r_alg))
    k = h.k
    la = linalg.zeros(s_alg.dim * k * k, 1).reshape(s_alg.dim, k, k)
    for s in range(s_alg.dim):
        transformed = np.matmul(h.basis, m.right_acts[s]) % p
        la[s] = h.coords_batch(transformed)
    ra = linalg.zeros(r_alg.dim * k * k, 1).reshape(r_alg.dim, k, k)
    for r in range(r_alg.dim):
        transformed = np.matmul(r_alg.right_mult[r], h.basis) % p
        ra[r] = h.coords_batch(transformed)
    out = Bimodule(s_alg, r_alg, la, ra)
    out.hom_basis = h.basis
    return out


def right_dual(m: Bimodule) -> Bimodule:
    """Hom_S(M, S) of right-S-linear maps, as an (S, R)-bimodule.

    Actions: (s . g . r)(x) = s g(r x).
    """
    r_alg, s_alg = m.left_alg, m.right_alg
    p = m.p
    h = hom_space(restrict_bimodule(m, "right"), regular_left(opposite(s_alg)))
    k = h.k
    la = linalg.zeros(s_alg.dim * k * k, 1).reshape(s_alg.dim, k, k)
    for s in range(s_alg.dim):
        transformed = np.matmul(s_alg.left_mult[s], h.basis) % p
        la[s] = h.coords_batch(transformed)
    ra = linalg.zeros(r_alg.dim * k * k, 1).reshape(r_alg.dim, k, k)
    for r in range(r_alg.dim):
        transformed = np.matmul(h.basis, m.left_acts[r]) % p
        ra[r] = h.coords_batch(transformed)
    out = Bimodule(s_alg, r_alg, la, ra)
    out.hom_basis = h.basis
    return out


class SplitWitness:
    """Certificate that M is a direct summand of a finite free module.

    ``pi_blocks[b]`` is the b-th block of the projection A^d -> M (a
    (dim M, dim A) matrix, sending a |-> a . m_b for the b-th generator);
    ``sigma_blocks[b]`` is the b-th block of an A-linear section.  The
    defining identities are re-checked on construction.
    """

    def __init__(self, module: LeftModule, pi_blocks: Mat, sigma_blocks: Mat):
        self.module = module
        self.pi_blocks = pi_blocks
        self.sigma_blocks = sigma_blocks
        self.free_rank = pi_blocks.shape[0]
        p = module.p
        d = module.dim
        alg = module.algebra
        total = linalg.zeros(d, d)
        for b in range(self.free_rank):
            total = (total + linalg.matmul(pi_blocks[b], sigma_blocks[b], p)) % p
        if not np.array_equal(total, linalg.identity(d)):
            raise InternalCheckError("split witness: pi . sigma is not the identity")
        for b in range(self.free_rank):
            lhs = np.matmul(sigma_blocks[b], module.action) % p
            rhs = np.matmul(alg.left_mult, sigma_blocks[b]) % p
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError("split witness: sigma is not a module map")
            lhs = np.matmul(pi_blocks[b], alg.left_mult) % p
            rhs = np.matmul(module.action, pi_blocks[b]) % p
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError("split witness: pi is not a module map")


def is_fg_projective(m: LeftModule):
    """Split witness exhibiting M as a summand of A^dim(M), or None.

    The generators are the basis vectors of M; a section is searched for
    inside Hom_A(M, A)^dim(M) by one exact linear solve, so a None answer
    is a proof of non-projectivity (over these generators, hence over any:
    the regular cover by all basis vectors is surjective).
    """
    alg = m.algebra
    p = m.p
    d = m.dim
    if d == 0:
        return SplitWitness(m, np.zeros((0, 0, alg.dim), dtype=np.int64), np.zeros((0, alg.dim, 0), dtype=np.int64))
    h = hom_space(m, regular_left(alg))
    if h.k == 0:
        return None
    pi_blocks = np.stack([m.action[:, :, b].T for b in range(d)]) % p
    cols = []
    for b in range(d):
        prods = np.matmul(pi_blocks[b], h.basis) % p  # (k, d, d)
        cols.append(prods.reshape(h.k, d * d).T)
    cmat = np.concatenate(cols, axis=1)
    sol = linalg.solve_right(cmat, linalg.vec(linalg.identity(d)), p)
    if sol is None:
        return None
    coeffs = sol.reshape(d, h.k)
    sigma_blocks = np.einsum("bt,tnd->bnd", coeffs, h.basis) % p
    return SplitWitness(m, pi_blocks, sigma_blocks)
