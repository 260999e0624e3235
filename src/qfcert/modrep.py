"""Left modules and bimodules with explicit action matrices.

A left module over an n-dimensional algebra is an action tensor of shape
(n, d, d): ``action[i]`` is the matrix of the action of the i-th basis
element, acting on coordinate columns.  A bimodule over (R, S) stores both
one-sided action families plus the induced left module over the enveloping
algebra R (x) S^op (basis pair (i, j) at index i*dim(S)+j acts by
``left[i] @ right[j]``).

One presentation routine, ``_presentation``, serves both Hom and (x): a
module M is presented as A^k -> M -> 0, with its relations and a linear
section, on k generators found by seeded spinning (random vectors drawn
with a fixed seed, then the basis vectors, each kept when it enlarges the
submodule spanned so far), so a free module gets a basis and no
relations.  Presentations are memoized on the action tensor.
``hom_space`` solves for the generators' images, k * dim N unknowns
instead of dim N * dim M.  Every balanced tensor product M (x)_S N comes
from ``_presented_projection``: with a presentation of the right factor,
M (x)_S N is M^k modulo the image of M (x) ker, a system with dim M * k
columns instead of dim M * dim N.  Both then recover their canonical
basis with one rref of the result's reversed columns (the hom space's
nullspace basis; for ``tensor_over`` the projection that is the identity
on the non-pivot columns of the balancing relations' rref), so no basis
depends on the generators taken.  The balanced tensor carries the
projection/section pair so that callers can transport maps along the
quotient.  Triple products (M (x) M') (x) N go through the same routine
(``triple_projection``), applied to the columns to be projected: that
projection is never built.

Maps moved by an action come back to hom coordinates through one solve
(``HomSpace.action``), and a module-map law f X_a = Y_a f is checked for
every a at once by ``linalg.intertwines``.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg, memo
from .algebra import Algebra, enveloping, equal_algebras, opposite
from .errors import (
    ActionsDoNotCommute,
    InternalCheckError,
    ModuleLawViolation,
    UnitViolation,
    UsageError,
)
from .linalg import Mat

# the fixed seed of the spinning draws in ``_presentation``
_SPIN_SEED = 0


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
    lhs = linalg.matmul_pairs(action, action, p)
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
        return linalg.combine(linalg.asmat(x, self.p).reshape(-1, 1), self.action, self.p)[0]

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

    def action(self, moved: Mat) -> Mat:
        """The (n, k, m) tensor whose a-th matrix has column t the
        coordinates of ``moved[a, t]``, for an (n, m, dN, dM) stack of maps
        in this space (for m = k, the moved basis maps of an action), from
        one solve."""
        n, m = moved.shape[:2]
        flat = moved.reshape(n * m, self.target.dim, self.source.dim)
        return self.coords_batch(flat).reshape(self.k, n, m).transpose(1, 0, 2)

    def element(self, coeffs) -> Mat:
        p, dn, dm = self.source.p, self.target.dim, self.source.dim
        c = linalg.asmat(coeffs, p).reshape(1, self.k)
        return linalg.matmul(c, self.basis.reshape(self.k, dn * dm), p).reshape(dn, dm)


def hom_space(source: LeftModule, target: LeftModule) -> HomSpace:
    """All module maps M = source -> N = target, on generator images.

    With a presentation A^k -> M -> 0 on spun generators g_1..g_k
    (``_presentation``), a map is fixed by its images n_i = f(g_i), and a
    tuple (n_i) in N^k comes from a map exactly when it kills every
    relation in ker(A^k -> M): k * dim N unknowns instead of dim N * dim M.
    The relation rows are reduced in blocks, the rows kept so far plus the
    next block, so that past the presentation no system exceeds
    (dim M * dim N)^2 entries, the first step of the full system.  Each
    solution becomes a map through the section sigma,
    f = sum_(i,t) N(e_t) n_i sigma_(i,t).  The returned basis is the
    canonical nullspace basis of the intertwining system over every basis
    element (unit vectors at its free columns, completed on the pivots);
    its free columns are the pivots of the maps reduced in reversed column
    order, so one rref of the reversed maps recovers it whatever generators
    are taken, as in ``tensor_over``.  The basis is read-only, and within a
    memo scope equal inputs share it.
    """
    if not equal_algebras(source.algebra, target.algebra):
        raise UsageError("hom_space endpoints live over different algebras")
    return HomSpace(source, target, memo.cached("hom_space", _hom_basis, source, target))


def _hom_basis(source: LeftModule, target: LeftModule) -> Mat:
    p, dm, dn = source.p, source.dim, target.dim
    gens, ker, sigma = _presentation(p, source.action)
    k = gens.shape[1]
    cols, budget = k * dn, (dm * dn) ** 2
    # row (c, y) is component y of sum_(i,t) ker[(i,t), c] e_t . n_i
    total = ker.shape[1] * dn
    kept, pivots, done = linalg.zeros(0, cols), [], 0
    while done < total and len(pivots) < cols:
        take = min(total - done, budget // cols - len(pivots))
        c0, c1 = done // dn, -(-(done + take) // dn)
        rows = _push(p, target.action, ker[:, c0:c1], k).transpose(3, 0, 2, 1).reshape(-1, cols)
        block = rows[done - c0 * dn : done - c0 * dn + take]
        kept, pivots, r = linalg.rref(np.concatenate([kept, block]), p)
        kept = kept[:r]
        done += take
    sols = linalg.rref_nullspace(kept, pivots, p)[0]
    # f[y, x] = sum_(i,j) (sum_t N(e_t)[y, j] sigma[(i,t), x]) n_i[j]
    lift = _push(p, target.action, sigma, k).transpose(0, 3, 2, 1).reshape(dn * dm, cols)
    maps = linalg.matmul(lift, sols, p).T
    red, _, w = linalg.rref(maps[:, ::-1], p)
    if w != maps.shape[0]:
        raise InternalCheckError("hom space solutions give dependent maps")
    basis = np.ascontiguousarray(red[::-1, ::-1]).reshape(w, dn, dm)
    memo.readonly(basis)
    return basis


class Bimodule:
    """An (R, S)-bimodule; carrier is a left module over R (x) S^op."""

    def __init__(self, left_alg: Algebra, right_alg: Algebra, left_acts, right_acts, _validate=True):
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
        carrier_action = linalg.matmul_pairs(la, ra, p)  # left[i] @ right[j]
        if _validate:
            _validate_action(left_alg, la)
            _validate_action(opposite(right_alg), ra)
            # compatibility (a m) b = a (m b); the first mismatch in C order
            # is the reported (i, j)
            rhs = linalg.matmul_pairs(ra, la, p).transpose(1, 0, 2, 3)
            if not np.array_equal(carrier_action, rhs):
                i, j = np.argwhere(carrier_action != rhs)[0][:2]
                raise ActionsDoNotCommute(int(i), int(j))
        self.env = enveloping(left_alg, right_alg)
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
    return Bimodule(m.left_alg, m.right_alg, la, ra, _validate=False)


class BalancedTensor(Bimodule):
    """M (x)_S N as an (R, T)-bimodule, with the quotient data attached.

    ``proj``/``sect`` mediate between the full tensor space (dimension
    dim M * dim N, index i*dimN + j for e_i (x) f_j) and the chosen
    quotient basis; ``proj @ sect`` is the identity.
    """

    def __init__(self, middle, m, n, left_alg, right_alg, left_acts, right_acts, proj, sect):
        # ``tensor_over`` checked that the outer actions are well defined on
        # classes; the quotient map is onto and intertwines them, so the
        # module laws and their commutation carry over from M and N
        super().__init__(left_alg, right_alg, left_acts, right_acts, _validate=False)
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


def _presentation(p, left_acts):
    """A presentation A^k -> M -> 0 of a left module given by its action
    tensor: ``(gens, ker, sigma)``, with the k generators as the columns of
    ``gens``, ``ker`` a basis of the relations (columns in A^k, index
    i*dim A + t for e_t in slot i) and ``sigma`` a linear section.

    The generators come from seeded spinning: a few random vectors
    r_0, r_1, ... (dim M / dim A, rounded up, plus two, drawn with a fixed
    seed) and then the basis vectors e_0, e_1, ..., each kept when it lies
    outside the submodule that the ones kept before it span.  Random
    vectors generate as much as a module allows, so a free module gets a
    basis and no relations; the basis vectors behind them make sure the
    kept ones span.  One rref of the blocks [A r_0 | ... | A e_0 | ... | I]
    finds them all, since a candidate is kept exactly when its block holds
    a pivot; restricted to the kept blocks it is the presentation's rref,
    and its last columns invert the presentation on the pivots, which gives
    sigma.  Within a memo scope equal action tensors share one presentation.
    """
    return memo.cached("presentation", _spin, p, left_acts)


def _spin(p, left_acts):
    da, d = left_acts.shape[0], left_acts.shape[1]
    rng = random.Random(_SPIN_SEED)
    drawn = -(-d // da) + 2
    draws = np.array([rng.randrange(p) for _ in range(d * drawn)], dtype=np.int64).reshape(d, drawn)
    candidates = np.concatenate([draws, linalg.identity(d)], axis=1)
    n = candidates.shape[1]
    # column v*da + t is e_t . c_v for the v-th candidate c_v
    blocks = linalg.matmul(left_acts.reshape(da * d, d), candidates, p)
    blocks = blocks.reshape(da, d, n).transpose(1, 2, 0).reshape(d, n * da)
    red, pivots, _ = linalg.rref(np.concatenate([blocks, linalg.identity(d)], axis=1), p)
    if pivots and pivots[-1] >= n * da:
        raise InternalCheckError("module generators do not span the module")
    picked = list(dict.fromkeys(c // da for c in pivots))
    slot = {g: i for i, g in enumerate(picked)}
    local = [slot[c // da] * da + c % da for c in pivots]
    kept = [g * da + t for g in picked for t in range(da)]
    sigma = linalg.zeros(len(picked) * da, d)
    sigma[local] = red[:, n * da :]
    ker = linalg.rref_nullspace(red[:, kept], local, p)[0]
    gens = candidates[:, picked]
    memo.readonly(gens, ker, sigma)
    return gens, ker, sigma


def _push(p, acts, x, k):
    """Entry [y, j, i, c] is sum_t acts[t, y, j] * x[i*dim A + t, c]:
    component y of e_j . x_i (right module) or x_i . e_j (left module),
    for a matrix x whose rows are k blocks of algebra coordinates."""
    da, dm = acts.shape[0], acts.shape[1]
    w = x.shape[1]
    blocks = x.reshape(k, da, w).transpose(1, 0, 2).reshape(da, k * w)
    return linalg.matmul(acts.reshape(da, dm * dm).T, blocks, p).reshape(dm, dm, k, w)


def _presented_projection(p, m_right_acts, n_left_acts, x=None) -> Mat:
    """The projection of raw M (x) N coordinates (index j*dim N + v) onto
    M (x)_A N, from a presentation A^k -> N -> 0 of the right factor, or
    that projection applied to the columns of ``x``.

    With spun generators g_1..g_k of N, P: A^k -> N sends the i-th unit
    vector to g_i; its kernel K is a submodule and sigma is a linear
    section of P.  Then M (x)_A N is M^k modulo the image of M (x) K:
    (m_i) |-> sum m_i (x) g_i is an isomorphism onto it, inverted by
    m (x) v |-> (m . sigma(v)_i)_i, which is balanced because
    sigma(a v) - a sigma(v) lies in K.  The linear systems have dim M * k
    columns instead of dim M * dim N, none at all when N is free, and the
    kernel of the result is the balancing subspace whatever generators are
    taken.  Given ``x``, the section is pushed through the action on the
    columns of ``x`` only, so the (dim M * k) x (dim M * dim N) section
    push is never formed.
    """
    da, dm, dn = m_right_acts.shape[0], m_right_acts.shape[1], n_left_acts.shape[1]
    gens, ker, sigma = _presentation(p, n_left_acts)
    k = gens.shape[1]

    def pushed(cols):  # rows (y, i), columns (j, c)
        return _push(p, m_right_acts, cols, k).transpose(0, 2, 1, 3).reshape(dm * k, dm * cols.shape[1])

    if x is None:
        lifted = pushed(sigma)
    else:
        w = x.shape[1]
        # z[(i, t), (j, w)] = sum_c sigma[(i, t), c] x[(j, c), w]
        z = linalg.matmul(sigma, x.reshape(dm, dn, w).transpose(1, 0, 2).reshape(dn, dm * w), p)
        # row (y, i) is sum_(t, j) acts[t, y, j] z[(i, t), (j, w)]
        z = z.reshape(k, da, dm, w).transpose(1, 2, 0, 3).reshape(da * dm, k * w)
        acts = m_right_acts.transpose(1, 0, 2).reshape(dm, da * dm)
        lifted = linalg.matmul(acts, z, p).reshape(dm * k, w)
    if ker.shape[1]:
        proj_q, _ = linalg.row_space_quotient(pushed(ker).T, dm * k, p)
        lifted = linalg.matmul(proj_q, lifted, p)
    return lifted


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


def triple_projection(t: BalancedTensor, n: Bimodule, x: Mat) -> Mat:
    """The projection of raw M (x) M' (x) N coordinates onto
    (M (x) M') (x) N, applied to the columns of ``x``, for ``t`` =
    M (x) M' and a third factor ``n``: kron(t.proj, I) takes each column
    into raw t (x) N coordinates, and the presented t (x) N projection
    takes it from there.  The kernel is spanned by both balancing families,
    (M-M' relations) (x) N and M (x) (M'-N relations).  Neither the
    projection nor kron(t.proj, I) is built."""
    p = t.p
    raw = linalg.kron_apply(p, t.proj, x, n.dim, False)
    return _presented_projection(p, t.right_acts, n.left_acts, raw)


def _dual(h: HomSpace, left_alg: Algebra, right_alg: Algebra, moved_left, moved_right) -> Bimodule:
    """The dual bimodule on the basis of ``h``, from the moved basis maps:
    ``moved_left[a, t]`` is a . f_t and ``moved_right[b, t]`` is f_t . b.
    One solve gives both actions."""
    acts = h.action(np.concatenate([moved_left, moved_right]))
    out = Bimodule(left_alg, right_alg, acts[: left_alg.dim], acts[left_alg.dim :])
    out.hom_basis = h.basis
    return out


def left_dual(m: Bimodule) -> Bimodule:
    """Hom_R(M, R) for an (R, S)-bimodule M, as an (S, R)-bimodule.

    Actions: (s . f . r)(x) = f(x s) r.
    """
    r_alg, s_alg, p = m.left_alg, m.right_alg, m.p
    h = hom_space(restrict_bimodule(m, "left"), regular_left(r_alg))
    s_f = linalg.matmul_pairs(h.basis, m.right_acts, p).transpose(1, 0, 2, 3)
    return _dual(h, s_alg, r_alg, s_f, linalg.matmul_pairs(r_alg.right_mult, h.basis, p))


def right_dual(m: Bimodule) -> Bimodule:
    """Hom_S(M, S) of right-S-linear maps, as an (S, R)-bimodule.

    Actions: (s . g . r)(x) = s g(r x).
    """
    r_alg, s_alg, p = m.left_alg, m.right_alg, m.p
    h = hom_space(restrict_bimodule(m, "right"), regular_left(opposite(s_alg)))
    g_r = linalg.matmul_pairs(h.basis, m.left_acts, p).transpose(1, 0, 2, 3)
    return _dual(h, s_alg, r_alg, linalg.matmul_pairs(s_alg.left_mult, h.basis, p), g_r)


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
        p, d, n = module.p, module.dim, self.free_rank * module.algebra.dim
        acts, left_mult = module.action, module.algebra.left_mult
        total = linalg.matmul(pi_blocks.transpose(1, 0, 2).reshape(d, n), sigma_blocks.reshape(n, d), p)
        if not np.array_equal(total, linalg.identity(d)):
            raise InternalCheckError("split witness: pi . sigma is not the identity")
        # sigma_b a = a sigma_b and pi_b a = a pi_b for every block b and basis element a
        if not linalg.intertwines(sigma_blocks, acts, left_mult, p).all():
            raise InternalCheckError("split witness: sigma is not a module map")
        if not linalg.intertwines(pi_blocks, left_mult, acts, p).all():
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
    pi_blocks = m.action.transpose(2, 1, 0).copy()  # [b][:, a] = a . m_b
    # column (b, t) is pi_b f_t, flattened
    cmat = linalg.matmul_pairs(pi_blocks, h.basis, p).reshape(d * h.k, d * d).T
    sol = linalg.solve_right(cmat, linalg.vec(linalg.identity(d)), p)
    if sol is None:
        return None
    sigma_blocks = linalg.matmul(sol.reshape(d, h.k), h.basis.reshape(h.k, -1), p).reshape(d, alg.dim, d)
    return SplitWitness(m, pi_blocks, sigma_blocks)
