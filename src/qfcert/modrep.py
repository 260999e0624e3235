"""Left modules and bimodules with explicit action matrices.

A left module over an n-dimensional algebra is an action tensor of shape
(n, d, d): ``action[i]`` is the matrix of the action of the i-th basis
element, acting on coordinate columns.  A bimodule over (R, S) stores its
two one-sided action families and nothing else.  Its bimodule maps are the
module maps over R (x) S^op, so ``bimodule_homs`` solves for them on the
action tensor ``_pair_products`` (basis pair (i, j) at index i*dim(S)+j acts
by ``left[i] @ right[j]``) with no algebra built; only ``decompose`` and
``iso`` read a bimodule over the enveloping algebra itself, through
``envelope_module``.

One presentation serves Hom, (x) and projectivity: ``_presentation``
presents a module M as A^k -> M -> 0, with its relations and a linear
section, on k generators found by seeded spinning (random vectors drawn
with a fixed seed, then, only if those do not span, the basis vectors,
each kept when it enlarges the submodule spanned so far); a free module
can still get relations (``_presentation``).  Presentations are memoized
on the action tensor.
``is_fg_projective`` splits that cover A^k -> M, memoized on the algebra
and the action tensor.  Every split pair the provers build comes from one
solve, ``trace_split`` (division, projectivity, isomorphism of
indecomposables), memoized on its two stacks of maps, and passes one
check, ``split_pair_reasons``, which names failures as the verifier does.
A module's laws are checked once per algebra and action tensor in a memo
scope, so a dual that several decisions build is validated once.
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

Maps moved by an action come back to hom coordinates with no solve
(``HomSpace.action``): the hom basis is reduced, so a map's coordinates
are its entries at the basis' leads, checked by one product.  A module-map
law f X_a = Y_a f is checked for every a at once by ``linalg.intertwines``.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg, memo
from .algebra import Algebra, enveloping, equal_algebras, field_algebra, opposite
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
    """The unit and associativity laws of an action tensor, or the first
    violation raised; within a memo scope equal algebras and action
    tensors are checked once (the keyed action becomes read-only)."""
    memo.cached("module_laws", _module_laws, alg, action)


def _module_laws(alg: Algebra, action: Mat):
    p = alg.p
    n, d = action.shape[0], action.shape[1]
    ident = linalg.identity(d)
    flat = action.reshape(n, d * d)
    u = linalg.matmul(alg.unit.reshape(1, n), flat, p).reshape(d, d)
    if not np.array_equal(u, ident):
        raise UnitViolation(int(np.nonzero((u - ident) % p)[1][0]))
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
        if _validate:
            _validate_action(algebra, self.action)

    @property
    def p(self) -> int:
        return self.algebra.p

    def __repr__(self):
        return f"LeftModule(dim={self.dim} over dim-{self.algebra.dim} algebra, p={self.p})"


def regular_left(algebra: Algebra) -> LeftModule:
    return LeftModule(algebra, algebra.left_mult, _validate=False)


class HomSpace:
    """A basis of the space of module maps M -> N (matrices act on columns)."""

    def __init__(self, source: LeftModule, target: LeftModule, basis: Mat):
        self.source = source
        self.target = target
        self.basis = basis  # (k, dim N, dim M)
        self.k = basis.shape[0]
        # a reduced basis: each map is 1 at its last nonzero entry, its lead,
        # and the only basis map nonzero there
        flat = basis.reshape(self.k, target.dim * source.dim)
        self._leads = np.where(flat != 0, np.arange(flat.shape[1]), -1).max(axis=1, initial=-1)

    def coords(self, f: Mat):
        try:
            return self.coords_batch(f[None])[:, 0]
        except InternalCheckError:
            return None

    def coords_batch(self, fs: Mat) -> Mat:
        """Coordinates of a stack (m, dN, dM), as the columns of the result:
        read at the basis' leads, then checked by one product."""
        p, size = self.source.p, self.target.dim * self.source.dim
        flat = linalg.asmat(fs, p).reshape(fs.shape[0], size)
        c = flat[:, self._leads]
        if not np.array_equal(linalg.matmul(c, self.basis.reshape(self.k, size), p), flat):
            raise InternalCheckError("map expected to lie in hom space does not")
        return c.T

    def action(self, moved: Mat) -> Mat:
        """The (n, k, m) tensor whose a-th matrix has column t the
        coordinates of ``moved[a, t]``, for an (n, m, dN, dM) stack of maps
        in this space (for m = k, the moved basis maps of an action), read
        by ``coords_batch``."""
        n, m = moved.shape[:2]
        flat = moved.reshape(n * m, self.target.dim, self.source.dim)
        return self.coords_batch(flat).reshape(self.k, n, m).transpose(1, 0, 2)

    def precomposed(self, stack: Mat) -> Mat:
        """The action (s . h)(x) = h(x s) on this space of an algebra that
        acts on the source through ``stack`` (one map per basis element, such
        as its right multiplications), as ``action`` returns it."""
        return self.action(_precompose(self.basis, stack, self.source.p))


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
    are taken, as in ``tensor_over``.  The basis depends on p and the two
    action tensors alone; it is read-only, and within a memo scope equal
    action tensors share it.
    """
    if not equal_algebras(source.algebra, target.algebra):
        raise UsageError("hom_space endpoints live over different algebras")
    return HomSpace(source, target, memo.cached("hom_space", _hom_basis, source.p, source.action, target.action))


def _hom_basis(p, source_acts: Mat, target_acts: Mat) -> Mat:
    dm, dn = source_acts.shape[1], target_acts.shape[1]
    gens, ker, sigma = _presentation(p, source_acts)
    k = gens.shape[1]
    cols, budget = k * dn, (dm * dn) ** 2
    # row (c, y) is component y of sum_(i,t) ker[(i,t), c] e_t . n_i
    total = ker.shape[1] * dn
    kept, pivots, done = linalg.zeros(0, cols), [], 0
    while done < total and len(pivots) < cols:
        take = min(total - done, budget // cols - len(pivots))
        c0, c1 = done // dn, -(-(done + take) // dn)
        rows = _push(p, target_acts, ker[:, c0:c1], k).transpose(3, 0, 2, 1).reshape(-1, cols)
        block = rows[done - c0 * dn : done - c0 * dn + take]
        kept, pivots, r = linalg.rref(np.concatenate([kept, block]), p)
        kept = kept[:r]
        done += take
    sols = linalg.rref_nullspace(kept, pivots, p)[0]
    # f[y, x] = sum_(i,j) (sum_t N(e_t)[y, j] sigma[(i,t), x]) n_i[j]
    lift = _push(p, target_acts, sigma, k).transpose(0, 3, 2, 1).reshape(dn * dm, cols)
    maps = linalg.matmul(lift, sols, p).T
    red, _, w = linalg.rref(maps[:, ::-1], p)
    if w != maps.shape[0]:
        raise InternalCheckError("hom space solutions give dependent maps")
    basis = np.ascontiguousarray(red[::-1, ::-1]).reshape(w, dn, dm)
    memo.readonly(basis)
    return basis


class Bimodule:
    """An (R, S)-bimodule: its two algebras and its two action tensors."""

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
        if _validate:
            la, ra = self.left_acts, self.right_acts
            _validate_action(left_alg, la)
            _validate_action(opposite(right_alg), ra)
            # compatibility (a m) b = a (m b); the first mismatch in C order
            # is the reported (i, j)
            lhs = linalg.matmul_pairs(la, ra, p)
            rhs = linalg.matmul_pairs(ra, la, p).transpose(1, 0, 2, 3)
            if not np.array_equal(lhs, rhs):
                i, j = np.argwhere(lhs != rhs)[0][:2]
                raise ActionsDoNotCommute(int(i), int(j))

    @property
    def p(self) -> int:
        return self.left_alg.p

    def __repr__(self):
        return (
            f"Bimodule(dim={self.dim} over ({self.left_alg.dim}, {self.right_alg.dim}), p={self.p})"
        )


def _pair_products(m: Bimodule) -> Mat:
    """M's action tensor over R (x) S^op: basis pair (i, j), at index
    i*dim(S)+j, acts by ``left[i] @ right[j]``."""
    d, nl, nr = m.dim, m.left_alg.dim, m.right_alg.dim
    return linalg.matmul_pairs(m.left_acts, m.right_acts, m.p).reshape(nl * nr, d, d)


def envelope_module(m: Bimodule) -> LeftModule:
    """M as a left module over R (x) S^op, acting through ``_pair_products``.
    Its module laws follow from the bimodule's, so it is not re-validated."""
    return LeftModule(enveloping(m.left_alg, m.right_alg), _pair_products(m), _validate=False)


def bimodule_homs(m: Bimodule, n: Bimodule):
    """Bases of the bimodule maps M -> N and N -> M, stacked as in
    ``hom_space``: its solve and memo on each bimodule's ``_pair_products``."""
    p, pm, pn = m.p, _pair_products(m), _pair_products(n)
    return memo.cached("hom_space", _hom_basis, p, pm, pn), memo.cached("hom_space", _hom_basis, p, pn, pm)


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
    k = field_algebra(m.p)
    ra = linalg.identity(m.dim).reshape(1, m.dim, m.dim)
    return Bimodule(m.algebra, k, m.action, ra)


class BalancedTensor(Bimodule):
    """M (x)_S N as an (R, T)-bimodule, with the quotient data attached.

    ``proj``/``sect`` mediate between the full tensor space (dimension
    dim M * dim N, index i*dimN + j for e_i (x) f_j) and the chosen
    quotient basis; ``proj @ sect`` is the identity.
    """

    def __init__(self, left_alg, right_alg, left_acts, right_acts, proj, sect):
        # ``tensor_over`` checked that the outer actions are well defined on
        # classes; the quotient map is onto and intertwines them, so the
        # module laws and their commutation carry over from M and N
        super().__init__(left_alg, right_alg, left_acts, right_acts, _validate=False)
        self.proj = proj
        self.sect = sect


def _presentation(p, left_acts):
    """A presentation A^k -> M -> 0 of a left module given by its action
    tensor: ``(gens, ker, sigma)``, with the k generators as the columns of
    ``gens``, ``ker`` a basis of the relations (columns in A^k, index
    i*dim A + t for e_t in slot i) and ``sigma`` a linear section.

    The generators come from seeded spinning: a few random vectors
    r_0, r_1, ... (dim M / dim A, rounded up, plus two, drawn with a fixed
    seed) and then the basis vectors e_0, e_1, ..., each kept when it lies
    outside the submodule that the ones kept before it span.  The basis
    vectors behind the random ones make sure the kept ones span M; that,
    and no kept one lying in the span of those before it, is all the
    spinning guarantees.  A free module can get relations: when the first
    draw is a zero divisor a second one is kept too, so the regular F_5[C2]
    and M2(F_5) modules get 2 generators, with 2 and 4 relations.  One
    rref of the blocks [A r_0 | ... | I] finds them, since a candidate is
    kept exactly when its block holds a pivot; only when the drawn ones do
    not span M (a pivot falls in I) is [A r_0 | ... | A e_0 | ... | I]
    reduced instead.  Restricted to the kept blocks it is the
    presentation's rref, and its last columns invert the presentation on
    the pivots, which gives sigma.  Within a memo scope equal action
    tensors share one presentation.
    """
    return memo.cached("presentation", _spin, p, left_acts)


def _spin(p, left_acts):
    da, d = left_acts.shape[0], left_acts.shape[1]
    rng = random.Random(_SPIN_SEED)
    drawn = -(-d // da) + 2
    draws = np.array([rng.randrange(p) for _ in range(d * drawn)], dtype=np.int64).reshape(d, drawn)
    # the basis vectors join the candidates only when the drawn ones do not span M
    for candidates in (draws, np.concatenate([draws, linalg.identity(d)], axis=1)):
        n = candidates.shape[1]
        # column v*da + t is e_t . c_v for the v-th candidate c_v
        blocks = linalg.matmul(left_acts.reshape(da * d, d), candidates, p)
        blocks = blocks.reshape(da, d, n).transpose(1, 2, 0).reshape(d, n * da)
        red, pivots, _ = linalg.rref(np.concatenate([blocks, linalg.identity(d)], axis=1), p)
        if not pivots or pivots[-1] < n * da:
            break
    else:
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
    return BalancedTensor(m.left_alg, n.right_alg, induced[0], induced[1], proj, sect)


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


def _precompose(basis, stack, p) -> Mat:
    """``moved[a, t]`` is the basis map f_t after ``stack[a]``: f_t(stack[a] x)."""
    return linalg.matmul_pairs(basis, stack, p).transpose(1, 0, 2, 3)


def _dual(h: HomSpace, left_alg: Algebra, right_alg: Algebra, moved_left, moved_right) -> Bimodule:
    """The dual bimodule on the basis of ``h``, from the moved basis maps:
    ``moved_left[a, t]`` is a . f_t and ``moved_right[b, t]`` is f_t . b.
    One solve gives both actions."""
    acts = h.action(np.concatenate([moved_left, moved_right]))
    return Bimodule(left_alg, right_alg, acts[: left_alg.dim], acts[left_alg.dim :])


def left_dual(m: Bimodule) -> Bimodule:
    """Hom_R(M, R) for an (R, S)-bimodule M, as an (S, R)-bimodule.

    Actions: (s . f . r)(x) = f(x s) r.
    """
    r_alg, s_alg, p = m.left_alg, m.right_alg, m.p
    h = hom_space(restrict_bimodule(m, "left"), regular_left(r_alg))
    s_f = _precompose(h.basis, m.right_acts, p)
    return _dual(h, s_alg, r_alg, s_f, linalg.matmul_pairs(r_alg.right_mult, h.basis, p))


def right_dual(m: Bimodule) -> Bimodule:
    """Hom_S(M, S) of right-S-linear maps, as an (S, R)-bimodule.

    Actions: (s . g . r)(x) = s g(r x).
    """
    r_alg, s_alg, p = m.left_alg, m.right_alg, m.p
    h = hom_space(restrict_bimodule(m, "right"), regular_left(opposite(s_alg)))
    g_r = _precompose(h.basis, m.left_acts, p)
    return _dual(h, s_alg, r_alg, linalg.matmul_pairs(s_alg.left_mult, h.basis, p), g_r)


def trace_split(p, f: Mat, g: Mat):
    """A split pair through copies of X, from one solve in the trace ideal;
    memoized on p and the two stacks (both become read-only).

    For maps f_i: M -> X and g_j: X -> M, stacked (a, dim X, dim M) and
    (b, dim M, dim X), one solve of sum c_ji g_j f_i = id_M gives
    h_j = sum_i c_ji f_i with sum_j g_j h_j = id_M.  Returns ``(kept, h)``:
    the indices j whose composite g_j h_j is nonzero and their h_j stacked,
    so no copy adds nothing to the sum; or None when there is no solution.
    When the f_i span Hom(M, X) and the g_j are module maps, None proves
    that M is no summand of a power of X (Auslander, Reiten and Smalo,
    Representation Theory of Artin Algebras, 1995, on trace ideals).
    """
    return memo.cached("trace_split", _trace_split, p, f, g)


def _trace_split(p, f: Mat, g: Mat):
    a, b, dx, dm = len(f), len(g), f.shape[1], f.shape[2]
    # column j*a + i is vec(g_j f_i)
    prods = linalg.matmul_pairs(g, f, p).reshape(b * a, dm * dm).T
    c = linalg.solve_right(prods, linalg.vec(linalg.identity(dm)), p)
    if c is None:
        return None
    # the solution is nonzero only at pivot columns, which are independent,
    # so g_j h_j = sum_i c_ji g_j f_i is nonzero exactly when some c_ji is
    kept = np.flatnonzero(c.reshape(b, a).any(axis=1))
    h = linalg.matmul(c.reshape(b, a)[kept], f.reshape(a, dx * dm), p).reshape(len(kept), dx, dm)
    memo.readonly(kept, h)
    return kept, h


def split_pair_reasons(p, d, classes, families, names) -> list:
    """Why copies fail to split a d-dimensional M, or [] when they do: the
    verifier's reasons, with its copy numbering, for sum_c back_c . into_c
    = id_M and both maps of every copy intertwining every action family.

    ``classes`` lists (intos, backs, targets): an (m, dim X, d) stack of
    maps into m copies of one X, the (m, d, dim X) stack of maps back, and
    the stacks of X, one per family; ``families`` lists (label, stack on
    M) and ``names`` the (into, back) names the reasons quote.  One
    ``linalg.intertwines`` per class, family and direction; the reasons
    are written only on a failure.
    """
    answers, shares = [], []
    for intos, backs, targets in classes:
        # per family, one answer per copy for the into maps, then for the back maps
        for (_, acts), t in zip(families, targets):
            answers += linalg.intertwines(intos, acts, t, p), linalg.intertwines(backs, t, acts, p)
        # the class's share of the sum: its back maps side by side times its into maps stacked
        m, dx = intos.shape[0], intos.shape[1]
        shares.append(linalg.matmul(backs.transpose(1, 0, 2).reshape(d, m * dx), intos.reshape(m * dx, d), p))
    total = shares[0] if len(shares) == 1 else sum(shares, linalg.zeros(d, d)) % p
    summed = (total == linalg.identity(d)).all()
    # builtin all: a few copies are read faster one by one than by a numpy reduction
    if summed and all(map(all, answers)):
        return []
    into_name, back_name = names
    reasons, n, found = [], 0, iter(answers)
    for intos, _, _ in classes:
        checks = [(label, next(found), next(found)) for label, _ in families]
        for c in range(len(intos)):
            for label, into_ok, back_ok in checks:
                if not into_ok[c]:
                    reasons.append(f"{into_name} block {n} is not {label}-equivariant")
                if not back_ok[c]:
                    reasons.append(f"{back_name} block {n} is not {label}-equivariant")
            n += 1
    if not summed:
        reasons.append(f"sum of {back_name} . {into_name} is not the identity")
    return reasons


class SplitWitness:
    """Certificate that M is a direct summand of a finite free module A^k.

    ``pi_blocks[b]`` is the b-th block of the projection A^k -> M (a
    (dim M, dim A) matrix, sending a |-> a . g_b for the b-th generator);
    ``sigma_blocks[b]`` is the b-th block of an A-linear section.  The
    defining identities, the full pi . sigma = id and both module-map laws,
    are re-checked on construction by ``split_pair_reasons``.
    """

    def __init__(self, module: LeftModule, pi_blocks: Mat, sigma_blocks: Mat):
        self.module = module
        self.pi_blocks = pi_blocks
        self.sigma_blocks = sigma_blocks
        self.free_rank = pi_blocks.shape[0]
        # a memoized answer: no caller may write into a later hit
        memo.readonly(pi_blocks, sigma_blocks)
        reasons = split_pair_reasons(
            module.p, module.dim, [(sigma_blocks, pi_blocks, (module.algebra.left_mult,))],
            [("A", module.action)], ("sigma", "pi"),
        )
        if reasons:
            raise InternalCheckError("split witness: " + "; ".join(reasons))


def is_fg_projective(m: LeftModule):
    """Split witness exhibiting M as a summand of A^k, or None.

    The cover is P: A^k -> M on the k spun generators g_b of
    ``_presentation``, pi_b: a |-> a . g_b.  By the dual basis lemma M is
    projective exactly when P splits, so None proves non-projectivity.  A
    section is a tuple sigma_b in Hom(M, A) with sum_b pi_b sigma_b = id_M,
    so one ``trace_split`` on a basis of Hom(M, A), the hom space the dual
    is built on, finds one or proves there is none, with at most one block
    per generator.  A cover without relations is an isomorphism, inverted
    by the presentation's section: no system at all.  Within a memo scope
    equal algebras and action tensors share one answer.
    """
    return memo.cached("split_witness", _split_witness, m.algebra, m.action)


def _split_witness(alg: Algebra, action: Mat):
    m = LeftModule(alg, action, _validate=False)
    p, d, n = alg.p, m.dim, alg.dim
    gens, ker, sigma = _presentation(p, action)
    k = gens.shape[1]
    # pi_blocks[b][:, t] = e_t . g_b
    pi_blocks = linalg.matmul(m.action.reshape(n * d, d), gens, p).reshape(n, d, k).transpose(2, 1, 0)
    if not ker.shape[1]:
        return SplitWitness(m, pi_blocks, sigma.reshape(k, n, d))
    # Hom(M, A) on the key ``hom_space`` gives it, so the dual built next reads it
    split = trace_split(p, memo.cached("hom_space", _hom_basis, p, action, alg.left_mult), pi_blocks)
    return None if split is None else SplitWitness(m, pi_blocks[split[0]], split[1])
