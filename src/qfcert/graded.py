"""Finite-group gradings and the restriction-to-identity-component test.

A grading presents the ring componentwise: one coordinate space R_x per
group element x and one product tensor per pair (x, y), landing in R_{xy}.
The total ring is assembled blockwise and validated like any algebra; its
unit is solved for from the structure constants (NotUnital if none) and
must be supported in the identity component.  Graded modules carry a
matching block decomposition with R_x . M_y inside M_{xy}.

Restriction to R_e is restriction along the inclusion R_e -> R, kept on
the ring as an ``Extension``.  Its adjoints are one construction each on
that extension's unit bimodules, and both verify their adjunction
identity on the identity component before returning:
- ``induce`` is R (x)_{R_e} N, one balanced tensor product.  Its canonical
  basis is already in block order: e_i (x) n_j has raw index
  i * dim N + j, the components of R are contiguous, and each balancing
  relation (r a) (x) n - r (x) (a n) stays in the component of r.
- ``coinduce`` is Hom_{R_e}(R, N), one hom space, with R acting by
  precomposition with its right multiplications.  R is the direct sum of
  its components over R_e, so the intertwining system splits by source
  component, and each canonical basis map (a row of the reduced echelon
  form of a direct sum on disjoint coordinates) lives on a single R_x; it
  has degree x^-1, and the maps are sorted stably by degree.

Also: restrict_e (identity component over R_e), suspend (relabel the
blocks by a group element), and is_qf_restriction, which decides whether
restriction to R_e preserves the quasi-Frobenius property: every
component must be finitely generated projective over R_e, and R must be
similar to Coind(R_e), the left dual of R over (R_e, R), as an
(R, R_e)-bimodule.  Both halves are certified; the first is the shared
``simdiv.projective_prelude``, with one check per component.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg, memo, report
from .algebra import Algebra, AlgebraHom, check_group_table, equal_algebras, make_algebra, solve_unit
from .errors import InternalCheckError, NotGraded, NotUnital, UsageError
from .modrep import HomSpace, LeftModule, as_bimodule, hom_space, left_dual, restrict_bimodule, tensor_over
from .ringext import Extension
from .simdiv import projective_prelude, similar


class _Blocks:
    """Coordinates in one block per group element, concatenated in
    group-element order."""

    def __init__(self, dims, order: int):
        dims = [int(d) for d in dims]
        if len(dims) != order or min(dims) < 0:
            raise UsageError("need one nonnegative dimension per group element")
        self.dims = dims
        self.offsets = [0, *itertools.accumulate(dims)]
        self.dim = self.offsets[-1]

    def block(self, x: int) -> slice:
        return slice(self.offsets[x], self.offsets[x + 1])

    def component(self, index) -> np.ndarray:
        """The block of each coordinate position in ``index``."""
        return np.searchsorted(self.offsets, index, side="right") - 1


class GradedRing(_Blocks):
    """Ring graded by a finite group, stored component by component.

    ``products[x][y]`` has shape (dim R_x, dim R_y, dim R_{xy}) and gives
    the coefficients of a product of component basis vectors in the basis
    of the target component.  The total algebra uses the concatenated
    basis in group-element order.
    """

    def __init__(self, p, table, dims, products):
        table, e, inv = check_group_table(table)
        self.table = table
        self.order = int(table.shape[0])
        self.e = e
        self.inv = inv
        super().__init__(dims, self.order)
        dims = self.dims
        if len(products) != self.order or any(len(row) != self.order for row in products):
            raise UsageError("products must be an order x order table of tensors")
        prods = []
        for x in range(self.order):
            row = []
            for y in range(self.order):
                z = int(table[x, y])
                m = np.asarray(products[x][y], dtype=np.int64) % p
                want = (dims[x], dims[y], dims[z])
                if m.size != dims[x] * dims[y] * dims[z]:
                    raise UsageError(f"product tensor at ({x}, {y}) has shape {m.shape}, expected {want}")
                row.append(m.reshape(want))
            prods.append(row)
        self.products = prods
        mul = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
        for x in range(self.order):
            bx = self.block(x)
            for y in range(self.order):
                bz = self.block(int(table[x, y]))
                mul[bx, self.block(y), bz] = prods[x][y]
        unit = solve_unit(mul, p)
        if unit is None:
            raise NotUnital("graded ring has no two-sided unit")
        unit = unit.reshape(-1)
        be = self.block(e)
        support = np.flatnonzero(unit)
        if support.size and (support.min() < be.start or support.max() >= be.stop):
            raise NotGraded("unit is not supported in the identity component")
        self.total = make_algebra(p, mul, unit)
        self.r_e = make_algebra(p, prods[e][e], unit[be])
        inclusion = np.zeros((self.dim, self.r_e.dim), dtype=np.int64)
        inclusion[be] = linalg.identity(self.r_e.dim)
        # the inclusion R_e -> R, whose adjoints are induction and coinduction
        self.extension = Extension(AlgebraHom(self.r_e, self.total, inclusion))

    @property
    def p(self) -> int:
        return self.total.p

    def component_module(self, x: int) -> LeftModule:
        """R_x as a left R_e-module (multiplication from the left)."""
        return LeftModule(self.r_e, self.products[self.e][x].transpose(0, 2, 1) % self.p)

    def __repr__(self):
        return f"GradedRing(order {self.order}, dims {self.dims} over F_{self.p})"


def grade_by_partition(alg: Algebra, table, partition) -> GradedRing:
    """Grade an existing algebra by listing each component's basis indices.

    The index lists must partition the basis.  Products are read off the
    structure constants; if some R_x R_y has a coefficient outside R_{xy},
    the partition is not a grading and NotGraded fires.
    """
    t, _, _ = check_group_table(table)
    order = int(t.shape[0])
    if len(partition) != order:
        raise UsageError("need one basis-index list per group element")
    idx = [np.asarray(part, dtype=np.int64).reshape(-1) for part in partition]
    flat = np.concatenate(idx) if order else np.zeros(0, dtype=np.int64)
    if sorted(flat.tolist()) != list(range(alg.dim)):
        raise UsageError("partition must cover each basis index exactly once")
    dims = [int(ix.size) for ix in idx]
    products = []
    for x in range(order):
        row = []
        for y in range(order):
            z = int(t[x, y])
            cube = alg.mul[np.ix_(idx[x], idx[y], np.arange(alg.dim))] % alg.p
            outside = np.ones(alg.dim, dtype=bool)
            outside[idx[z]] = False
            if cube[:, :, outside].any():
                raise NotGraded(f"product of components {x} and {y} leaks outside component {z}")
            row.append(cube[:, :, idx[z]])
        products.append(row)
    return GradedRing(alg.p, t, dims, products)


class GradedModule(_Blocks):
    """Left module over a graded ring with a compatible block decomposition.

    ``action`` is the total action stack (dim R, dim M, dim M) on the
    concatenated component basis; validation checks the module laws and
    that each R_x block maps M_y into M_{xy} and nowhere else.
    """

    def __init__(self, ring: GradedRing, dims, action, _validate=True):
        super().__init__(dims, ring.order)
        self.ring = ring
        self.total = LeftModule(ring.total, action, _validate=_validate)
        if self.total.dim != self.dim:
            raise UsageError("total action size does not match the component dimensions")
        if _validate:
            self._check_blocks()

    @property
    def p(self) -> int:
        return self.ring.p

    def _check_blocks(self):
        t = self.ring.table
        act = self.total.action
        for x in range(self.ring.order):
            rb = self.ring.block(x)
            for y in range(self.ring.order):
                outside = np.ones(self.dim, dtype=bool)
                outside[self.block(int(t[x, y]))] = False
                cols = act[rb.start : rb.stop, :, self.block(y)]
                if cols[:, outside, :].any():
                    raise NotGraded(f"action of component {x} leaks M_{y} outside component {int(t[x, y])}")

    def __repr__(self):
        return f"GradedModule(dims {self.dims} over F_{self.p})"


def graded_regular(ring: GradedRing) -> GradedModule:
    """The ring as a graded module over itself."""
    return GradedModule(ring, ring.dims, ring.total.left_mult)


def equal_graded_modules(m: GradedModule, n: GradedModule) -> bool:
    return (
        equal_algebras(m.ring.total, n.ring.total)
        and m.dims == n.dims
        and np.array_equal(m.total.action % m.p, n.total.action % n.p)
    )


def restrict_e(m: GradedModule) -> LeftModule:
    """The identity component of M as a left R_e-module."""
    ring = m.ring
    rb = ring.block(ring.e)
    mb = m.block(ring.e)
    # the block is closed under the R_e action, so the laws restrict
    acts = m.total.action[rb.start : rb.stop, mb, mb] % ring.p
    return LeftModule(ring.r_e, acts, _validate=False)


def induce(ring: GradedRing, n: LeftModule) -> GradedModule:
    """R tensored over R_e with N, graded by Ind(N)_y = R_y (x)_{R_e} N.

    Each class has the degree of the raw pure tensor it stands for.  Before
    returning, the evaluation n |-> class(1 (x) n) is checked to identify
    N with the identity component, R_e-linearly and invertibly.
    """
    if not equal_algebras(n.algebra, ring.r_e):
        raise UsageError("induce expects a module over the identity component")
    p, dn = ring.p, n.dim
    t = tensor_over(ring.r_e, ring.extension.bimodule_sr, as_bimodule(n))
    labels = ring.component(np.nonzero(t.sect.T)[1] // dn)
    if np.any(np.diff(labels) < 0):
        raise InternalCheckError("induced basis is not in block order")
    out = GradedModule(ring, np.bincount(labels, minlength=ring.order), t.left_acts)
    raw_e = slice(ring.offsets[ring.e] * dn, ring.offsets[ring.e + 1] * dn)
    ind_e = out.block(ring.e)
    # n |-> class(1 (x) n): proj kron(u, I) is (kron(u.T, I) proj.T).T
    to_ind = linalg.kron_apply(p, ring.r_e.unit.reshape(1, -1), t.proj[ind_e, raw_e].T, dn, False).T
    from_raw = n.action.transpose(1, 0, 2).reshape(dn, ring.dims[ring.e] * dn) % p
    from_ind = linalg.matmul(from_raw, t.sect[raw_e, ind_e], p)
    ok = (
        np.array_equal(linalg.matmul(from_ind, to_ind, p), linalg.identity(dn))
        and np.array_equal(linalg.matmul(to_ind, from_ind, p), linalg.identity(out.dims[ring.e]))
        and linalg.intertwines(to_ind, n.action, restrict_e(out).action, p)
    )
    if not ok:
        raise InternalCheckError("induction does not restrict back to the input module")
    return out


def coinduce(ring: GradedRing, n: LeftModule) -> GradedModule:
    """R_e-linear maps R -> N, graded by Coind(N)_y = Hom_{R_e}(R_{y^-1}, N).

    The ring acts by (r . f)(r') = f(r' r).  Evaluation at 1 must identify
    the identity component with N; this is checked before returning.
    """
    if not equal_algebras(n.algebra, ring.r_e):
        raise UsageError("coinduce expects a module over the identity component")
    p, dn = ring.p, n.dim
    h = hom_space(restrict_bimodule(ring.extension.bimodule_rs, "left"), n)
    # the source component R_x of each basis map, from the columns it touches
    sources = [np.unique(ring.component(np.flatnonzero(f.any(axis=0)))) for f in h.basis]
    if any(s.size != 1 for s in sources):
        raise InternalCheckError("a coinduced basis map spans several components")
    degrees = np.array([ring.inv[int(s[0])] for s in sources], dtype=np.int64)
    order = np.argsort(degrees, kind="stable")
    h = HomSpace(h.source, h.target, h.basis[order])
    out = GradedModule(ring, np.bincount(degrees, minlength=ring.order), h.precomposed(ring.total.right_mult))
    # column t is identity-component basis map t applied to 1
    he = h.basis[out.block(ring.e)]
    ev = linalg.matmul(he.reshape(-1, ring.dim), ring.total.unit.reshape(-1, 1), p).reshape(len(he), dn).T
    ok = ev.shape[0] == ev.shape[1] and linalg.invert(ev, p) is not None
    ok = ok and linalg.intertwines(ev, restrict_e(out).action, n.action, p)
    if not ok:
        raise InternalCheckError("evaluation at 1 fails to identify the identity component")
    return out


def suspend(m: GradedModule, x: int) -> GradedModule:
    """Shift the grading: M(x)_y = M_{yx}.  Same total space, blocks relabeled."""
    ring = m.ring
    if not 0 <= x < ring.order:
        raise UsageError("suspension degree out of range")
    t = ring.table
    new_dims = [m.dims[int(t[y, x])] for y in range(ring.order)]
    perm = np.concatenate(
        [np.arange(m.offsets[int(t[y, x])], m.offsets[int(t[y, x]) + 1]) for y in range(ring.order)]
    )
    act = m.total.action[:, perm][:, :, perm] % ring.p
    # the laws are those of m; only the block labels move
    return GradedModule(ring, new_dims, act, _validate=False)


def restriction_bimodules(ring: GradedRing):
    """The pair compared by is_qf_restriction, both (R, R_e)-bimodules.

    First: R as the (R, R_e) unit bimodule of the inclusion R_e -> R.
    Second: Coind(R_e) = Hom_{R_e}(R, R_e), the left dual of R over
    (R_e, R), whose actions (s . f . a)(x) = f(x s) a are exactly
    (r . f)(r') = f(r' r) and (f . a)(r) = f(r) a.
    """
    ext = ring.extension
    return ext.bimodule_sr, left_dual(ext.bimodule_rs)


@memo.scoped
def is_qf_restriction(ring: GradedRing) -> report.Outcome:
    """Decide whether restriction to the identity component preserves QF.

    Two stages, both certified: every component R_x must be finitely
    generated projective over R_e (split witnesses), and R must be similar
    to Coind(R_e) = Hom_{R_e}(R, R_e) as an (R, R_e)-bimodule.  Both come
    from the inclusion R_e -> R (``restriction_bimodules``): R is its
    (R, R_e) unit bimodule and Coind(R_e) the left dual of R over (R_e, R),
    so R_e acts on the right by multiplication on R and by
    (f . a)(r) = f(r) a on the coinduced side.
    """
    out = report.Outcome(report.YES)
    name = "ring similar to coinduced module"
    condition = "ring-similar-to-coinduced-identity-part"
    components = [
        (
            f"component {x} projective",
            "component-projective-over-identity-part",
            ring.component_module(x),
            f"component {x} is not a projective module over the identity part",
        )
        for x in range(ring.order)
    ]
    if projective_prelude(out, components, name, condition, "some component is not projective over the identity part"):
        sim = similar(*restriction_bimodules(ring))
        out.decide(
            name, condition, None if sim is None else sim.payload(),
            "the ring and the coinduced module are not similar as bimodules",
        )
    return out
