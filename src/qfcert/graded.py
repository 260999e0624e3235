"""Finite-group gradings and the restriction-to-identity-component test.

A grading presents the ring componentwise: one coordinate space R_x per
group element x and one product tensor per pair (x, y), landing in R_{xy}.
The total ring is assembled blockwise and validated like any algebra; its
unit is solved for from the structure constants (NotUnital if none) and
must be supported in the identity component.  Graded modules carry a
matching block decomposition with R_x . M_y inside M_{xy}.

Operations: restrict_e (identity component over R_e), induce and coinduce
(both constructions verify their adjunction identity on the identity
component before returning), suspend (relabel the blocks by a group
element), and is_qf_restriction, which decides whether restriction to R_e
preserves the quasi-Frobenius property: every component must be finitely
generated projective over R_e and R must be similar to Hom_{R_e}(R, R_e)
as an (R, R_e)-bimodule.  Both halves are certified; the first is the
shared ``simdiv.projective_prelude``, with one check per component.
"""

from __future__ import annotations

import numpy as np

from . import linalg, report
from .algebra import (
    Algebra,
    AlgebraHom,
    check_group_table,
    equal_algebras,
    field_algebra,
    make_algebra,
    solve_unit,
)
from .errors import InternalCheckError, NotGraded, NotUnital, UsageError
from .modrep import (
    Bimodule,
    LeftModule,
    hom_space,
    regular_left,
    tensor_over,
)
from .ringext import Extension
from .simdiv import projective_prelude, similar


class GradedRing:
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
        dims = [int(d) for d in dims]
        if len(dims) != self.order or min(dims) < 0:
            raise UsageError("need one nonnegative dimension per group element")
        self.dims = dims
        self.offsets = [0]
        for d in dims:
            self.offsets.append(self.offsets[-1] + d)
        self.dim = self.offsets[-1]
        if len(products) != self.order or any(len(row) != self.order for row in products):
            raise UsageError("products must be an order x order table of tensors")
        prods = []
        for x in range(self.order):
            row = []
            for y in range(self.order):
                z = int(table[x, y])
                m = np.asarray(products[x][y], dtype=np.int64) % p
                want = (dims[x], dims[y], dims[z])
                if m.shape != want and m.size == dims[x] * dims[y] * dims[z]:
                    m = m.reshape(want)
                if m.shape != want:
                    raise UsageError(
                        f"product tensor at ({x}, {y}) has shape {m.shape}, expected {want}"
                    )
                row.append(m)
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

    @property
    def p(self) -> int:
        return self.total.p

    def block(self, x: int) -> slice:
        return slice(self.offsets[x], self.offsets[x + 1])

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


class GradedModule:
    """Left module over a graded ring with a compatible block decomposition.

    ``action`` is the total action stack (dim R, dim M, dim M) on the
    concatenated component basis; validation checks the module laws and
    that each R_x block maps M_y into M_{xy} and nowhere else.
    """

    def __init__(self, ring: GradedRing, dims, action, _validate=True):
        self.ring = ring
        dims = [int(d) for d in dims]
        if len(dims) != ring.order or min(dims) < 0:
            raise UsageError("need one nonnegative dimension per group element")
        self.dims = dims
        self.offsets = [0]
        for d in dims:
            self.offsets.append(self.offsets[-1] + d)
        self.dim = self.offsets[-1]
        self.total = LeftModule(ring.total, action, _validate=_validate)
        if self.total.dim != self.dim:
            raise UsageError("total action size does not match the component dimensions")
        if _validate:
            self._check_blocks()

    @property
    def p(self) -> int:
        return self.ring.p

    def block(self, y: int) -> slice:
        return slice(self.offsets[y], self.offsets[y + 1])

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
                    raise NotGraded(
                        f"action of component {x} leaks M_{y} outside component {int(t[x, y])}"
                    )

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


def _trivial_side(p: int, d: int):
    return linalg.identity(d).reshape(1, d, d)


def induce(ring: GradedRing, n: LeftModule) -> GradedModule:
    """R tensored over R_e with N, graded by Ind(N)_y = R_y (x)_{R_e} N.

    Before returning, the evaluation n |-> class(1 (x) n) is checked to
    identify N with the identity component, R_e-linearly and invertibly.
    """
    if not equal_algebras(n.algebra, ring.r_e):
        raise UsageError("induce expects a module over the identity component")
    p = ring.p
    dn = n.dim
    k = field_algebra(p)
    n_bim = Bimodule(ring.r_e, k, n.action, _trivial_side(p, dn), _validate=False)
    tensors = []
    for y in range(ring.order):
        dy = ring.dims[y]
        # right multiplication of R_e on R_y
        ra = ring.products[y][ring.e].transpose(1, 2, 0) % p
        y_bim = Bimodule(k, ring.r_e, _trivial_side(p, dy), ra, _validate=False)
        tensors.append(tensor_over(ring.r_e, y_bim, n_bim))
    dims = [t.dim for t in tensors]
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    act = np.zeros((ring.dim, offsets[-1], offsets[-1]), dtype=np.int64)
    for x in range(ring.order):
        rb = ring.block(x)
        for y in range(ring.order):
            z = int(ring.table[x, y])
            dx = ring.dims[x]
            # left mult by each a in R_x, R_y -> R_{xy}, stacked by rows: the
            # block of a is tensors[z].proj kron(lmap_a, I) tensors[y].sect
            lmaps = ring.products[x][y].transpose(0, 2, 1).reshape(dx * ring.dims[z], ring.dims[y])
            raw = linalg.kron_apply(p, lmaps, tensors[y].sect, dn, False)
            blk = linalg.kron_apply(p, tensors[z].proj, raw, dx, True)
            act[rb, offsets[z] : offsets[z] + dims[z], offsets[y] : offsets[y] + dims[y]] = blk.reshape(
                dx, dims[z], dims[y]
            )
    out = GradedModule(ring, dims, act)
    te = tensors[ring.e]
    eye_n = linalg.identity(dn)
    # n |-> class(1 (x) n): te.proj kron(u, I) is (kron(u.T, I) te.proj.T).T
    to_ind = linalg.kron_apply(p, ring.r_e.unit.reshape(1, -1), te.proj.T, dn, False).T
    from_raw = n.action.transpose(1, 0, 2).reshape(dn, ring.dims[ring.e] * dn) % p
    from_ind = linalg.matmul(from_raw, te.sect, p)
    ok = (
        np.array_equal(linalg.matmul(from_ind, to_ind, p), eye_n)
        and np.array_equal(linalg.matmul(to_ind, from_ind, p), linalg.identity(te.dim))
        and linalg.intertwines(to_ind, n.action, restrict_e(out).action, p)
    )
    if not ok:
        raise InternalCheckError("induction does not restrict back to the input module")
    return out


def coinduce(ring: GradedRing, n: LeftModule) -> GradedModule:
    """R_e-linear maps R -> N, graded by Coind(N)_y = Hom_{R_e}(R_{y^-1}, N).

    The ring acts by (r . f)(r') = f(r' r).  Evaluation at 1 must identify
    the identity component with N; this is checked before returning.  The
    component hom-space bases ride along as ``hom_spaces``.
    """
    if not equal_algebras(n.algebra, ring.r_e):
        raise UsageError("coinduce expects a module over the identity component")
    p = ring.p
    dn = n.dim
    homs = [hom_space(ring.component_module(ring.inv[y]), n) for y in range(ring.order)]
    dims = [h.k for h in homs]
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    act = np.zeros((ring.dim, offsets[-1], offsets[-1]), dtype=np.int64)
    for x in range(ring.order):
        rb = ring.block(x)
        for y in range(ring.order):
            if dims[y] == 0:
                continue
            z = int(ring.table[x, y])
            src = ring.inv[z]  # arguments of r.f live in R_{(xy)^-1}
            # right mult by each a in R_x: R_{(xy)^-1} -> R_{y^-1}, then apply f
            rmats = ring.products[src][x].transpose(1, 2, 0)
            moved = linalg.matmul_pairs(homs[y].basis, rmats, p).transpose(1, 0, 2, 3)
            act[rb, offsets[z] : offsets[z] + dims[z], offsets[y] : offsets[y] + dims[y]] = homs[z].action(moved)
    out = GradedModule(ring, dims, act)
    out.hom_spaces = homs
    he = homs[ring.e]
    # column t is basis map t applied to 1
    ev = linalg.matmul(he.basis.reshape(he.k * dn, ring.dims[ring.e]), ring.r_e.unit.reshape(-1, 1), p)
    ev = ev.reshape(he.k, dn).T
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
    Second: Coind(R_e) = Hom_{R_e}(R, R_e) with left action
    (r . f)(r') = f(r' r) and right action (f . a)(r) = f(r) a.
    """
    p = ring.p
    inclusion = np.zeros((ring.total.dim, ring.r_e.dim), dtype=np.int64)
    inclusion[ring.block(ring.e)] = linalg.identity(ring.r_e.dim)
    bim_r = Extension(AlgebraHom(ring.r_e, ring.total, inclusion)).bimodule_sr
    coind = coinduce(ring, regular_left(ring.r_e))
    ra = np.zeros((ring.dims[ring.e], coind.dim, coind.dim), dtype=np.int64)
    for y in range(ring.order):
        h = coind.hom_spaces[y]
        if h.k == 0:
            continue
        blk = coind.block(y)
        # (f . a)(r) = f(r) a, for every a in R_e
        ra[:, blk, blk] = h.action(linalg.matmul_pairs(ring.r_e.right_mult, h.basis, p))
    bim_c = Bimodule(ring.total, ring.r_e, coind.total.action, ra)
    return bim_r, bim_c


def is_qf_restriction(ring: GradedRing, seed: int = 0) -> report.Outcome:
    """Decide whether restriction to the identity component preserves QF.

    Two stages, both certified: every component R_x must be finitely
    generated projective over R_e (split witnesses), and R must be similar
    to Coind(R_e) = Hom_{R_e}(R, R_e) as an (R, R_e)-bimodule, where R_e
    acts on the right by multiplication on R and by (f . a)(r) = f(r) a on
    the coinduced side.
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
        sim = similar(*restriction_bimodules(ring), seed=seed)
        out.decide(
            name, condition, None if sim is None else sim.payload(),
            "the ring and the coinduced module are not similar as bimodules",
        )
    return out
