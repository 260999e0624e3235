"""Finite-group gradings and the restriction-to-identity-component test.

A grading presents the ring componentwise: one coordinate space R_x per
group element x and one product tensor per pair (x, y), landing in R_{xy}.
The total ring is assembled blockwise and validated like any algebra; its
unit is solved for from the structure constants (NotUnital if none) and
must be supported in the identity component.  ``grade_by_partition``
grades an existing algebra by listing each component's basis indices.

Restriction to R_e is restriction along the inclusion R_e -> R, kept on
the ring as an ``Extension``.  ``is_qf_restriction`` decides whether it
preserves the quasi-Frobenius property: every component must be finitely
generated projective over R_e, and R must be similar to Coind(R_e), the
left dual of R over (R_e, R), as an (R, R_e)-bimodule
(``restriction_bimodules``).  Both halves are certified; the first is the
shared ``simdiv.projective_prelude``, with one check per component.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg, memo, report
from .algebra import Algebra, AlgebraHom, check_group_table, make_algebra, solve_unit
from .errors import NotGraded, NotUnital, UsageError
from .modrep import LeftModule, left_dual
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
        self.offsets = [0, *itertools.accumulate(dims)]
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
