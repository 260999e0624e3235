"""Independent decision oracles and the paper's theorems as test oracles.

The main oracle: M | N^k for some k  iff  id_M lies in the span of all
composites f . g with f in Hom(N, M), g in Hom(M, N).  ("Trace ideal"
criterion: one exact linear solve, no decomposition theory involved.)
A literal enumeration of split pairs validates the span reduction itself
on the tiniest instances.

The theorems no command runs live here too, as reference constructions
the tests check the package against:

* ``qf_pair_witness`` instantiates the similarity of the induced functors
  S (x)_R -  and  Hom_R(S, -)  at a concrete test module X: it tensors
  the division certificate S | Hom_R(S,R)^m by X and transports along
  the canonical isomorphism  Hom_R(S,R) (x)_R X  ->  Hom_R(S, X),
  producing an exactly split pair of S-module maps.
  ``check_pair_witness`` re-checks its payload with the verifier's own
  split-pair predicate.
* The graded functors along the inclusion R_e -> R kept on a
  ``graded.GradedRing``: ``induce`` is R (x)_{R_e} N, one balanced tensor
  product, and ``coinduce`` is Hom_{R_e}(R, N), one hom space, with R
  acting by precomposition with its right multiplications.  Both verify
  their adjunction identity on the identity component before returning.
  Induction's canonical basis is already in block order: e_i (x) n_j has
  raw index i * dim N + j, the components of R are contiguous, and each
  balancing relation (r a) (x) n - r (x) (a n) stays in the component of
  r.  R is the direct sum of its components over R_e, so coinduction's
  intertwining system splits by source component, and each canonical
  basis map (a row of the reduced echelon form of a direct sum on
  disjoint coordinates) lives on a single R_x; it has degree x^-1, and
  the maps are sorted stably by degree.  Also: ``restrict_e`` (identity
  component over R_e) and ``suspend`` (relabel the blocks by a group
  element).
* The comodule layer of a coring C over A, the oracle a coring-morphism
  decision would be checked against: a ``Comodule`` keeps its coaction in
  the quotient basis of M (x)_A C or C (x)_A M and checks coassociativity
  and the counit law in one bracketing of the triple tensor product
  (``modrep.triple_projection``), as ``Coring`` checks its own laws.
  ``comodule_to_module`` turns a right comodule into a left module over
  opposite(*C) (m.f = m0 f(m1)) and a left one into a module over C*
  (g.n = g(n-1) n0), and refuses a carrier that is not finitely generated
  projective on the dual ring's side.  ``cotensor`` is the equalizer of
  rho_M (x) N and M (x) lambda_N inside M (x)_A N, with the outer actions
  that survive on it, and ``cotensor_map`` the map it induces from a
  left-comodule map.
"""

import itertools

import numpy as np

from helpers import power_bimodule
from qfcert import linalg, memo, report, verify
from qfcert.algebra import equal_algebras, field_algebra, opposite
from qfcert.coring import Coring, _dual_action, left_dual_ring, right_dual_ring
from qfcert.errors import (
    CounitFails,
    InternalCheckError,
    NotBimoduleMap,
    NotCoassociative,
    NotGraded,
    UsageError,
    ValidationError,
)
from qfcert.graded import GradedRing
from qfcert.linalg import Mat
from qfcert.modrep import (
    Bimodule,
    HomSpace,
    LeftModule,
    as_bimodule,
    envelope_module,
    hom_space,
    is_fg_projective,
    left_dual,
    regular_left,
    restrict_bimodule,
    split_pair_reasons,
    tensor_over,
    triple_projection,
)
from qfcert.ringext import Extension
from qfcert.simdiv import divides


def divides_oracle(m_bim, n_bim) -> bool:
    """True iff M divides some finite power of N (span criterion)."""
    if m_bim.dim == 0:
        return True
    if n_bim.dim == 0:
        return False
    p = m_bim.p
    h_nm = hom_space(envelope_module(n_bim), envelope_module(m_bim))
    h_mn = hom_space(envelope_module(m_bim), envelope_module(n_bim))
    if h_nm.k == 0 or h_mn.k == 0:
        return False
    cols = []
    for f in h_nm.basis:
        prods = np.matmul(f, h_mn.basis) % p  # (k2, dm, dm)
        cols.append(prods.reshape(h_mn.k, m_bim.dim * m_bim.dim).T)
    span = np.concatenate(cols, axis=1)
    target = linalg.vec(linalg.identity(m_bim.dim))
    return linalg.solve_right(span, target, p) is not None


def similar_oracle(m_bim, n_bim) -> bool:
    return divides_oracle(m_bim, n_bim) and divides_oracle(n_bim, m_bim)


def divides_enumeration_oracle(m_bim, n_bim, max_power=2, budget=400000) -> bool:
    """Literal split-pair search over N^k for k <= max_power.

    Only usable when the hom spaces are tiny; raises if the enumeration
    would exceed the budget.
    """
    p = m_bim.p
    if m_bim.dim == 0:
        return True
    for k in range(1, max_power + 1):
        nk = power_bimodule(n_bim, k)
        h1 = hom_space(envelope_module(m_bim), envelope_module(nk))
        h2 = hom_space(envelope_module(nk), envelope_module(m_bim))
        if h1.k == 0 or h2.k == 0:
            continue
        if p ** (h1.k + h2.k) > budget:
            raise RuntimeError("enumeration oracle out of budget")
        ident = linalg.identity(m_bim.dim)
        for cf in itertools.product(range(p), repeat=h1.k):
            phi = linalg.combine(np.array(cf, dtype=np.int64).reshape(-1, 1), h1.basis, p)[0]
            for cg in itertools.product(range(p), repeat=h2.k):
                psi = linalg.combine(np.array(cg, dtype=np.int64).reshape(-1, 1), h2.basis, p)[0]
                if np.array_equal(linalg.matmul(psi, phi, p), ident):
                    return True
    return False


# ---------------------------------------------------------------------------
# the tensor-hom pair witness of a quasi-Frobenius extension


@memo.scoped
def qf_pair_witness(ext: Extension, x_mod: LeftModule) -> report.Outcome:
    """Split pair alpha: S(x)_R X -> Hom_R(S,X)^m, alphabar back, at X.

    Requires the extension to be quasi-Frobenius (vacuous otherwise).
    The returned certificate contains both matrices, the S-actions on
    both sides, and m; ``split_pair_reasons`` checks that the composite
    alphabar . alpha is the identity exactly and that both maps are
    S-linear, blockwise.
    """
    if not equal_algebras(x_mod.algebra, ext.source):
        raise UsageError("test module must be a left module over the extension source")
    p = ext.p
    s_alg = ext.target
    over_source = restrict_bimodule(ext.bimodule_rs, "left")
    if is_fg_projective(over_source) is None:
        return report.Outcome(
            report.VACUOUS,
            notes=["precondition failed: the target is not projective over the source"],
        )
    d_bim = left_dual(ext.bimodule_rs)  # Hom_R(S, R) as an (S, R)-bimodule
    cert = divides(ext.bimodule_sr, d_bim)
    if cert is None:
        return report.Outcome(
            report.VACUOUS,
            notes=["precondition failed: the target does not divide a power of its source-dual"],
        )
    m = cert.n
    dd, ds, dx = d_bim.dim, s_alg.dim, x_mod.dim
    xb = as_bimodule(x_mod)
    lx = tensor_over(ext.source, ext.bimodule_sr, xb)  # S (x)_R X
    dx_t = tensor_over(ext.source, d_bim, xb)  # D (x)_R X
    # Hom_R(S, X) as a left S-module, (s . h)(s') = h(s' s)
    g = hom_space(over_source, x_mod)
    g_acts = g.precomposed(s_alg.right_mult)
    if g.k != dx_t.dim:
        raise InternalCheckError("hom module and tensor dual have different dimensions")
    # theta0: pure tensor f_t (x) e_j  |->  (s |-> act_X(f_t(s)) e_j),
    # from weights[t, s] = act_X(f_t(s)) = sum_r f_t[r, s] X(e_r)
    # the basis of d_bim, from the hom space that left_dual solved for
    hom_basis = hom_space(over_source, regular_left(ext.source)).basis  # (dd, dim R, ds)
    weights = linalg.combine(hom_basis.transpose(1, 0, 2).reshape(-1, dd * ds), x_mod.action, p)
    maps = weights.reshape(dd, ds, dx, dx).transpose(0, 3, 2, 1).reshape(dd * dx, dx, ds)
    theta0 = g.coords_batch(maps)
    # well-definedness on the quotient, then invertibility (projectivity)
    resid = linalg.matmul(theta0, (linalg.identity(dd * dx) - linalg.matmul(dx_t.sect, dx_t.proj, p)) % p, p)
    if resid.any():
        raise InternalCheckError("canonical hom transport does not respect the tensor relations")
    theta = linalg.matmul(theta0, dx_t.sect, p)
    theta_inv = linalg.invert(theta, p)
    if theta_inv is None:
        raise InternalCheckError("canonical hom transport is singular despite projectivity")
    # alpha = kron(I_m, theta proj) kron(phi, I) sect and
    # alphabar = proj kron(psi, I) kron(I_m, sect theta^-1), the latter transposed
    gk, dl = g.k, lx.dim
    to_hom = linalg.matmul(theta, dx_t.proj, p)
    alpha = linalg.kron_apply(p, to_hom, linalg.kron_apply(p, cert.phi, lx.sect, dx, False), m, True)
    from_hom = linalg.matmul(dx_t.sect, theta_inv, p).T
    alphabar = linalg.kron_apply(p, from_hom, linalg.kron_apply(p, cert.psi.T, lx.proj.T, dx, False), m, True).T
    # a split pair of S-modules: alphabar . alpha = id and both maps S-linear, blockwise
    copies = (alpha.reshape(m, gk, dl), alphabar.reshape(dl, m, gk).transpose(1, 0, 2), (g_acts,))
    reasons = split_pair_reasons(p, dl, [copies], [("S", lx.left_acts)], ("alpha", "alphabar"))
    identity_ok = not reasons or "identity" not in reasons[-1]
    linear_ok = len(reasons) == (0 if identity_ok else 1)
    verdict = report.YES if not reasons else report.INCONSISTENT
    payload = {
        "kind": "pair-witness",
        "p": p,
        "m": m,
        "alpha": report.payload_array(alpha),
        "alphabar": report.payload_array(alphabar),
        "tensor_side_action": report.payload_array(lx.left_acts),
        "hom_side_action": report.payload_array(g_acts),
        "composite_is_identity": bool(identity_ok),
        "maps_are_linear": bool(linear_ok),
    }
    out = report.Outcome(verdict)
    out.add(
        report.Check(
            "functor pair at test module",
            "tensor-functor-splits-into-hom-functor",
            verdict,
            certificate=payload,
        )
    )
    if verdict == report.INCONSISTENT:
        out.notes.append("witness failed exact verification; this contradicts the certificate: " + "; ".join(reasons))
    return out


def check_pair_witness(cert):
    """(ok, reasons) for a ``qf_pair_witness`` payload, by the verifier's
    own split-pair predicate: the m blocks of alpha and alphabar compose to
    the identity in sum, and each is S-linear."""
    p, m = int(cert["p"]), int(cert["m"])
    s = len(cert["tensor_side_action"])
    d = len(cert["tensor_side_action"][0]) if s else 0
    k = len(cert["hom_side_action"][0]) if s else 0
    tacts = np.array(cert["tensor_side_action"], dtype=np.int64).reshape(s, d, d) % p
    hacts = np.array(cert["hom_side_action"], dtype=np.int64).reshape(s, k, k) % p
    alpha = np.array(cert["alpha"], dtype=np.int64).reshape(m * k, d) % p
    alphabar = np.array(cert["alphabar"], dtype=np.int64).reshape(d, m * k) % p
    blocks = [(alpha[c * k : (c + 1) * k], alphabar[:, c * k : (c + 1) * k], (hacts,)) for c in range(m)]
    reasons = []
    ok = verify._split_pair(reasons, "certificate", p, d, blocks, [("S", tacts)], ("alpha", "alphabar"))
    return ok, reasons


# ---------------------------------------------------------------------------
# graded modules and the adjoints of restriction to the identity component


def component(ring: GradedRing, index) -> np.ndarray:
    """The block of each coordinate position in ``index``."""
    return np.searchsorted(ring.offsets, index, side="right") - 1


class GradedModule:
    """Left module over a graded ring with a compatible block decomposition.

    ``action`` is the total action stack (dim R, dim M, dim M) on the
    concatenated component basis; validation checks the module laws and
    that each R_x block maps M_y into M_{xy} and nowhere else.
    """

    def __init__(self, ring: GradedRing, dims, action, _validate=True):
        dims = [int(d) for d in dims]
        if len(dims) != ring.order or min(dims) < 0:
            raise UsageError("need one nonnegative dimension per group element")
        self.dims = dims
        self.offsets = [0, *itertools.accumulate(dims)]
        self.dim = self.offsets[-1]
        self.ring = ring
        self.total = LeftModule(ring.total, action, _validate=_validate)
        if self.total.dim != self.dim:
            raise UsageError("total action size does not match the component dimensions")
        if _validate:
            self._check_blocks()

    @property
    def p(self) -> int:
        return self.ring.p

    def block(self, x: int) -> slice:
        return slice(self.offsets[x], self.offsets[x + 1])

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
    labels = component(ring, np.nonzero(t.sect.T)[1] // dn)
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
    sources = [np.unique(component(ring, np.flatnonzero(f.any(axis=0)))) for f in h.basis]
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


# ---------------------------------------------------------------------------
# comodules and the cotensor product over a coring


class Comodule:
    """A one-sided comodule, with the coaction stored in quotient coordinates.

    The carrier is kept as a bimodule so an outer (ordinary) module action
    can ride along; a plain comodule uses the one-dimensional field algebra
    on the outer side.  ``rep`` is the coaction composed with the section
    into raw tensor coordinates.
    """

    def __init__(self, coring: Coring, side: str, carrier: Bimodule, coaction):
        if side not in ("left", "right"):
            raise UsageError("comodule side must be 'left' or 'right'")
        p = coring.p
        self.coring = coring
        self.side = side
        self.carrier = carrier
        base, cbim = coring.base, coring.carrier
        if side == "right":
            if not equal_algebras(carrier.right_alg, base):
                raise UsageError("right comodule carrier must be a right module over the base")
            self.tensor = tensor_over(base, carrier, cbim)
        else:
            if not equal_algebras(carrier.left_alg, base):
                raise UsageError("left comodule carrier must be a left module over the base")
            self.tensor = tensor_over(base, cbim, carrier)
        self.coaction = linalg.asmat(coaction, p)
        if self.coaction.shape != (self.tensor.dim, carrier.dim):
            raise UsageError(
                f"coaction must be {self.tensor.dim}x{carrier.dim}, got {self.coaction.shape}"
            )
        self.rep = linalg.matmul(self.tensor.sect, self.coaction, p)
        self._validate()

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def p(self) -> int:
        return self.coring.p

    def _validate(self):
        p = self.p
        car, cbim = self.carrier, self.coring.carrier
        dm, dc = car.dim, cbim.dim
        right = self.side == "right"
        acts, on_tensor = (car.right_acts, self.tensor.right_acts) if right else (car.left_acts, self.tensor.left_acts)
        if not linalg.intertwines(self.coaction, acts, on_tensor, p):
            raise NotBimoduleMap("coaction")
        # right: in (M (x) C) (x) C, rho twice against Delta after rho;
        # left: in (C (x) C) (x) M, lambda twice against Delta after lambda
        one = linalg.kron_apply(p, self.rep, self.rep, dc, not right)
        two = linalg.kron_apply(p, self.coring.delta_rep(), self.rep, dm, right)
        # eps on the C leg, with eval[c] = sum_a eps[a, c] X_a
        counit = linalg.combine(self.coring.eps, acts, p).transpose((1, 2, 0) if right else (1, 0, 2))
        counit = counit.reshape(dm, dm * dc)
        t, third = (self.tensor, cbim) if right else (self.coring.tensor_square, car)
        if triple_projection(t, third, (one - two) % p).any():
            raise NotCoassociative()
        if not np.array_equal(linalg.matmul(counit, self.rep, p), linalg.identity(dm)):
            raise CounitFails(self.side)


def regular_comodule(c: Coring, side: str) -> Comodule:
    """The coring itself as a comodule via its comultiplication."""
    return Comodule(c, side, c.carrier, c.delta)


def plain_comodule(c: Coring, side: str, action, coaction) -> Comodule:
    """Comodule whose carrier has no extra outer action (field on the far side)."""
    p = c.p
    action = linalg.asmat(action, p)
    dm = action.shape[1]
    k = field_algebra(p)
    triv = linalg.identity(dm).reshape(1, dm, dm)
    if side == "right":
        carrier = Bimodule(k, c.base, triv, action)
    else:
        carrier = Bimodule(c.base, k, action, triv)
    return Comodule(c, side, carrier, coaction)


def comodule_to_module(m: Comodule) -> LeftModule:
    """Convert along the dual-ring action formula; refuses non-projective bases.

    Right comodules become left modules over opposite(*C) via m.f = m0 f(m1);
    left comodules become left modules over C* via g.n = g(n-1) n0.
    """
    c = m.coring
    p = c.p
    right = m.side == "right"
    side = "left" if right else "right"  # the dual ring's side
    if is_fg_projective(restrict_bimodule(c.carrier, side)) is None:
        raise ValidationError(f"carrier is not finitely generated projective as a {side} module over the base")
    dual = left_dual_ring(c) if right else right_dual_ring(c)
    acts = _dual_action(side, dual.maps.basis, m.carrier.right_acts if right else m.carrier.left_acts, m.rep, p)
    return LeftModule(opposite(dual.target) if right else dual.target, acts)


class Cotensor:
    """The equalizer subspace of M (x)_A N, with surviving outer actions."""

    def __init__(self, basis, ambient, bimodule):
        self.basis = basis
        self.ambient = ambient
        self.bimodule = bimodule
        self.dim = basis.shape[1]


def _same_coring(c1: Coring, c2: Coring) -> bool:
    return c1 is c2 or (
        c1.p == c2.p
        and equal_algebras(c1.base, c2.base)
        and np.array_equal(c1.carrier.left_acts, c2.carrier.left_acts)
        and np.array_equal(c1.carrier.right_acts, c2.carrier.right_acts)
        and np.array_equal(c1.delta, c2.delta)
        and np.array_equal(c1.eps, c2.eps)
    )


def cotensor(m: Comodule, n: Comodule) -> Cotensor:
    """Equalizer of rho_M (x) N and M (x) lambda_N inside M (x)_A N."""
    if m.side != "right" or n.side != "left":
        raise UsageError("cotensor takes a right comodule and a left comodule")
    if not _same_coring(m.coring, n.coring):
        raise UsageError("cotensor factors live over different corings")
    c = m.coring
    p = c.p
    dm, dn = m.dim, n.dim
    amb = tensor_over(c.base, m.carrier, n.carrier)
    # onto (M (x) C) (x) N; any projection with the same kernel differs by
    # an invertible factor on the left, so the equalizer nullspace is the same
    route_m = linalg.kron_apply(p, m.rep, amb.sect, dn, False)
    route_n = linalg.kron_apply(p, n.rep, amb.sect, dm, True)
    equalizer = triple_projection(m.tensor, n.carrier, (route_m - route_n) % p)
    basis = linalg.nullspace(equalizer, p)
    # surviving outer actions, restricted to the equalizer: every X basis
    # in one product, solved against basis in one system
    acts = np.concatenate([amb.left_acts, amb.right_acts])
    na, d, k = acts.shape[0], amb.dim, basis.shape[1]
    moved = linalg.matmul(acts.reshape(na * d, d), basis, p).reshape(na, d, k)
    sol = linalg.solve_right(basis, moved.transpose(1, 0, 2).reshape(d, na * k), p)
    if sol is None:
        raise UsageError(
            "outer action does not preserve the cotensor subspace; "
            "the carrier is not a bicomodule for it"
        )
    acts = sol.reshape(k, na, k).transpose(1, 0, 2)
    nl = amb.left_acts.shape[0]
    bim = Bimodule(m.carrier.left_alg, n.carrier.right_alg, acts[:nl], acts[nl:])
    return Cotensor(basis, amb, bim)


def cotensor_map(x: Comodule, n: Comodule, n2: Comodule, f) -> Mat:
    """The map X cot N -> X cot N2 induced by a left-comodule map f: N -> N2."""
    c = x.coring
    p = c.p
    f = linalg.asmat(f, p)
    if f.shape != (n2.dim, n.dim):
        raise UsageError(f"comodule map must be {n2.dim}x{n.dim}, got {f.shape}")
    # f must intertwine the coactions (checked in quotient coordinates)
    lhs = linalg.matmul(n2.tensor.proj, linalg.kron_apply(p, f, n.rep, c.dim, True), p)
    if not np.array_equal(lhs, linalg.matmul(n2.coaction, f, p)):
        raise UsageError("map does not commute with the coactions")
    if not linalg.intertwines(f, n.carrier.left_acts, n2.carrier.left_acts, p):
        raise UsageError("comodule map is not linear over the base")
    left = cotensor(x, n)
    right = cotensor(x, n2)
    # X cot N -> X (x) N -> X (x) N2 along kron(I, f), then onto X cot N2
    raw = linalg.kron_apply(p, f, linalg.matmul(left.ambient.sect, left.basis, p), x.dim, True)
    moved = linalg.matmul(right.ambient.proj, raw, p)
    sol = linalg.solve_right(right.basis, moved, p)
    if sol is None:
        raise InternalCheckError("induced map escapes the cotensor subspace")
    return sol
