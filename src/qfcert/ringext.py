"""Ring extensions phi: R -> S and their quasi-Frobenius property.

An extension is tested through the two unit bimodules it induces on S:
left via phi / right regular (the (R, S) side), and left regular / right
via phi (the (S, R) side).  The extension is quasi-Frobenius iff either
bimodule is, and the two routes must agree — disagreement is an internal
inconsistency, never a verdict.

``qf_pair_witness`` instantiates the similarity of the induced functors
S (x)_R -  and  Hom_R(S, -)  at a concrete test module X: it tensors the
division certificate S | Hom_R(S,R)^m by X and transports along the
canonical isomorphism  Hom_R(S,R) (x)_R X  ->  Hom_R(S, X), producing an
exactly split pair of S-module maps.  It and ``compose_check`` test two of
the paper's theorems against ``is_qf_extension``, the one extension
decision the CLI runs.
"""

from __future__ import annotations

from . import linalg, memo, report
from .algebra import Algebra, AlgebraHom, equal_algebras
from .errors import InternalCheckError, UsageError
from .modrep import (
    Bimodule,
    LeftModule,
    as_bimodule,
    hom_space,
    is_fg_projective,
    left_dual,
    regular_left,
    restrict_bimodule,
    split_pair_reasons,
    tensor_over,
)
from .simdiv import divides, is_qf_bimodule


class Extension:
    """A ring map phi: R -> S with its unit bimodules S over (R, S) and (S, R).

    Neither is re-validated: every action is a multiplication in S, so the
    module laws and their commutation follow from the validated S and the
    validated unital ring map phi (or a ``compose``/``identity_hom`` of
    validated maps), as for ``regular_left``.
    """

    def __init__(self, hom: AlgebraHom):
        self.hom = hom
        r, s = hom.source, hom.target
        # r acts through phi: by phi(e_i) times, on the left or on the right
        self.bimodule_rs = Bimodule(r, s, linalg.combine(hom.matrix, s.left_mult, r.p), s.right_mult, _validate=False)
        self.bimodule_sr = Bimodule(s, r, s.left_mult, linalg.combine(hom.matrix, s.right_mult, r.p), _validate=False)

    @property
    def source(self) -> Algebra:
        return self.hom.source

    @property
    def target(self) -> Algebra:
        return self.hom.target

    @property
    def p(self) -> int:
        return self.hom.source.p


def merge_unit_routes(primary: report.Outcome, cross: report.Outcome) -> report.Outcome:
    """The extension verdict from the QF outcomes of its (R,S) and (S,R) unit bimodules."""
    out = report.Outcome(report.YES)
    for prefix, route in (("target over (source,target): ", primary), ("target over (target,source): ", cross)):
        for c in route.checks:
            out.add(report.Check(prefix + c.name, c.condition, c.verdict, c.certificate, c.reason, c.note))
    if primary.verdict != cross.verdict:
        out.verdict = report.INCONSISTENT
        out.notes.append("the two equivalent unit-bimodule routes disagree")
    else:
        out.verdict = primary.verdict
    return out


@memo.scoped
def is_qf_extension(ext: Extension) -> report.Outcome:
    """QF test via the (R,S) unit bimodule, cross-checked on the (S,R) one."""
    return merge_unit_routes(is_qf_bimodule(ext.bimodule_rs), is_qf_bimodule(ext.bimodule_sr))


@memo.scoped
def compose_check(alpha: Extension, beta: Extension) -> report.Outcome:
    """With beta QF, alpha is QF iff beta . alpha is; vacuous otherwise."""
    if not equal_algebras(alpha.target, beta.source):
        raise UsageError("extensions are not composable")
    out = report.Outcome(report.YES)
    beta_out = is_qf_extension(beta)
    out.add(report.Check("outer extension", "outer-extension-qf", beta_out.verdict))
    if beta_out.verdict == report.INCONSISTENT:
        out.verdict = report.INCONSISTENT
        return out
    if beta_out.verdict != report.YES:
        out.verdict = report.VACUOUS
        out.notes.append("precondition failed: the outer extension is not quasi-Frobenius")
        return out
    alpha_out = is_qf_extension(alpha)
    comp_out = is_qf_extension(Extension(beta.hom.compose(alpha.hom)))
    out.add(report.Check("inner extension", "inner-extension-qf", alpha_out.verdict))
    out.add(report.Check("composite extension", "composite-extension-qf", comp_out.verdict))
    if report.INCONSISTENT in (alpha_out.verdict, comp_out.verdict):
        out.verdict = report.INCONSISTENT
        return out
    if alpha_out.verdict == comp_out.verdict:
        out.verdict = report.YES
        out.notes.append("inner and composite verdicts agree, as the composition law predicts")
    else:
        out.verdict = report.INCONSISTENT
        out.notes.append("composition law violated: inner and composite verdicts differ")
    return out


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
