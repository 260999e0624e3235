"""Divisibility and similarity of bimodules, with checkable certificates.

M divides N (here: M | N^n for some n) when M is a direct summand of a
finite power of N; the certificate is the pair of bimodule maps
phi: M -> N^n and psi: N^n -> M with psi . phi = id_M.  Similarity means
mutual division, i.e. M and N have the same indecomposable support.

Division is one linear solve.  M | N^n for some n exactly when id_M lies in
the trace ideal span{g . f : f in Hom(M, N), g in Hom(N, M)} (Auslander,
Reiten and Smalo, Representation Theory of Artin Algebras, 1995), so with
bases f_i and g_j of the two hom spaces (``modrep.bimodule_homs``) a
solution of sum c_ji g_j f_i = id_M is a split pair: h_j = sum_i c_ji f_i,
phi stacks the nonzero h_j and psi sets the matching g_j side by side.  So
n is at most dim Hom(N, M), not the smallest feasible power, which would
need multiplicities and so a decomposition.  No decision here reads the
enveloping algebra or a decomposition.

The quasi-Frobenius predicate for an (R, S)-bimodule M: both one-sided
restrictions are finitely generated projective and the left dual
Hom_R(M, R) is similar to the right dual Hom_S(M, S) as (S, R)-bimodules.

Every "projective, then compare" decision (the bimodule predicate and the
graded restriction test) opens with ``projective_prelude``: one
split-witness check per module that must be projective, and the
comparison marked skipped if any is not.  The comparison itself is then
one ``Outcome.decide``.
"""

from __future__ import annotations

import numpy as np

from . import linalg, memo, report
from .algebra import equal_algebras
from .errors import InternalCheckError, NotProjectiveAtStage, UsageError
from .linalg import Mat
from .modrep import (
    Bimodule,
    SplitWitness,
    bimodule_homs,
    is_fg_projective,
    left_dual,
    restrict_bimodule,
    right_dual,
    tensor_over,
)


def _module_payload(m: Bimodule):
    return {
        "left_acts": report.payload_array(m.left_acts),
        "right_acts": report.payload_array(m.right_acts),
        "dim": m.dim,
    }


def split_witness_payload(w: SplitWitness) -> dict:
    alg = w.module.algebra
    return {
        "kind": "split-witness",
        "p": w.module.p,
        "algebra_mul": report.payload_array(alg.mul),
        "algebra_unit": report.payload_array(alg.unit),
        "module_action": report.payload_array(w.module.action),
        "pi_blocks": report.payload_array(w.pi_blocks),
        "sigma_blocks": report.payload_array(w.sigma_blocks),
    }


class DividesCert:
    """Certificate for M | N^n; all identities re-checked on construction."""

    def __init__(self, source: Bimodule, target: Bimodule, n: int, phi: Mat, psi: Mat):
        self.source = source
        self.target = target
        self.n = n
        self.phi = phi
        self.psi = psi
        ok, reasons = verify_cert(self, source, target)
        if not ok:
            raise InternalCheckError("constructed divides certificate is invalid: " + "; ".join(reasons))

    def payload(self) -> dict:
        return {
            "kind": "divides",
            "p": self.source.p,
            "n": self.n,
            "source": _module_payload(self.source),
            "target": _module_payload(self.target),
            "phi": report.payload_array(self.phi),
            "psi": report.payload_array(self.psi),
            "note": "n is at most dim Hom(N, M)",
        }


def verify_cert(cert: DividesCert, source: Bimodule, target: Bimodule):
    """Re-check a divides certificate against the given bimodules.

    Independent of how the certificate was produced: verifies shapes,
    psi . phi = id, and blockwise intertwining with both action families.
    """
    p = source.p
    dm, dn, n = source.dim, target.dim, cert.n
    reasons = []
    if cert.phi.shape != (n * dn, dm):
        reasons.append(f"phi has shape {cert.phi.shape}, expected {(n * dn, dm)}")
    if cert.psi.shape != (dm, n * dn):
        reasons.append(f"psi has shape {cert.psi.shape}, expected {(dm, n * dn)}")
    if reasons:
        return False, reasons
    if not np.array_equal(linalg.matmul(cert.psi, cert.phi, p), linalg.identity(dm)):
        reasons.append("psi . phi is not the identity")
    # one answer per block c, for each map and side
    phis = cert.phi.reshape(n, dn, dm)
    psis = cert.psi.reshape(dm, n, dn).transpose(1, 0, 2)
    ok = {}
    for label, acts_m, acts_n in (
        ("left", source.left_acts, target.left_acts),
        ("right", source.right_acts, target.right_acts),
    ):
        ok["phi", label] = linalg.intertwines(phis, acts_m, acts_n, p)
        ok["psi", label] = linalg.intertwines(psis, acts_n, acts_m, p)
    for c in range(n):
        for label in ("left", "right"):
            for name in ("phi", "psi"):
                if not ok[name, label][c]:
                    reasons.append(f"{name} block {c} does not intertwine the {label} actions")
    return (not reasons), reasons


def _require_same_sides(m: Bimodule, n: Bimodule):
    if not (equal_algebras(m.left_alg, n.left_alg) and equal_algebras(m.right_alg, n.right_alg)):
        raise UsageError("bimodules do not share their algebra pair")


def _divides(m: Bimodule, n: Bimodule, f: Mat, g: Mat):
    """DividesCert for M | N^n from bases ``f`` of Hom(M, N) and ``g`` of
    Hom(N, M), or None: one solve for id_M among the g_j f_i."""
    p, dm, dn = m.p, m.dim, n.dim
    if dm == 0:  # the zero module divides N^1
        return DividesCert(m, n, 1, linalg.zeros(dn, 0), linalg.zeros(0, dn))
    # column j*len(f) + i is vec(g_j f_i)
    prods = linalg.matmul_pairs(g, f, p).reshape(len(g) * len(f), dm * dm).T
    c = linalg.solve_right(prods, linalg.vec(linalg.identity(dm)), p)
    if c is None:
        return None
    h = linalg.matmul(c.reshape(len(g), len(f)), f.reshape(len(f), dn * dm), p)
    kept = np.flatnonzero(h.any(axis=1))
    phi = h[kept].reshape(len(kept) * dn, dm)
    psi = g[kept].transpose(1, 0, 2).reshape(dm, len(kept) * dn)
    return DividesCert(m, n, len(kept), phi, psi)


def divides(m: Bimodule, n: Bimodule):
    """DividesCert for M | N^n with n <= dim Hom(N, M), or None."""
    _require_same_sides(m, n)
    return _divides(m, n, *bimodule_homs(m, n))


class SimilarityCert:
    def __init__(self, forward: DividesCert, backward: DividesCert):
        self.forward = forward
        self.backward = backward

    def payload(self) -> dict:
        return {
            "kind": "similarity",
            "forward": self.forward.payload(),
            "backward": self.backward.payload(),
        }


def similar(m: Bimodule, n: Bimodule):
    """SimilarityCert (mutual division), or None.

    The two hom spaces are computed once and serve both divisions; the
    backward one runs only if the forward one holds.
    """
    _require_same_sides(m, n)
    f, g = bimodule_homs(m, n)
    fwd = _divides(m, n, f, g)
    if fwd is None:
        return None
    bwd = _divides(n, m, g, f)
    return None if bwd is None else SimilarityCert(fwd, bwd)


# ---------------------------------------------------------------------------
# quasi-Frobenius predicates


def projective_prelude(out: report.Outcome, modules, name, condition, skip_reason) -> bool:
    """Shared prelude of every "projective, then compare" decision.

    ``modules`` lists (name, condition, module, no_reason); each module
    gets a check carrying its split witness, or a no check with
    ``no_reason``.  If any fails, the comparison ``(name, condition)`` is
    added as skipped with ``skip_reason``, the verdict is no, and False is
    returned.
    """
    projective = True
    for mod_name, mod_condition, module, no_reason in modules:
        w = is_fg_projective(module)
        out.decide(mod_name, mod_condition, None if w is None else split_witness_payload(w), no_reason)
        projective = projective and w is not None
    if not projective:
        out.add(report.Check(name, condition, report.SKIPPED, reason=skip_reason))
    return projective


@memo.scoped
def is_qf_bimodule(m: Bimodule) -> report.Outcome:
    """Quasi-Frobenius test for an (R, S)-bimodule."""
    out = report.Outcome(report.YES)
    sides = [
        (f"{side} restriction projective", f"{side}-restriction-fg-projective",
         restrict_bimodule(m, side), "no split section onto a free cover exists")
        for side in ("left", "right")
    ]
    name, condition = "dual similarity", "left-dual-similar-to-right-dual"
    if projective_prelude(out, sides, name, condition, "restrictions are not both projective"):
        sim = similar(left_dual(m), right_dual(m))
        out.decide(
            name, condition, None if sim is None else sim.payload(),
            "left and right duals have different indecomposable support",
        )
    return out


def dual_sequence(m: Bimodule, depth: int):
    """Iterated duals: positions -depth..depth, 0 = M itself.

    Positive positions iterate the left dual, negative ones the right
    dual.  Before each dualization the side being dualized must be
    finitely generated projective; otherwise NotProjectiveAtStage(k)
    fires with the 1-based stage count and direction.
    """
    if depth < 0:
        raise UsageError("depth must be >= 0")
    stages = {0: m}
    for side, dual, sign in (("left", left_dual, 1), ("right", right_dual, -1)):
        cur = m
        for k in range(1, depth + 1):
            if is_fg_projective(restrict_bimodule(cur, side)) is None:
                raise NotProjectiveAtStage(k, f"{side}-dual direction")
            cur = dual(cur)
            stages[sign * k] = cur
    return [(k, stages[k]) for k in sorted(stages)]


@memo.scoped
def qf_tensor_check(m: Bimodule, n: Bimodule) -> report.Outcome:
    """QF (x) QF should be QF; reports agreement (expected: yes)."""
    if not equal_algebras(m.right_alg, n.left_alg):
        raise UsageError("tensor factors do not share the middle algebra")
    out_m = is_qf_bimodule(m)
    out_n = is_qf_bimodule(n)
    out = report.Outcome(report.YES)
    out.add(report.Check("left factor", "first-factor-qf", out_m.verdict))
    out.add(report.Check("right factor", "second-factor-qf", out_n.verdict))
    if out_m.verdict != report.YES or out_n.verdict != report.YES:
        out.verdict = report.VACUOUS
        out.notes.append("precondition failed: both factors must be quasi-Frobenius")
        return out
    t = tensor_over(m.right_alg, m, n)
    out_t = is_qf_bimodule(t)
    for c in out_t.checks:
        out.add(c)
    if out_t.verdict == report.YES:
        out.verdict = report.YES
    else:
        out.verdict = report.INCONSISTENT
        out.notes.append("tensor product of quasi-Frobenius bimodules failed the criterion")
    return out
