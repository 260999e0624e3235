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
phi stacks the h_j whose composite g_j h_j is nonzero and psi sets the
matching g_j side by side.  That solve is ``modrep.trace_split``, the one
projectivity and the isomorphism of indecomposables take too, and the
certificate is re-checked by ``modrep.split_pair_reasons``, the one check
of every split pair the provers build.  So n is at most dim Hom(N, M), not
the smallest feasible power, which would need multiplicities and so a
decomposition.  No decision here reads the enveloping algebra or a
decomposition.

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
    split_pair_reasons,
    trace_split,
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
    """Certificate for M | N^n; all identities re-checked on construction
    by ``modrep.split_pair_reasons``."""

    def __init__(self, source: Bimodule, target: Bimodule, n: int, phi: Mat, psi: Mat):
        self.source = source
        self.target = target
        self.n = n
        self.phi = phi
        self.psi = psi
        dm, dn = source.dim, target.dim
        targets = target.left_acts, target.right_acts
        copies = phi.reshape(n, dn, dm), psi.reshape(dm, n, dn).transpose(1, 0, 2), targets
        families = [("left", source.left_acts), ("right", source.right_acts)]
        reasons = split_pair_reasons(source.p, dm, [copies], families, ("phi", "psi"))
        if reasons:
            raise InternalCheckError("constructed divides certificate is invalid: " + "; ".join(reasons))

    def payload(self) -> dict:
        pay = _maps_payload(self)
        pay["source"] = _module_payload(self.source)
        pay["target"] = _module_payload(self.target)
        return pay


def _maps_payload(cert: DividesCert) -> dict:
    """A divides payload without its two modules: the backward half of a
    similarity, which reads them from its forward half."""
    return {
        "kind": "divides",
        "p": cert.source.p,
        "n": cert.n,
        "phi": report.payload_array(cert.phi),
        "psi": report.payload_array(cert.psi),
        "note": "n is at most dim Hom(N, M)",
    }


def _require_same_sides(m: Bimodule, n: Bimodule):
    if not (equal_algebras(m.left_alg, n.left_alg) and equal_algebras(m.right_alg, n.right_alg)):
        raise UsageError("bimodules do not share their algebra pair")


def _divides(m: Bimodule, n: Bimodule, f: Mat, g: Mat):
    """DividesCert for M | N^n from bases ``f`` of Hom(M, N) and ``g`` of
    Hom(N, M), or None: one ``trace_split``."""
    dm, dn = m.dim, n.dim
    if dm == 0:  # the zero module divides N^1
        return DividesCert(m, n, 1, linalg.zeros(dn, 0), linalg.zeros(0, dn))
    split = trace_split(m.p, f, g)
    if split is None:
        return None
    kept, h = split
    psi = g[kept].transpose(1, 0, 2).reshape(dm, len(kept) * dn)
    return DividesCert(m, n, len(kept), h.reshape(len(kept) * dn, dm), psi)


def divides(m: Bimodule, n: Bimodule):
    """DividesCert for M | N^n with n <= dim Hom(N, M), or None."""
    _require_same_sides(m, n)
    return _divides(m, n, *bimodule_homs(m, n))


class SimilarityCert:
    """M | N^n and N | M^m.  The payload carries the two modules once, in
    the forward half: the backward half's source is the forward target and
    its target the forward source."""

    def __init__(self, forward: DividesCert, backward: DividesCert):
        self.forward = forward
        self.backward = backward

    def payload(self) -> dict:
        return {
            "kind": "similarity",
            "forward": self.forward.payload(),
            "backward": _maps_payload(self.backward),
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


@memo.scoped
def dual_sequence(m: Bimodule, depth: int):
    """Iterated duals: positions -depth..depth, 0 = M itself.

    Positive positions iterate the left dual, negative ones the right
    dual.  Before each dualization the side being dualized must be
    finitely generated projective; otherwise NotProjectiveAtStage(k)
    fires with the 1-based stage count and direction.  Each check solves
    on the hom space the dualization then reads, and the whole sequence
    runs in one memo scope, so the dualization finds it there.
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
