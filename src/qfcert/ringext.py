"""Ring extensions phi: R -> S and their quasi-Frobenius property.

An extension is tested through the two unit bimodules it induces on S:
left via phi / right regular (the (R, S) side), and left regular / right
via phi (the (S, R) side).  The extension is quasi-Frobenius iff either
bimodule is, and the two routes must agree — disagreement is an internal
inconsistency, never a verdict.
"""

from __future__ import annotations

from . import linalg, memo, report
from .algebra import Algebra, AlgebraHom
from .modrep import Bimodule
from .simdiv import is_qf_bimodule


class Extension:
    """A ring map phi: R -> S with its unit bimodules S over (R, S) and (S, R).

    Neither is re-validated: every action is a multiplication in S, so the
    module laws and their commutation follow from the validated S and the
    validated unital ring map phi, as for ``regular_left``.
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
