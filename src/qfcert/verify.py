"""Independent re-checking of emitted certificates and reports.

Everything here is re-derived from the payload's own embedded data using
exact matrix arithmetic only — no prover module is imported, so a bug in
a prover cannot hide itself in its own verifier.  That includes the F_p
kernel: products here are int64 with the inner dimension cut into chunks
(no float BLAS).

Every leaf certificate is a split pair, checked by ``_split_pair``: maps
into copies of some module and back whose composites sum to the identity,
every block a module map.  ``similarity``, ``projective-and-similar`` and
``outcome`` only contain other certificates.

Entry points: ``verify_payload`` for one certificate dict,
``verify_report`` for a full report (every certificate attached to a
passing check must verify), both returning (ok, list of reasons).
"""

from __future__ import annotations

import reprlib

import numpy as np

PASSING = ("yes", "valid")
VERDICTS = ("yes", "no", "vacuous", "inconsistent", "valid", "skipped")


def _arr(obj, p):
    """An int64 array of residues in [0, p), whatever integers the payload holds."""
    return np.array(obj, dtype=np.int64) % p


# a payload value quoted in a reason: at most four levels of nesting (so
# any depth is safe) and at most ``_SHOWN`` characters
_SHOWN = 80
_REPR = reprlib.Repr()
_REPR.maxlevel = 4
_REPR.maxstring = _REPR.maxother = _SHOWN


def _shown(value) -> str:
    text = _REPR.repr(value)
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def _fail(reasons, prefix, msg):
    reasons.append(f"{prefix}: {msg}" if prefix else msg)
    return False


def _module_payload(obj, p):
    """(left_acts, right_acts, dim) from an embedded bimodule payload.

    Shapes are rebuilt explicitly because zero-size arrays flatten when
    serialized (a (0, d) matrix round-trips as []); the reshape raises
    ValueError on genuinely inconsistent data, which callers turn into a
    malformed-payload reason.
    """
    d = int(obj["dim"])
    la = _arr(obj["left_acts"], p).reshape(len(obj["left_acts"]), d, d)
    ra = _arr(obj["right_acts"], p).reshape(len(obj["right_acts"]), d, d)
    return la, ra, d


def _mul(a, b, p):
    """Exact ``a @ b mod p`` (batched like ``np.matmul``) in int64, for
    entries in [0, p): each chunk of the inner dimension sums at most
    ``step`` products below (p-1)^2, so no partial sum reaches 2^63."""
    step = (2**63 - p) // (p - 1) ** 2
    if step < 1:
        raise ValueError(f"p = {p} is outside the supported range")
    chunks = range(0, a.shape[-1], step)
    if len(chunks) <= 1:
        return np.matmul(a, b) % p
    out = 0
    for k in chunks:
        out = (out + np.matmul(a[..., k : k + step], b[..., k : k + step, :])) % p
    return out


def _intertwines(f, source_acts, target_acts, p):
    """f . a_source == a_target . f for every action index."""
    return np.array_equal(_mul(f, source_acts, p), _mul(target_acts, f, p))


def _split_pair(reasons, prefix, p, d, copies, families, names):
    """Whether sum_c back_c . into_c = id_M and both maps of every copy
    intertwine every action family, for a d-dimensional M.  ``copies``
    lists (into: M -> X_c, back: X_c -> M, the stacks of X_c, one per
    family), ``families`` lists (label, stack on M) and ``names`` the
    (into, back) names the reasons quote."""
    into_name, back_name = names
    ok = True
    for c, (into, back, targets) in enumerate(copies):
        for (label, acts), target in zip(families, targets):
            if not _intertwines(into, acts, target, p):
                ok = _fail(reasons, prefix, f"{into_name} block {c} is not {label}-equivariant")
            if not _intertwines(back, target, acts, p):
                ok = _fail(reasons, prefix, f"{back_name} block {c} is not {label}-equivariant")
    # the sum as one product: the back maps side by side times the into maps stacked
    intos, backs = _stacked(d, copies)
    if not np.array_equal(_mul(backs, intos, p), np.eye(d, dtype=np.int64)):
        ok = _fail(reasons, prefix, f"sum of {back_name} . {into_name} is not the identity")
    return ok


def _stacked(d, copies):
    """The into maps of ``copies`` stacked and their back maps side by side."""
    intos = np.concatenate([np.zeros((0, d), dtype=np.int64)] + [c[0] for c in copies])
    backs = np.concatenate([np.zeros((d, 0), dtype=np.int64)] + [c[1] for c in copies], axis=1)
    return intos, backs


def _verify_divides(cert, reasons, prefix):
    try:
        p = int(cert["p"])
        n = int(cert["n"])
        sl, sr, dm = _module_payload(cert["source"], p)
        tl, tr, dn = _module_payload(cert["target"], p)
        phi = _arr(cert["phi"], p).reshape(n * dn, dm)
        psi = _arr(cert["psi"], p).reshape(dm, n * dn)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(reasons, prefix, f"malformed divides payload ({exc})")
    blocks = [(phi[c * dn : (c + 1) * dn], psi[:, c * dn : (c + 1) * dn], (tl, tr)) for c in range(n)]
    return _split_pair(reasons, prefix, p, dm, blocks, [("left", sl), ("right", sr)], ("phi", "psi"))


def _verify_similarity(cert, reasons, prefix):
    try:
        fwd = cert["forward"]
        bwd = cert["backward"]
    except (KeyError, TypeError) as exc:
        return _fail(reasons, prefix, f"malformed similarity payload ({exc})")
    ok = _verify_divides(fwd, reasons, f"{prefix}/forward")
    ok = _verify_divides(bwd, reasons, f"{prefix}/backward") and ok
    # the two halves must talk about the same pair, crosswise
    if fwd.get("source") != bwd.get("target") or fwd.get("target") != bwd.get("source"):
        ok = _fail(reasons, prefix, "forward and backward halves disagree about the modules")
    return ok


def _verify_split_witness(cert, reasons, prefix):
    try:
        p = int(cert["p"])
        n = len(cert["algebra_mul"])
        mul = _arr(cert["algebra_mul"], p).reshape(n, n, n)
        d = len(cert["module_action"][0]) if n else 0
        action = _arr(cert["module_action"], p).reshape(n, d, d)
        r = len(cert["pi_blocks"])
        pi = _arr(cert["pi_blocks"], p).reshape(r, d, n)
        sigma = _arr(cert["sigma_blocks"], p).reshape(r, n, d)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return _fail(reasons, prefix, f"malformed split witness ({exc})")
    # each block splits M off the regular module A, whose actions are left multiplications
    left_mult = mul.transpose(0, 2, 1)
    blocks = [(sigma[b], pi[b], (left_mult,)) for b in range(r)]
    return _split_pair(reasons, prefix, p, d, blocks, [("A", action)], ("sigma", "pi"))


def _verify_pair_witness(cert, reasons, prefix):
    try:
        p = int(cert["p"])
        m = int(cert["m"])
        s = len(cert["tensor_side_action"])
        d = len(cert["tensor_side_action"][0]) if s else 0
        k = len(cert["hom_side_action"][0]) if s else 0
        tacts = _arr(cert["tensor_side_action"], p).reshape(s, d, d)
        hacts = _arr(cert["hom_side_action"], p).reshape(s, k, k)
        alpha = _arr(cert["alpha"], p).reshape(m * k, d)
        alphabar = _arr(cert["alphabar"], p).reshape(d, m * k)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return _fail(reasons, prefix, f"malformed pair witness ({exc})")
    blocks = [(alpha[c * k : (c + 1) * k], alphabar[:, c * k : (c + 1) * k], (hacts,)) for c in range(m)]
    return _split_pair(reasons, prefix, p, d, blocks, [("S", tacts)], ("alpha", "alphabar"))


def _verify_projective_and_similar(cert, reasons, prefix):
    try:
        proj = cert["projectivity"]
        sim = cert["similarity"]
    except (KeyError, TypeError) as exc:
        return _fail(reasons, prefix, f"malformed payload ({exc})")
    ok = verify_payload(proj, reasons, f"{prefix}/projectivity")
    return verify_payload(sim, reasons, f"{prefix}/similarity") and ok


def _verify_decomposition(cert, reasons, prefix):
    try:
        p = int(cert["p"])
        na = len(cert["module_action"])
        d = len(cert["module_action"][0]) if na else 0
        action = _arr(cert["module_action"], p).reshape(na, d, d)
        classes = cert["classes"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return _fail(reasons, prefix, f"malformed decomposition payload ({exc})")
    blocks = []
    for i, cls in enumerate(classes):
        try:
            dk = int(cls["dim"])
            cact = _arr(cls["action"], p).reshape(na, dk, dk)
            injs = [_arr(v, p).reshape(d, dk) for v in cls["injections"]]
            projs = [_arr(v, p).reshape(dk, d) for v in cls["projections"]]
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(reasons, prefix, f"malformed class {i} ({exc})")
        if len(injs) != len(projs):
            return _fail(reasons, prefix, f"class {i} has inconsistent shapes")
        blocks += [(proj, inj, (cact,)) for inj, proj in zip(injs, projs)]
    ok = _split_pair(reasons, prefix, p, d, blocks, [("A", action)], ("projection", "injection"))
    # orthogonal idempotents: every projection kills every other copy and splits its own
    projs, injs = _stacked(d, blocks)
    if not np.array_equal(_mul(projs, injs, p), np.eye(len(projs), dtype=np.int64)):
        ok = _fail(reasons, prefix, "stacked projections times injections side by side are not the identity")
    return ok


def _verify_outcome(cert, reasons, prefix):
    checks = cert.get("checks")
    if not isinstance(checks, list):
        return _fail(reasons, prefix, "outcome payload has no check list")
    ok = True
    for i, chk in enumerate(checks):
        if not isinstance(chk, dict) or "verdict" not in chk:
            ok = _fail(reasons, prefix, f"nested check {i} is malformed")
            continue
        if chk["verdict"] in PASSING and chk.get("certificate") is not None:
            ok = verify_payload(chk["certificate"], reasons, f"{prefix}/checks/{i}") and ok
    return ok


_KINDS = {
    "divides": _verify_divides,
    "similarity": _verify_similarity,
    "split-witness": _verify_split_witness,
    "pair-witness": _verify_pair_witness,
    "projective-and-similar": _verify_projective_and_similar,
    "decomposition": _verify_decomposition,
    "outcome": _verify_outcome,
}


def verify_payload(cert, reasons=None, prefix="certificate"):
    """Re-check one certificate dict.  Returns ok when reasons is given,
    else the pair (ok, reasons)."""
    collected = [] if reasons is None else reasons
    if not isinstance(cert, dict) or "kind" not in cert:
        ok = _fail(collected, prefix, "certificate is not an object with a kind")
    else:
        # only a string names a kind; a list or object kind would not even hash
        handler = _KINDS.get(cert["kind"]) if isinstance(cert["kind"], str) else None
        if handler is None:
            ok = _fail(collected, prefix, f"unknown certificate kind {_shown(cert['kind'])}")
        else:
            try:
                ok = handler(cert, collected, prefix)
            except Exception as exc:  # malformed payloads must not crash the verifier
                ok = _fail(collected, prefix, f"verification raised {type(exc).__name__}: {exc}")
    if reasons is None:
        return ok, collected
    return ok


def verify_report(rep):
    """Structural check plus re-verification of every passing certificate."""
    reasons = []
    if not isinstance(rep, dict):
        return False, ["report is not an object"]
    if isinstance(rep.get("fixtures"), list):
        # battery report: each entry embeds an ordinary report
        ok = True
        for i, item in enumerate(rep["fixtures"]):
            sub = item.get("report") if isinstance(item, dict) else None
            if not isinstance(sub, dict):
                ok = _fail(reasons, f"fixtures/{i}", "missing embedded report")
                continue
            sub_ok, sub_reasons = verify_report(sub)
            if not sub_ok:
                ok = False
                reasons.extend(f"fixtures/{i}: {r}" for r in sub_reasons)
        return ok, reasons
    for key in ("verdict", "checks", "seed", "tool_version"):
        if key not in rep:
            _fail(reasons, "report", f"missing key {key!r}")
    if reasons:
        return False, reasons
    if rep["verdict"] not in VERDICTS[:5]:
        return False, [f"report: unknown verdict {_shown(rep['verdict'])}"]
    if not isinstance(rep["checks"], list):
        return False, ["report: checks is not a list"]
    ok = True
    for i, chk in enumerate(rep["checks"]):
        if not isinstance(chk, dict) or not {"name", "condition", "verdict"} <= set(chk):
            ok = _fail(reasons, f"checks/{i}", "malformed check entry")
            continue
        if chk["verdict"] not in VERDICTS:
            ok = _fail(reasons, f"checks/{i}", f"unknown verdict {_shown(chk['verdict'])}")
            continue
        if chk["verdict"] in PASSING and chk.get("certificate") is not None:
            ok = verify_payload(chk["certificate"], reasons, f"checks/{i}") and ok
    return ok, reasons
