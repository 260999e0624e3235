"""Structured outcomes and deterministic report serialization.

A predicate run produces an Outcome: an overall verdict plus a list of
named checks, each carrying either a certificate payload (plain dict of
ints/lists, ready for JSON) or a reason string.  Reports serialize
canonically (sorted keys, fixed separators, no timestamps) so identical
input + seed gives byte-identical bytes; the input digest is embedded.

Verdicts: "yes" | "no" | "vacuous" | "inconsistent" | "valid".
Check verdicts additionally allow "skipped".
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__

YES = "yes"
NO = "no"
VACUOUS = "vacuous"
INCONSISTENT = "inconsistent"
VALID = "valid"
SKIPPED = "skipped"


class Check:
    def __init__(self, name, condition, verdict, certificate=None, reason=None, note=None):
        self.name = name
        self.condition = condition
        self.verdict = verdict
        self.certificate = certificate
        self.reason = reason
        self.note = note

    def to_dict(self):
        d = {"name": self.name, "condition": self.condition, "verdict": self.verdict}
        if self.certificate is not None:
            d["certificate"] = self.certificate
        if self.reason is not None:
            d["reason"] = self.reason
        if self.note is not None:
            d["note"] = self.note
        return d


class Outcome:
    def __init__(self, verdict, checks=None, notes=None):
        self.verdict = verdict
        self.checks = checks or []
        self.notes = notes or []

    def add(self, check: Check):
        self.checks.append(check)

    def decide(self, name, condition, certificate, no_reason):
        """Add a yes check carrying ``certificate``, or, when it is None, a
        no check with ``no_reason`` and set the verdict to no."""
        if certificate is None:
            self.verdict = NO
            self.add(Check(name, condition, NO, reason=no_reason))
        else:
            self.add(Check(name, condition, YES, certificate=certificate))

    def certificates(self):
        return [c.certificate for c in self.checks if c.certificate is not None]


def exit_code(verdict: str) -> int:
    if verdict in (YES, VALID, VACUOUS):
        return 0
    if verdict == NO:
        return 1
    if verdict == INCONSISTENT:
        return 3
    raise ValueError(f"unknown verdict {verdict!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def input_digest(raw_bytes: bytes) -> str:
    return hashlib.sha256(raw_bytes).hexdigest()


def command_field(command: str, depth: int) -> str:
    """A report's command field: ``dual-sequence`` carries its depth."""
    return f"dual-sequence --depth {depth}" if command == "dual-sequence" else command


def build_report(outcome: Outcome, seed: int, input_sha: str, command: str) -> dict:
    """The report of ``outcome``.  Its certificates name their algebras and
    modules by index into the report's ``algebras`` and ``modules`` tables
    (``Tables``); the outcome's own certificates are left self-contained."""
    tables = Tables()
    rep = {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "input_sha256": input_sha,
        "verdict": outcome.verdict,
        "checks": [tables.check(c.to_dict()) for c in outcome.checks],
        "notes": list(outcome.notes),
    }
    rep.update(tables.written())
    return rep


# the inline keys of a split witness that one ``module`` index replaces
_WITNESS_INLINE = ("algebra_mul", "algebra_unit", "module_action")


class Tables:
    """The ``algebras`` and ``modules`` tables of one report.

    An algebra entry is ``{mul, unit}``; a module entry is a bimodule
    ``{dim, left_acts, right_acts}`` or a left module ``{algebra, action}``
    whose ``algebra`` is an index.  A ``divides`` names its source and
    target by index and a ``split-witness`` its module.  Entries are keyed
    by the identity of their payload lists, which the payload builders
    memoize on the arrays' bytes (``simdiv``), so within one memo scope an
    equal algebra or module is one entry.
    """

    def __init__(self):
        self.algebras = []
        self.modules = []
        self._index = {}

    def _intern(self, table, key, entry):
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(table)
            table.append(entry)
        return i

    def _bimodule(self, m: dict) -> int:
        return self._intern(self.modules, ("bimodule", id(m["left_acts"]), id(m["right_acts"])), m)

    def check(self, chk: dict) -> dict:
        cert = chk.get("certificate")
        return chk if cert is None else dict(chk, certificate=self.certificate(cert))

    def certificate(self, cert: dict) -> dict:
        """A copy of ``cert`` that names its algebras and modules by index."""
        kind = cert["kind"]
        if kind == "outcome":
            return dict(cert, checks=[self.check(c) for c in cert["checks"]])
        if kind == "projective-and-similar":
            return dict(cert, projectivity=self.certificate(cert["projectivity"]),
                        similarity=self.certificate(cert["similarity"]))
        if kind == "similarity":
            return dict(cert, forward=self.certificate(cert["forward"]), backward=self.certificate(cert["backward"]))
        if kind == "divides":
            # a similarity's backward half carries no modules
            return dict(cert, **{end: self._bimodule(cert[end]) for end in ("source", "target") if end in cert})
        if kind == "split-witness":
            mul, unit, action = (cert[key] for key in _WITNESS_INLINE)
            alg = self._intern(self.algebras, ("algebra", id(mul), id(unit)), {"mul": mul, "unit": unit})
            named = {key: value for key, value in cert.items() if key not in _WITNESS_INLINE}
            named["module"] = self._intern(
                self.modules, ("left module", alg, id(action)), {"algebra": alg, "action": action}
            )
            return named
        return cert

    def written(self) -> dict:
        """The tables that have entries, by their report keys."""
        return {name: table for name, table in (("algebras", self.algebras), ("modules", self.modules)) if table}


def payload_array(arr):
    """numpy array -> nested plain-int lists for JSON payloads."""
    return np.asarray(arr, dtype=np.int64).tolist()
