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
    return {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "input_sha256": input_sha,
        "verdict": outcome.verdict,
        "checks": [c.to_dict() for c in outcome.checks],
        "notes": list(outcome.notes),
    }


def payload_array(arr):
    """numpy array -> nested plain-int lists for JSON payloads."""
    return np.asarray(arr, dtype=np.int64).tolist()
