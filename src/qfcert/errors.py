"""Exception hierarchy.

Three families matter for the CLI exit-code contract:

* ``SchemaError`` / ``ValidationError`` / ``UsageError`` /
  ``NotProjectiveAtStage`` -- the input (or the way the library was
  called) is bad, or a dual sequence stops at a stage that is not
  projective: exit code 2.
* ``InternalCheckError`` -- two routes that must agree disagreed, or a
  construction that is guaranteed to succeed failed: exit code 3.
* everything that is a mathematical *verdict* is returned as data, never
  raised.
"""


class QfcertError(Exception):
    """Base class for all package errors."""


class UsageError(QfcertError):
    """The caller violated a precondition (shape mismatch, wrong algebra...)."""


class InvalidPrime(UsageError):
    def __init__(self, p):
        super().__init__(f"p must be an odd prime, got {p!r}")
        self.p = p


class ValidationError(QfcertError):
    """Input data fails a mathematical validation check."""


class AssociativityViolation(ValidationError):
    def __init__(self, i, j, l):
        super().__init__(f"associativity fails at basis triple ({i}, {j}, {l})")
        self.triple = (i, j, l)


class UnitViolation(ValidationError):
    def __init__(self, i):
        super().__init__(f"unit axiom fails at basis element {i}")
        self.index = i


class NotAGroup(ValidationError):
    def __init__(self, reason, witness=None):
        super().__init__(f"not a group table: {reason} (witness {witness})")
        self.witness = witness


class NotMultiplicative(ValidationError):
    def __init__(self, i, j):
        super().__init__(f"map is not multiplicative on basis pair ({i}, {j})")
        self.pair = (i, j)


class NotUnital(ValidationError):
    def __init__(self, msg="map or algebra has no unit"):
        super().__init__(msg)


class ModuleLawViolation(ValidationError):
    def __init__(self, i, j=None):
        where = f"({i}, {j})" if j is not None else f"({i})"
        super().__init__(f"module law fails at basis pair {where}")
        self.pair = (i, j)


class ActionsDoNotCommute(ValidationError):
    def __init__(self, i, j):
        super().__init__(f"left action {i} does not commute with right action {j}")
        self.pair = (i, j)


class NotBimoduleMap(ValidationError):
    def __init__(self, which):
        super().__init__(f"{which} is not a bimodule map")
        self.which = which


class NotCoassociative(ValidationError):
    def __init__(self):
        super().__init__("comultiplication is not coassociative")


class CounitFails(ValidationError):
    def __init__(self, side):
        super().__init__(f"counit law fails on the {side} side")
        self.side = side


class NotGraded(ValidationError):
    def __init__(self, msg):
        super().__init__(msg)


class NotProjectiveAtStage(QfcertError):
    def __init__(self, stage, side):
        super().__init__(f"dual sequence stops: stage {stage} ({side}) is not projective")
        self.stage = stage
        self.side = side


class SchemaError(QfcertError):
    """Malformed input document; carries a JSON-pointer-ish path."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.message = message


class InternalCheckError(QfcertError):
    """Internal consistency failure: theorem-equivalent routes disagree."""
