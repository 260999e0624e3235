"""JSON input documents: validation with pointer paths, loading, emission.

A document is one object: ``{"p": <odd prime>=3>}`` plus exactly one
payload key.  All numbers are integers in [0, p); arrays are nested
lists of fixed shape.

  algebra   {"dim": n, "mul": n*n*n, "unit": n}
  hom       {"source": <algebra>, "target": <algebra>, "matrix": t*s}
  module    {"algebra": <algebra>, "dim": d, "action": n*d*d}
  bimodule  {"left": <algebra>, "right": <algebra>,
             "left_action": nl*d*d, "right_action": nr*d*d}
  coring    {"base": <algebra>,
             "carrier": {"dim": d >= 1, "left_action", "right_action"},
             "delta": (d*d)*d, "eps": n*d}
  graded    {"group_table": g*g, "components": [d_x],
             "products": g*g table of d_x*d_y*d_{xy}}

The coring comultiplication is given on raw tensor-square coordinates
(row index i*d + j for c_i (x) c_j) by any representative of its class
in the balanced quotient; the internal quotient basis is an
implementation detail and never appears in documents.

``validate`` only checks shape and range (SchemaError, with a JSON
pointer).  ``build`` additionally constructs the validated domain
object, so algebra laws, module laws, coassociativity etc. are enforced
by the constructors and surface as ValidationError.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .algebra import Algebra, AlgebraHom, make_algebra
from .coring import Coring
from .errors import SchemaError
from .graded import GradedRing
from .linalg import in_range, is_prime
from .modrep import Bimodule, LeftModule
from .ringext import Extension

PAYLOAD_KEYS = ("algebra", "hom", "module", "bimodule", "coring", "graded")


def _need_object(doc, pointer):
    if not isinstance(doc, dict):
        raise SchemaError(pointer, f"expected an object, got {type(doc).__name__}")


def _need_keys(doc, pointer, required):
    for key in required:
        if key not in doc:
            raise SchemaError(pointer, f"missing required key {key!r}")
    extra = set(doc) - set(required)
    if extra:
        raise SchemaError(pointer, f"unexpected keys {sorted(extra)}")


def _int_in_range(value, pointer, upper):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, f"expected an integer, got {value!r}")
    if not 0 <= value < upper:
        raise SchemaError(pointer, f"value {value} out of range [0, {upper})")
    return value


def _nonneg_int(value, pointer):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, f"expected an integer, got {value!r}")
    if value < 0:
        raise SchemaError(pointer, f"expected a nonnegative integer, got {value}")
    return value


def _int_array(obj, shape, p, pointer):
    """Nested lists of the exact given shape, entries in [0, p).

    Checked a level at a time, each over all of that level's lists with
    builtins that run at C speed: the types and lengths of the lists, then
    the types and the range of the flattened entries.  Only a failure walks
    the array entry by entry, to name the first fault by its JSON pointer
    (``_first_fault``).
    """
    level = [obj]
    for n in shape:
        if set(map(type, level)) - {list} or set(map(len, level)) - {n}:
            return _first_fault(obj, shape, p, pointer)
        level = list(itertools.chain.from_iterable(level))
    if level and (set(map(type, level)) != {int} or min(level) < 0 or max(level) >= p):
        _first_fault(obj, shape, p, pointer)


def _first_fault(obj, shape, p, pointer):
    """Raise the SchemaError of the first fault in document order, if any:
    an int or list subclass other than bool fails the level checks of
    ``_int_array`` but is no fault."""
    if not shape:
        _int_in_range(obj, pointer, p)
        return
    if not isinstance(obj, list):
        raise SchemaError(pointer, f"expected a list of length {shape[0]}")
    if len(obj) != shape[0]:
        raise SchemaError(pointer, f"expected length {shape[0]}, got {len(obj)}")
    for i, v in enumerate(obj):
        _first_fault(v, shape[1:], p, f"{pointer}/{i}")


def _validate_algebra(doc, p, pointer):
    _need_object(doc, pointer)
    _need_keys(doc, pointer, ("dim", "mul", "unit"))
    n = _nonneg_int(doc["dim"], f"{pointer}/dim")
    _int_array(doc["mul"], (n, n, n), p, f"{pointer}/mul")
    _int_array(doc["unit"], (n,), p, f"{pointer}/unit")
    return n


def validate(doc) -> str:
    """Shape/range validation; returns the payload key."""
    _need_object(doc, "")
    if "p" not in doc:
        raise SchemaError("/p", "missing")
    p = doc["p"]
    if isinstance(p, int) and p >= 3 and not in_range(p):
        raise SchemaError("/p", f"p = {p} is outside the supported range (p-1)^2 + p < 2^63")
    if isinstance(p, bool) or not isinstance(p, int) or p < 3 or not is_prime(p):
        raise SchemaError("/p", f"expected an odd prime >= 3, got {p!r}")
    present = [k for k in PAYLOAD_KEYS if k in doc]
    if len(present) != 1:
        raise SchemaError("", f"expected exactly one of {list(PAYLOAD_KEYS)}, found {present}")
    extra = set(doc) - {"p", present[0]}
    if extra:
        raise SchemaError("", f"unexpected keys {sorted(extra)}")
    kind = present[0]
    body = doc[kind]
    base = f"/{kind}"
    if kind == "algebra":
        _validate_algebra(body, p, base)
    elif kind == "hom":
        _need_object(body, base)
        _need_keys(body, base, ("source", "target", "matrix"))
        ns = _validate_algebra(body["source"], p, f"{base}/source")
        nt = _validate_algebra(body["target"], p, f"{base}/target")
        _int_array(body["matrix"], (nt, ns), p, f"{base}/matrix")
    elif kind == "module":
        _need_object(body, base)
        _need_keys(body, base, ("algebra", "dim", "action"))
        n = _validate_algebra(body["algebra"], p, f"{base}/algebra")
        d = _nonneg_int(body["dim"], f"{base}/dim")
        _int_array(body["action"], (n, d, d), p, f"{base}/action")
    elif kind == "bimodule":
        _need_object(body, base)
        _need_keys(body, base, ("left", "right", "left_action", "right_action"))
        nl = _validate_algebra(body["left"], p, f"{base}/left")
        nr = _validate_algebra(body["right"], p, f"{base}/right")
        la = body["left_action"]
        if not isinstance(la, list) or len(la) != nl:
            raise SchemaError(f"{base}/left_action", f"expected a list of length {nl}")
        d = 0
        if nl and isinstance(la[0], list):
            d = len(la[0])
        _int_array(la, (nl, d, d), p, f"{base}/left_action")
        _int_array(body["right_action"], (nr, d, d), p, f"{base}/right_action")
    elif kind == "coring":
        _need_object(body, base)
        _need_keys(body, base, ("base", "carrier", "delta", "eps"))
        n = _validate_algebra(body["base"], p, f"{base}/base")
        car = body["carrier"]
        _need_object(car, f"{base}/carrier")
        _need_keys(car, f"{base}/carrier", ("dim", "left_action", "right_action"))
        d = _nonneg_int(car["dim"], f"{base}/carrier/dim")
        if d == 0:
            raise SchemaError(f"{base}/carrier/dim", "a coring carrier must have positive dimension")
        _int_array(car["left_action"], (n, d, d), p, f"{base}/carrier/left_action")
        _int_array(car["right_action"], (n, d, d), p, f"{base}/carrier/right_action")
        _int_array(body["delta"], (d * d, d), p, f"{base}/delta")
        _int_array(body["eps"], (n, d), p, f"{base}/eps")
    elif kind == "graded":
        _need_object(body, base)
        _need_keys(body, base, ("group_table", "components", "products"))
        table = body["group_table"]
        if not isinstance(table, list) or not table:
            raise SchemaError(f"{base}/group_table", "expected a nonempty square table")
        g = len(table)
        _int_array(table, (g, g), g, f"{base}/group_table")
        comps = body["components"]
        if not isinstance(comps, list) or len(comps) != g:
            raise SchemaError(f"{base}/components", f"expected a list of length {g}")
        dims = [_nonneg_int(v, f"{base}/components/{i}") for i, v in enumerate(comps)]
        prods = body["products"]
        if not isinstance(prods, list) or len(prods) != g:
            raise SchemaError(f"{base}/products", f"expected a list of length {g}")
        for x in range(g):
            if not isinstance(prods[x], list) or len(prods[x]) != g:
                raise SchemaError(f"{base}/products/{x}", f"expected a list of length {g}")
            for y in range(g):
                z = table[x][y]
                _int_array(
                    prods[x][y],
                    (dims[x], dims[y], dims[z]),
                    p,
                    f"{base}/products/{x}/{y}",
                )
    return kind


def _build_algebra(body, p) -> Algebra:
    return make_algebra(p, np.array(body["mul"], dtype=np.int64).reshape(
        body["dim"], body["dim"], body["dim"]
    ), np.array(body["unit"], dtype=np.int64).reshape(body["dim"]))


def build(doc):
    """Validate and construct; returns (kind, domain object)."""
    kind = validate(doc)
    p = doc["p"]
    body = doc[kind]
    if kind == "algebra":
        return kind, _build_algebra(body, p)
    if kind == "hom":
        src = _build_algebra(body["source"], p)
        tgt = _build_algebra(body["target"], p)
        return kind, AlgebraHom(src, tgt, np.array(body["matrix"], dtype=np.int64).reshape(tgt.dim, src.dim))
    if kind == "module":
        alg = _build_algebra(body["algebra"], p)
        d = body["dim"]
        action = np.array(body["action"], dtype=np.int64).reshape(alg.dim, d, d)
        return kind, LeftModule(alg, action)
    if kind == "bimodule":
        left = _build_algebra(body["left"], p)
        right = _build_algebra(body["right"], p)
        d = len(body["left_action"][0]) if left.dim else 0
        la = np.array(body["left_action"], dtype=np.int64).reshape(left.dim, d, d)
        ra = np.array(body["right_action"], dtype=np.int64).reshape(right.dim, d, d)
        return kind, Bimodule(left, right, la, ra)
    if kind == "coring":
        base = _build_algebra(body["base"], p)
        d = body["carrier"]["dim"]
        la = np.array(body["carrier"]["left_action"], dtype=np.int64).reshape(base.dim, d, d)
        ra = np.array(body["carrier"]["right_action"], dtype=np.int64).reshape(base.dim, d, d)
        carrier = Bimodule(base, base, la, ra)
        delta = np.array(body["delta"], dtype=np.int64).reshape(d * d, d)
        eps = np.array(body["eps"], dtype=np.int64).reshape(base.dim, d)
        return kind, Coring(base, carrier, delta, eps)
    if kind == "graded":
        return kind, GradedRing(p, body["group_table"], body["components"], body["products"])
    raise SchemaError("", f"unhandled payload kind {kind!r}")  # pragma: no cover


def build_extension(doc) -> Extension:
    kind, obj = build(doc)
    if kind != "hom":
        raise SchemaError("", f"this command needs a 'hom' document, got {kind!r}")
    return Extension(obj)


def expect(doc, kind):
    got, obj = build(doc)
    if got != kind:
        raise SchemaError("", f"this command needs a {kind!r} document, got {got!r}")
    return obj


def load_path(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("", f"{path} is not valid JSON: {exc}") from exc


# ------------------------------------------------------------- emission


def _arr(a):
    return np.asarray(a).astype(int).tolist()


def algebra_document(a: Algebra) -> dict:
    return {"dim": a.dim, "mul": _arr(a.mul), "unit": _arr(a.unit)}


def hom_document(h: AlgebraHom) -> dict:
    return {
        "p": h.source.p,
        "hom": {
            "source": algebra_document(h.source),
            "target": algebra_document(h.target),
            "matrix": _arr(h.matrix),
        },
    }


def module_document(m: LeftModule) -> dict:
    return {
        "p": m.p,
        "module": {"algebra": algebra_document(m.algebra), "dim": m.dim, "action": _arr(m.action)},
    }


def bimodule_document(m: Bimodule) -> dict:
    return {
        "p": m.p,
        "bimodule": {
            "left": algebra_document(m.left_alg),
            "right": algebra_document(m.right_alg),
            "left_action": _arr(m.left_acts),
            "right_action": _arr(m.right_acts),
        },
    }


def coring_document(c: Coring) -> dict:
    return {
        "p": c.p,
        "coring": {
            "base": algebra_document(c.base),
            "carrier": {
                "dim": c.carrier.dim,
                "left_action": _arr(c.carrier.left_acts),
                "right_action": _arr(c.carrier.right_acts),
            },
            "delta": _arr(c.delta_rep()),
            "eps": _arr(c.eps),
        },
    }


def graded_document(r: GradedRing) -> dict:
    return {
        "p": r.p,
        "graded": {
            "group_table": _arr(r.table),
            "components": list(r.dims),
            "products": [[_arr(r.products[x][y]) for y in range(r.order)] for x in range(r.order)],
        },
    }
