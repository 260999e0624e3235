"""Outside-in tracing of qfcert's public functions.

``Tracer.install`` replaces each function in ``SPANS`` with a wrapper at
every place it is bound: the defining module and every other ``qfcert``
module that imported the name (``from .modrep import hom_space`` binds
it in four more modules).  Constructors are wrapped as ``__init__`` on the
class and ``algebra.generating_indices`` as a method, so every caller
reaches the wrapper.  ``restore`` puts every original back.

Spans ``(name, start, end, parent, shape)`` are kept in memory while the
program runs; ``summary`` turns them into per-span self time and call
counts, computed kernel counts (from the shapes that ``_SHAPES`` records)
and distinct-input counts (for the spans in ``DISTINCT``), and ``write``
saves them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import sys
import time

import numpy as np

# span name -> (module, attribute path); a class path wraps its __init__
SPANS = {
    "cli.run_documents": ("cli", "run_documents"),
    "schema.build": ("schema", "build"),
    "schema.expect": ("schema", "expect"),
    "schema.build_extension": ("schema", "build_extension"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.matmul": ("linalg", "matmul"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.solve_right": ("linalg", "solve_right"),
    "linalg.invert": ("linalg", "invert"),
    "linalg.row_space_quotient": ("linalg", "row_space_quotient"),
    "linalg.column_space_basis": ("linalg", "column_space_basis"),
    "algebra.Algebra": ("algebra", "Algebra"),
    "algebra.generating_indices": ("algebra", "Algebra.generating_indices"),
    "algebra.EnvelopingAlgebra": ("algebra", "EnvelopingAlgebra"),
    "algebra.tensor_algebra": ("algebra", "tensor_algebra"),
    "modrep.hom_space": ("modrep", "hom_space"),
    "modrep.tensor_over": ("modrep", "tensor_over"),
    "modrep.Bimodule": ("modrep", "Bimodule"),
    "modrep.left_dual": ("modrep", "left_dual"),
    "modrep.right_dual": ("modrep", "right_dual"),
    "modrep.is_fg_projective": ("modrep", "is_fg_projective"),
    "decomp.decompose": ("decomp", "decompose"),
    "decomp.end_ring": ("decomp", "end_ring"),
    "decomp.radical": ("decomp", "radical"),
    "decomp.find_idempotent": ("decomp", "find_idempotent"),
    "decomp.iso": ("decomp", "iso"),
    "simdiv.divides": ("simdiv", "divides"),
    "simdiv.similar": ("simdiv", "similar"),
    "simdiv.is_qf_bimodule": ("simdiv", "is_qf_bimodule"),
    "ringext.is_qf_extension": ("ringext", "is_qf_extension"),
    "coring.Coring": ("coring", "Coring"),
    "coring.sweedler": ("coring", "sweedler"),
    "coring.left_dual_ring": ("coring", "left_dual_ring"),
    "coring.right_dual_ring": ("coring", "right_dual_ring"),
    "coring.is_qf_coring": ("coring", "is_qf_coring"),
    "graded.is_qf_restriction": ("graded", "is_qf_restriction"),
    "report.build_report": ("report", "build_report"),
    "report.canonical_json": ("report", "canonical_json"),
    "verify.verify_report": ("verify", "verify_report"),
}

# spans whose distinct inputs are counted, by (p, shapes, array bytes)
DISTINCT = ("modrep.hom_space", "modrep.tensor_over", "decomp.decompose", "algebra.generating_indices")


def input_key(obj, memo=None):
    """A hashable key that is equal for inputs with equal defining arrays.

    Arrays key on dtype, shape and a digest of their bytes; algebras on
    (p, mul, unit); modules on their algebra and action; bimodules on both
    algebras and both actions.  Plain values key on themselves.

    ``memo`` (a dict) caches algebra keys by object for the life of one
    trace: qfcert never changes an algebra's arrays after construction, and
    hashing a 64-dim structure tensor (2 MB) on each of hundreds of calls
    would dominate the tracer's cost.  The memo holds the algebra itself so
    that its id cannot be reused.
    """
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return ("array", a.dtype.str, a.shape, hashlib.blake2b(a, digest_size=16).digest())
    if isinstance(obj, (list, tuple)):
        return tuple(input_key(x, memo) for x in obj)
    if hasattr(obj, "mul") and hasattr(obj, "unit") and hasattr(obj, "field"):
        hit = memo.get(id(obj)) if memo is not None else None
        if hit is not None and hit[0] is obj:
            return hit[1]
        key = ("algebra", obj.p, input_key(obj.mul), input_key(obj.unit))
        if memo is not None:
            memo[id(obj)] = (obj, key)
        return key
    if hasattr(obj, "left_acts") and hasattr(obj, "right_acts"):
        return ("bimodule", input_key(obj.left_alg, memo), input_key(obj.right_alg, memo),
                input_key(obj.left_acts), input_key(obj.right_acts))
    if hasattr(obj, "action") and hasattr(obj, "algebra"):
        return ("module", input_key(obj.algebra, memo), input_key(obj.action))
    if obj is None or isinstance(obj, (int, str, float, bool)):
        return obj
    raise TypeError(f"no input key for {type(obj).__name__}")


def _rref_shape(args, result):
    shape = np.shape(args[0])
    return (shape[0], shape[1], result[2]) if len(shape) == 2 else (0, 0, 0)


def _matmul_shape(args, result):
    return (args[0].shape[0], args[0].shape[1], args[1].shape[1])


def _envelope_dim(args, result):
    return args[0].dim


# spans that record the shape their computed counts derive from
_SHAPES = {
    "linalg.rref": _rref_shape,
    "linalg.matmul": _matmul_shape,
    "algebra.EnvelopingAlgebra": _envelope_dim,
}
# computed count -> unit
COUNTS = {
    "linalg.rref.ops": "ops",
    "linalg.matmul.flops": "flop",
    "linalg.matmul.bytes": "bytes",
    "algebra.EnvelopingAlgebra.bytes": "bytes",
    "algebra.EnvelopingAlgebra.max_dim": "count",
}


def computed_counts(spans):
    """Kernel counts from recorded shapes: rref m*n*rank, matmul 2mkn flops
    and 8(mk+kn+mn) bytes, enveloping algebra 8*dim^3 bytes."""
    counts = dict.fromkeys(COUNTS, 0)
    for name, _, _, _, shape in spans:
        if shape is None:
            continue
        if name == "linalg.rref":
            m, n, rank = shape
            counts["linalg.rref.ops"] += m * n * rank
        elif name == "linalg.matmul":
            m, k, n = shape
            counts["linalg.matmul.flops"] += 2 * m * k * n
            counts["linalg.matmul.bytes"] += 8 * (m * k + k * n + m * n)
        else:
            counts["algebra.EnvelopingAlgebra.bytes"] += 8 * shape**3
            counts["algebra.EnvelopingAlgebra.max_dim"] = max(counts["algebra.EnvelopingAlgebra.max_dim"], shape)
    return counts


def metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in DISTINCT:
        units[f"{name}.distinct"] = "count"
    units.update(COUNTS)
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def _resolve(module_name, path):
    """(owner, attribute) that holds the object SPANS names."""
    owner = sys.modules[f"qfcert.{module_name}"]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    target = getattr(owner, parts[-1])
    if isinstance(target, type):
        return target, "__init__"
    return owner, parts[-1]


class Tracer:
    """Spans and counters for one traced pass; install, run, restore."""

    def __init__(self):
        self.spans = []
        self.distinct = {name: set() for name in DISTINCT}
        self._stack = []
        self._patches = []
        self._key_memo = {}
        # time spent keying inputs, kept out of every span
        self._hook_s = 0.0

    def clock(self):
        """perf_counter minus the tracer's own bookkeeping time."""
        return time.perf_counter() - self._hook_s

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        shape_of = _SHAPES.get(name)
        keys = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                t0 = time.perf_counter()
                keys.add(input_key(list(args) + sorted(kwargs.items()), self._key_memo))
                self._hook_s += time.perf_counter() - t0
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, None)
            if shape_of is not None:
                spans[idx] = (name, start, end, spans[idx][3], shape_of(args, result))
            return result

        return traced

    def install(self):
        """Wrap every span at every binding site in loaded qfcert modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qfcert.cli  # noqa: F401  (loads every module SPANS names)

        modules = [m for n, m in sys.modules.items() if n == "qfcert" or n.startswith("qfcert.")]
        for name, (module_name, path) in SPANS.items():
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, original, wrapped)
            if owner is sys.modules[f"qfcert.{module_name}"]:
                # a module-level function: rebind it wherever it was imported
                for mod in modules:
                    if mod is owner:
                        continue
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._key_memo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------

    def summary(self, wall_s):
        """Per-span self time and calls, distinct inputs, computed counts,
        and the share of ``wall_s`` (measured with ``clock``) that
        top-level spans cover."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        covered = 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            out[f"{name}.self_s"] += durations[i] - child[i]
            out[f"{name}.calls"] += 1
            if parent < 0:
                covered += durations[i]
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = len(keys)
        out.update(computed_counts(self.spans))
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out

    def write(self, path):
        """Save the spans as gzipped JSON lines:
        [name, start, end, parent index, recorded shape or null]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
