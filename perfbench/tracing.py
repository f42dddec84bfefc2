"""Layer spans and counters, recorded from outside the library.

Each layer's public functions are wrapped in every cliffdegen module
namespace that bound them by name; methods are wrapped on their class.
``instrument`` restores every original on exit, so the library source and
its untraced behaviour stay untouched.

Two recorders share the target table.  ``SpanRecorder`` keeps one span per
call (name, parent span, op id, start, end) for self times.  ``CallCounter``
only counts, and also wraps per-coefficient functions (``rings.czero``,
``rings.eval_coeff``) whose spans would swamp the timings, plus the few
hooks that read layer-specific counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from math import comb

# span name -> targets, as (module, attribute path).  "Class.method" wraps a
# method on its class; "json.dumps" on cliffdegen.cli wraps the dumps of the
# json module as the CLI sees it.
SPAN_TARGETS = {
    "clifford.geometric_product": [("cliffdegen.clifford", "geometric_product")],
    "clifford.reverse": [("cliffdegen.clifford", "reverse")],
    "clifford.specialize_space": [("cliffdegen.clifford", "specialize_space")],
    "liestructure.build_even_lie": [("cliffdegen.liestructure", "build_even_lie")],
    "liestructure.verify_jacobi": [("cliffdegen.liestructure", "QuotientLieAlgebra.verify_jacobi")],
    "liestructure.reconstruct_form": [("cliffdegen.liestructure", "reconstruct_form")],
    "liestructure.theta_tensor": [("cliffdegen.liestructure", "theta_tensor")],
    "liestructure.tensor_multiply": [("cliffdegen.liestructure", "AlgebraTensor.multiply")],
    "degeneration.det": [("cliffdegen.degeneration", "_det_fraction_field")],
    "degeneration.jacobson_radical": [("cliffdegen.degeneration", "jacobson_radical")],
    "linalg.nullspace_dense": [("cliffdegen.linalg", "nullspace_dense")],
    "linalg.span_insert": [("cliffdegen.linalg", "SpanBasis.insert")],
    "linalg.span_contains": [("cliffdegen.linalg", "SpanBasis.contains")],
    "linalg.mat_mul": [("cliffdegen.linalg", "mat_mul")],
    "spinor.spinor_matrix": [("cliffdegen.spinor", "spinor_matrix")],
    "spinor.verify_action_relations": [("cliffdegen.spinor", "verify_action_relations")],
    # the CLI's `lipschitz test` runs the membership test inside lipschitz_report
    "lipschitz.is_lipschitz": [
        ("cliffdegen.lipschitz", "is_lipschitz"),
        ("cliffdegen.lipschitz", "lipschitz_report"),
    ],
    "plethysm.irrep_weights": [("cliffdegen.plethysm", "irrep_weights")],
    "plethysm.identify_irreducible": [("cliffdegen.plethysm", "identify_irreducible")],
    "plethysm.restrict_weights": [("cliffdegen.plethysm", "restrict_weights")],
    "localmodels.trace_fingerprint": [("cliffdegen.localmodels", "trace_fingerprint")],
    "localmodels.generates_full_algebra": [("cliffdegen.localmodels", "generates_full_algebra")],
    "jsonio.decode": [
        ("cliffdegen.cli", "_load_input"),
        ("cliffdegen.jsonio", "decode_space"),
        ("cliffdegen.jsonio", "decode_multivector"),
        ("cliffdegen.jsonio", "decode_tuple"),
    ],
    "jsonio.encode": [
        ("cliffdegen.jsonio", "encode_space"),
        ("cliffdegen.jsonio", "encode_tensor"),
        ("cliffdegen.jsonio", "encode_witness"),
        ("cliffdegen.jsonio", "encode_weights"),
        ("cliffdegen.jsonio", "encode_fingerprint"),
        ("cliffdegen.cli", "json.dumps"),
    ],
}

# counted only: spans around these would cost more than the work they time
COUNT_TARGETS = {
    "rings.czero": [("cliffdegen.rings", "czero")],
    "rings.eval_coeff": [("cliffdegen.rings", "eval_coeff")],
    "lipschitz.doubled_algebra": [("cliffdegen.lipschitz", "doubled_algebra")],
    "lipschitz.doubled_algebra.built": [("cliffdegen.lipschitz", "DoubledAlgebra.__init__")],
    "clifford.spaces": [("cliffdegen.clifford", "QuadraticSpace.__init__")],
}

ROOT_SPAN = "cli.main"  # one per op; its self time is what no layer span covers


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for one target, or None when the
    library no longer has it."""
    module = importlib.import_module(module_name)
    head, _, attr = path.rpartition(".")
    if not head:
        return (module, attr, module.__dict__[attr]) if attr in module.__dict__ else None
    owner = getattr(module, head, None)
    if isinstance(owner, type) and attr in owner.__dict__:
        return owner, attr, owner.__dict__[attr]
    if isinstance(owner, types.ModuleType) and hasattr(owner, attr):
        return owner, attr, getattr(owner, attr)
    return None


@contextmanager
def instrument(targets: dict, wrap):
    """Replace every target by ``wrap(name, original)`` for the duration.

    A module-level function is replaced in every loaded cliffdegen module
    that holds it; a method on its class; an attribute of a module bound in
    a cliffdegen module (``json.dumps``) through a private copy of that
    module.  Yields the list of targets that could not be found."""
    patched = []  # (namespace, attribute, original)
    missing = []
    try:
        for name, specs in targets.items():
            for module_name, path in specs:
                found = _resolve(module_name, path)
                if found is None:
                    missing.append(f"{module_name}.{path}")
                    continue
                owner, attr, original = found
                wrapped = wrap(name, original)
                if isinstance(owner, type):
                    patched.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                elif isinstance(owner, types.ModuleType) and owner.__name__ != module_name:
                    holder = sys.modules[module_name]
                    binding = path.partition(".")[0]
                    copy = types.ModuleType(owner.__name__)
                    copy.__dict__.update(owner.__dict__)
                    setattr(copy, attr, wrapped)
                    patched.append((holder, binding, holder.__dict__[binding]))
                    setattr(holder, binding, copy)
                else:
                    for mod in [m for n, m in sys.modules.items() if n.partition(".")[0] == "cliffdegen"]:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                patched.append((mod, key, original))
                                setattr(mod, key, wrapped)
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


class SpanRecorder:
    """Spans kept in memory as (name, parent index, op id, start ns, end ns),
    in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, self.op, start, clock())
                stack.pop()

        return wrapper

    def end_op(self):
        pass

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_seconds(self) -> dict:
        return self_seconds(self.spans)

    def write(self, path):
        """Write the spans as tab-separated lines: index, parent, op, name,
        start ns, end ns."""
        with open(path, "w") as fh:
            fh.write("index\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start}\t{end}\n")


def self_seconds(spans) -> dict:
    """Per span name, the summed duration minus the time covered by each
    span's direct children (children nest inside their parent and do not
    overlap: one thread)."""
    covered = [0] * len(spans)
    for name, parent, op, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, parent, op, start, end) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start - covered[i]) * 1e-9
    return out


class CallCounter:
    """Call counts per target name, plus the layer-specific counts that
    need a look at arguments or results."""

    def __init__(self):
        self.counts = Counter()
        self.extra = Counter()
        self._spaces = []
        self.op = -1

    def wrap(self, name, fn):
        counts = self.counts
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def end_op(self):
        """Add the product-cache entries of the spaces built by this op."""
        self.extra["clifford.gen_cache.entries"] += sum(
            len(getattr(space, "_gen_cache", ())) for space in self._spaces
        )
        self._spaces.clear()

    def _after_clifford_spaces(self, args, kwargs, result):
        self._spaces.append(args[0])

    def _after_liestructure_verify_jacobi(self, args, kwargs, result):
        lie = args[0]
        triples = args[1] if len(args) > 1 else kwargs.get("triples")
        if triples is None:
            n = comb(lie.m, 2)
            self.extra["liestructure.verify_jacobi.triples"] += comb(n, 3)
        else:
            self.extra["liestructure.verify_jacobi.triples"] += len(triples)

    def _after_linalg_span_insert(self, args, kwargs, result):
        self.extra["linalg.span_insert.useful"] += bool(result)

    def _after_localmodels_trace_fingerprint(self, args, kwargs, result):
        self.extra["localmodels.trace_fingerprint.words"] += len(result.traces)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanRecorder, counter: CallCounter, stdout_bytes: int, overhead: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    calls = spans.calls()
    selfs = spans.self_seconds()
    out = {}
    for name in list(SPAN_TARGETS) + [ROOT_SPAN]:
        out[name + ".calls"] = (calls.get(name, 0), "count")
        out[name + ".self_s"] = (selfs.get(name, 0.0), "s")
    c, x = counter.counts, counter.extra
    out["clifford.gen_cache.entries"] = (x["clifford.gen_cache.entries"], "count")
    out["liestructure.verify_jacobi.triples"] = (x["liestructure.verify_jacobi.triples"], "count")
    out["linalg.span_insert.useful_ratio"] = (_ratio(x["linalg.span_insert.useful"], c["linalg.span_insert"]), "ratio")
    built = c["lipschitz.doubled_algebra.built"]
    lookups = c["lipschitz.doubled_algebra"]
    out["lipschitz.doubled_algebra.hit_ratio"] = (_ratio(max(lookups - built, 0), lookups), "ratio")
    out["localmodels.trace_fingerprint.words"] = (x["localmodels.trace_fingerprint.words"], "count")
    out["rings.czero.calls"] = (c["rings.czero"], "count")
    out["rings.eval_coeff.calls"] = (c["rings.eval_coeff"], "count")
    out["jsonio.stdout_bytes"] = (stdout_bytes, "bytes")
    out["tracing.ops_per_s_ratio"] = (overhead, "ratio")
    return out

