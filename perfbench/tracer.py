"""In-memory spans around thdist's public functions, one layer per module.

`Tracer.install()` replaces each function in LAYERS with a wrapper that
records a span: (id, parent id, operation id, name, start ns, end ns,
note).  It patches the defining module and every loaded thdist module
that bound the same object through ``from .x import f``, so calls made
inside the package are seen too.  Times come from ``perf_counter_ns``,
which is CLOCK_MONOTONIC on Linux and therefore comparable between the
benchmark and the processes it starts.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, attribute, note kind).  The note kinds add counters:
# "len" the size of the result, "label" the certificate's label,
# "hit" whether a cache lookup found an entry.
LAYERS = (
    ("semantics", "enumerate_models", "len"),
    ("semantics", "canonical_form", None),
    ("semantics", "assignment_set", None),
    ("semantics", "is_true", None),
    ("semantics", "bounded_consequence", None),
    ("semantics", "logically_equivalent", None),
    ("semantics", "conservative_extension", None),
    ("semantics", "sat_assignments", None),
    ("concepts", "check_defeq", None),
    ("concepts", "check_interpretation", None),
    ("concepts", "sentential_defeq_witness", None),
    ("concepts", "concept_closure", "len"),
    ("concepts", "cz_lower_bound", None),
    ("translation", "apply_translation", None),
    ("relations", "verify_certificate", "label"),
    ("catalog", "verify_all", None),
    ("catalog", "catalog_distance", None),
    ("catalog", "loads_catalog", None),
    ("network", "step_distance", None),
    ("network", "directed_step_distance", None),
    ("network", "build_network", None),
    ("network", "classify_ad", None),
    ("network", "check_amalgamation", None),
    ("network", "lower_bound_certificates", None),
    ("sexpr", "read_all", None),
    ("syntax", "parse_formula", None),
    ("cache", "DiskProfileStore.get", "hit"),
    ("cache", "DiskProfileStore.put", None),
)

# The certificates of the shipped catalog, in catalog order.
CERT_LABELS = (
    "ladder01", "ladder12", "ladder23", "ladder34",
    "add-p", "add-contradiction", "conj-split", "collapse-pq", "unprove-p",
    "poset-axioms", "eqrel-axioms",
    "bot-from-empty", "bot-from-posets", "bot-from-eqrels",
    "strict-defeq",
    "four-add3", "four-add4", "four-remove", "four-defeq",
    "kin-ether", "kin-defeq", "kin-embed",
)

# The commands of the workbench session, by operation id.
SESSION_COMMANDS = (
    "classify-ad", "dist-Ladder", "dist-FourDir-fwd", "dist-FourDir-back",
    "dist-KinCd", "dist-PureCd", "spectrum-Posets", "spectrum-Eqrels",
    "spectrum-PosetsLt", "models-Posets", "closure", "cz-SentPQ", "cz-Posets",
    "export", "check",
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def _layer_fields() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric."""
    fields = {
        "semantics.enumerate_models": ("calls", "self_s", "models_out"),
        "semantics.is_true": ("calls",),
        "concepts.concept_closure": ("calls", "self_s", "elements_out"),
        "catalog.loads_catalog": ("self_s",),
        "sexpr.read_all": ("self_s",),
        "cache.get": ("calls", "hits", "hit_ratio", "self_s"),
    }
    units = {"calls": "count", "self_s": "s", "models_out": "count",
             "elements_out": "count", "hits": "count", "hit_ratio": "ratio"}
    out = []
    for module, attr, _ in LAYERS:
        name = span_name(module, attr)
        for field in fields.get(name, ("calls", "self_s")):
            better = "higher" if field in ("hits", "hit_ratio") else "lower"
            out.append((f"{name}.{field}", units[field], better))
    out += [(f"relations.cert.{label}_s", "s", "lower") for label in CERT_LABELS]
    out.append(("cli.startup_ms", "ms", "lower"))
    out += [(f"cli.{cmd}_ms", "ms", "lower") for cmd in SESSION_COMMANDS]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.spans_self_s", "s", "lower"),
        ("trace.unspanned_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


LAYER_METRICS = _layer_fields()


class Tracer:
    """Collects spans in memory; `op` names the operation in progress."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._next = 1

    def span(self, name: str, fn, note: str | None = None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            record = [sid, stack[-1] if stack else None, self.op, name, 0, 0, None]
            stack.append(sid)
            record[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter_ns()
                stack.pop()
                spans.append(record)
            if note == "len":
                record[6] = len(result)
            elif note == "label":
                record[6] = args[0].label()
            elif note == "hit":
                record[6] = result is not None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever thdist bound it."""
        import thdist.cache  # noqa: F401  (with thdist, loads every submodule)

        for module, attr, note in LAYERS:
            mod = sys.modules[f"thdist.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                setattr(owner, fn_name, self.span(span_name(module, attr), original, note))
                continue
            original = getattr(mod, fn_name)
            wrapped = self.span(span_name(module, attr), original, note)
            for name, other in list(sys.modules.items()):
                if name == "thdist" or name.startswith("thdist."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is not None and start < cursor:
            start = cursor
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _op, _name, start, end, _note in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: end - start - covered_ns(
            [(max(c_start, start), min(c_end, end)) for c_start, c_end in children.get(sid, ())])
        for sid, _parent, _op, _name, start, end, _note in spans
    }


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans of `passes` traced passes."""
    selfs = self_times(spans)
    acc: dict[str, float] = {name: 0 for name, _, _ in LAYER_METRICS}
    for sid, _parent, _op, name, start, end, note in spans:
        if f"{name}.calls" in acc:
            acc[f"{name}.calls"] += 1
        if f"{name}.self_s" in acc:
            acc[f"{name}.self_s"] += selfs[sid] / 1e9
        if name == "semantics.enumerate_models":
            acc["semantics.enumerate_models.models_out"] += note or 0
        elif name == "concepts.concept_closure":
            acc["concepts.concept_closure.elements_out"] += note or 0
        elif name == "cache.get" and note:
            acc["cache.get.hits"] += 1
        elif name == "relations.verify_certificate":
            key = f"relations.cert.{note}_s"
            if key in acc:
                acc[key] += (end - start) / 1e9
    calls = acc["cache.get.calls"]
    hits = acc["cache.get.hits"]
    for key in acc:
        acc[key] /= passes
    acc["cache.get.hit_ratio"] = hits / calls if calls else 0.0
    return acc
