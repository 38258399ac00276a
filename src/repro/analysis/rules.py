"""AST rules encoding this repository's hand-maintained invariants.

Each rule is a function ``(ctx: FileContext) -> list[Finding]``. The
rules are deliberately repo-specific — they turn conventions that so far
only held by code review into machine-checked invariants:

``RA201`` dtype-literal
    Modeling code (``nn``/``core``/``text``/``baselines``/
    ``downstream``) must not hard-code floating dtypes; the float32
    inference / float64 training policy lives in
    ``repro.nn.tensor.get_compute_dtype()`` and the ``DEFAULT_DTYPE`` /
    ``FAST_DTYPE`` constants. (``nn/tensor.py`` itself defines the
    policy and is exempt.)

``RA401`` unguarded-obs
    Metric emissions (``*.metrics.counter/gauge/histogram``,
    ``*.tracer.span``) and decision-provenance capture
    (``provenance.record_*``) in hot paths must sit behind an
    ``obs.enabled`` guard (directly, or via a local alias like
    ``observing = obs.enabled``). ``obs.span`` self-guards and is
    exempt; so is the ``repro.obs`` package itself.

``RA402`` dynamic-metric-name
    Metric/span names must not be built per call (f-strings,
    concatenation, ``format``/``join``/``str`` calls): dynamic names
    explode registry cardinality and allocate on the hot path. Static
    attributes precomputed at setup time (e.g. ``self._profile_name``)
    are allowed.

``RA403`` unsafe-metric-label
    Metric label *values* feed straight into ``metric_key`` and, via run
    reports and cross-process merges, into ``slice=``/``worker=``
    parsing. Emission sites must pass static, key-safe values: no
    ``**labels`` expansion, no per-call string building (f-strings,
    concatenation, ``format``/``str`` calls), and string constants
    restricted to ``[A-Za-z0-9_.:/-]`` (the ``{``/``}``/``,``/``=``
    delimiters of the key format would corrupt round-tripping). Plain
    variables are allowed — fixed vocabularies like BUCKETS arrive that
    way. The ``repro.obs`` package (which re-keys merged snapshots) is
    exempt.

``RA404`` metric-naming
    Units belong in the metric name, since names reach ``--metrics-out``
    and run reports as-is: a histogram whose (static) name
    mentions a duration (``latency``, ``duration``, ``time``, ``ms``,
    …) must use the ``_seconds`` suffix and record seconds; a gauge
    whose name mentions a byte quantity (``mb``, ``mem``, ``rss``, …)
    must use the ``_bytes`` suffix and record bytes. Only constant
    names are checked, so registries that re-key merged snapshots
    through variables are unaffected.

``RA501`` cache-invalidation
    A ``Module`` subclass whose ``__init__`` creates a cache attribute
    (``*cache*``, except ``*_enabled`` flags) must override ``train``,
    ``load_state_dict`` and ``to_dtype`` and invalidate the cache in
    each — every parameter mutation must drop derived state.

Which package may use ``multiprocessing``, memory mapping or
``DecisionRecord`` is not a per-file rule: the whole-program pass
enforces it as RA613 over ``repro.analysis.layers.CONFINED``. Parameter
registration and gradient flow are not per-file rules either: the
runtime model verifier (:mod:`repro.analysis.model_lint`, RM101) checks
them on the instantiated models.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections.abc import Callable, Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding

# Module classes shipped by the repo; used (together with in-file
# subclassing) to recognize Module subclasses statically.
KNOWN_MODULE_CLASSES = frozenset(
    {
        "Parameter",
        "Module",
        "Linear",
        "Embedding",
        "LayerNorm",
        "Dropout",
        "Sequential",
        "GELU",
        "ReLU",
        "MLP",
        "ScaledDotProductAttention",
        "MultiHeadAttention",
        "AdditiveAttention",
        "TransformerEncoderLayer",
        "TransformerEncoder",
        "MiniBert",
        "EntityEmbedder",
        "TypePredictor",
        "Phrase2Ent",
        "Ent2Ent",
        "KG2Ent",
        "BootlegModel",
        "NedBaseModel",
        "RelationModel",
    }
)

_FLOAT_DTYPE_ATTRS = frozenset({"float16", "float32", "float64", "float128"})
_FLOAT_DTYPE_STRINGS = frozenset({"float16", "float32", "float64", "float128"})
_EMISSION_REGISTRIES = frozenset({"metrics"})
_EMISSION_METHODS = frozenset({"counter", "gauge", "histogram"})
# Label values must stay within the metric-key alphabet; anything else
# would collide with the name{k=v,...} delimiters.
_SAFE_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:/-"
)
# Real keyword parameters of the registry methods, not labels.
_NON_LABEL_KWARGS = frozenset({"reservoir_size"})


@dataclasses.dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    path: str
    source: str
    tree: ast.Module
    # Modeling code carries the dtype invariant.
    is_modeling: bool = True
    # The repro.obs package implements the instrumentation and is exempt
    # from the obs-guard rules.
    is_obs_package: bool = False
    # nn/tensor.py defines the dtype policy itself.
    defines_dtype_policy: bool = False

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._repro_parent = node  # type: ignore[attr-defined]

    def parents(self, node: ast.AST) -> Iterator[ast.AST]:
        while True:
            parent = getattr(node, "_repro_parent", None)
            if parent is None:
                return
            yield parent
            node = parent

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            message=message,
            severity=SEVERITY_ERROR,
        )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _module_like_classes(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """Classes in this file that (transitively) look like nn Modules."""
    classes = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    module_like: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name in module_like:
                continue
            for base in node.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else None
                )
                if base_name in KNOWN_MODULE_CLASSES or base_name in module_like:
                    module_like[name] = node
                    changed = True
                    break
    return module_like


def _iter_init_methods(ctx: FileContext) -> Iterator[tuple[ast.ClassDef, ast.FunctionDef]]:
    for class_node in _module_like_classes(ctx.tree).values():
        for item in class_node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield class_node, item


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _contains_name_or_attr(node: ast.AST, names: frozenset[str] | set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in names:
            return True
    return False


# ----------------------------------------------------------------------
# RA201 — hard-coded floating dtypes in modeling code
# ----------------------------------------------------------------------
def check_dtype_literals(ctx: FileContext) -> list[Finding]:
    """RA201 dtype-literal."""
    if not ctx.is_modeling or ctx.defines_dtype_policy:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _FLOAT_DTYPE_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            findings.append(
                ctx.finding(
                    "RA201",
                    node,
                    f"hard-coded np.{node.attr} bypasses the compute-dtype "
                    "policy; use get_compute_dtype() or the DEFAULT_DTYPE/"
                    "FAST_DTYPE constants from repro.nn.tensor",
                )
            )
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            value = node.value
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value in _FLOAT_DTYPE_STRINGS
            ):
                findings.append(
                    ctx.finding(
                        "RA201",
                        value,
                        f'hard-coded dtype="{value.value}" bypasses the '
                        "compute-dtype policy; use get_compute_dtype() or the "
                        "DEFAULT_DTYPE/FAST_DTYPE constants",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# RA401 / RA402 — observability emissions
# ----------------------------------------------------------------------
def _is_emission(node: ast.Call) -> tuple[bool, str]:
    """Recognize ``<x>.metrics.counter|gauge|histogram(...)``,
    ``<x>.tracer.span(...)`` and ``<x>.provenance.record_*(...)``, with
    or without the ``<x>.`` prefix."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False, ""
    owner = func.value
    owner_attr = (
        owner.attr if isinstance(owner, ast.Attribute) else (
            owner.id if isinstance(owner, ast.Name) else None
        )
    )
    if func.attr in _EMISSION_METHODS and owner_attr in _EMISSION_REGISTRIES:
        return True, f"metrics.{func.attr}"
    if func.attr == "span" and owner_attr == "tracer":
        return True, "tracer.span"
    if func.attr.startswith("record_") and owner_attr == "provenance":
        return True, f"provenance.{func.attr}"
    return False, ""


def _guard_aliases(func_node: ast.AST) -> set[str]:
    """Locals assigned from an expression mentioning ``enabled``."""
    aliases: set[str] = {"enabled"}
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign) and _contains_name_or_attr(
            node.value, {"enabled"}
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _enclosing_function(ctx: FileContext, node: ast.AST) -> ast.AST:
    for parent in ctx.parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return ctx.tree


def _is_guarded(ctx: FileContext, call: ast.Call, aliases: set[str]) -> bool:
    for parent in ctx.parents(call):
        if isinstance(parent, (ast.If, ast.IfExp)) and _contains_name_or_attr(
            parent.test, aliases
        ):
            return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


def check_obs_emissions(ctx: FileContext) -> list[Finding]:
    """RA401 unguarded-obs and RA402 dynamic-metric-name."""
    if ctx.is_obs_package:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        emission, label = _is_emission(node)
        if not emission:
            continue
        aliases = _guard_aliases(_enclosing_function(ctx, node))
        if not _is_guarded(ctx, node, aliases):
            findings.append(
                ctx.finding(
                    "RA401",
                    node,
                    f"{label} emission is not behind an `obs.enabled` guard; "
                    "hot paths must be free when observability is off",
                )
            )
        # Provenance capture takes a record key, not a name.
        if (
            node.args
            and not label.startswith("provenance.")
            and _is_dynamic_value(node.args[0])
        ):
            findings.append(
                ctx.finding(
                    "RA402",
                    node.args[0],
                    f"{label} name is built per call (f-string/concat/"
                    "format); use a static name and attach variability "
                    "as label kwargs instead",
                )
            )
    return findings


# ----------------------------------------------------------------------
# RA403 — metric label values must be static and key-safe
# ----------------------------------------------------------------------
def _is_dynamic_value(node: ast.expr) -> bool:
    """True when the expression builds a string per call."""
    return any(
        isinstance(sub, (ast.JoinedStr, ast.BinOp))
        or (
            isinstance(sub, ast.Call)
            and _call_name(sub) in ("format", "join", "str", "repr")
        )
        for sub in ast.walk(node)
    )


def check_metric_labels(ctx: FileContext) -> list[Finding]:
    """RA403 unsafe-metric-label."""
    if ctx.is_obs_package:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        emission, label = _is_emission(node)
        if not emission or not label.startswith("metrics."):
            continue
        for keyword in node.keywords:
            if keyword.arg is None:
                findings.append(
                    ctx.finding(
                        "RA403",
                        keyword.value,
                        f"{label} expands **labels at the emission site; "
                        "label names must be static keywords so slice/"
                        "worker cardinality stays auditable",
                    )
                )
                continue
            if keyword.arg in _NON_LABEL_KWARGS:
                continue
            value = keyword.value
            if isinstance(value, ast.Constant):
                if isinstance(value.value, str) and (
                    not value.value
                    or not set(value.value) <= _SAFE_LABEL_CHARS
                ):
                    findings.append(
                        ctx.finding(
                            "RA403",
                            value,
                            f"{label} label {keyword.arg}="
                            f"{value.value!r} contains characters outside "
                            "the metric-key alphabet [A-Za-z0-9_.:/-]; "
                            "the key format cannot round-trip it",
                        )
                    )
            elif _is_dynamic_value(value):
                findings.append(
                    ctx.finding(
                        "RA403",
                        value,
                        f"{label} label {keyword.arg} is built per call "
                        "(f-string/concat/format); pass a value from a "
                        "fixed vocabulary instead",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# RA404 — units in metric names: _seconds histograms, _bytes gauges
# ----------------------------------------------------------------------
# Name tokens that mark a metric as measuring a duration / a byte
# quantity. Tokens are whole [._]-separated segments ("runtime" does not
# contain the token "time"), so fixed vocabularies stay cheap to audit.
_DURATION_NAME_TOKENS = frozenset(
    {"seconds", "sec", "secs", "latency", "duration", "elapsed", "time",
     "ms", "millis", "milliseconds", "us", "micros", "ns", "nanos"}
)
_BYTE_NAME_TOKENS = frozenset(
    {"bytes", "byte", "kb", "mb", "gb", "kib", "mib", "gib",
     "mem", "memory", "rss", "size"}
)
_NAME_TOKEN_SPLIT = re.compile(r"[._]")


def _metric_name_tokens(name: str) -> set[str]:
    return {tok for tok in _NAME_TOKEN_SPLIT.split(name.lower()) if tok}


def check_metric_naming(ctx: FileContext) -> list[Finding]:
    """RA404 metric-naming."""
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        emission, label = _is_emission(node)
        if not emission or label not in (
            "metrics.histogram", "metrics.gauge"
        ):
            continue
        if not node.args:
            continue
        name_arg = node.args[0]
        if not (
            isinstance(name_arg, ast.Constant)
            and isinstance(name_arg.value, str)
        ):
            continue
        name = name_arg.value
        tokens = _metric_name_tokens(name)
        if (
            label == "metrics.histogram"
            and tokens & _DURATION_NAME_TOKENS
            and not name.endswith("_seconds")
        ):
            findings.append(
                ctx.finding(
                    "RA404",
                    name_arg,
                    f"duration histogram {name!r} must record seconds under "
                    "a `_seconds`-suffixed name; unit-ambiguous duration "
                    "names cannot be read off --metrics-out or a run report",
                )
            )
        elif (
            label == "metrics.gauge"
            and tokens & _BYTE_NAME_TOKENS
            and not name.endswith("_bytes")
        ):
            findings.append(
                ctx.finding(
                    "RA404",
                    name_arg,
                    f"byte gauge {name!r} must record bytes under a "
                    "`_bytes`-suffixed name; unit-ambiguous size names "
                    "cannot be read off --metrics-out or a run report",
                )
            )
    return findings


# ----------------------------------------------------------------------
# RA501 — cache-bearing modules must invalidate on parameter mutation
# ----------------------------------------------------------------------
_MUTATING_METHODS = ("train", "load_state_dict", "to_dtype")


def _cache_attrs(init: ast.FunctionDef) -> list[str]:
    attrs = []
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and "cache" in target.attr.lower()
                    and not target.attr.endswith("_enabled")
                ):
                    attrs.append(target.attr)
    return attrs


def _method_invalidates(method: ast.FunctionDef, cache_attrs: list[str]) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and "invalidate" in name:
                return True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in cache_attrs
                ):
                    return True
    return False


def check_cache_invalidation(ctx: FileContext) -> list[Finding]:
    """RA501 cache-invalidation."""
    findings: list[Finding] = []
    for class_node, init in _iter_init_methods(ctx):
        cache_attrs = _cache_attrs(init)
        if not cache_attrs:
            continue
        methods = {
            item.name: item
            for item in class_node.body
            if isinstance(item, ast.FunctionDef)
        }
        for required in _MUTATING_METHODS:
            method = methods.get(required)
            if method is None:
                findings.append(
                    ctx.finding(
                        "RA501",
                        class_node,
                        f"{class_node.name} caches derived state "
                        f"({', '.join(cache_attrs)}) but does not override "
                        f"{required}() to invalidate it; stale caches survive "
                        "parameter mutation",
                    )
                )
            elif not _method_invalidates(method, cache_attrs):
                findings.append(
                    ctx.finding(
                        "RA501",
                        method,
                        f"{class_node.name}.{required}() mutates parameters "
                        "but never invalidates the cache attributes "
                        f"({', '.join(cache_attrs)})",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Rule:
    rule_id: str
    name: str
    summary: str
    check: Callable[[FileContext], list[Finding]]


RULES: tuple[Rule, ...] = (
    Rule(
        "RA201",
        "dtype-literal",
        "modeling code must not hard-code floating dtypes",
        check_dtype_literals,
    ),
    Rule(
        "RA401",
        "unguarded-obs",
        "metric/span emissions and provenance.record_* capture must sit behind obs.enabled",
        check_obs_emissions,
    ),
    Rule(
        "RA403",
        "unsafe-metric-label",
        "metric label values must be static and metric-key-safe",
        check_metric_labels,
    ),
    Rule(
        "RA404",
        "metric-naming",
        "duration histograms need `_seconds`, byte gauges `_bytes` suffixes",
        check_metric_naming,
    ),
    Rule(
        "RA501",
        "cache-invalidation",
        "cache-bearing modules must invalidate in train/load_state_dict/to_dtype",
        check_cache_invalidation,
    ),
)

# Rule ids without a Rule entry of their own, documented for
# --list-rules: RA000 comes from the parse step of both passes, RA402
# from a sibling check function.
DERIVED_RULE_IDS: dict[str, str] = {
    "RA000": "parse-error — every linted file must parse",
    "RA402": "dynamic-metric-name — metric/span names must not be built per call",
}
