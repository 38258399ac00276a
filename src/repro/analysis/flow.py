"""Intraprocedural resource-lifecycle dataflow (RA7xx) for the
whole-program pass.

The RA7xx engine pairs *acquire* sites (shared-memory segments, the
telemetry server, the resource sampler, health-probe registrations,
memmap windows, bare ``open()``) with a *release* that must stay
reachable on every path out of the acquiring function — including the
exception edge between the acquire and wherever the handle ends up.

An acquire passes when one of these holds:

- it is the context expression of a ``with`` statement;
- it happens inside (or immediately before) a ``try`` whose ``finally``
  or ``except`` body releases the handle or calls a cleanup routine
  (``*close*``/``*stop*``/``*teardown*``/… — e.g. ``_teardown_live``);
- the handle is stored on an object (``self.x = …`` or an adjacent
  hand-off) whose class defines a conventional release method
  (``close``/``stop``/``shutdown``/``__exit__``/…);
- the handle is returned to the caller (ownership transfer — the call
  site is analyzed in its own function).

Escapes into *module-level* state (``_REGISTRY[...] = handle``) never
count as safe on their own: a module global has no destructor, so the
acquiring function must provide the exception-edge cleanup itself.

The analysis is deliberately intraprocedural and syntactic — it reasons
about one function at a time over statement order and ``try`` nesting
rather than a full CFG, which is exactly the granularity the repo's
acquire/release conventions are written at (see docs/ANALYSIS.md for
worked examples and the per-rule table).
"""

from __future__ import annotations

import ast
import dataclasses

from repro.analysis.findings import SEVERITY_ERROR, Finding

# Method names that mark a class as able to release resources it holds.
# ``finalize`` is deliberately absent: a finalize() that only runs on
# the success path is the bug RA706 exists to catch.
RELEASE_METHOD_NAMES = frozenset(
    {
        "close",
        "stop",
        "shutdown",
        "release",
        "teardown",
        "detach",
        "unlink",
        "cancel",
        "unregister",
        "uninstall",
        "__exit__",
        "__del__",
    }
)

# A call in a ``finally``/``except`` body whose name contains one of
# these counts as cleanup even when it is not a direct method call on
# the tracked handle (e.g. ``_teardown_live()``).
_CLEANUP_TOKENS = (
    "close",
    "stop",
    "shutdown",
    "teardown",
    "cleanup",
    "release",
    "unregister",
    "detach",
    "unlink",
)


@dataclasses.dataclass(frozen=True)
class LifecycleSpec:
    """One acquire/release pairing enforced by the RA7xx engine."""

    rule_id: str
    label: str
    # Call names (bare ``Name`` or ``Attribute`` tail) that acquire on
    # construction, e.g. ``SharedMemory(...)`` / ``np.memmap(...)``.
    constructors: frozenset[str] = frozenset()
    # Restrict constructor matching to bare names (``open`` must not
    # match ``ShardedMmapStore.open``).
    bare_names_only: bool = False
    # Types whose ``.start()`` is the acquire (fluent or two-step).
    start_classes: frozenset[str] = frozenset()
    # Handle-less register-style acquires: method names + receivers.
    register_methods: frozenset[str] = frozenset()
    register_receivers: frozenset[str] = frozenset()
    register_types: frozenset[str] = frozenset()
    # Method names that release the handle.
    releases: frozenset[str] = frozenset()
    hint: str = ""


LIFECYCLE_SPECS: tuple[LifecycleSpec, ...] = (
    LifecycleSpec(
        rule_id="RA701",
        label="shared-memory segment",
        constructors=frozenset({"SharedMemory", "shm_open"}),
        releases=frozenset({"close", "unlink"}),
        hint="a leaked segment survives the process (resource_tracker "
        "noise at best, /dev/shm exhaustion at worst)",
    ),
    LifecycleSpec(
        rule_id="RA702",
        label="telemetry server",
        constructors=frozenset({"ThreadingHTTPServer", "HTTPServer"}),
        start_classes=frozenset({"TelemetryServer"}),
        releases=frozenset({"stop", "shutdown", "server_close", "close"}),
        hint="an unstopped server pins its port and a non-daemon-joinable "
        "thread for the rest of the process",
    ),
    LifecycleSpec(
        rule_id="RA703",
        label="resource sampler",
        start_classes=frozenset({"ResourceSampler"}),
        releases=frozenset({"stop"}),
        hint="a leaked sampler thread keeps reading /proc and mutating "
        "the metrics registry after the run finished",
    ),
    LifecycleSpec(
        rule_id="RA704",
        label="health-probe registration",
        register_methods=frozenset({"register"}),
        register_receivers=frozenset({"health"}),
        register_types=frozenset({"HealthRegistry"}),
        releases=frozenset({"unregister"}),
        hint="a stale probe keeps reporting the previous run's component "
        "on /healthz",
    ),
    LifecycleSpec(
        rule_id="RA705",
        label="memmap window",
        constructors=frozenset({"memmap", "open_memmap"}),
        releases=frozenset({"close", "detach", "evict"}),
        hint="an unaccounted window dodges the store's resident-bytes "
        "budget and LRU detach",
    ),
    LifecycleSpec(
        rule_id="RA706",
        label="file handle",
        constructors=frozenset({"open"}),
        bare_names_only=True,
        releases=frozenset({"close"}),
        hint="use `with open(...)`, or hold the handle on an object with "
        "a close()",
    ),
)

_SPEC_BY_ID = {spec.rule_id: spec for spec in LIFECYCLE_SPECS}

# ---------------------------------------------------------------------------
# AST plumbing
# ---------------------------------------------------------------------------


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._flow_parent = node  # type: ignore[attr-defined]


def _parents(node: ast.AST):
    while True:
        parent = getattr(node, "_flow_parent", None)
        if parent is None:
            return
        yield parent
        node = parent


def _tail_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _walk_shallow(node: ast.AST):
    """Walk a subtree without descending into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not _is_def(child) and not isinstance(child, ast.Lambda):
            stack.extend(ast.iter_child_nodes(child))


def _body_blocks(node: ast.AST):
    """The statement lists directly owned by a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(node, "handlers", []) or []:
        yield handler.body


def _statements(scope: ast.AST) -> list[ast.stmt]:
    """Every statement executed in ``scope``, source order, excluding
    nested function/class bodies."""
    out: list[ast.stmt] = []

    def visit(block: list[ast.stmt]) -> None:
        for stmt in block:
            out.append(stmt)
            if not _is_def(stmt):
                for inner in _body_blocks(stmt):
                    visit(inner)

    for block in _body_blocks(scope):
        visit(block)
    out.sort(key=lambda s: (s.lineno, s.col_offset))
    return out


def _pos(stmt: ast.stmt) -> tuple[int, int]:
    return (stmt.lineno, stmt.col_offset)


def _enclosing_stmt(node: ast.AST, scope: ast.AST) -> ast.stmt | None:
    """The innermost statement of ``scope`` containing ``node``."""
    current = node
    for parent in _parents(node):
        if isinstance(current, ast.stmt):
            return current
        if parent is scope:
            return current if isinstance(current, ast.stmt) else None
        current = parent
    return current if isinstance(current, ast.stmt) else None


def _block_of(stmt: ast.stmt, scope: ast.AST) -> list[ast.stmt] | None:
    parent = getattr(stmt, "_flow_parent", None)
    if parent is None:
        return None
    for block in _body_blocks(parent):
        if stmt in block:
            return block
    return None


def _references(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == var
        for n in ast.walk(node)
        if not _is_def(n)
    )


def _calls_in(node: ast.AST):
    for n in _walk_shallow(node):
        if isinstance(n, ast.Call):
            yield n
    if isinstance(node, ast.Call):
        yield node


def _has_release_call(node: ast.AST, var: str | None, releases: frozenset[str]) -> bool:
    """Does ``node`` call ``var.<release>()`` (or any ``<release>``-named
    callable when ``var`` is None)?"""
    for call in _calls_in(node):
        if not isinstance(call.func, ast.Attribute):
            if var is None and isinstance(call.func, ast.Name):
                if call.func.id in releases:
                    return True
            continue
        if call.func.attr not in releases:
            continue
        if var is None:
            return True
        if isinstance(call.func.value, ast.Name) and call.func.value.id == var:
            return True
    return False


def _has_cleanup_call(node: ast.AST) -> bool:
    for call in _calls_in(node):
        name = _tail_name(call.func)
        if name and any(token in name.lower() for token in _CLEANUP_TOKENS):
            return True
    return False


def _try_cleans_up(
    try_node: ast.Try, var: str | None, releases: frozenset[str]
) -> bool:
    regions = list(try_node.finalbody)
    for handler in try_node.handlers:
        regions.extend(handler.body)
    for stmt in regions:
        if _has_release_call(stmt, var, releases) or _has_cleanup_call(stmt):
            return True
    return False


# ---------------------------------------------------------------------------
# Local type environments (for `.start()` receiver resolution)
# ---------------------------------------------------------------------------


def _ctor_class(value: ast.expr) -> str | None:
    """The class name a value expression constructs, seeing through a
    fluent ``.start()`` tail: ``TelemetryServer(...).start()``."""
    if isinstance(value, ast.Call):
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "start"
            and isinstance(value.func.value, ast.Call)
        ):
            return _tail_name(value.func.value.func)
        return _tail_name(value.func)
    return None


def _local_types(scope: ast.AST) -> dict[str, str]:
    env: dict[str, str] = {}
    for node in _walk_shallow(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            cls = _ctor_class(node.value)
            if cls is None:
                continue
            if isinstance(target, ast.Name):
                env[target.id] = cls
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                env["self." + target.attr] = cls
    return env


def _class_attr_types(cls_node: ast.ClassDef) -> dict[str, str]:
    env: dict[str, str] = {}
    for method in cls_node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for key, value in _local_types(method).items():
                if key.startswith("self."):
                    env[key] = value
    return env


def _locals_of(scope: ast.AST) -> set[str]:
    names: set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for group in (args.posonlyargs, args.args, args.kwonlyargs):
            names.update(a.arg for a in group)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in _walk_shallow(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# Acquire detection
# ---------------------------------------------------------------------------


def _match_acquire(
    call: ast.Call,
    local_env: dict[str, str],
    attr_env: dict[str, str],
) -> LifecycleSpec | None:
    func = call.func
    for spec in LIFECYCLE_SPECS:
        if isinstance(func, ast.Name) and func.id in spec.constructors:
            return spec
        if (
            isinstance(func, ast.Attribute)
            and not spec.bare_names_only
            and func.attr in spec.constructors
        ):
            return spec
        if spec.start_classes and isinstance(func, ast.Attribute):
            if func.attr == "start":
                receiver = func.value
                cls: str | None = None
                if isinstance(receiver, ast.Call):
                    cls = _tail_name(receiver.func)
                elif isinstance(receiver, ast.Name):
                    cls = local_env.get(receiver.id)
                elif (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                ):
                    cls = attr_env.get("self." + receiver.attr) or local_env.get(
                        "self." + receiver.attr
                    )
                if cls in spec.start_classes:
                    return spec
        if spec.register_methods and isinstance(func, ast.Attribute):
            if func.attr in spec.register_methods:
                receiver = func.value
                tail = _tail_name(receiver)
                if tail in spec.register_receivers:
                    return spec
                if (
                    isinstance(receiver, ast.Name)
                    and local_env.get(receiver.id) in spec.register_types
                ):
                    return spec
    return None


def _in_with_context(node: ast.AST, scope: ast.AST) -> bool:
    current = node
    for parent in _parents(node):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in parent.items:
                for sub in ast.walk(item.context_expr):
                    if sub is node:
                        return True
        if parent is scope:
            return False
        current = parent
    return False


# Escape classification for where a handle ends up.
_ESCAPE_RETURN = "return"
_ESCAPE_OBJECT = "object"
_ESCAPE_MODULE = "module"


def _target_escape(target: ast.expr, local_names: set[str]) -> tuple[str, str] | None:
    """Classify an assignment target; returns (kind, detail) or None
    for a plain local binding."""
    if isinstance(target, ast.Name):
        return None
    root = _root_name(target)
    if root in ("self", "cls") or root in local_names:
        return (_ESCAPE_OBJECT, root or "?")
    return (_ESCAPE_MODULE, root or "?")


def _class_has_release_method(cls_node: ast.ClassDef | None) -> bool:
    if cls_node is None:
        return False
    return any(
        isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        and m.name in RELEASE_METHOD_NAMES
        for m in cls_node.body
    )


def _class_calls_release(
    cls_node: ast.ClassDef | None, releases: frozenset[str]
) -> bool:
    if cls_node is None:
        return False
    for method in cls_node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _has_release_call(method, None, releases):
                return True
    return False


def _protecting_try(
    stmt: ast.stmt, scope: ast.AST, var: str | None, releases: frozenset[str]
) -> bool:
    """Is ``stmt`` inside a try with cleanup, or is the next statement
    executed after it (on the no-exception path) such a try?

    Covers both canonical repair shapes::

        try:                       x = acquire()
            x = acquire()          try:
            ...                        ...
        finally:                   except BaseException:
            x.close()                  x.close(); raise

    including the acquire sitting at the end of a nested block (e.g.
    inside its own ``try/except OSError: raise Wrapped`` guard) whose
    successor statement is the cleanup try.
    """
    current: ast.AST = stmt
    for parent in _parents(stmt):
        if isinstance(parent, ast.Try) and current in parent.body:
            if _try_cleans_up(parent, var, releases):
                return True
        if parent is scope:
            break
        current = parent
    # Climb to the statement that executes next: follow last-in-block
    # positions upward (stopping at loops, whose successor is another
    # iteration) until a following sibling exists.
    cursor: ast.stmt = stmt
    while True:
        parent = getattr(cursor, "_flow_parent", None)
        if parent is None or isinstance(parent, (ast.For, ast.While, ast.AsyncFor)):
            return False
        block = next(
            (b for b in _body_blocks(parent) if cursor in b), None
        )
        if block is None:
            return False
        idx = block.index(cursor)
        if idx + 1 < len(block):
            nxt = block[idx + 1]
            return isinstance(nxt, ast.Try) and _try_cleans_up(
                nxt, var, releases
            )
        if parent is scope or not isinstance(parent, ast.stmt):
            return False
        cursor = parent


# ---------------------------------------------------------------------------
# Per-scope lifecycle analysis
# ---------------------------------------------------------------------------


def _finding(
    path: str, node: ast.AST, spec: LifecycleSpec, problem: str
) -> Finding:
    message = f"{spec.label} {problem}"
    if spec.hint:
        message += f" — {spec.hint}"
    return Finding(
        rule=spec.rule_id,
        path=path,
        line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", 0),
        message=message,
        severity=SEVERITY_ERROR,
    )


def _scan_events(
    stmts: list[ast.stmt],
    after: ast.stmt,
    var: str,
    spec: LifecycleSpec,
    local_names: set[str],
):
    """Yield (stmt, kind) release/escape events for ``var`` after the
    acquiring statement, in source order. kind is 'release' or an
    escape constant."""
    threshold = _pos(after)
    for stmt in stmts:
        if _pos(stmt) <= threshold:
            continue
        if _has_release_call(stmt, var, spec.releases):
            yield stmt, "release"
            continue
        if isinstance(stmt, (ast.Return, ast.Expr)) and isinstance(
            getattr(stmt, "value", None), ast.Yield
        ):
            if _references(stmt, var):
                yield stmt, _ESCAPE_RETURN
                continue
        if isinstance(stmt, ast.Return):
            if stmt.value is not None and _references(stmt.value, var):
                yield stmt, _ESCAPE_RETURN
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if value is not None and _references(value, var):
                for target in targets:
                    escape = _target_escape(target, local_names)
                    if escape is not None:
                        yield stmt, escape[0]
                        break
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute) and any(
                _references(arg, var) for arg in call.args
            ):
                root = _root_name(call.func.value)
                if root in ("self", "cls") or root in local_names:
                    yield stmt, _ESCAPE_OBJECT
                else:
                    yield stmt, _ESCAPE_MODULE


def _analyze_scope(
    scope: ast.AST,
    path: str,
    cls_node: ast.ClassDef | None,
    attr_env: dict[str, str],
) -> list[Finding]:
    findings: list[Finding] = []
    local_env = _local_types(scope)
    local_names = _locals_of(scope)
    stmts = _statements(scope)

    for call in list(_walk_shallow(scope)):
        if not isinstance(call, ast.Call):
            continue
        spec = _match_acquire(call, local_env, attr_env)
        if spec is None:
            continue
        if _in_with_context(call, scope):
            continue
        stmt = _enclosing_stmt(call, scope)
        if stmt is None:
            continue

        if spec.register_methods and not spec.constructors and not spec.start_classes:
            # Handle-less registration: needs in-function try-cleanup or
            # a class-level paired release.
            if _protecting_try(stmt, scope, None, spec.releases):
                continue
            if _class_calls_release(cls_node, spec.releases):
                continue
            findings.append(
                _finding(
                    path,
                    call,
                    spec,
                    "has no paired release on the exception edge: wrap in "
                    "try/finally (or try/except + re-raise) calling "
                    f"{sorted(spec.releases)[0]}(), or pair it with a class "
                    "release method",
                )
            )
            continue

        # Factory transfer: the acquire is (part of) the return value.
        if isinstance(stmt, ast.Return):
            continue

        binding: str | None = None
        escape_at_bind: tuple[str, str] | None = None
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and len(
            getattr(stmt, "targets", [getattr(stmt, "target", None)])
        ) >= 1:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            target = targets[0]
            if len(targets) == 1 and isinstance(target, ast.Name):
                binding = target.id
            else:
                escape_at_bind = _target_escape(target, local_names) or (
                    _ESCAPE_OBJECT,
                    "?",
                )
        elif isinstance(stmt, ast.Expr):
            findings.append(
                _finding(
                    path,
                    call,
                    spec,
                    "is acquired but never bound to anything that could "
                    "release it",
                )
            )
            continue
        else:
            # Acquire buried in a condition/raise/etc — treat as unbound.
            findings.append(
                _finding(
                    path, call, spec, "is acquired in a position where no "
                    "release can reach it"
                )
            )
            continue

        if escape_at_bind is not None:
            kind = escape_at_bind[0]
            if kind == _ESCAPE_OBJECT:
                if _class_has_release_method(cls_node):
                    continue
                if _protecting_try(stmt, scope, None, spec.releases):
                    continue
                findings.append(
                    _finding(
                        path,
                        call,
                        spec,
                        "is stored on an object whose class defines no "
                        "release method "
                        "(close/stop/shutdown/__exit__/...)",
                    )
                )
            else:  # module state
                if _protecting_try(stmt, scope, None, spec.releases):
                    continue
                findings.append(
                    _finding(
                        path,
                        call,
                        spec,
                        "escapes into module-level state without "
                        "exception-edge cleanup in this function "
                        "(try/finally or try/except + re-raise required)",
                    )
                )
            continue

        # Plain local binding: find the first release/escape event.
        events = list(
            _scan_events(stmts, stmt, binding, spec, local_names)
        )
        if not events:
            findings.append(
                _finding(
                    path,
                    call,
                    spec,
                    f"bound to {binding!r} is never released "
                    f"({'/'.join(sorted(spec.releases))}) and never "
                    "escapes this function",
                )
            )
            continue
        event_stmt, kind = events[0]
        block = _block_of(stmt, scope) or []
        adjacent = (
            stmt in block
            and block.index(stmt) + 1 < len(block)
            and block[block.index(stmt) + 1] is event_stmt
        )
        protected = adjacent or _protecting_try(
            stmt, scope, binding, spec.releases
        )
        if kind in ("release", _ESCAPE_RETURN):
            if protected:
                continue
            findings.append(
                _finding(
                    path,
                    call,
                    spec,
                    f"bound to {binding!r} is released only on the "
                    "fall-through path; an exception before "
                    f"line {event_stmt.lineno} leaks it (use try/finally "
                    "or a context manager)",
                )
            )
        elif kind == _ESCAPE_OBJECT:
            if not _class_has_release_method(cls_node) and not _protecting_try(
                stmt, scope, binding, spec.releases
            ):
                findings.append(
                    _finding(
                        path,
                        call,
                        spec,
                        f"bound to {binding!r} is handed to an object whose "
                        "class defines no release method",
                    )
                )
            elif not protected:
                findings.append(
                    _finding(
                        path,
                        call,
                        spec,
                        f"bound to {binding!r} reaches its owner only on the "
                        "fall-through path; an exception before line "
                        f"{event_stmt.lineno} leaks it",
                    )
                )
        else:  # module escape
            if not _protecting_try(stmt, scope, binding, spec.releases):
                findings.append(
                    _finding(
                        path,
                        call,
                        spec,
                        f"bound to {binding!r} escapes into module-level "
                        "state without exception-edge cleanup in this "
                        "function",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# File driver
# ---------------------------------------------------------------------------


def check_resource_lifecycles(tree: ast.AST, path: str) -> list[Finding]:
    """Run the RA7xx lifecycle engine over every scope of one file."""
    _link_parents(tree)
    findings: list[Finding] = []
    findings.extend(_analyze_scope(tree, path, None, {}))

    class_of: dict[ast.AST, ast.ClassDef] = {}
    attr_envs: dict[ast.ClassDef, dict[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            attr_envs[node] = _class_attr_types(node)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    class_of[member] = node
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls_node = class_of.get(node)
            findings.extend(
                _analyze_scope(
                    node,
                    path,
                    cls_node,
                    attr_envs.get(cls_node, {}) if cls_node else {},
                )
            )
    return findings


def flow_lint_source(source: str, path: str) -> list[Finding]:
    """Lifecycle findings for one source blob (the project pass applies
    suppressions on top; tests use this raw)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    findings = check_resource_lifecycles(tree, path)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
