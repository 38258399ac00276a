"""Whole-program analysis over a package tree (``repro lint --project``).

Three families of findings, all anchored to real source lines so the
same suppression comments work as for the per-file rules:

- **RA61x — import layering** (contract in
  :mod:`repro.analysis.layers`): RA610 forbidden dependency edges,
  RA611 top-level import cycles, RA612 never-imported public symbols
  (warning), RA613 uses of a ``CONFINED`` name outside its home
  packages (imports, and attribute chains resolved through the
  module's import aliases).
- **RA7xx — resource lifecycles** (engine in
  :mod:`repro.analysis.flow`): acquires whose release is unreachable
  on an exception edge.
- **RA80x — fork/thread safety**: RA801 thread/server/sampler
  construction reachable on the owner's pre-fork paths, RA802 blocking
  calls under a held lock, RA803 module-global writes reachable from a
  forked worker's entrypoint.

The call graph is intentionally modest: module-alias-aware name
resolution plus one level of local type inference
(``runtime = _WorkerRuntime(spec)`` resolves ``runtime.annotate()``).
That is enough to walk the real worker/owner paths in
``repro.parallel.pool`` without a type checker.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.analysis import layers
from repro.analysis.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.analysis.flow import (
    _is_def,
    _tail_name,
    _walk_shallow,
    check_lock_blocking,
    check_resource_lifecycles,
)
from repro.analysis.linter import unsuppressed

# Classes whose construction means "a thread now exists (or will on
# .start())" for RA801.
_THREADY_CLASSES = frozenset(
    {
        "Thread",
        "Timer",
        "TelemetryServer",
        "ResourceSampler",
        "ThreadingHTTPServer",
        "HTTPServer",
        "ThreadPoolExecutor",
    }
)

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
    }
)

PROJECT_RULES: tuple[tuple[str, str, str], ...] = (
    ("RA610", "layer-violation", "imports must respect the layering contract in analysis/layers.py"),
    ("RA611", "import-cycle", "top-level internal imports must stay acyclic"),
    ("RA612", "dead-public-symbol", "public top-level symbols should be imported somewhere (warning)"),
    ("RA613", "confined-name", "layers.CONFINED names (multiprocessing, mmap, DecisionRecord, ...) are used only in their home packages"),
    ("RA701", "shm-lifecycle", "SharedMemory acquires need close/unlink reachable on exception edges"),
    ("RA702", "server-lifecycle", "TelemetryServer.start needs a reachable stop"),
    ("RA703", "sampler-lifecycle", "ResourceSampler.start needs a reachable stop"),
    ("RA704", "health-lifecycle", "HealthRegistry.register needs a paired unregister"),
    ("RA705", "memmap-lifecycle", "memmap windows need an owner with close/detach"),
    ("RA706", "file-lifecycle", "bare open() must be with-managed or owned by a closeable object"),
    ("RA801", "prefork-thread", "no thread/server/sampler construction on owner pre-fork paths"),
    ("RA802", "lock-blocking", "no blocking call (queue.get/put, join, recv, accept) while holding a lock"),
    ("RA803", "worker-global-write", "worker-reachable code must not write module-level globals"),
)


@dataclasses.dataclass
class ImportRecord:
    target: str          # dotted module the import resolves to
    symbol: str | None   # from-imported symbol (None for plain import)
    lineno: int
    col: int
    deferred: bool       # inside a function/method (sanctioned cycle breaker)
    star: bool = False


@dataclasses.dataclass
class ModuleInfo:
    name: str
    path: Path
    source: str
    tree: ast.Module
    imports: list[ImportRecord] = dataclasses.field(default_factory=list)
    # alias -> module it names (``import repro.obs as obs``, ``from repro
    # import obs``); used for call/attr resolution.
    module_aliases: dict[str, str] = dataclasses.field(default_factory=dict)
    # name -> (module, symbol) for ``from X import name``.
    from_symbols: dict[str, tuple[str, str]] = dataclasses.field(default_factory=dict)
    # module-level names (assignment targets, defs, classes).
    global_names: set[str] = dataclasses.field(default_factory=set)
    # module-level instance types: name -> class name.
    instance_types: dict[str, str] = dataclasses.field(default_factory=dict)


def _module_name(path: Path, root: Path, package: str) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join([package, *parts]) if parts else package


class Project:
    """Parsed modules of one package tree plus derived indices."""

    def __init__(self, root: Path, package: str | None = None) -> None:
        self.root = Path(root)
        self.package = package or self.root.name
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[Finding] = []
        self._load()
        self.module_names = set(self.modules)
        for info in self.modules.values():
            self._collect_imports(info)
            self._collect_globals(info)
        # Definition indices for the call graph.
        self.functions: dict[str, ast.AST] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.class_index: dict[str, list[str]] = {}
        for info in self.modules.values():
            self._collect_defs(info)

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                self.parse_errors.append(
                    Finding(
                        rule="RA000",
                        path=str(path),
                        line=error.lineno or 0,
                        column=error.offset or 0,
                        message=f"syntax error: {error.msg}",
                        severity=SEVERITY_ERROR,
                    )
                )
                continue
            name = _module_name(path, self.root, self.package)
            self.modules[name] = ModuleInfo(
                name=name, path=path, source=source, tree=tree
            )

    def _is_internal(self, target: str) -> bool:
        return target == self.package or target.startswith(self.package + ".")

    def _resolve_from(self, base: str, symbol: str) -> str:
        """``from base import symbol`` where symbol may be a submodule."""
        candidate = f"{base}.{symbol}"
        if candidate in self.module_names:
            return candidate
        return base

    def _collect_imports(self, info: ModuleInfo) -> None:
        pkg_parts = info.name.split(".")
        is_pkg = info.path.name == "__init__.py"
        for node in ast.walk(info.tree):
            deferred = False
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                deferred = node.col_offset > 0
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports.append(
                        ImportRecord(
                            target=alias.name,
                            symbol=None,
                            lineno=node.lineno,
                            col=node.col_offset,
                            deferred=deferred,
                        )
                    )
                    bound = alias.asname or alias.name.split(".")[0]
                    named = alias.name if alias.asname else alias.name.split(".")[0]
                    info.module_aliases[bound] = named
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative import: resolve against this module's package.
                    base_parts = pkg_parts if is_pkg else pkg_parts[:-1]
                    up = node.level - 1
                    base_parts = base_parts[: len(base_parts) - up]
                    base = ".".join(base_parts)
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        info.imports.append(
                            ImportRecord(
                                target=base,
                                symbol=None,
                                lineno=node.lineno,
                                col=node.col_offset,
                                deferred=deferred,
                                star=True,
                            )
                        )
                        continue
                    target = (
                        self._resolve_from(base, alias.name)
                        if self._is_internal(base)
                        else base
                    )
                    symbol = alias.name if target == base else None
                    info.imports.append(
                        ImportRecord(
                            target=target,
                            symbol=symbol,
                            lineno=node.lineno,
                            col=node.col_offset,
                            deferred=deferred,
                        )
                    )
                    bound = alias.asname or alias.name
                    if target != base and symbol is None:
                        info.module_aliases[bound] = target
                    else:
                        info.from_symbols[bound] = (target, alias.name)

    def _collect_globals(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.global_names.add(target.id)
                        cls = _ctor_name(stmt.value)
                        if cls:
                            info.instance_types[target.id] = cls
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.global_names.add(stmt.target.id)
                if stmt.value is not None:
                    cls = _ctor_name(stmt.value)
                    if cls:
                        info.instance_types[stmt.target.id] = cls
            elif _is_def(stmt):
                info.global_names.add(stmt.name)

    def _collect_defs(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[f"{info.name}:{stmt.name}"] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[f"{info.name}:{stmt.name}"] = stmt
                self.class_index.setdefault(stmt.name, []).append(info.name)
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions[
                            f"{info.name}:{stmt.name}.{member.name}"
                        ] = member


def _ctor_name(value: ast.expr) -> str | None:
    if isinstance(value, ast.Call):
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "start"
            and isinstance(value.func.value, ast.Call)
        ):
            return _tail_name(value.func.value.func)
        return _tail_name(value.func)
    return None


# ---------------------------------------------------------------------------
# RA610/RA611/RA612/RA613 — the import contract
# ---------------------------------------------------------------------------


def _resolve_name(info: ModuleInfo, node: ast.expr) -> str | None:
    """The dotted name an import-bound name or attribute chain denotes
    (``np.lib.format`` -> ``numpy.lib.format``), or None."""
    if isinstance(node, ast.Attribute):
        base = _resolve_name(info, node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Name):
        if node.id in info.module_aliases:
            return info.module_aliases[node.id]
        if node.id in info.from_symbols:
            return ".".join(info.from_symbols[node.id])
    return None


def _name_uses(info: ModuleInfo):
    """``(dotted name, line, col)`` for every import, and for every
    attribute whose base resolves through an import alias to a name
    that is not itself confined. Matched against ``CONFINED``, each use
    is reported once, where its chain enters the confined name: a chain
    under a confined base was reported where that base entered (or, for
    a bare alias, at its import)."""
    for record in info.imports:
        name = record.target
        if record.symbol is not None:
            name = f"{name}.{record.symbol}"
        yield name, record.lineno, record.col
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Attribute):
            base = _resolve_name(info, node.value)
            if base is not None and layers.confined_homes(base) is None:
                yield f"{base}.{node.attr}", node.lineno, node.col_offset


def check_layering(project: Project) -> list[Finding]:
    """RA610 forbidden internal edges and RA613 confined names."""
    findings: list[Finding] = []
    for info in project.modules.values():
        for record in info.imports:
            if project._is_internal(record.target):
                edge = layers.edge_violation(info.name, record.target)
                if edge is not None:
                    findings.append(
                        Finding(
                            rule="RA610",
                            path=str(info.path),
                            line=record.lineno,
                            column=record.col,
                            message=(
                                f"layering contract: {info.name} may not "
                                f"import {record.target} — {edge.reason} "
                                "(see analysis/layers.py)"
                            ),
                        )
                    )
        for name, line, col in _name_uses(info):
            homes = layers.confinement_violation(info.name, name)
            if homes is None:
                continue
            findings.append(
                Finding(
                    rule="RA613",
                    path=str(info.path),
                    line=line,
                    column=col,
                    message=(
                        f"contract-confined name: {name} may only be used "
                        f"under {', '.join(homes)} (see analysis/layers.py)"
                    ),
                )
            )
    return findings


def check_cycles(project: Project) -> list[Finding]:
    """RA611: strongly connected components over *top-level* internal
    imports. Function-level (deferred) imports are the sanctioned way
    to break a cycle and are excluded."""
    graph: dict[str, set[str]] = {name: set() for name in project.modules}
    for info in project.modules.values():
        for record in info.imports:
            if record.deferred:
                continue
            if project._is_internal(record.target) and record.target in graph:
                if record.target != info.name:
                    graph[info.name].add(record.target)

    # Tarjan's SCC, iterative.
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(start: str) -> None:
        work = [(start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for name in sorted(graph):
        if name not in index:
            strongconnect(name)

    findings: list[Finding] = []
    for component in sccs:
        anchor = project.modules[component[0]]
        members = set(component)
        line, col = 1, 0
        for record in anchor.imports:
            if not record.deferred and record.target in members:
                line, col = record.lineno, record.col
                break
        findings.append(
            Finding(
                rule="RA611",
                path=str(anchor.path),
                line=line,
                column=col,
                message=(
                    "top-level import cycle: "
                    + " -> ".join(component + [component[0]])
                    + " (break it with a function-level import or by "
                    "moving the shared piece down a layer)"
                ),
            )
        )
    return findings


def _is_pytest_hooked(stmt: ast.AST) -> bool:
    """True for defs wired up by pytest machinery rather than imports:
    ``@pytest.fixture``/``@fixture`` (with or without call parens) and
    ``pytest_*`` hook implementations."""
    name = getattr(stmt, "name", "")
    if name.startswith("pytest_"):
        return True
    for decorator in getattr(stmt, "decorator_list", []):
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _tail_name(node) == "fixture":
            return True
    return False


def check_dead_symbols(
    project: Project, reference_trees: list[tuple[Path, ast.Module]]
) -> list[Finding]:
    """RA612 (warning): public top-level symbols never imported or
    attribute-referenced by any other module, test, benchmark or
    example, *and* never referenced inside their own module — truly
    dead API surface."""
    used: set[tuple[str, str]] = set()
    star_imported: set[str] = set()

    def scan(tree: ast.Module, own_module: str | None) -> None:
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if project._is_internal(alias.name):
                        aliases[alias.asname or alias.name.split(".")[0]] = (
                            alias.name if alias.asname else alias.name.split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:
                    if own_module is None:
                        continue
                    parts = own_module.split(".")
                    info = project.modules.get(own_module)
                    is_pkg = info is not None and info.path.name == "__init__.py"
                    base_parts = parts if is_pkg else parts[:-1]
                    base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                    base = ".".join(base_parts)
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                if not project._is_internal(base):
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        star_imported.add(base)
                        continue
                    submodule = f"{base}.{alias.name}"
                    if submodule in project.module_names:
                        aliases[alias.asname or alias.name] = submodule
                    else:
                        used.add((base, alias.name))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                target = aliases.get(node.value.id)
                if target:
                    used.add((target, node.attr))

    for info in project.modules.values():
        scan(info.tree, info.name)
    for _, tree in reference_trees:
        scan(tree, None)

    findings: list[Finding] = []
    for info in project.modules.values():
        if info.name in star_imported:
            continue
        if info.path.name == "conftest.py":
            # pytest wires conftest symbols (fixtures, hooks) by name.
            continue
        own_loads = {
            node.id
            for node in ast.walk(info.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in info.tree.body:
            names: list[tuple[str, int, int]] = []
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("test_") or _is_pytest_hooked(stmt):
                    # Discovered by the pytest runner, not imported.
                    continue
                names.append((stmt.name, stmt.lineno, stmt.col_offset))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.append((target.id, stmt.lineno, stmt.col_offset))
            for name, lineno, col in names:
                if name.startswith("_") or name in layers.PUBLIC_API_ALLOW:
                    continue
                if (info.name, name) in used or name in own_loads:
                    continue
                findings.append(
                    Finding(
                        rule="RA612",
                        path=str(info.path),
                        line=lineno,
                        column=col,
                        message=(
                            f"public symbol {name!r} is never imported by "
                            "any module, test, benchmark or example — dead "
                            "API surface (rename with a leading underscore "
                            "or delete)"
                        ),
                        severity=SEVERITY_WARNING,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Call graph + worker/pre-fork reachability (RA801, RA803)
# ---------------------------------------------------------------------------


def _function_local_types(project: Project, info: ModuleInfo, fn: ast.AST) -> dict[str, str]:
    env: dict[str, str] = {}
    for node in _walk_shallow(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            cls = _ctor_name(node.value)
            if cls and (
                cls in project.class_index
                or cls in info.from_symbols
                or f"{info.name}:{cls}" in project.classes
            ):
                env[target.id] = cls
    return env


def _resolve_class_module(project: Project, info: ModuleInfo, cls: str) -> str | None:
    if f"{info.name}:{cls}" in project.classes:
        return info.name
    if cls in info.from_symbols:
        module, symbol = info.from_symbols[cls]
        if f"{module}:{symbol}" in project.classes:
            return module
    homes = project.class_index.get(cls, [])
    if len(homes) == 1:
        return homes[0]
    return None


def _call_targets(
    project: Project, info: ModuleInfo, fn: ast.AST, cls_name: str | None
) -> set[str]:
    targets: set[str] = set()
    env = _function_local_types(project, info, fn)

    def add_class_init(module: str, cls: str) -> None:
        init = f"{module}:{cls}.__init__"
        if init in project.functions:
            targets.add(init)

    for node in _walk_shallow(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if f"{info.name}:{name}" in project.functions:
                targets.add(f"{info.name}:{name}")
            elif f"{info.name}:{name}" in project.classes:
                add_class_init(info.name, name)
            elif name in info.from_symbols:
                module, symbol = info.from_symbols[name]
                if f"{module}:{symbol}" in project.functions:
                    targets.add(f"{module}:{symbol}")
                elif f"{module}:{symbol}" in project.classes:
                    add_class_init(module, symbol)
            elif name in ("cls",) and cls_name:
                add_class_init(info.name, cls_name)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base == "self" and cls_name:
                key = f"{info.name}:{cls_name}.{attr}"
                if key in project.functions:
                    targets.add(key)
                continue
            if base == "cls" and cls_name:
                key = f"{info.name}:{cls_name}.{attr}"
                if key in project.functions:
                    targets.add(key)
                continue
            module = info.module_aliases.get(base)
            if module and project._is_internal(module):
                if f"{module}:{attr}" in project.functions:
                    targets.add(f"{module}:{attr}")
                elif f"{module}:{attr}" in project.classes:
                    add_class_init(module, attr)
                continue
            receiver_cls = env.get(base) or info.instance_types.get(base)
            if receiver_cls:
                home = _resolve_class_module(project, info, receiver_cls)
                if home:
                    key = f"{home}:{receiver_cls}.{attr}"
                    if key in project.functions:
                        targets.add(key)
    return targets


def _build_call_graph(project: Project) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for key, fn in project.functions.items():
        module_name, qual = key.split(":", 1)
        info = project.modules[module_name]
        cls_name = qual.split(".")[0] if "." in qual else None
        graph[key] = _call_targets(project, info, fn, cls_name)
    return graph


def _reachable(graph: dict[str, set[str]], roots: set[str]) -> set[str]:
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for child in graph.get(node, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _worker_roots(project: Project) -> set[str]:
    roots = set()
    for key in project.functions:
        qual = key.split(":", 1)[1]
        name = qual.split(".")[-1]
        if name in layers.WORKER_ENTRYPOINTS and "." not in qual:
            roots.add(key)
    return roots


def _prefork_roots(project: Project) -> set[str]:
    roots = set()
    for key in project.functions:
        qual = key.split(":", 1)[1]
        if qual in layers.PREFORK_ENTRYPOINTS:
            roots.add(key)
    return roots


def check_fork_safety(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    graph = _build_call_graph(project)
    worker_set = _reachable(graph, _worker_roots(project))
    prefork_set = _reachable(graph, _prefork_roots(project))

    # RA801: thread/server/sampler construction in the pre-fork window.
    for key in sorted(prefork_set):
        module_name, qual = key.split(":", 1)
        info = project.modules[module_name]
        fn = project.functions[key]
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Call):
                ctor = _tail_name(node.func)
                if ctor in _THREADY_CLASSES:
                    findings.append(
                        Finding(
                            rule="RA801",
                            path=str(info.path),
                            line=node.lineno,
                            column=node.col_offset,
                            message=(
                                f"{ctor} constructed in {qual}(), which is "
                                "reachable on the owner's pre-fork path: a "
                                "thread started here is inherited mid-state "
                                "by fork(); construct it after spawning (or "
                                "add a justified suppression)"
                            ),
                        )
                    )

    # RA803: module-global writes reachable from the worker entrypoint.
    for key in sorted(worker_set):
        module_name, qual = key.split(":", 1)
        if layers.owns_worker_state(module_name):
            continue
        info = project.modules[module_name]
        fn = project.functions[key]
        local_stores: set[str] = set()
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local_stores.add(node.id)
        declared_global: set[str] = set()
        for node in _walk_shallow(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def flag(node: ast.AST, name: str, how: str) -> None:
            findings.append(
                Finding(
                    rule="RA803",
                    path=str(info.path),
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"{how} module-level {name!r} in {qual}(), which is "
                        "reachable from a worker entrypoint: each forked "
                        "worker mutates its own copy and the owner never "
                        "sees it (pass state explicitly or register the "
                        "module in layers.WORKER_STATE_OWNERS)"
                    ),
                )
            )

        for node in _walk_shallow(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        flag(node, target.id, "write to")
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        base = target.value.id
                        if (
                            base in info.global_names
                            and base not in local_stores
                        ):
                            flag(node, base, "item-write to")
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS and isinstance(
                    node.func.value, ast.Name
                ):
                    base = node.func.value.id
                    if base in info.global_names and base not in local_stores:
                        flag(node, base, f".{node.func.attr}() on")
    return findings


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _load_reference_trees(roots: list[str | Path]) -> list[tuple[Path, ast.Module]]:
    trees: list[tuple[Path, ast.Module]] = []
    for root in roots:
        root = Path(root)
        if not root.exists():
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            try:
                trees.append((path, ast.parse(path.read_text(encoding="utf-8"))))
            except SyntaxError:
                continue
    return trees


def analyze_project(
    root: str | Path,
    reference_roots: list[str | Path] | None = None,
    package: str | None = None,
) -> list[Finding]:
    """Run the whole-program pass over the package tree at ``root``.

    ``reference_roots`` (tests, benchmarks, examples) are parsed for
    symbol *usage* only — they can keep a public symbol alive for RA612
    but are not themselves linted here. Per-file suppression comments
    apply to project findings exactly as to per-file ones.
    """
    project = Project(Path(root), package=package)
    findings: list[Finding] = list(project.parse_errors)
    findings.extend(check_layering(project))
    findings.extend(check_cycles(project))
    findings.extend(
        check_dead_symbols(
            project, _load_reference_trees(list(reference_roots or []))
        )
    )
    for info in project.modules.values():
        findings.extend(check_resource_lifecycles(info.tree, str(info.path)))
        findings.extend(check_lock_blocking(info.tree, str(info.path)))
    findings.extend(check_fork_safety(project))
    sources = {str(info.path): info.source for info in project.modules.values()}
    return unsuppressed(findings, sources)
