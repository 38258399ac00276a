"""File walking, rule scoping and suppression handling for ``repro lint``.

Scoping
-------
Files inside the ``repro`` package are categorized by subpackage:
the modeling rule (RA201) only applies under ``nn``/``core``/``text``/
``baselines``/``downstream``, the obs-guard rules skip ``repro/obs``
(the instrumentation itself), and ``nn/tensor.py`` — which *defines*
the dtype policy — is exempt from RA201. Files outside the package
(lint fixtures, benchmarks, examples) get every rule. Package
confinement is not scoped here: the whole-program pass enforces it as
RA613.

Suppression
-----------
A finding is suppressed by a comment on its reported line::

    scores = np.array(x, dtype=np.float64)  # repro-lint: disable=RA201 reason

``# repro-lint: disable`` without ids suppresses every rule on that
line. Suppressions are deliberately line-scoped: blanket file-level
opt-outs would defeat the point of the linter. Both passes filter
through :func:`unsuppressed`.
"""

from __future__ import annotations

import ast
import io
import re
import subprocess
import tokenize
from pathlib import Path

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.rules import RULES, FileContext

MODELING_SUBPACKAGES = frozenset(
    {"nn", "core", "text", "baselines", "downstream"}
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable\b(?P<ids>[^#]*)")
_RULE_ID_RE = re.compile(r"RA\d+")


def _classify(path: Path) -> dict[str, bool]:
    """Derive the rule-scoping flags from a file's package location."""
    parts = path.parts
    if "repro" not in parts:
        return {
            "is_modeling": True,
            "is_obs_package": False,
            "defines_dtype_policy": False,
        }
    index = len(parts) - 1 - parts[::-1].index("repro")
    subpackage = parts[index + 1] if index + 1 < len(parts) - 1 else ""
    return {
        "is_modeling": subpackage in MODELING_SUBPACKAGES,
        "is_obs_package": subpackage == "obs",
        "defines_dtype_policy": subpackage == "nn" and path.name == "tensor.py",
    }


def suppressed_rules(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (None = all rules).

    Scans actual COMMENT tokens via :mod:`tokenize`, so a
    ``# repro-lint: disable=...`` *inside a string literal* (docs, test
    fixtures, generated messages) does not silently suppress findings
    on its line the way a per-line regex would.
    """
    suppressions: dict[int, frozenset[str] | None] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = frozenset(_RULE_ID_RE.findall(match.group("ids")))
            suppressions[token.start[0]] = ids or None
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable source only ever yields RA000, which is not
        # suppressible anyway.
        return suppressions
    return suppressions


def unsuppressed(findings: list[Finding], sources: dict[str, str]) -> list[Finding]:
    """Drop findings suppressed on their line, sorted by path/line/rule.

    ``sources`` maps a finding's path to the source text its
    suppression comments are read from; a path without a source (an
    unparseable file's RA000) keeps all of its findings.
    """
    by_path: dict[str, dict[int, frozenset[str] | None]] = {}
    kept = []
    for finding in findings:
        if finding.path not in by_path:
            source = sources.get(finding.path)
            by_path[finding.path] = suppressed_rules(source) if source else {}
        ids = by_path[finding.path].get(finding.line, frozenset())
        if ids is None or finding.rule in ids:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def lint_source(source: str, path: str, **flags: bool) -> list[Finding]:
    """Lint one in-memory source blob (used directly by tests)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                rule="RA000",
                path=path,
                line=error.lineno or 0,
                column=error.offset or 0,
                message=f"syntax error: {error.msg}",
                severity=SEVERITY_ERROR,
            )
        ]
    ctx = FileContext(path=path, source=source, tree=tree, **flags)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(ctx))
    return unsuppressed(findings, {path: source})


def lint_file(path: Path) -> list[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), **_classify(path))


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Every ``*.py`` under ``paths``, skipping ``__pycache__`` and
    deduplicating symlink aliases (a linked file is linted once, under
    whichever spelling sorts first)."""
    files: list[Path] = []
    seen: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            candidates = [entry]
        else:
            continue
        for path in candidates:
            if "__pycache__" in path.parts:
                continue
            try:
                real = path.resolve()
            except OSError:  # pragma: no cover - broken symlink
                continue
            if real in seen or not real.is_file():
                continue
            seen.add(real)
            files.append(path)
    return files


def changed_python_files(paths: list[str | Path]) -> list[Path] | None:
    """Files under ``paths`` with uncommitted changes (staged, unstaged
    or untracked), for ``repro lint --changed-only``.

    Returns ``None`` when git is unavailable or we are outside a work
    tree — the caller falls back to the full walk.
    """
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    changed: set[Path] = set()
    for line in result.stdout.splitlines():
        if len(line) < 4:
            continue
        name = line[3:]
        if " -> " in name:  # rename: lint the new spelling
            name = name.split(" -> ", 1)[1]
        name = name.strip().strip('"')
        if name.endswith(".py"):
            changed.add(Path(name).resolve())
    scoped = iter_python_files(paths)
    return [p for p in scoped if p.resolve() in changed]


def lint_paths(
    paths: list[str | Path], changed_only: bool = False
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``; directories recurse.

    ``changed_only`` restricts the walk to files git reports as
    modified, falling back to the full walk outside a work tree.
    """
    files = changed_python_files(paths) if changed_only else None
    if files is None:
        files = iter_python_files(paths)
    findings: list[Finding] = []
    for file_path in files:
        findings.extend(lint_file(file_path))
    return findings


def has_errors(findings: list[Finding]) -> bool:
    return any(f.severity == SEVERITY_ERROR for f in findings)
