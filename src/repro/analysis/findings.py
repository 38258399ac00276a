"""Structured findings shared by the source linter and the model verifier.

Every check in :mod:`repro.analysis` reports :class:`Finding` objects
rather than printing ad hoc text, so the CLI can render them uniformly,
export them as JSON for CI tooling, and tests can assert on rule ids
and line numbers instead of message substrings.
"""

from __future__ import annotations

import dataclasses
import json

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``path`` is the offending file (or a ``<model:name>`` pseudo-path
    for runtime model-graph findings, where ``line`` is 0).
    """

    rule: str
    path: str
    line: int
    message: str
    severity: str = SEVERITY_ERROR
    column: int = 0

    def format(self) -> str:
        """Render as a familiar ``path:line:col: RULE message`` line."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def findings_to_json(findings: list[Finding]) -> str:
    """JSON document for ``repro lint --format json`` and CI consumers.

    The shape (``count``/``errors``/``findings`` with per-finding
    ``rule``/``path``/``line``/``message``/``severity``/``column``) is a
    stable contract.
    """
    return json.dumps(
        {
            "count": len(findings),
            "errors": sum(1 for f in findings if f.severity == SEVERITY_ERROR),
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )
