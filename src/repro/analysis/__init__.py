"""repro.analysis — static invariant linter + runtime model-graph verifier.

Two complementary passes over the codebase's hand-maintained
invariants (see ``docs/ANALYSIS.md``):

- :mod:`repro.analysis.linter` / :mod:`repro.analysis.rules` — AST
  rules over source files (``repro lint <paths>``).
- :mod:`repro.analysis.project` / :mod:`repro.analysis.flow` /
  :mod:`repro.analysis.layers` — the whole-program pass: import
  layering, resource-lifecycle dataflow, fork/thread-safety
  (``repro lint --project``).
- :mod:`repro.analysis.model_lint` — instantiates registered models and
  verifies the live object graph (``repro lint --models``).
"""

from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    findings_to_json,
    findings_to_sarif,
)
from repro.analysis.flow import flow_lint_source
from repro.analysis.linter import (
    changed_python_files,
    has_errors,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    suppressed_rules,
)
from repro.analysis.model_lint import (
    check_dtype_consistency,
    check_grad_flow,
    check_registration,
    check_state_dict_round_trip,
    register_model,
    registered_models,
    verify_module,
    verify_registered_models,
    walk_parameter_leaves,
)
from repro.analysis.project import PROJECT_RULES, analyze_project
from repro.analysis.rules import RULES

__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "findings_to_json",
    "findings_to_sarif",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "changed_python_files",
    "suppressed_rules",
    "analyze_project",
    "flow_lint_source",
    "PROJECT_RULES",
    "has_errors",
    "RULES",
    "walk_parameter_leaves",
    "check_registration",
    "check_grad_flow",
    "check_state_dict_round_trip",
    "check_dtype_consistency",
    "verify_module",
    "register_model",
    "registered_models",
    "verify_registered_models",
]
