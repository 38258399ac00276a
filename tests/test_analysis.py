"""Tests for repro.analysis: the AST linter and the model-graph verifier."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    analyze_project,
    changed_python_files,
    check_dtype_consistency,
    check_grad_flow,
    check_registration,
    check_state_dict_round_trip,
    findings_to_json,
    flow_lint_source,
    has_errors,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    suppressed_rules,
    verify_module,
    verify_registered_models,
    walk_parameter_leaves,
)
from repro.analysis.model_lint import _REGISTRY, registered_models
from repro.nn.tensor import Tensor

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _load_broken_modules():
    spec = importlib.util.spec_from_file_location(
        "lint_fixture_broken_modules", FIXTURES / "broken_modules.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


broken = _load_broken_modules()


def _probe(module):
    x = Tensor(np.ones((3, 4)))
    return module(x).sum()


# ----------------------------------------------------------------------
# Fixture corpus: each file fires exactly its rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename, rule, count",
    [
        ("ra201_dtype_literal.py", "RA201", 2),
        ("ra401_unguarded_obs.py", "RA401", 1),
        ("ra401_provenance_capture.py", "RA401", 2),
        ("ra402_dynamic_metric_name.py", "RA402", 1),
        ("ra403_unsafe_labels.py", "RA403", 3),
        ("ra404_metric_naming.py", "RA404", 3),
        ("ra501_cache_invalidation.py", "RA501", 3),
    ],
)
def test_fixture_fires_exactly_its_rule(filename, rule, count):
    findings = lint_file(FIXTURES / filename)
    assert [f.rule for f in findings] == [rule] * count, [
        f.format() for f in findings
    ]
    assert all(f.line > 0 for f in findings)


def test_suppressed_fixture_is_clean():
    assert lint_file(FIXTURES / "clean_suppressed.py") == []


def test_suppression_is_line_scoped():
    source = (
        "import numpy as np\n"
        "a = np.float64(1.0)  # repro-lint: disable=RA201\n"
        "b = np.float64(2.0)\n"
    )
    findings = lint_source(source, "blob.py", is_modeling=True)
    assert [(f.rule, f.line) for f in findings] == [("RA201", 3)]


def test_syntax_error_reports_ra000():
    findings = lint_source("def broken(:\n", "blob.py")
    assert [f.rule for f in findings] == ["RA000"]


def test_ra000_reports_the_column():
    findings = lint_source("def broken(:\n", "blob.py")
    assert findings[0].rule == "RA000"
    assert findings[0].column > 0


def test_repo_tree_is_clean():
    findings = lint_paths([REPO_ROOT / "src" / "repro"])
    assert not has_errors(findings), [f.format() for f in findings]


# ----------------------------------------------------------------------
# Suppression scanning (tokenize-based)
# ----------------------------------------------------------------------
def test_suppression_inside_string_literal_does_not_suppress():
    source = (
        "import numpy as np\n"
        'DOC = "# repro-lint: disable=RA201"; x = np.float64(1)\n'
    )
    findings = lint_source(source, "blob.py", is_modeling=True)
    assert [f.rule for f in findings] == ["RA201"]


def test_multi_rule_suppression_on_one_line():
    source = (
        "import numpy as np\n"
        "x = np.float64(1)  # repro-lint: disable=RA201 RA401\n"
    )
    assert suppressed_rules(source)[2] == frozenset({"RA201", "RA401"})
    assert lint_source(source, "blob.py", is_modeling=True) == []


def test_iter_python_files_skips_pycache_and_dedupes_symlinks(tmp_path):
    real = tmp_path / "mod.py"
    real.write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.py").write_text("x = 1\n")
    (tmp_path / "alias.py").symlink_to(real)
    (tmp_path / "dangling.py").symlink_to(tmp_path / "missing.py")
    files = iter_python_files([tmp_path])
    # The symlink sorts first and wins; the real file is the same inode,
    # the dangling link and the cache are skipped.
    assert [p.name for p in files] == ["alias.py"]


# ----------------------------------------------------------------------
# Whole-program pass: lifecycle, import contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename, rule",
    [
        ("ra701_shm_leak.py", "RA701"),
        ("ra705_memmap_leak.py", "RA705"),
        ("ra706_open_no_with.py", "RA706"),
    ],
)
def test_flow_fixture_fires_exactly_its_rule(filename, rule):
    path = FIXTURES / filename
    findings = flow_lint_source(path.read_text(encoding="utf-8"), str(path))
    assert [f.rule for f in findings] == [rule], [f.format() for f in findings]


def test_flow_passes_the_canonical_repair_shapes():
    source = (
        "from multiprocessing import shared_memory\n"
        "\n"
        "def managed(total):\n"
        "    block = shared_memory.SharedMemory(create=True, size=total)\n"
        "    try:\n"
        "        fill(block)\n"
        "    finally:\n"
        "        block.close()\n"
        "        block.unlink()\n"
        "\n"
        "def transferred(total):\n"
        "    return shared_memory.SharedMemory(create=True, size=total)\n"
        "\n"
        "def with_managed(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    assert flow_lint_source(source, "blob.py") == []


def test_project_fixture_tree_fires_each_contract_rule():
    findings = analyze_project(FIXTURES / "proj" / "repro")
    got = {(f.rule, Path(f.path).name) for f in findings}
    assert got == {
        ("RA610", "layer.py"),
        ("RA610", "trainer.py"),
        ("RA611", "alpha.py"),
        ("RA612", "pool.py"),
        ("RA612", "util.py"),
        ("RA613", "engine.py"),
    }, sorted(f.format() for f in findings)


def test_ra613_reports_each_confined_use_once_outside_its_home():
    """Imports, from-imports and alias-resolved attribute chains are
    reported where they first enter a confined name; bare aliases of
    an imported name are not reported again, the suppressed import on
    line 5 stays quiet, and the home packages report nothing."""
    root = FIXTURES / "proj" / "repro"
    findings = analyze_project(root)
    confined = [
        (Path(f.path).relative_to(root).as_posix(), f.line, f.message.split()[2])
        for f in findings
        if f.rule == "RA613"
    ]
    assert confined == [
        ("core/engine.py", 3, "mmap"),
        ("core/engine.py", 4, "multiprocessing"),
        ("core/engine.py", 7, "numpy.lib.format"),
        ("core/engine.py", 8, "multiprocessing.shared_memory"),
        ("core/engine.py", 9, "numpy.memmap"),
        ("core/engine.py", 10, "numpy.lib.format"),
        ("core/engine.py", 13, "repro.obs.provenance.DecisionRecord"),
        ("core/engine.py", 22, "numpy.memmap"),
        ("core/engine.py", 26, "numpy.lib.format"),
        ("core/engine.py", 31, "repro.obs.provenance.DecisionRecord"),
    ], sorted(f.format() for f in findings)


def test_project_pass_is_clean_and_fast_on_repo_tree():
    start = time.monotonic()
    findings = analyze_project(
        REPO_ROOT / "src" / "repro",
        reference_roots=[
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
    )
    elapsed = time.monotonic() - start
    assert findings == [], [f.format() for f in findings]
    assert elapsed < 10.0, f"project pass took {elapsed:.1f}s (budget 10s)"


# ----------------------------------------------------------------------
# Changed-only selection
# ----------------------------------------------------------------------
def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_changed_only_selects_git_changed_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init")
    (repo / "clean.py").write_text("x = 1\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-m", "seed")
    (repo / "dirty.py").write_text("y = 2\n")
    monkeypatch.chdir(repo)
    changed = changed_python_files([Path(".")])
    assert changed is not None
    assert [p.name for p in changed] == ["dirty.py"]


def test_changed_only_falls_back_outside_git(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert changed_python_files([Path(".")]) is None
    findings = lint_paths([Path(".")], changed_only=True)
    assert findings == []  # full-walk fallback linted the clean file


def test_findings_json_shape():
    findings = lint_file(FIXTURES / "ra201_dtype_literal.py")
    payload = json.loads(findings_to_json(findings))
    assert payload["count"] == 2
    assert payload["errors"] == 2
    entry = payload["findings"][0]
    assert entry["rule"] == "RA201"
    assert entry["path"].endswith("ra201_dtype_literal.py")


# ----------------------------------------------------------------------
# Model-graph verifier
# ----------------------------------------------------------------------
def test_verifier_flags_unregistered_param_in_set():
    rng = np.random.default_rng(0)
    module = broken.UnregisteredParamNet(rng)
    leaves = dict(walk_parameter_leaves(module))
    assert any(name.startswith("extras.") for name in leaves)
    findings = check_registration(module, name="unregistered")
    assert len(findings) == 1
    assert "extras" in findings[0].message
    assert "named_parameters" in findings[0].message


def test_verifier_flags_dead_param():
    rng = np.random.default_rng(0)
    module = broken.DeadParamNet(rng)
    findings = check_grad_flow(module, _probe, name="dead")
    assert len(findings) == 1
    assert "'dead'" in findings[0].message


def test_verifier_allow_no_grad_waives_dead_param():
    rng = np.random.default_rng(0)
    module = broken.DeadParamNet(rng)
    assert check_grad_flow(module, _probe, allow_no_grad=("dead",)) == []


def test_verifier_flags_every_param_when_the_loss_has_no_graph():
    # A fast path that runs during training detaches the whole loss.
    rng = np.random.default_rng(0)
    module = broken.NestedContainerNet(rng)
    findings = check_grad_flow(
        module, lambda m: Tensor(m(Tensor(np.ones((3, 4)))).data.sum())
    )
    assert len(findings) == len(list(module.named_parameters()))


def test_verifier_clean_on_nested_containers():
    rng = np.random.default_rng(0)
    module = broken.NestedContainerNet(rng)
    findings = verify_module(module, probe=_probe, name="nested")
    assert findings == [], [f.format() for f in findings]


def test_state_dict_round_trip_through_nested_containers():
    rng = np.random.default_rng(1)
    module = broken.NestedContainerNet(rng)
    state = module.state_dict()
    # Dotted names traverse lists-of-lists and dicts.
    assert "blocks.0.0.weight" in state
    assert "blocks.1.1.bias" in state
    assert "heads.a.weight" in state
    assert "heads.b.0.weight" in state
    fresh = broken.NestedContainerNet(np.random.default_rng(2))
    before = fresh.heads["a"].weight.data.copy()
    assert not np.array_equal(before, module.heads["a"].weight.data)
    fresh.load_state_dict(state)
    for key, param in fresh.named_parameters():
        assert np.array_equal(param.data, state[key])
    assert check_state_dict_round_trip(module) == []


def test_dtype_consistency_on_nested_containers():
    rng = np.random.default_rng(3)
    module = broken.NestedContainerNet(rng)
    assert check_dtype_consistency(module) == []


def test_registered_models_verify_clean():
    findings = verify_registered_models()
    assert findings == [], [f.format() for f in findings]


def _parameter_owning_modules() -> set[str]:
    """Names of the Module subclasses under src/repro whose class body
    constructs a Parameter, directly or through another class that
    does (so a container module owns its layers' parameters)."""
    bases: dict[str, set[str]] = {}
    calls: dict[str, set[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    ast.unparse(base).split(".")[-1] for base in node.bases
                }
                calls[node.name] = {
                    ast.unparse(call.func).split(".")[-1]
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                }
    modules, owners = {"Module"}, {"Parameter"}
    while True:
        more_modules = {name for name, found in bases.items() if found & modules}
        more_owners = {
            name
            for name, called in calls.items()
            if (called | bases[name]) & owners
        }
        if more_modules <= modules and more_owners <= owners:
            return owners & modules
        modules |= more_modules
        owners |= more_owners


def test_registered_models_reach_every_parameter_owning_module():
    # RM101 checks registration and gradient flow only on the modules a
    # registered model holds, so each parameter-owning class needs one.
    reached = set()
    for name in registered_models():
        module, _ = _REGISTRY[name].build()
        reached |= {type(sub).__name__ for _, sub in module.named_modules()}
    owners = _parameter_owning_modules()
    assert {"Linear", "MLP", "RelationModel", "BootlegModel"} <= owners
    assert owners - reached == set()


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_cli_exit_nonzero_on_fixture_corpus():
    result = _run_cli(str(FIXTURES / "ra401_unguarded_obs.py"), "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["errors"] == 1
    assert payload["findings"][0]["rule"] == "RA401"


def test_cli_exit_zero_on_clean_tree():
    result = _run_cli("src/repro")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_warn_only_exit_zero():
    result = _run_cli(str(FIXTURES / "ra201_dtype_literal.py"), "--warn-only")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_rejects_the_retired_json_flag():
    # With prefix matching, `--json` would quietly mean `--json-logs`.
    result = _run_cli(str(FIXTURES / "ra201_dtype_literal.py"), "--json")
    assert result.returncode == 2
    assert "unrecognized arguments: --json" in result.stderr


def test_cli_project_flag_nonzero_on_fixture_tree():
    result = _run_cli(
        "tests/lint_fixtures/proj/repro", "--project", "--format", "json"
    )
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    rules = {f["rule"] for f in payload["findings"]}
    assert {"RA610", "RA611", "RA613"} <= rules


def test_cli_project_flag_clean_on_repo_tree():
    result = _run_cli("src/repro", "--project")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_list_rules_includes_project_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in ("RA610", "RA613", "RA701", "RA706"):
        assert rule_id in result.stdout


def test_list_rules_matches_the_documented_rule_tables(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    docs = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| (RA\d{3}) ", docs, flags=re.MULTILINE))
    assert listed == documented


def test_warn_only_downgrades_every_pass_and_summary_counts_by_severity(
    monkeypatch, capsys
):
    from repro.cli import main

    stubbed = [
        Finding("RM101", "<model:stub>", 0, "stub", severity=SEVERITY_ERROR),
        Finding("RM101", "<model:stub>", 0, "stub", severity=SEVERITY_WARNING),
    ]
    monkeypatch.setattr("repro.analysis.verify_registered_models", lambda: stubbed)
    clean = str(FIXTURES / "clean_suppressed.py")
    assert main(["lint", clean, "--models"]) == 1
    assert capsys.readouterr().err.strip() == "1 error(s), 1 warning(s)"
    assert main(["lint", clean, "--models", "--warn-only"]) == 0
    assert capsys.readouterr().err.strip() == "0 error(s), 2 warning(s)"
