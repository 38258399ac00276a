"""Runtime model-graph verification.

The AST linter catches structural mistakes it can see in source; this
module catches the ones it cannot — by instantiating real models and
checking the live object graph:

- **registration**: cross-check ``named_parameters()`` against a
  brute-force walk of ``__dict__``/containers (including sets and other
  objects ``_named_children`` does not traverse). A parameter the walk
  finds but discovery misses is silently untrained *and* unserialized —
  the ``kg2ent.0.0.self_weight`` bug class from PR 2, caught generically.
- **gradient flow**: run a probe forward+backward and report parameters
  whose gradient never materializes (dead branches, detached graphs).
- **state_dict round trip**: ``load_state_dict(state_dict())`` must be
  lossless, and loading perturbed arrays must actually change the
  parameters (catches aliasing/copy bugs).
- **dtype consistency**: ``half_precision()``/``full_precision()`` must
  cast *every* parameter; a straggler float64 parameter silently
  promotes activations back to float64 and erases the fast path.

Use :func:`verify_module` on any module, or
:func:`verify_registered_models` for the built-in registry of this
repo's model zoo (used by ``repro lint --models`` and CI).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.errors import GradientError
from repro.nn.module import Module, Parameter
from repro.nn.tensor import DEFAULT_DTYPE, FAST_DTYPE, Tensor


def _model_finding(name: str, message: str) -> Finding:
    return Finding(
        rule="RM101",
        path=f"<model:{name}>",
        line=0,
        message=message,
        severity=SEVERITY_ERROR,
    )


# ----------------------------------------------------------------------
# Brute-force parameter discovery
# ----------------------------------------------------------------------
def walk_parameter_leaves(module: Module) -> list[tuple[str, Parameter]]:
    """Find every Parameter reachable from ``module`` by brute force.

    Unlike ``named_parameters`` this also descends sets/frozensets and
    arbitrary container nesting, so the difference between the two is
    exactly the set of silently unregistered parameters.
    """
    found: list[tuple[str, Parameter]] = []
    seen: set[int] = set()

    def visit(value, name: str) -> None:
        if id(value) in seen:
            return
        if isinstance(value, Parameter):
            seen.add(id(value))
            found.append((name, value))
        elif isinstance(value, Module):
            seen.add(id(value))
            for key, child in vars(value).items():
                visit(child, f"{name}.{key}" if name else key)
        elif isinstance(value, (list, tuple)):
            seen.add(id(value))
            for i, item in enumerate(value):
                visit(item, f"{name}.{i}")
        elif isinstance(value, dict):
            seen.add(id(value))
            for key, item in value.items():
                visit(item, f"{name}.{key}")
        elif isinstance(value, (set, frozenset)):
            seen.add(id(value))
            for i, item in enumerate(sorted(value, key=id)):
                visit(item, f"{name}.<set:{i}>")

    visit(module, "")
    return found


def check_registration(module: Module, name: str = "module") -> list[Finding]:
    """Report parameters reachable in the object graph but invisible to
    ``named_parameters()`` (and therefore to the optimizer/serializer)."""
    registered = {id(p) for _, p in module.named_parameters()}
    findings = []
    for path, param in walk_parameter_leaves(module):
        if id(param) not in registered:
            findings.append(
                _model_finding(
                    name,
                    f"parameter at {path!r} is reachable in the object graph "
                    "but missing from named_parameters(); it will never be "
                    "trained or serialized",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Gradient-flow probe
# ----------------------------------------------------------------------
def check_grad_flow(
    module: Module,
    probe: Callable[[Module], Tensor],
    name: str = "module",
    allow_no_grad: tuple[str, ...] = (),
) -> list[Finding]:
    """Run ``probe`` (forward -> scalar loss), backprop, and report
    parameters the backward pass never reached (``grad is None``).

    A parameter with an all-*zero* gradient is still connected — e.g.
    weights downstream of the zero-initialized entity table receive
    exactly-zero gradients on step 0 — so only a missing gradient
    buffer counts as dead: the parameter was left out of the graph
    (unregistered, used via raw ``.data``, or in an unused branch).

    ``allow_no_grad`` lists dotted-name substrings that are intentionally
    gradient-free (e.g. frozen encoders).
    """
    module.zero_grad()
    loss = probe(module)
    if not isinstance(loss, Tensor):
        return [
            _model_finding(
                name, f"probe returned {type(loss).__name__}, expected a Tensor loss"
            )
        ]
    try:
        loss.backward()
    except GradientError:
        pass  # a loss with no graph reached no parameter at all
    findings = []
    for param_name, param in module.named_parameters():
        if any(fragment in param_name for fragment in allow_no_grad):
            continue
        if param.grad is None:
            findings.append(
                _model_finding(
                    name,
                    f"parameter {param_name!r} was never reached by the probe "
                    "backward pass; it is dead weight (detached graph, raw "
                    ".data use, or an unused branch)",
                )
            )
    module.zero_grad()
    return findings


# ----------------------------------------------------------------------
# Serialization and dtype checks
# ----------------------------------------------------------------------
def check_state_dict_round_trip(module: Module, name: str = "module") -> list[Finding]:
    """``load_state_dict(state_dict())`` must be lossless, and loading
    perturbed arrays must actually land in the parameters."""
    findings = []
    state = module.state_dict()
    module.load_state_dict(state)
    for key, param in module.named_parameters():
        if not np.array_equal(state[key], param.data):
            findings.append(
                _model_finding(
                    name,
                    f"state_dict round trip corrupted parameter {key!r}",
                )
            )
    perturbed = {key: array + 1.0 for key, array in state.items()}
    module.load_state_dict(perturbed)
    for key, param in module.named_parameters():
        if not np.allclose(param.data, state[key] + 1.0):
            findings.append(
                _model_finding(
                    name,
                    f"load_state_dict did not propagate new values into "
                    f"parameter {key!r} (aliasing bug?)",
                )
            )
    module.load_state_dict(state)
    return findings


def check_dtype_consistency(module: Module, name: str = "module") -> list[Finding]:
    """half_precision()/full_precision() must cast every parameter."""
    findings = []
    module.half_precision()
    for key, param in module.named_parameters():
        if param.data.dtype != np.dtype(FAST_DTYPE):
            findings.append(
                _model_finding(
                    name,
                    f"after half_precision(), parameter {key!r} is "
                    f"{param.data.dtype}, expected {np.dtype(FAST_DTYPE)}; a "
                    "stray float64 parameter promotes activations and erases "
                    "the fast path",
                )
            )
    module.full_precision()
    for key, param in module.named_parameters():
        if param.data.dtype != np.dtype(DEFAULT_DTYPE):
            findings.append(
                _model_finding(
                    name,
                    f"after full_precision(), parameter {key!r} is "
                    f"{param.data.dtype}, expected {np.dtype(DEFAULT_DTYPE)}",
                )
            )
    return findings


def verify_module(
    module: Module,
    probe: Callable[[Module], Tensor] | None = None,
    name: str = "module",
    allow_no_grad: tuple[str, ...] = (),
) -> list[Finding]:
    """Run every applicable runtime check on one module."""
    findings = check_registration(module, name)
    if probe is not None:
        findings.extend(check_grad_flow(module, probe, name, allow_no_grad))
    findings.extend(check_state_dict_round_trip(module, name))
    findings.extend(check_dtype_consistency(module, name))
    return findings


# ----------------------------------------------------------------------
# Registry of this repo's model zoo
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RegisteredModel:
    """A named factory producing ``(module, probe)`` for verification."""

    name: str
    build: Callable[[], tuple[Module, Callable[[Module], Tensor]]]
    allow_no_grad: tuple[str, ...] = ()


_REGISTRY: dict[str, RegisteredModel] = {}


def register_model(
    name: str,
    build: Callable[[], tuple[Module, Callable[[Module], Tensor]]],
    allow_no_grad: tuple[str, ...] = (),
) -> None:
    """Register a model factory for ``repro lint --models``.

    ``build`` must return ``(module, probe)`` where ``probe(module)``
    runs one representative forward pass and returns the scalar loss.
    """
    _REGISTRY[name] = RegisteredModel(name, build, allow_no_grad)


def registered_models() -> list[str]:
    _ensure_default_registry()
    return sorted(_REGISTRY)


_WORLD_FIXTURE = None


def _probe_fixture():
    """A tiny shared world/corpus/batch, built once per process."""
    global _WORLD_FIXTURE
    if _WORLD_FIXTURE is None:
        from repro.corpus.dataset import NedDataset, build_vocabulary
        from repro.corpus.generator import CorpusConfig, generate_corpus
        from repro.kb.synthetic import WorldConfig, generate_world

        world = generate_world(WorldConfig(num_entities=150, seed=11))
        corpus = generate_corpus(world, CorpusConfig(num_pages=20, seed=11))
        vocab = build_vocabulary(corpus)
        dataset = NedDataset(
            corpus, "train", vocab, world.candidate_map, 4, kgs=[world.kg]
        )
        rng = np.random.default_rng(11)
        batch = next(dataset.batches(8, rng))
        _WORLD_FIXTURE = (world, vocab, batch)
    return _WORLD_FIXTURE


def _loss_probe(batch):
    def probe(model: Module) -> Tensor:
        model.train()
        output = model(batch)
        return model.loss(batch, output)

    return probe


def _build_bootleg(preset_overrides: dict):
    def build():
        from repro.core.model import BootlegConfig, BootlegModel

        world, vocab, batch = _probe_fixture()
        config = BootlegConfig(num_candidates=4, **preset_overrides)
        model = BootlegModel(config, world.kb, vocab)
        return model, _loss_probe(batch)

    return build


def _build_ned_base():
    from repro.baselines.ned_base import NedBaseConfig, NedBaseModel

    world, vocab, batch = _probe_fixture()
    model = NedBaseModel(NedBaseConfig(), world.kb, vocab)
    return model, _loss_probe(batch)


def _build_relation():
    from repro.downstream.relation_model import RelationModel, TacredDataset
    from repro.downstream.tacred import TacredConfig, generate_tacred

    world, vocab, _ = _probe_fixture()
    examples = generate_tacred(world, TacredConfig(num_examples=20, seed=11))
    batch = TacredDataset(examples, vocab).collate(examples[:8])
    model = RelationModel(
        vocab,
        num_labels=world.kb.num_relations + 1,
        hidden_dim=32,
        rng=np.random.default_rng(11),
    )
    return model, _loss_probe(batch)


def _ensure_default_registry() -> None:
    if _REGISTRY:
        return
    from repro.core.model import MODEL_PRESETS

    for preset, overrides in MODEL_PRESETS.items():
        register_model(preset, _build_bootleg(dict(overrides)))
    register_model("ned-base", _build_ned_base)
    register_model("relation", _build_relation)


def verify_registered_models(names: list[str] | None = None) -> list[Finding]:
    """Instantiate and verify every registered model (or ``names``)."""
    _ensure_default_registry()
    findings: list[Finding] = []
    for name in names or sorted(_REGISTRY):
        entry = _REGISTRY[name]
        module, probe = entry.build()
        findings.extend(
            verify_module(
                module, probe=probe, name=name, allow_no_grad=entry.allow_no_grad
            )
        )
    return findings
