"""Every public name in ``src/repro`` is reached from outside ``tests/``.

A public top-level function, class or method that only tests call is
code the reproduction does not need: it passes the suite while no
experiment, example, benchmark or perfbench workload runs it.  This
guard walks the AST of ``src/repro`` and fails on any such name.

A name counts as reached when a module under ``src/``, ``examples/``,
``benchmarks/`` or ``perfbench/`` references it as an ``ast.Name``, as
an ``ast.Attribute`` or as an identifier string constant (perfbench's
ledger names the methods it wraps as strings).  An ``__init__``
re-export, an ``__all__`` entry or a docstring is not a reference.

Names are matched by their bare identifier, without type information,
so a method is reached once any attribute of that name is used.  The
check is therefore a floor: it catches names nothing mentions, not
every unused overload.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENTRY_DIRS = ("src", "examples", "benchmarks", "perfbench")

#: Names kept although only tests call them, one reason each.
ALLOWED = {
    # Small helpers the tests use as assertion utilities.
    "FacialRegion.area":
        "region-geometry assertion helper for the layout tests",
    "FacialRegion.center":
        "region-geometry assertion helper for the layout tests",
    "FacialRegion.contains":
        "point-in-region check the landmark tests assert with",
    "StressPrior.evidence_weights":
        "exposes the prior's per-AU weights to the prior tests",
    "StressPrior.stress_direction":
        "exposes the prior's sign per AU to the prior tests",
    "FoundationModel.clear_feature_cache":
        "lets cache tests start from a cold feature cache",
    "DialogueSession.is_fresh":
        "one-line session-state predicate the chain tests assert on",
    "CacheStats.hit_rate":
        "derived ratio the serving cache tests assert on",
    "FacialDescription.parse":
        "inverse of render; the text round-trip tests' oracle",
    "FacialDescription.regions":
        "region list of a description the description tests assert on",
    "segment_masks":
        "one-hot segment masks, the perturbation tests' reference",
    "apply_mask":
        "single-row form of apply_masks_batch, its tests' loop reference",
    # The operator surface: what a deploy script, an operator or a
    # chaos drill calls.  The deploy, chaos and persistence tests drive
    # it on purpose; no experiment needs it.
    "ModelRegistry": "versioned model store a deploy publishes to",
    "ModelRegistry.has": "registry lookup a deploy script checks first",
    "ModelRegistry.publish": "writes a version into the registry",
    "ReplicaPool.from_registry":
        "registry-backed pool constructor, the deploy tests' entry point",
    "ReplicaPool.deploy": "hot-swaps a registry version into the pool",
    "ReplicaPool.fingerprints":
        "reports which weights each replica serves after a deploy",
    "Deployment.promote": "completes a canary deploy",
    "StressChainPipeline.predict_many":
        "offline batch API over the serving executor",
    "save_model": "writes the archive load_model reads",
    "active_plan": "reports the armed fault plan",
    "uninstall_plan": "disarms fault injection",
    "injected": "arms a fault plan for one with block, as a chaos drill does",
    "ListExporter": "in-memory span exporter for reading a trace",
    "MetricsRegistry.reset": "empties a registry between runs",
}

#: A reason containing this defers the decision instead of giving one.
PLACEHOLDER_REASON = "not yet triaged"


def _python_files(directory: Path) -> list[Path]:
    return sorted(directory.rglob("*.py"))


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _dunder_all_nodes(tree: ast.AST) -> set[int]:
    """``id()`` of every node inside an ``__all__`` assignment."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                found.update(id(child) for child in ast.walk(node))
    return found


def referenced_names() -> set[str]:
    """Identifiers referenced anywhere under the entry directories."""
    names: set[str] = set()
    for directory in ENTRY_DIRS:
        for path in _python_files(ROOT / directory):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skip = _docstring_nodes(tree) | _dunder_all_nodes(tree)
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value.isidentifier()):
                    names.add(node.value)
    return names


def public_definitions() -> dict[str, str]:
    """``qualified name -> defining module`` for every public top-level
    function and class in ``src/repro``, and every public method of
    those classes."""
    defined: dict[str, str] = {}
    for path in _python_files(PACKAGE):
        module = str(path.relative_to(ROOT))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            defined[node.name] = module
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        defined[f"{node.name}.{member.name}"] = module
    return defined


def test_every_public_name_is_reached_outside_tests():
    references = referenced_names()
    unreached = sorted(
        f"{qualname} ({module})"
        for qualname, module in public_definitions().items()
        if qualname.rsplit(".", 1)[-1] not in references
        and qualname not in ALLOWED
    )
    assert not unreached, (
        "only tests reach these names; delete them, or add one to "
        "ALLOWED with its reason:\n  " + "\n  ".join(unreached)
    )


def test_allow_list_is_current():
    """An allowed name that is gone, or that is now reached, leaves
    the list."""
    defined = public_definitions()
    references = referenced_names()
    stale = sorted(
        qualname for qualname in ALLOWED
        if qualname not in defined
        or qualname.rsplit(".", 1)[-1] in references
    )
    assert not stale, f"remove from ALLOWED: {stale}"


def test_allow_list_reasons_are_real():
    """Every allowed name says why it stays: an empty reason or a
    "not yet triaged" IOU lets the list grow without a decision."""
    placeholders = sorted(
        qualname for qualname, reason in ALLOWED.items()
        if not reason.strip() or PLACEHOLDER_REASON in reason.lower()
    )
    assert not placeholders, (
        f"give these a reason or delete them: {placeholders}")
