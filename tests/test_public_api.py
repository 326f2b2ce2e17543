"""The public API surface, pinned.

``tests/golden/public_api.json`` records every public module's
``__all__``.  Any addition, rename, or removal fails here with a
field-level diff, so the public surface only changes deliberately::

    PYTHONPATH=src python -m pytest tests/test_public_api.py --update-golden

then review the fixture diff like any other code change.

The suite also pins the facade (``predict`` keywords, ``explain=False``,
no deprecation warnings) and checks that the error hierarchy roots at
:class:`ReproError`.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cot.chain import StressChainPipeline, StressPipeline
from repro.errors import ReproError
from repro.video.frame import Video, VideoSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "public_api.json"

#: Every module whose ``__all__`` is part of the public contract.
PUBLIC_MODULES = [
    "repro",
    "repro.baselines",
    "repro.config",
    "repro.cot",
    "repro.datasets",
    "repro.errors",
    "repro.evaluation",
    "repro.experiments",
    "repro.explainers",
    "repro.facs",
    "repro.metrics",
    "repro.model",
    "repro.nn",
    "repro.observability",
    "repro.reliability",
    "repro.retrieval",
    "repro.serving",
    "repro.training",
    "repro.video",
]


def surface() -> dict[str, list[str]]:
    return {
        name: sorted(importlib.import_module(name).__all__)
        for name in PUBLIC_MODULES
    }


def _video(tag: str = "api") -> Video:
    rng = np.random.default_rng(31)
    return Video(VideoSpec(
        video_id=f"{tag}-video", subject_id=f"{tag}-subj",
        au_intensities=np.clip(rng.random((12, 12)), 0, 1),
        identity=rng.standard_normal(8), seed=13_000,
    ))


# ----------------------------------------------------------------------
# Surface snapshot
# ----------------------------------------------------------------------


class TestSurfaceSnapshot:
    def test_public_surface_matches_golden(self, update_golden):
        current = surface()
        if update_golden:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
            pytest.skip(f"public API snapshot regenerated at {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), (
            "API snapshot missing; regenerate with "
            "`python -m pytest tests/test_public_api.py --update-golden`")
        recorded = json.loads(GOLDEN_PATH.read_text())
        assert sorted(recorded) == sorted(current), (
            "public module set changed; regenerate with --update-golden "
            "and review the diff")
        for module in recorded:
            added = sorted(set(current[module]) - set(recorded[module]))
            removed = sorted(set(recorded[module]) - set(current[module]))
            assert not added and not removed, (
                f"{module}.__all__ drifted (added {added}, removed "
                f"{removed}); regenerate with --update-golden and review")

    def test_every_all_entry_resolves(self):
        for name in PUBLIC_MODULES:
            module = importlib.import_module(name)
            missing = [entry for entry in module.__all__
                       if not hasattr(module, entry)]
            assert not missing, f"{name}.__all__ names missing: {missing}"

    def test_every_all_is_sorted_and_unique(self):
        for name in PUBLIC_MODULES:
            entries = importlib.import_module(name).__all__
            assert list(entries) == sorted(set(entries)), (
                f"{name}.__all__ is not sorted/deduplicated")


# ----------------------------------------------------------------------
# Error hierarchy
# ----------------------------------------------------------------------


class TestErrorHierarchy:
    def test_every_exported_error_derives_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, ReproError), name

    def test_every_error_is_exported_from_repro(self):
        from repro import errors

        for name in errors.__all__:
            assert name in repro.__all__, (
                f"repro.errors.{name} missing from repro.__all__")
            assert getattr(repro, name) is getattr(errors, name)


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------


class TestFacade:
    def test_stress_pipeline_is_the_chain_pipeline(self):
        assert StressPipeline is StressChainPipeline
        assert repro.StressPipeline is StressChainPipeline

    def test_quickstart_names_are_all_bound(self):
        """Every name the package docstring's quickstart reads is
        imported or assigned in the snippet itself."""
        doc = repro.__doc__
        block = doc[doc.index("Quickstart::"):].split("\n\n")[1:]
        snippet = textwrap.dedent("\n\n".join(
            part for part in block if part.startswith("    ")))
        bound, read = set(dir(builtins)), set()
        for node in ast.walk(ast.parse(snippet)):
            if isinstance(node, ast.alias):
                bound.add(node.asname or node.name)
            elif isinstance(node, ast.Name):
                (bound if isinstance(node.ctx, ast.Store) else read).add(
                    node.id)
        assert read <= bound, f"quickstart reads unbound {read - bound}"
        assert "StressPipeline" in read

    def test_predict_keywords_are_keyword_only(self, fresh_model):
        pipeline = StressPipeline(fresh_model)
        with pytest.raises(TypeError):
            pipeline.predict(_video(), False)  # explain must be keyword

    def test_explain_false_skips_rationale_not_assessment(self, fresh_model):
        pipeline = StressPipeline(fresh_model)
        video = _video()
        full = pipeline.predict(video)
        bare = pipeline.predict(video, explain=False)
        assert bare.label == full.label
        assert bare.prob_stressed == full.prob_stressed
        assert tuple(bare.rationale) == ()
        assert len(bare.session) < len(full.session)

    def test_predict_never_warns(self, fresh_model):
        pipeline = StressPipeline(fresh_model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipeline.predict(_video())
            pipeline.predict_many([_video()])
