"""The reasoning chain's one implementation, and its batch executor.

:func:`_run_core` is the only code in the library that runs the
paper's Describe -> Assess -> Highlight chain.  It stages every step
through a set of stage caches, and two callers share it:

- serial :meth:`~repro.cot.chain.StressChainPipeline.predict` runs it
  over :data:`~repro.serving.cache.NULL_CACHES` (see
  :func:`predict_uncached`): no content hash, no LRU lookup, and one
  trunk pass per call;
- :class:`ChainBatchExecutor` runs it once per unique content of a
  batch over the per-stage LRU caches, so served results are
  **bitwise-identical** to serial ``predict`` by construction.

The guarantee is structural, not numerical luck:

- Per-request math runs through the model's own stage methods
  (``describe``, ``assess_logit``, ``highlight``), so a model subclass
  that overrides one -- the off-the-shelf proxies add per-query noise
  -- is served exactly as it predicts.  Those methods run single-row
  matmuls (stacked GEMMs are *not* row-wise bitwise-reproducible under
  BLAS, so the core never routes request math through them; the
  ``*_from_frames_batch`` engine remains the explainers' workhorse).
- The trunk embedding is computed once per chain run and passed to
  each stage method as ``embed``.
- Duplicate requests in one batch are computed once and fanned out;
  across batches the per-stage LRU caches replay stage outputs that
  greedy decoding makes deterministic.

Every request gets its *own* :class:`DialogueSession`, rebuilt from
the stage outputs in the chain's recording order, so concurrent
requests can never interleave dialogue state (the mutable-state hazard
DESIGN.md section 10 discusses).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.cot.chain import ChainResult, StressChainPipeline
from repro.cot.incontext import incontext_logit_shift
from repro.cot.rationale import Rationale
from repro.errors import DeadlineExceededError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import STRESSED, UNSTRESSED, _render_rationale
from repro.model.generation import GREEDY
from repro.model.instructions import (
    ASSESS_INSTRUCTION,
    DESCRIBE_INSTRUCTION,
    DIRECT_ASSESS_INSTRUCTION,
    HIGHLIGHT_INSTRUCTION,
)
from repro.model.session import DialogueSession
from repro.nn.tensorops import sigmoid
from repro.observability.tracing import span
from repro.reliability.deadlines import Deadline
from repro.reliability.faults import fault_point
from repro.serving.cache import (
    NULL_CACHES,
    AssessEntry,
    CacheStats,
    DescribeEntry,
    HighlightEntry,
    StageCaches,
)
from repro.video.frame import Video


@dataclass(frozen=True, slots=True)
class _ChainCore:
    """The request-independent core of one chain run: everything a
    :class:`ChainResult` needs except the per-request session object
    and timing."""

    description: FacialDescription | None
    greedy_render: str | None
    label: int
    prob: float
    rationale: tuple[int, ...]
    rationale_render: str | None
    elapsed_seconds: float


def predict_uncached(pipeline, video: Video, explain: bool,
                     deadline: Deadline | None) -> ChainResult:
    """Serial :meth:`StressChainPipeline.predict`: the chain core over
    :data:`NULL_CACHES`, so nothing is hashed, looked up, or stored."""
    return _materialize(pipeline, _run_core(
        pipeline, video, None, NULL_CACHES, explain, deadline))


class ChainBatchExecutor:
    """Runs chain requests in batches against one pipeline.

    The executor is written for single-threaded use (the micro-batcher
    worker, or an offline ``predict_many`` loop); the caches it reads
    are individually thread-safe, but model access is expected to be
    serialized by the caller.

    Its public methods are the whole interface a
    :class:`~repro.serving.service.StressService` uses, so a process
    replica's pipe executor (:mod:`repro.serving.pool`) can stand in
    for it by forwarding each call to a child that owns the real one.
    """

    def __init__(self, pipeline, caches: StageCaches | None = None):
        self.pipeline = _checked_pipeline(pipeline)
        self.caches = caches if caches is not None else StageCaches()

    # ------------------------------------------------------------------

    def run_batch(self, videos: list[Video]) -> tuple[list[object], int]:
        """Process one batch.

        Returns ``(outcomes, unique)`` where ``outcomes[i]`` is the
        :class:`ChainResult` for ``videos[i]`` or the exception that
        request raised, and ``unique`` is the number of distinct video
        contents actually computed (batch occupancy minus in-flight
        duplicates).
        """
        pipeline = self.pipeline
        outcomes: list[object] = [None] * len(videos)
        groups: dict[str, list[int]] = {}
        with span("serve.execute_batch", size=len(videos)) as sp:
            for i, video in enumerate(videos):
                try:
                    key = self.caches.content_key(video)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    outcomes[i] = exc
                    continue
                groups.setdefault(key, []).append(i)
            sp.set("unique", len(groups))
            for key, indices in groups.items():
                try:
                    # The serve.execute fault site fires per unique
                    # group: an injected fault fails exactly the
                    # requests of that group (a transient, retryable
                    # error), never the whole batch.
                    fault_point("serve.execute")
                    core = _run_core(pipeline, videos[indices[0]], key,
                                     self.caches)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    for i in indices:
                        outcomes[i] = exc
                    continue
                for i in indices:
                    outcomes[i] = _materialize(pipeline, core)
        return outcomes, len(groups)

    def run_cached(self, video: Video) -> ChainResult | None:
        """Cache-only chain run: a :class:`ChainResult` assembled from
        the stage caches without touching the model, or ``None`` when
        any stage misses.

        This is the circuit breaker's degraded mode: while the breaker
        is open the service can still answer requests whose Describe,
        Assess, *and* Highlight outputs are all cached (they were each
        produced by the chain core, so the values are the
        bitwise-normal response), flagged ``degraded=True``.  Only
        supported for the plain pipeline configuration -- test-time
        refinement and retrieval key their caches on per-request state,
        so those pipelines fail fast while open instead.
        """
        pipeline = self.pipeline
        if pipeline.test_time_refine or pipeline.retriever is not None:
            return None
        start = time.perf_counter()
        key = self.caches.content_key(video)
        describe = self.caches.describe.get(key)
        if describe is None:
            return None
        description = describe.description if pipeline.use_chain else None
        assess = self.caches.assess.get(
            _assess_key(pipeline, key, video, description))
        if assess is None:
            return None
        highlight = self.caches.highlight.get(
            _highlight_key(key, describe.description, assess.label))
        if highlight is None:
            return None
        core = _ChainCore(
            description=description,
            greedy_render=describe.rendered if pipeline.use_chain else None,
            label=assess.label,
            prob=assess.prob,
            rationale=highlight.rationale,
            rationale_render=highlight.rendered,
            elapsed_seconds=time.perf_counter() - start,
        )
        return _materialize(pipeline, core, degraded=True)

    def swap(self, source) -> None:
        """Serve ``source`` from now on: a pipeline, or the path of a
        saved pipeline archive (loaded here, so a child process never
        receives weights over its pipe).

        Also clears the stage caches -- cached stage outputs are only
        valid for the weights that produced them.  The caller owns
        synchronization: the service swaps under its swap lock, so no
        batch is mid-execution.
        """
        if isinstance(source, (str, os.PathLike)):
            from repro.model.persistence import load_pipeline

            source = load_pipeline(source)
        self.pipeline = _checked_pipeline(source)
        self.caches.clear()

    def cache_stats(self) -> dict[str, CacheStats]:
        return self.caches.stats()

    def fingerprint(self) -> str:
        """The served model's fingerprint (equal fingerprints imply
        bitwise-equal forward passes)."""
        return self.pipeline.model.fingerprint()

    def close(self) -> None:
        """Nothing to release in process; a pipe executor stops its
        child here."""


# ----------------------------------------------------------------------
# The chain core
# ----------------------------------------------------------------------


def _run_core(pipeline, video: Video, key: str | None, caches,
              explain: bool = True,
              deadline: Deadline | None = None) -> _ChainCore:
    """One chain run, staged through ``caches``.

    ``explain=False`` skips the Highlight stage (an empty rationale and
    no I3 turn); ``deadline`` is checked after Describe and before
    Highlight, so an exhausted budget raises
    :class:`~repro.errors.DeadlineExceededError` instead of spending
    further model time.
    """
    model = pipeline.model
    start = time.perf_counter()

    embed: np.ndarray | None = None

    def get_embed() -> np.ndarray:
        nonlocal embed
        if embed is None:
            embed = model.embed_video(video)
        return embed

    def get_describe() -> DescribeEntry:
        entry = caches.describe.get(key)
        if entry is None:
            description = model.describe(video, GREEDY, embed=get_embed())
            entry = DescribeEntry(description=description,
                                  rendered=description.render())
            caches.describe.put(key, entry)
        return entry

    # --- Describe ----------------------------------------------------
    description: FacialDescription | None = None
    greedy_render: str | None = None
    if pipeline.use_chain:
        with span("chain.describe", refine=pipeline.test_time_refine):
            entry = get_describe()
            greedy_render = entry.rendered
            description = entry.description
            if pipeline.test_time_refine:
                refine_key = _refine_key(key, video)
                refined = caches.describe.get(refine_key)
                if refined is None:
                    refined = pipeline._refine_description(video, description)
                    caches.describe.put(refine_key, refined)
                description = refined
        _check_deadline(deadline, "Describe")

    # --- Assess ------------------------------------------------------
    assess_key = _assess_key(pipeline, key, video, description)
    with span("chain.assess", use_chain=pipeline.use_chain):
        assess = caches.assess.get(assess_key)
        if assess is None:
            logit = model.assess_logit(video, description, embed=get_embed())
            if pipeline.retriever is not None and description is not None:
                examples = pipeline.retriever.retrieve(video, description)
                shift = incontext_logit_shift(description, examples)
                # In-context evidence sways the model where it is
                # unsure; a confident assessment barely moves (the
                # gating mirrors how prompt examples influence a real
                # LFM's decision).
                confidence = abs(
                    2.0 * float(sigmoid(np.array(logit))[()]) - 1.0)
                logit += shift * (1.0 - confidence)
            prob = float(sigmoid(np.array(logit))[()])
            label = STRESSED if logit > 0 else UNSTRESSED
            assess = AssessEntry(logit=logit, prob=prob, label=label)
            caches.assess.put(assess_key, assess)

    # --- Highlight ---------------------------------------------------
    rationale: tuple[int, ...] = ()
    rationale_render: str | None = None
    if explain:
        _check_deadline(deadline, "Assess")
        with span("chain.highlight"):
            # w/o Chain still answers I3; it reads its greedy AU
            # estimate off the video when asked to point at cues.
            highlight_desc = (description if description is not None
                              else get_describe().description)
            highlight_key = _highlight_key(key, highlight_desc, assess.label)
            highlight = caches.highlight.get(highlight_key)
            if highlight is None:
                rationale = model.highlight(
                    video, highlight_desc, assess.label, GREEDY,
                    embed=get_embed())
                # The I3 turn is recorded only when the description
                # names at least one action unit.
                highlight = HighlightEntry(
                    rationale=rationale,
                    rendered=(_render_rationale(rationale)
                              if highlight_desc.au_ids else None))
                caches.highlight.put(highlight_key, highlight)
            rationale = highlight.rationale
            rationale_render = highlight.rendered

    return _ChainCore(
        description=description,
        greedy_render=greedy_render,
        label=assess.label,
        prob=assess.prob,
        rationale=rationale,
        rationale_render=rationale_render,
        elapsed_seconds=time.perf_counter() - start,
    )


def _materialize(pipeline, core: _ChainCore,
                 degraded: bool = False) -> ChainResult:
    """A fresh :class:`ChainResult` (with its own session) from a
    chain core -- one per request, also for deduplicated ones."""
    session = DialogueSession()
    if pipeline.use_chain:
        session.record(DESCRIBE_INSTRUCTION, core.greedy_render)
        session.record(ASSESS_INSTRUCTION, _answer(core.label))
    else:
        session.record(DIRECT_ASSESS_INSTRUCTION, _answer(core.label))
    if core.rationale_render is not None:
        session.record(HIGHLIGHT_INSTRUCTION, core.rationale_render)
    return ChainResult(
        description=core.description,
        label=core.label,
        prob_stressed=core.prob,
        rationale=Rationale(core.rationale),
        session=session,
        elapsed_seconds=core.elapsed_seconds,
        degraded=degraded,
    )


# -- stage-cache keys: the one place they are built ---------------------


def _assess_key(pipeline, key, video: Video,
                description: FacialDescription | None) -> tuple:
    # Retrieval derives its sampling seed from video_id, so the assess
    # key includes the id whenever a retriever is attached.
    return (key,
            description.au_ids if description is not None else None,
            video.video_id if pipeline.retriever is not None else None)


def _highlight_key(key, description: FacialDescription, label: int) -> tuple:
    return (key, description.au_ids, label)


def _refine_key(key, video: Video) -> tuple:
    # The refinement redraw is seeded by video_id, so its key carries
    # the id alongside the content.
    return (key, video.video_id, "refined")


# ----------------------------------------------------------------------


def _answer(label: int) -> str:
    return "Stressed" if label == STRESSED else "Unstressed"


def _check_deadline(deadline: Deadline | None, stage: str) -> None:
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            f"predict deadline expired after the {stage} stage; "
            "no further model work was spent")


def _checked_pipeline(pipeline) -> StressChainPipeline:
    if not isinstance(pipeline, StressChainPipeline):
        raise TypeError(
            f"expected a StressChainPipeline, got {type(pipeline).__name__}")
    return pipeline
