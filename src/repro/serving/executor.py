"""The reasoning chain's one implementation, and its batch executor.

:func:`_run_core` is the only code in the library that runs the
paper's Describe -> Assess -> Highlight chain, and two callers share
it:

- serial :meth:`~repro.cot.chain.StressChainPipeline.predict` runs it
  directly (see :func:`predict_uncached`): no content hash, no cache
  lookup, and one trunk pass per call;
- :class:`ChainBatchExecutor` answers each unique request key of a
  batch with one lookup in its chain cache
  (:class:`~repro.serving.cache.StageCaches`), and runs the core over
  the misses only (a forked pool replica runs them in its child, see
  :mod:`repro.serving.pool`), so served results are
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
- Requests in one batch that share a key are answered once and fanned
  out; across batches the chain cache replays whole results, which
  greedy decoding makes deterministic for a given key.

Every request gets its *own* :class:`DialogueSession`: a fresh list
over the chain's turns in recording order, so concurrent requests can
never interleave dialogue state (the mutable-state hazard DESIGN.md
section 10 discusses).  The turns themselves are frozen and shared:
a cached core carries them rendered, and the Assess turns are module
constants, so a hit builds no text.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Hashable

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
from repro.model.session import DialogueSession, Turn
from repro.nn.tensorops import sigmoid
from repro.observability.tracing import span
from repro.reliability.deadlines import Deadline
from repro.reliability.faults import fault_point
from repro.serving.cache import CacheStats, StageCaches
from repro.video.frame import Video


@dataclass(frozen=True, slots=True)
class _ChainCore:
    """The request-independent core of one chain run: everything a
    :class:`ChainResult` needs except the per-request session object.
    ``turns`` are the dialogue turns in the chain's recording order."""

    description: FacialDescription | None
    label: int
    prob: float
    rationale: Rationale
    turns: tuple[Turn, ...]
    elapsed_seconds: float


def predict_uncached(pipeline, video: Video, explain: bool,
                     deadline: Deadline | None) -> ChainResult:
    """Serial :meth:`StressChainPipeline.predict`: the chain core run
    directly, so nothing is hashed, looked up, or stored."""
    return _materialize(_run_core(pipeline, video, explain, deadline))


class ChainBatchExecutor:
    """Runs chain requests in batches against one pipeline.

    One thread drives an executor (the micro-batcher worker, or an
    offline ``predict_many`` loop), but other threads may read its
    pipeline at the same time (thread fold workers of
    ``evaluate_offtheshelf``): the chain core only reads weights, and
    a clip's features fill through an atomic ``setdefault`` on the
    clip (:meth:`~repro.video.frame.Video.derive`).

    The executor owns its chain cache: it builds it from
    ``cache_capacity`` (0 disables it) and never hands it out, because
    a cached answer is valid only for the weights that computed it.
    Its public methods are the whole interface a
    :class:`~repro.serving.service.StressService` uses.
    """

    def __init__(self, pipeline, cache_capacity: int = 4096):
        self.pipeline = _as_pipeline(pipeline)
        self._cache = StageCaches(cache_capacity)

    # ------------------------------------------------------------------

    def run_batch(self, videos: list[Video]) -> tuple[list[object], int]:
        """Process one batch.

        Returns ``(outcomes, unique)`` where ``outcomes[i]`` is the
        :class:`ChainResult` for ``videos[i]`` or the exception that
        request raised, and ``unique`` is the number of distinct
        request keys answered (batch occupancy minus in-flight
        duplicates).
        """
        pipeline = self.pipeline
        cache = self._cache
        outcomes: list[object] = [None] * len(videos)
        groups: dict[Hashable, list[int]] = {}
        with span("serve.execute_batch", size=len(videos)) as sp:
            for i, video in enumerate(videos):
                try:
                    key = cache.content_key(video, pipeline)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    outcomes[i] = exc
                    continue
                groups.setdefault(key, []).append(i)
            sp.set("unique", len(groups))
            misses: list[tuple[Hashable, list[int]]] = []
            for key, indices in groups.items():
                try:
                    # The serve.execute fault site fires per unique
                    # group: an injected fault fails exactly the
                    # requests of that group (a transient, retryable
                    # error), never the whole batch.
                    fault_point("serve.execute")
                    core = cache.get(key)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    for i in indices:
                        outcomes[i] = exc
                    continue
                if core is None:
                    misses.append((key, indices))
                    continue
                for i in indices:
                    outcomes[i] = _materialize(core)
            if misses:
                cores = self._run_misses(
                    [videos[indices[0]] for __, indices in misses])
                for (key, indices), core in zip(misses, cores):
                    if isinstance(core, BaseException):
                        for i in indices:
                            outcomes[i] = core
                        continue
                    cache.put(key, core)
                    for i in indices:
                        outcomes[i] = _materialize(core)
        return outcomes, len(groups)

    def _run_misses(self, videos: list[Video]) -> list[object]:
        """The chain core over a batch's unique misses: per video, its
        :class:`_ChainCore` or the exception its run raised.  A forked
        replica's executor overrides this, ``swap`` and ``close``."""
        pipeline = self.pipeline
        cores: list[object] = []
        for video in videos:
            try:
                cores.append(_run_core(pipeline, video))
            except Exception as exc:  # noqa: BLE001 - per-request failure
                cores.append(exc)
        return cores

    def run_cached(self, video: Video) -> ChainResult | None:
        """Cache-only answer: the stored chain result for ``video``'s
        request key without touching the model, or ``None`` on a miss.

        This is the circuit breaker's degraded mode: while the breaker
        is open the service can still answer requests whose result is
        cached (it was produced by the chain core, so it is the
        bitwise-normal response), flagged ``degraded=True``.
        """
        core = self._cache.get(self._cache.content_key(video, self.pipeline))
        return None if core is None else _materialize(core, degraded=True)

    def swap(self, source, loaded=None) -> None:
        """Serve ``source`` from now on: a pipeline, or the path of a
        saved pipeline archive (``loaded``, or loaded here, so a child
        process never receives weights over its pipe).

        Also clears the chain cache -- cached results are only valid
        for the pipeline that produced them.  The caller owns
        synchronization: the service swaps under its swap lock, so no
        batch is mid-execution.
        """
        self.pipeline = loaded if loaded is not None else _as_pipeline(source)
        self._cache.clear()

    def cache_stats(self) -> dict[str, CacheStats]:
        return self._cache.stats()

    def fingerprint(self) -> str:
        """The served model's fingerprint (equal fingerprints imply
        bitwise-equal forward passes)."""
        return self.pipeline.model.fingerprint()

    def close(self) -> None:
        """Nothing to release in process; a forked replica's executor
        stops its child here."""


# ----------------------------------------------------------------------
# The chain core
# ----------------------------------------------------------------------


def _run_core(pipeline, video: Video, explain: bool = True,
              deadline: Deadline | None = None) -> _ChainCore:
    """One chain run.

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

    # --- Describe ----------------------------------------------------
    use_chain = pipeline.use_chain
    # The greedy draw, whose I1 turn the chain records: refinement
    # replaces the description the chain reasons on, never the turn.
    greedy: FacialDescription | None = None
    description: FacialDescription | None = None
    if use_chain:
        with span("chain.describe", refine=pipeline.test_time_refine):
            greedy = description = model.describe(
                video, GREEDY, embed=get_embed())
            if pipeline.test_time_refine:
                description = pipeline._refine_description(video, greedy)
        _check_deadline(deadline, "Describe")

    # --- Assess ------------------------------------------------------
    with span("chain.assess", use_chain=use_chain):
        logit = model.assess_logit(video, description, embed=get_embed())
        if pipeline.retriever is not None and description is not None:
            examples = pipeline.retriever.retrieve(video, description)
            shift = incontext_logit_shift(description, examples)
            # In-context evidence sways the model where it is unsure; a
            # confident assessment barely moves (the gating mirrors how
            # prompt examples influence a real LFM's decision).
            confidence = abs(2.0 * float(sigmoid(np.array(logit))[()]) - 1.0)
            logit += shift * (1.0 - confidence)
        prob = float(sigmoid(np.array(logit))[()])
        label = STRESSED if logit > 0 else UNSTRESSED

    # --- Highlight ---------------------------------------------------
    rationale = _NO_RATIONALE
    i3: Turn | None = None
    if explain:
        _check_deadline(deadline, "Assess")
        with span("chain.highlight"):
            # w/o Chain still answers I3; it reads its greedy AU
            # estimate off the video when asked to point at cues.
            highlight_desc = (description if description is not None
                              else model.describe(video, GREEDY,
                                                  embed=get_embed()))
            cues = model.highlight(video, highlight_desc, label, GREEDY,
                                   embed=get_embed())
            rationale = Rationale(cues)
            # The I3 turn is recorded only when the description names
            # at least one action unit.
            if highlight_desc.au_ids:
                i3 = Turn(HIGHLIGHT_INSTRUCTION, _render_rationale(cues))

    i1 = (Turn(DESCRIBE_INSTRUCTION, greedy.render())
          if greedy is not None else None)
    return _ChainCore(
        description=description,
        label=label,
        prob=prob,
        rationale=rationale,
        turns=tuple(turn for turn in (i1, _ASSESS_TURNS[use_chain, label], i3)
                    if turn is not None),
        elapsed_seconds=time.perf_counter() - start,
    )


#: The I2 turn by ``(use_chain, label)``: an assessment answers with
#: one of two words, so its four possible turns are built once.
_ASSESS_TURNS = {
    (use_chain, label): Turn(
        ASSESS_INSTRUCTION if use_chain else DIRECT_ASSESS_INSTRUCTION,
        "Stressed" if label == STRESSED else "Unstressed")
    for use_chain in (True, False) for label in (STRESSED, UNSTRESSED)
}

#: The rationale of a run with ``explain=False``.
_NO_RATIONALE = Rationale(())


def _materialize(core: _ChainCore, degraded: bool = False) -> ChainResult:
    """A fresh :class:`ChainResult` from a chain core -- one per
    request, also for deduplicated ones.  Its session is a new list
    over the core's shared, frozen turns."""
    return ChainResult(
        description=core.description,
        label=core.label,
        prob_stressed=core.prob,
        rationale=core.rationale,
        session=DialogueSession(list(core.turns)),
        elapsed_seconds=core.elapsed_seconds,
        degraded=degraded,
    )


# ----------------------------------------------------------------------


def _check_deadline(deadline: Deadline | None, stage: str) -> None:
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            f"predict deadline expired after the {stage} stage; "
            "no further model work was spent")


def _as_pipeline(source) -> StressChainPipeline:
    """``source``: a pipeline, or the path of a saved pipeline."""
    if isinstance(source, (str, os.PathLike)):
        from repro.model.persistence import load_pipeline

        source = load_pipeline(source)
    if not isinstance(source, StressChainPipeline):
        raise TypeError(
            f"expected a StressChainPipeline, got {type(source).__name__}")
    return source
