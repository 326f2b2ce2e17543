"""The Describe -> Assess -> Highlight inference pipeline.

:class:`StressChainPipeline` is the deployment-time entry point of the
library: it runs the paper's reasoning chain over a foundation model,
producing a stress prediction *and* its rationale in a single forward
chain (which is what makes Figure 6's efficiency comparison possible).
Options cover every inference protocol in the evaluation:

- ``use_chain=False`` -- the "w/o Chain" direct query;
- ``retriever`` -- in-context example retrieval (Table VII);
- ``test_time_refine=True`` -- refinement without weight updates, the
  protocol applied to frozen off-the-shelf models in Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cot.rationale import Rationale
from repro.errors import ModelError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import STRESSED, FoundationModel
from repro.model.generation import GenerationConfig
from repro.model.session import DialogueSession
from repro.reliability.deadlines import Deadline
from repro.rng import derive_seed
from repro.training.verification import verification_score
from repro.video.frame import Video


@dataclass(frozen=True)
class ChainResult:
    """Everything one chain run produces."""

    description: FacialDescription | None
    label: int
    prob_stressed: float
    rationale: Rationale
    session: DialogueSession
    #: Wall time of the chain run that computed this answer (a served
    #: cache hit or in-batch duplicate reports that run's).
    elapsed_seconds: float
    #: ``True`` when the serving layer answered this request from its
    #: chain cache alone because the circuit breaker was open (the
    #: values are still bitwise-identical to a computed chain run; the
    #: flag only marks *how* they were obtained).
    degraded: bool = False

    @property
    def is_stressed(self) -> bool:
        return self.label == STRESSED


class StressChainPipeline:
    """Runs the reasoning chain for one model.

    Parameters
    ----------
    model:
        A trained :class:`FoundationModel` (or frozen off-the-shelf
        proxy).
    use_chain:
        ``False`` reproduces the "w/o Chain" ablation: a direct
        stress query with no description conditioning (a rationale is
        still produced afterwards via I3, as in Table IV's protocol).
    retriever:
        Optional in-context retriever (see :mod:`repro.retrieval`).
    test_time_refine:
        Apply the Table VIII test-time self-refinement: reflect on the
        description and keep candidates that verify at least as
        faithfully, without any weight update.  Requires
        ``verification_pool``.
    verification_pool:
        Videos used to draw verification negatives from.
    refine_rounds:
        Reflection rounds of test-time refinement; ``0`` runs none.
    num_verify_trials:
        Verification trials per candidate description; must be
        positive.
    seed:
        Scopes all sampling inside the pipeline.
    """

    def __init__(
        self,
        model: FoundationModel,
        use_chain: bool = True,
        retriever=None,
        test_time_refine: bool = False,
        verification_pool: list[Video] | None = None,
        refine_rounds: int = 2,
        num_verify_trials: int = 3,
        seed: int = 0,
    ):
        if test_time_refine and not verification_pool:
            raise ModelError(
                "test_time_refine needs a verification_pool of videos"
            )
        if num_verify_trials < 1:
            raise ModelError(
                f"num_verify_trials must be positive, got {num_verify_trials}"
            )
        if refine_rounds < 0:
            raise ModelError(
                f"refine_rounds must be >= 0, got {refine_rounds}")
        self.model = model
        self.use_chain = use_chain
        self.retriever = retriever
        self.test_time_refine = test_time_refine
        self.verification_pool = verification_pool or []
        self.refine_rounds = refine_rounds
        self.num_verify_trials = num_verify_trials
        self.seed = seed

    # ------------------------------------------------------------------

    def predict(self, video: Video, *, explain: bool = True,
                deadline_ms: float | None = None) -> ChainResult:
        """Run the chain on one video.

        This is the library's one serial prediction entry point (the
        served twins are :meth:`StressService.predict`/``submit``).
        With the keyword defaults the math is exactly the paper's
        chain -- the golden fixtures and the serving equivalence suite
        pin it bitwise.

        Parameters
        ----------
        video:
            The clip to assess.
        explain:
            ``False`` skips the Highlight stage: the result carries an
            empty rationale (and no I3 dialogue turn) in exchange for
            roughly a third less model work.  Label and probability
            are unchanged.
        deadline_ms:
            Best-effort compute budget, checked at stage boundaries:
            if the budget is exhausted before the result is complete,
            :class:`~repro.errors.DeadlineExceededError` is raised
            rather than burning further model time.  (The serving
            layer's ``deadline_ms`` sheds *queued* requests; this is
            the serial analogue for offline sweeps.)
        """
        from repro.serving.executor import predict_uncached

        deadline = (Deadline.after_ms(deadline_ms)
                    if deadline_ms is not None else None)
        return predict_uncached(self, video, explain, deadline)

    def predict_many(self, videos: list[Video], *,
                     batch_size: int = 32) -> list[ChainResult]:
        """Run the chain over many videos through the serving batch
        executor: a repeated request is computed once per call, in the
        batch or from the executor's chain cache, which lives and dies
        with the call.  Results are bitwise-identical to calling
        :meth:`predict` per video, in order.

        Parameters
        ----------
        videos:
            Videos to run, in response order.
        batch_size:
            Executor batch granularity (bounds dedup bookkeeping).
        """
        from repro.errors import ConfigError
        from repro.serving.executor import ChainBatchExecutor

        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        executor = ChainBatchExecutor(self)
        results: list[ChainResult] = []
        for begin in range(0, len(videos), batch_size):
            outcomes, __ = executor.run_batch(videos[begin:begin + batch_size])
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
                results.append(outcome)
        return results

    # ------------------------------------------------------------------

    def _refine_description(self, video: Video,
                            description: FacialDescription) -> FacialDescription:
        """Test-time self-refinement (Table VIII): keep reflected
        candidates that verify at least as faithfully; no labels, no
        weight updates."""
        current = description
        current_score = self._verify(video, current, round_index=-1)
        for round_index in range(self.refine_rounds):
            candidate = self.model.reflect_description(
                video, current,
                GenerationConfig(
                    temperature=1.0,
                    seed=derive_seed(self.seed,
                                     f"ttr:{video.video_id}:{round_index}"),
                ),
                true_label=None,
            )
            if candidate == current:
                break
            candidate_score = self._verify(video, candidate, round_index)
            if candidate_score >= current_score:
                current, current_score = candidate, candidate_score
            else:
                break
        return current

    def _verify(self, video: Video, description: FacialDescription,
                round_index: int) -> float:
        return verification_score(
            self.model, video, description, self.verification_pool,
            num_trials=self.num_verify_trials,
            seed=derive_seed(self.seed, f"ttv:{video.video_id}:{round_index}"),
        )


#: The facade name the public API exports: ``repro.StressPipeline`` is
#: the documented way to reach the chain pipeline (the historical
#: ``StressChainPipeline`` name remains valid -- it is the same class).
StressPipeline = StressChainPipeline
