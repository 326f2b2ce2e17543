"""Sampling utilities for structured generation.

Description generation samples an AU subset from independent Bernoulli
heads; rationale generation samples an AU *ordering* from a
Plackett-Luce distribution over attribution scores.  Both admit exact
log-probabilities, which is what makes the DPO losses in
:mod:`repro.training.losses` real optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.nn.tensorops import log_sigmoid, sigmoid, softmax


@dataclass(frozen=True, slots=True)
class GenerationConfig:
    """Sampling knobs.

    ``temperature = 0`` is greedy decoding; larger values flatten the
    per-AU Bernoulli probabilities / Plackett-Luce scores.  ``seed``
    scopes the draw -- the paper's "prompt the model K times with
    different random seeds" is K configs with distinct seeds.
    """

    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise GenerationError("temperature must be non-negative")


#: Shared greedy-decoding config.  :class:`GenerationConfig` is frozen,
#: so one instance serves every call site that would otherwise build a
#: fresh ``GenerationConfig(temperature=0.0)`` inside a hot loop.
GREEDY = GenerationConfig(temperature=0.0)


def sample_bernoulli_set(logits: np.ndarray,
                         config: GenerationConfig) -> np.ndarray:
    """Sample a binary vector from per-element Bernoulli(sigmoid(logit)).

    Greedy decoding (temperature 0) thresholds the logits at zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if config.temperature == 0.0:
        return (logits > 0).astype(np.float64)
    rng = np.random.default_rng(config.seed)
    probs = 1.0 / (1.0 + np.exp(-logits / config.temperature))
    return (rng.random(logits.shape) < probs).astype(np.float64)


def sample_bernoulli(logit: float, config: GenerationConfig) -> int:
    """Draw one binary outcome from Bernoulli(sigmoid(logit / T)).

    Greedy decoding thresholds the logit at zero.  This is the Assess
    step's label draw; K-seed helpfulness scoring makes K draws, one
    per seed, from a single logit.
    """
    if config.temperature == 0.0:
        return int(logit > 0)
    rng = np.random.default_rng(config.seed)
    prob = float(sigmoid(np.array(logit / config.temperature))[()])
    return int(rng.random() < prob)


def bernoulli_set_logprob(logits: np.ndarray, outcome: np.ndarray) -> float:
    """Exact log-probability of a binary ``outcome`` under the heads
    (at temperature 1, which is the model's true distribution)."""
    logits = np.asarray(logits, dtype=np.float64)
    outcome = np.asarray(outcome, dtype=np.float64)
    if logits.shape != outcome.shape:
        raise GenerationError("logits and outcome shapes differ")
    return float(
        (outcome * log_sigmoid(logits)
         + (1.0 - outcome) * log_sigmoid(-logits)).sum()
    )


def sample_plackett_luce(scores: np.ndarray, config: GenerationConfig,
                         top_k: int | None = None) -> tuple[int, ...]:
    """Sample an ordering (or top-k prefix) of indices via Plackett-Luce.

    Uses the Gumbel-max construction: perturb scores with Gumbel noise
    and sort.  Greedy decoding sorts the raw scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise GenerationError("scores must be a vector")
    if scores.size == 0:
        return ()
    if config.temperature == 0.0:
        order = np.argsort(-scores, kind="stable")
    else:
        rng = np.random.default_rng(config.seed)
        gumbel = -np.log(-np.log(rng.random(scores.shape)))
        order = np.argsort(-(scores / config.temperature + gumbel),
                           kind="stable")
    if top_k is not None:
        order = order[:top_k]
    return tuple(int(i) for i in order)


def plackett_luce_logprob(scores: np.ndarray,
                          ordering: tuple[int, ...]) -> float:
    """Exact log-probability of a (possibly partial) ordering under
    Plackett-Luce at temperature 1.

    Tracks the not-yet-chosen items with a boolean mask instead of a
    Python list, so each step costs one vectorized pass rather than the
    ``list.index``/``list.remove`` scans of the naive implementation.
    The masked view preserves ascending index order, so the per-step
    softmax sees exactly the arrays the list version would -- the
    result is numerically identical.
    """
    scores = np.asarray(scores, dtype=np.float64)
    alive = np.ones(scores.size, dtype=bool)
    total = 0.0
    for index in ordering:
        if not 0 <= index < scores.size or not alive[index]:
            raise GenerationError(
                f"index {index} repeated or out of range in ordering"
            )
        weights = softmax(scores[alive])
        position = int(np.count_nonzero(alive[:index]))
        total += float(np.log(weights[position] + 1e-300))
        alive[index] = False
    return total


def plackett_luce_logprob_grad(scores: np.ndarray,
                               ordering: tuple[int, ...]) -> np.ndarray:
    """Gradient of :func:`plackett_luce_logprob` w.r.t. the scores."""
    scores = np.asarray(scores, dtype=np.float64)
    grad = np.zeros_like(scores)
    alive = np.ones(scores.size, dtype=bool)
    for index in ordering:
        if not 0 <= index < scores.size or not alive[index]:
            raise GenerationError(
                f"index {index} repeated or out of range in ordering"
            )
        grad[alive] -= softmax(scores[alive])
        grad[index] += 1.0
        alive[index] = False
    return grad
