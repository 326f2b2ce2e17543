"""Direct Preference Optimization over descriptions and rationales.

Implements Eqs. 3 and 5 against a frozen reference copy of the model
("ref denotes the initial parameter of model F before training to
avoid over-optimization").  Description preferences are pairs of AU
sets scored by the Bernoulli description heads; rationale preferences
are pairs of AU orderings scored by the Plackett-Luce highlight
distribution.  Both generation channels expose exact log-probabilities
and gradients, so these updates are genuine preference optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.nn.optim import Adam
from repro.nn.tensorops import sigmoid
from repro.training.losses import dpo_loss
from repro.video.frame import Video


@dataclass(frozen=True)
class DescriptionPreference:
    """One Eq.-3 pair: the refined description beats the original."""

    video: Video
    winner: FacialDescription
    loser: FacialDescription


@dataclass(frozen=True)
class RationalePreference:
    """One Eq.-5 pair: the most faithful rationale beats the least."""

    video: Video
    description: FacialDescription
    assessment: int
    winner: tuple[int, ...]
    loser: tuple[int, ...]


class DPOTrainer:
    """Runs DPO epochs for either preference type.

    Parameters
    ----------
    model:
        The policy being optimized.
    beta:
        DPO inverse-temperature (the paper uses 0.1).
    lr:
        Adam learning rate.
    """

    def __init__(self, model: FoundationModel, beta: float = 0.1,
                 lr: float = 2e-3):
        if beta <= 0:
            raise TrainingError("beta must be positive")
        self.model = model
        self.beta = beta
        self.lr = lr
        self.reference = model.clone()
        self.reference.frozen = True

    # -- descriptions (Eq. 3) -------------------------------------------

    def train_descriptions(self, preferences: list[DescriptionPreference],
                           epochs: int = 5) -> list[float]:
        """Optimize the description heads on Eq.-3 pairs; returns the
        per-epoch mean loss curve.

        Only the AU heads move: the shared visual trunk is frozen
        during preference optimization so a few hundred preference
        pairs cannot overwrite the Stage-1 visual representation (the
        analog of LoRA-style limited-capacity DPO on a large VLM).
        """
        if not preferences:
            return []
        optimizer = Adam(self.model.au_head.parameters(), lr=self.lr)
        # The reference is frozen: score each pair under it once.
        references = [self._description_reference(pref)
                      for pref in preferences]
        curve = []
        for _ in range(epochs):
            optimizer.zero_grad()
            total = 0.0
            for pref, (ref_w, ref_l) in zip(preferences, references):
                total += self._description_pair_step(
                    pref, ref_w, ref_l, len(preferences))
            optimizer.step()
            curve.append(total / len(preferences))
        return curve

    def _description_reference(
            self, pref: DescriptionPreference) -> tuple[float, float]:
        """Reference log-probabilities of the winner and the loser."""
        ref_logits = self.reference.au_logits(pref.video)
        return (_bernoulli_logprob(ref_logits, pref.winner.to_vector()),
                _bernoulli_logprob(ref_logits, pref.loser.to_vector()))

    def _description_pair_step(self, pref: DescriptionPreference,
                               ref_w: float, ref_l: float,
                               num_pairs: int) -> float:
        winner_vec = pref.winner.to_vector()
        loser_vec = pref.loser.to_vector()
        logits = self.model.au_logits(pref.video)
        pol_w = _bernoulli_logprob(logits, winner_vec)
        pol_l = _bernoulli_logprob(logits, loser_vec)
        loss, grad_w, grad_l = dpo_loss(pol_w, pol_l, ref_w, ref_l, self.beta)
        # d logprob / d logits for a Bernoulli set is (outcome - prob).
        probs = sigmoid(logits)
        grad_logits = (grad_w * (winner_vec - probs)
                       + grad_l * (loser_vec - probs)) / num_pairs
        self.model.backward_description(grad_logits)
        return loss

    # -- rationales (Eq. 5) ---------------------------------------------

    def train_rationales(self, preferences: list[RationalePreference],
                         epochs: int = 5) -> list[float]:
        """Optimize the highlight pathway on Eq.-5 pairs; returns the
        per-epoch mean loss curve."""
        if not preferences:
            return []
        optimizer = Adam(
            self.model.highlight_proj.parameters()
            + [self.model.highlight_bias, self.model.highlight_assess],
            lr=self.lr,
        )
        # The reference is frozen: score each pair under it once.
        references = [self._rationale_reference(pref)
                      for pref in preferences]
        curve = []
        for _ in range(epochs):
            optimizer.zero_grad()
            total = 0.0
            for pref, (ref_w, ref_l) in zip(preferences, references):
                total += self._rationale_pair_step(
                    pref, ref_w, ref_l, len(preferences))
            optimizer.step()
            curve.append(total / len(preferences))
        return curve

    def _rationale_reference(
            self, pref: RationalePreference) -> tuple[float, float]:
        """Reference log-probabilities of the winner and the loser."""
        return tuple(
            self.reference.rationale_logprob(
                pref.video, pref.description, rationale, pref.assessment)
            for rationale in (pref.winner, pref.loser)
        )

    def _rationale_pair_step(self, pref: RationalePreference,
                             ref_w: float, ref_l: float,
                             num_pairs: int) -> float:
        if pref.winner == pref.loser:
            return 0.0
        pol_w = self.model.rationale_logprob(
            pref.video, pref.description, pref.winner, pref.assessment
        )
        pol_l = self.model.rationale_logprob(
            pref.video, pref.description, pref.loser, pref.assessment
        )
        loss, grad_w, grad_l = dpo_loss(pol_w, pol_l, ref_w, ref_l, self.beta)
        self.model.backward_rationale(pref.video, pref.description,
                                      pref.winner, pref.assessment,
                                      grad_w / num_pairs)
        self.model.backward_rationale(pref.video, pref.description,
                                      pref.loser, pref.assessment,
                                      grad_l / num_pairs)
        return loss


def _bernoulli_logprob(logits: np.ndarray, outcome: np.ndarray) -> float:
    from repro.model.generation import bernoulli_set_logprob

    return bernoulli_set_logprob(logits, outcome)
