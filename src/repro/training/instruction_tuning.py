"""Stage 1: instruction tuning on facial-action descriptions (Eq. 2).

"After acquiring the knowledge to identify facial expressions via
instruction tuning with expert annotation, the model will follow the
Describe -> Assess -> Highlight reasoning chain."
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from repro.datasets.instruction import InstructionPair
from repro.errors import TrainingError
from repro.model.foundation import FoundationModel
from repro.nn.optim import Adam
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.rng import make_rng
from repro.training.losses import assess_nll, description_nll


def train_describe(
    model: FoundationModel,
    pairs: list[InstructionPair],
    epochs: int = 150,
    lr: float = 1e-2,
    feature_noise: float = 0.15,
    patch_dropout: float = 0.08,
    seed: int = 0,
) -> list[float]:
    """Fit the trunk + AU description heads on <V, E> pairs.

    Light feature-noise / patch-dropout augmentation (as in
    :func:`train_assess`) keeps the learned AU filters concentrated on
    each action's landmark blob instead of on incidental pixels, so a
    random occluded segment does not spuriously toggle a description.

    Returns the per-epoch loss curve (useful for tests asserting that
    the loss actually decreases).
    """
    if not pairs:
        raise TrainingError("instruction tuning needs at least one pair")
    if epochs < 1:
        raise TrainingError(f"epochs must be positive, got {epochs}")
    with span("train.describe_tuning", epochs=epochs,
              num_pairs=len(pairs)) as sp:
        features = model.features_matrix([pair.video for pair in pairs])
        targets = np.stack([pair.description.to_vector() for pair in pairs])
        optimizer = Adam(
            model.trunk.parameters() + model.au_head.parameters(), lr=lr
        )
        noise_rng = make_rng(seed, "describe-feature-noise")
        curve: list[float] = []
        with _augmented_epochs(features, epochs, feature_noise,
                               patch_dropout, noise_rng) as epoch_inputs:
            for inputs in epoch_inputs:
                optimizer.zero_grad()
                logits = model.au_logits_batch(inputs)
                loss, grad = description_nll(logits, targets)
                model.backward_description_batch(grad)
                optimizer.step()
                curve.append(loss)
        # The last step consumed these gradients, and no later stage
        # steps the trunk: leave none behind.
        optimizer.zero_grad()
        sp.set("final_loss", curve[-1])
    global_metrics().gauge("training.describe_loss").set(curve[-1])
    return curve


def train_assess(
    model: FoundationModel,
    videos: list,
    descriptions: list,
    labels: np.ndarray,
    epochs: int = 200,
    lr: float = 1e-2,
    weight_decay: float = 0.01,
    feature_noise: float = 0.2,
    patch_dropout: float = 0.14,
    seed: int = 0,
) -> list[float]:
    """Fit the assessment head on (V, E, A) triples (Eq. 4).

    ``descriptions[i]`` may be ``None`` (the "w/o Chain" variant, which
    assesses from the video alone).  Only the assessment head is
    optimized, so assessment tuning cannot erode the Describe ability
    acquired in Stage 1 (the one stage that trains the trunk).

    Three regularizers keep the head faithful to how a large VLM
    behaves: a small weight decay keeps probabilities calibrated
    (saturated outputs would void every downstream faithfulness
    signal); Gaussian *feature-noise* and *patch-dropout* augmentation
    make the vision pathway robust to pixel perturbation and
    single-segment occlusion -- pushing decision influence into the
    description channel, which is what the paper's chain-reasoning
    story (and its "w/o Chain" gap) relies on.
    """
    if len(videos) != len(descriptions) or len(videos) != len(labels):
        raise TrainingError("videos, descriptions and labels must align")
    if not videos:
        raise TrainingError("assessment tuning needs at least one sample")
    if epochs < 1:
        raise TrainingError(f"epochs must be positive, got {epochs}")
    with span("train.assess_tuning", epochs=epochs,
              num_samples=len(videos)) as sp:
        curve = _train_assess_epochs(
            model, videos, descriptions, labels, epochs, lr, weight_decay,
            feature_noise, patch_dropout, seed,
        )
        sp.set("final_loss", curve[-1])
    global_metrics().gauge("training.assess_loss").set(curve[-1])
    return curve


def _train_assess_epochs(
    model: FoundationModel,
    videos: list,
    descriptions: list,
    labels: np.ndarray,
    epochs: int,
    lr: float,
    weight_decay: float,
    feature_noise: float,
    patch_dropout: float,
    seed: int,
) -> list[float]:
    num_aus = model.au_head.bias.value.shape[0]
    features = model.features_matrix(videos)
    desc_vectors = np.stack([
        desc.to_vector() if desc is not None else np.zeros(num_aus)
        for desc in descriptions
    ])
    labels = np.asarray(labels, dtype=np.float64)
    optimizer = Adam(model.assess_head.parameters(), lr=lr,
                     weight_decay=weight_decay)
    noise_rng = make_rng(seed, "assess-feature-noise")
    # Class-balanced sample weights (mean 1): the paper reports macro
    # metrics, and RSL is 70/30 imbalanced -- an unweighted fit would
    # sacrifice stressed-class recall for accuracy.
    positive_rate = float(labels.mean())
    if 0.0 < positive_rate < 1.0:
        weights = np.where(labels > 0.5, 0.5 / positive_rate,
                           0.5 / (1.0 - positive_rate))
    else:
        weights = np.ones_like(labels)
    curve: list[float] = []
    with _augmented_epochs(features, epochs, feature_noise, patch_dropout,
                           noise_rng) as epoch_inputs:
        for inputs in epoch_inputs:
            optimizer.zero_grad()
            logits = model.assess_logits_batch(inputs, desc_vectors)
            loss, grad = assess_nll(logits, labels)
            model.backward_assess_batch(grad * weights)
            optimizer.step()
            curve.append(loss)
    return curve


@contextmanager
def _augmented_epochs(
    features: np.ndarray,
    epochs: int,
    feature_noise: float,
    patch_dropout: float,
    rng: np.random.Generator,
) -> Iterator[Iterator[np.ndarray]]:
    """Yields an iterator over ``epochs`` augmented copies of
    ``features``: Gaussian feature noise, then patch dropout, which
    zeroes both channels of a dropped patch (a blanked segment in
    pixel space).

    The draws run one epoch ahead on a single helper thread, so epoch
    e+1's draw overlaps epoch e's forward and backward passes (numpy's
    Generator fills release the GIL).  Only the helper draws from
    ``rng``, with the same calls in the same order as a serial loop,
    and never past the last epoch: the stream, and so every input, is
    bitwise that of drawing in the loop.  The helper is joined on exit,
    also when the loop body raises.
    """
    if feature_noise <= 0 and patch_dropout <= 0:
        yield iter([features] * epochs)
        return
    num_patches = features.shape[1] // 2

    def draw() -> tuple[np.ndarray | None, np.ndarray | None]:
        noise = keep = None
        if feature_noise > 0:
            noise = rng.normal(0.0, feature_noise, features.shape)
        if patch_dropout > 0:
            keep = (rng.random((features.shape[0], num_patches))
                    >= patch_dropout)
        return noise, keep

    def inputs(helper: ThreadPoolExecutor) -> Iterator[np.ndarray]:
        pending = helper.submit(draw)
        for epoch in range(epochs):
            noise, keep = pending.result()
            if epoch + 1 < epochs:
                pending = helper.submit(draw)
            if noise is not None:
                augmented = features + noise
            else:
                augmented = features.copy()
            if keep is not None:
                augmented[:, :num_patches] *= keep
                augmented[:, num_patches:] *= keep
            yield augmented

    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="augment") as helper:
        yield inputs(helper)
