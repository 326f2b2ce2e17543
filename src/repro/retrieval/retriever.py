"""In-context example retrievers.

Each retriever holds a pool of training samples and, given a query
video (and the chain's generated description), returns the in-context
examples the pipeline conditions its assessment on.  The three
strategies mirror Table VII: random assignment, nearest-neighbour in
vision-embedding space, nearest-neighbour in description-embedding
space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.cot.incontext import InContextExample
from repro.datasets.base import Sample
from repro.errors import ModelError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GREEDY
from repro.retrieval.encoders import (
    DescriptionEncoder,
    VisionEncoder,
    cosine_similarity,
)
from repro.rng import derive_seed, make_rng
from repro.video.frame import Video


class Retriever(ABC):
    """Base retriever over a training pool.

    The pool stores, per sample, the *model-generated* description
    (what would sit in the prompt) and the ground-truth label.
    """

    name: str = "retriever"

    def __init__(self, model: FoundationModel, pool: list[Sample],
                 num_examples: int = 1, seed: int = 0):
        if not pool:
            raise ModelError("retriever pool must not be empty")
        self.model = model
        self.num_examples = num_examples
        self.seed = seed
        self._pool = pool
        self._descriptions = [
            model.describe(sample.video, GREEDY)
            for sample in pool
        ]
        self._labels = [sample.label for sample in pool]

    def _example(self, index: int) -> InContextExample:
        return InContextExample(
            description=self._descriptions[index],
            label=self._labels[index],
        )

    @abstractmethod
    def retrieve(self, video: Video,
                 description: FacialDescription) -> list[InContextExample]:
        """In-context examples for one query."""


class RandomRetriever(Retriever):
    """Random example assignment (deterministic per query video)."""

    name = "Random"

    def retrieve(self, video: Video,
                 description: FacialDescription) -> list[InContextExample]:
        rng = make_rng(derive_seed(self.seed, f"random:{video.video_id}"),
                       "pick")
        indices = rng.choice(len(self._pool),
                             size=min(self.num_examples, len(self._pool)),
                             replace=False)
        return [self._example(int(i)) for i in indices]


class VisionRetriever(Retriever):
    """Retrieve-by-vision: nearest neighbours in Videoformer-lite
    embedding space."""

    name = "Retrieve-by-vision"

    def __init__(self, model: FoundationModel, pool: list[Sample],
                 num_examples: int = 1, seed: int = 0,
                 encoder: VisionEncoder | None = None):
        super().__init__(model, pool, num_examples, seed)
        self.encoder = encoder or VisionEncoder(seed=seed)
        self._embeddings = np.stack([
            self.encoder.encode(sample.video) for sample in pool
        ])

    def retrieve(self, video: Video,
                 description: FacialDescription) -> list[InContextExample]:
        query = self.encoder.encode(video)
        similarities = np.array([
            cosine_similarity(query, embedding)
            for embedding in self._embeddings
        ])
        best = np.argsort(-similarities)[: self.num_examples]
        return [self._example(int(i)) for i in best]


class DescriptionRetriever(Retriever):
    """Retrieve-by-description: nearest neighbours in BERT-lite
    embedding space over the model's own descriptions."""

    name = "Retrieve-by-description"

    def __init__(self, model: FoundationModel, pool: list[Sample],
                 num_examples: int = 1, seed: int = 0,
                 encoder: DescriptionEncoder | None = None):
        super().__init__(model, pool, num_examples, seed)
        self.encoder = encoder or DescriptionEncoder()
        self._embeddings = np.stack([
            self.encoder.encode(desc.render())
            for desc in self._descriptions
        ])

    def retrieve(self, video: Video,
                 description: FacialDescription) -> list[InContextExample]:
        query = self.encoder.encode(description.render())
        similarities = np.array([
            cosine_similarity(query, embedding)
            for embedding in self._embeddings
        ])
        best = np.argsort(-similarities)[: self.num_examples]
        return [self._example(int(i)) for i in best]
