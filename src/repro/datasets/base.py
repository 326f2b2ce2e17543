"""Dataset value types and split utilities.

A :class:`Sample` pairs a lazily-rendered :class:`~repro.video.frame.Video`
with its stress label and ground-truth AU occurrence vector; a
:class:`StressDataset` is an immutable ordered collection with
subject-aware split helpers.  All splits are *subject-aware* (no subject
appears in both train and test), matching how the video stress
literature -- and the paper's 10-fold protocol -- avoids identity
leakage.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.facs.descriptions import FacialDescription
from repro.rng import make_rng
from repro.video.frame import Video

#: Stress label values.
UNSTRESSED: int = 0
STRESSED: int = 1


@dataclass(frozen=True)
class Sample:
    """One labelled stress-detection sample.

    Attributes
    ----------
    video:
        The (lazily rendered) clip.
    label:
        ``1`` = stressed, ``0`` = unstressed.
    true_aus:
        Ground-truth binary AU occurrence vector (12-dim).  Kept for
        dataset-level analysis and oracle tests; detection methods only
        see pixels.
    """

    video: Video
    label: int
    true_aus: np.ndarray

    def __post_init__(self) -> None:
        if self.label not in (UNSTRESSED, STRESSED):
            raise DatasetError(f"label must be 0 or 1, got {self.label}")

    @property
    def sample_id(self) -> str:
        return self.video.video_id

    @property
    def subject_id(self) -> str:
        return self.video.subject_id

    def true_description(self) -> FacialDescription:
        """The oracle facial-action description of this sample."""
        return FacialDescription.from_vector(self.true_aus)


@dataclass(frozen=True)
class StressDataset:
    """An immutable, ordered collection of stress samples."""

    name: str
    samples: tuple[Sample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        ids = [sample.sample_id for sample in self.samples]
        if len(set(ids)) != len(ids):
            raise DatasetError(f"dataset {self.name!r} has duplicate sample ids")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> Sample:
        return self.samples[index]

    @property
    def labels(self) -> np.ndarray:
        return np.array([sample.label for sample in self.samples], dtype=np.int64)

    def subjects(self) -> tuple[str, ...]:
        """Distinct subject ids in first-appearance order."""
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.subject_id, None)
        return tuple(seen)

    def class_counts(self) -> tuple[int, int]:
        """(num_unstressed, num_stressed)."""
        labels = self.labels
        return int((labels == UNSTRESSED).sum()), int((labels == STRESSED).sum())

    def subset(self, indices: Sequence[int], name: str | None = None) -> "StressDataset":
        """A new dataset containing the given sample indices, in order."""
        picked = tuple(self.samples[i] for i in indices)
        return StressDataset(name or self.name, picked)


def kfold_splits(
    dataset: StressDataset, num_folds: int = 10, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Subject-aware k-fold splits.

    Subjects are shuffled deterministically and dealt round-robin into
    ``num_folds`` groups; each fold's test set is every sample from its
    subject group.  Returns a list of ``(train_indices, test_indices)``
    pairs covering all samples exactly once on the test side.
    """
    if num_folds < 2:
        raise DatasetError("num_folds must be at least 2")
    subjects = list(dataset.subjects())
    if len(subjects) < num_folds:
        raise DatasetError(
            f"dataset {dataset.name!r} has {len(subjects)} subjects, "
            f"fewer than {num_folds} folds"
        )
    rng = make_rng(seed, f"kfold:{dataset.name}:{num_folds}")
    rng.shuffle(subjects)
    fold_of_subject = {
        subject: i % num_folds for i, subject in enumerate(subjects)
    }
    folds: list[list[int]] = [[] for _ in range(num_folds)]
    for index, sample in enumerate(dataset):
        folds[fold_of_subject[sample.subject_id]].append(index)
    splits = []
    all_indices = set(range(len(dataset)))
    for fold in folds:
        test = np.array(sorted(fold), dtype=np.int64)
        train = np.array(sorted(all_indices - set(fold)), dtype=np.int64)
        splits.append((train, test))
    return splits


def train_test_split(
    dataset: StressDataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[StressDataset, StressDataset]:
    """Single subject-aware split into (train, test) datasets."""
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test_fraction must lie strictly in (0, 1)")
    subjects = list(dataset.subjects())
    rng = make_rng(seed, f"split:{dataset.name}:{test_fraction}")
    rng.shuffle(subjects)
    num_test_subjects = max(1, int(round(len(subjects) * test_fraction)))
    test_subjects = set(subjects[:num_test_subjects])
    train_idx = [i for i, s in enumerate(dataset) if s.subject_id not in test_subjects]
    test_idx = [i for i, s in enumerate(dataset) if s.subject_id in test_subjects]
    if not train_idx or not test_idx:
        raise DatasetError("split produced an empty train or test set")
    return (
        dataset.subset(train_idx, f"{dataset.name}-train"),
        dataset.subset(test_idx, f"{dataset.name}-test"),
    )
