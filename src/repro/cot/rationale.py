"""Rationale objects and segment grounding.

A :class:`Rationale` is the importance-ordered tuple of highlighted
action units the model emits at the Highlight step, plus helpers to
ground each highlighted action to the SLIC segments of the
most-expressive frame (Section IV-H: "we locate the segment of each
single facial action using the corresponding facial landmark") so the
rationale is directly comparable to pixel-space explainers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.facs.action_units import au_by_id
from repro.facs.regions import region_for_au
from repro.video.landmarks import segments_for_au


@dataclass(frozen=True)
class Rationale:
    """An importance-ordered highlighted-AU rationale."""

    au_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.au_ids)

    def __iter__(self):
        return iter(self.au_ids)

    def render(self) -> str:
        """Human-readable rationale text."""
        if not self.au_ids:
            return "No single facial expression stands out."
        lines = [
            f"{rank}. {au_by_id(au_id).name.lower()} "
            f"({au_by_id(au_id).region}: {au_by_id(au_id).phrase})"
            for rank, au_id in enumerate(self.au_ids, start=1)
        ]
        return "The critical facial expressions are:\n" + "\n".join(lines)

    def model_segment_ranking(self, model, labels: np.ndarray,
                              per_au: int = 1) -> list[int]:
        """Ground the rationale through the *model's own* sensitivity
        maps: for each highlighted AU, segments are ranked by how much
        of the model's describe-pathway weight energy for that AU they
        cover, restricted to the AU's facial region.

        This is the self-explanatory grounding the chain pipeline
        reports: "where I looked when I read this action".
        """
        frame_size = labels.shape[0]
        num_labels = int(labels.max()) + 1
        ranked: list[int] = []
        for au_id in self.au_ids:
            sensitivity = _upsample(model.au_patch_sensitivity(au_id),
                                    frame_size)
            region_mask = region_for_au(au_id).mask(frame_size)
            sensitivity = sensitivity * region_mask
            energy = np.bincount(labels.ravel(),
                                 weights=sensitivity.ravel(),
                                 minlength=num_labels)
            order = [int(i) for i in np.argsort(-energy) if energy[i] > 0]
            if not order:
                order = segments_for_au(au_id, labels, max_segments=per_au)
            for segment in order[:per_au]:
                if segment not in ranked:
                    ranked.append(segment)
        return ranked


def _upsample(patch_map: np.ndarray, frame_size: int) -> np.ndarray:
    """Nearest-neighbour upsample of a patch-grid map to pixel space."""
    grid = patch_map.shape[0]
    reps = frame_size // grid
    return np.repeat(np.repeat(patch_map, reps, axis=0), reps, axis=1)
