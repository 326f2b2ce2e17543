"""Facial landmark model and rationale grounding.

Section IV-H: "after generating highlighted rationale R, we locate the
segment of each single facial action using the corresponding facial
landmark."  On the synthetic substrate the landmark of an action unit
is the peak of its deformation pattern on the canonical face;
grounding a highlighted action unit means finding the SLIC segments
that carry that pattern's energy, ranked so the single best segment is
the one carrying most of the AU's evidence.
"""

from __future__ import annotations

import numpy as np


def au_landmark(au_id: int, frame_size: int) -> tuple[int, int]:
    """The landmark pixel of an action unit: where the action
    manifests most strongly on the canonical face (the peak of the
    world's deformation pattern for that AU)."""
    from repro.video.face_synth import default_renderer

    pattern = default_renderer(frame_size).au_pattern(au_id)
    row, col = np.unravel_index(int(np.argmax(np.abs(pattern))),
                                pattern.shape)
    return int(row), int(col)


def segments_for_au(au_id: int, labels: np.ndarray,
                    max_segments: int = 3) -> list[int]:
    """SLIC segments carrying the evidence of ``au_id``, best first.

    Section IV-H grounds each highlighted facial action to segments
    "using the corresponding facial landmark"; on the synthetic
    substrate the analog is the AU's deformation pattern: segments are
    ranked by how much of the action's visual energy they contain, so
    the top segment is the one whose perturbation removes the most
    evidence for that action.
    """
    from repro.video.face_synth import default_renderer

    frame_size = labels.shape[0]
    pattern = np.abs(default_renderer(frame_size).au_pattern(au_id))
    num_labels = int(labels.max()) + 1
    energy = np.bincount(labels.ravel(), weights=pattern.ravel(),
                         minlength=num_labels)
    ranked = [int(label) for label in np.argsort(-energy)
              if energy[label] > 0]
    if not ranked:
        row, col = au_landmark(au_id, frame_size)
        ranked = [int(labels[row, col])]
    return ranked[:max_segments]
