"""Facial-region geometry on the synthetic 96x96 face canvas.

The paper grounds each highlighted facial-action description to a
spatial region of the most-expressive frame (e.g. eyebrows, lips,
cheek) so the region can be mosaicked when testing rationale
faithfulness (Section III-D) or perturbed by the deletion metric
(Section IV-H).  This module defines those regions as axis-aligned
boxes on the canonical frontal face layout produced by
:mod:`repro.video.face_synth`, and maps every action unit to the region
it deforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.facs.action_units import au_by_id

#: Side length (pixels) of the canonical synthetic face frame.  The
#: paper resizes all frames to 96x96 before feeding the model.
FRAME_SIZE: int = 96


@dataclass(frozen=True, slots=True)
class FacialRegion:
    """An axis-aligned facial region on the canonical face layout.

    Coordinates follow numpy convention: ``rows`` index the vertical
    axis (0 = top of the frame) and ``cols`` the horizontal axis.
    ``row_stop``/``col_stop`` are exclusive, like Python slices.
    """

    key: str
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    def __post_init__(self) -> None:
        if not (0 <= self.row_start < self.row_stop <= FRAME_SIZE):
            raise ValueError(f"invalid row bounds for region {self.key!r}")
        if not (0 <= self.col_start < self.col_stop <= FRAME_SIZE):
            raise ValueError(f"invalid col bounds for region {self.key!r}")

    @property
    def center(self) -> tuple[float, float]:
        """(row, col) centre of the region."""
        return (
            (self.row_start + self.row_stop - 1) / 2.0,
            (self.col_start + self.col_stop - 1) / 2.0,
        )

    @property
    def area(self) -> int:
        """Number of pixels covered by the region."""
        return (self.row_stop - self.row_start) * (self.col_stop - self.col_start)

    def mask(self, frame_size: int = FRAME_SIZE) -> np.ndarray:
        """Return a boolean mask of shape ``(frame_size, frame_size)``.

        Region bounds are defined on the canonical 96x96 layout and are
        rescaled proportionally for other frame sizes.
        """
        scale = frame_size / FRAME_SIZE
        mask = np.zeros((frame_size, frame_size), dtype=bool)
        r0 = int(round(self.row_start * scale))
        r1 = max(r0 + 1, int(round(self.row_stop * scale)))
        c0 = int(round(self.col_start * scale))
        c1 = max(c0 + 1, int(round(self.col_stop * scale)))
        mask[r0:r1, c0:c1] = True
        return mask

    def contains(self, row: float, col: float) -> bool:
        """Whether the (row, col) point lies inside the region."""
        return (
            self.row_start <= row < self.row_stop
            and self.col_start <= col < self.col_stop
        )


# Canonical frontal-face layout.  The face occupies most of the frame:
# forehead/brows in the upper third, eyes below them, nose central,
# mouth in the lower third, chin and jaw at the bottom.  Regions are
# disjoint so attribution mass cannot leak between facial parts.
REGIONS: dict[str, FacialRegion] = {
    "eyebrow": FacialRegion("eyebrow", 18, 30, 16, 80),
    "lid": FacialRegion("lid", 30, 42, 16, 80),
    "cheek": FacialRegion("cheek", 42, 60, 8, 34),
    "nose": FacialRegion("nose", 42, 60, 38, 58),
    "lips": FacialRegion("lips", 62, 74, 28, 68),
    "chin": FacialRegion("chin", 74, 86, 34, 62),
    "jaw": FacialRegion("jaw", 74, 92, 10, 34),
}

REGION_KEYS: tuple[str, ...] = tuple(REGIONS)


def region_for_au(au_id: int) -> FacialRegion:
    """Return the facial region deformed by action unit ``au_id``."""
    return REGIONS[au_by_id(au_id).region]
