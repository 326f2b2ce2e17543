"""Registry of the 12 DISFA+ facial action units.

The paper instruction-tunes its foundation model on DISFA+, whose label
space is the 12 action units below (FACS numbering).  Each
:class:`ActionUnit` carries the FACS id, its standard name, the facial
region it deforms, and the linguistic phrase used when rendering
natural-language descriptions (mirroring the paper's Section IV-A
example: AU1 -> "inner portions of the eyebrows raising").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ActionUnit:
    """A single FACS action unit.

    Attributes
    ----------
    au_id:
        FACS number (e.g. ``1`` for AU1 "Inner Brow Raiser").
    name:
        Canonical FACS name.
    region:
        Key of the facial region the AU deforms (see
        :mod:`repro.facs.regions`).
    phrase:
        Natural-language phrase describing the movement, used by
        :class:`repro.facs.descriptions.FacialDescription`.
    """

    au_id: int
    name: str
    region: str
    phrase: str


# The 12 DISFA / DISFA+ action units, in canonical order.  The order
# defines the index layout of every 12-dim AU vector in the library.
_ACTION_UNITS: tuple[ActionUnit, ...] = (
    ActionUnit(1, "Inner Brow Raiser", "eyebrow",
               "inner portions of the eyebrows raising"),
    ActionUnit(2, "Outer Brow Raiser", "eyebrow",
               "outer portions of the eyebrows raising"),
    ActionUnit(4, "Brow Lowerer", "eyebrow",
               "eyebrows lowering and drawing together"),
    ActionUnit(5, "Upper Lid Raiser", "lid", "upper lid raising"),
    ActionUnit(6, "Cheek Raiser", "cheek", "raised"),
    ActionUnit(9, "Nose Wrinkler", "nose", "wrinkling"),
    ActionUnit(12, "Lip Corner Puller", "lips",
               "corners pulling upward into a smile"),
    ActionUnit(15, "Lip Corner Depressor", "lips",
               "corners pulling downward"),
    ActionUnit(17, "Chin Raiser", "chin", "pushing upward"),
    ActionUnit(20, "Lip Stretcher", "lips",
               "stretching horizontally in tension"),
    ActionUnit(25, "Lips Part", "lips", "parting slightly"),
    ActionUnit(26, "Jaw Drop", "jaw", "dropping open"),
)

AU_IDS: tuple[int, ...] = tuple(unit.au_id for unit in _ACTION_UNITS)
NUM_AUS: int = len(_ACTION_UNITS)

_BY_ID: dict[int, ActionUnit] = {unit.au_id: unit for unit in _ACTION_UNITS}
_INDEX: dict[int, int] = {unit.au_id: i for i, unit in enumerate(_ACTION_UNITS)}


def au_by_id(au_id: int) -> ActionUnit:
    """Return the :class:`ActionUnit` with FACS number ``au_id``.

    Raises
    ------
    KeyError
        If ``au_id`` is not one of the 12 DISFA action units.
    """
    try:
        return _BY_ID[au_id]
    except KeyError:
        raise KeyError(
            f"AU{au_id} is not one of the 12 DISFA action units {AU_IDS}"
        ) from None


def au_index(au_id: int) -> int:
    """Return the canonical vector index (0..11) of ``au_id``."""
    try:
        return _INDEX[au_id]
    except KeyError:
        raise KeyError(
            f"AU{au_id} is not one of the 12 DISFA action units {AU_IDS}"
        ) from None
