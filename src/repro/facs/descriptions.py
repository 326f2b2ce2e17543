"""Facial-action descriptions: AU sets rendered to and parsed from text.

The paper transforms DISFA+ action-unit labels into natural-language
descriptions of the form::

    The facial expressions can be listed below:
    -eyebrow: inner portions of the eyebrows raising
    -lid: upper lid raising
    -cheek: raised

and the foundation model both *generates* such descriptions (the
Describe step) and *consumes* them (the Assess and Highlight steps).
:class:`FacialDescription` is the structured form: an ordered set of
action units plus rendering (:meth:`FacialDescription.render`) and
parsing (:meth:`FacialDescription.parse`) that round-trip exactly.
Keeping generation structured is what gives the foundation-model
simulator exact token-level log-probabilities (see DESIGN.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GenerationError
from repro.facs.action_units import AU_IDS, NUM_AUS, au_by_id, au_index

HEADER = "The facial expressions can be listed below:"
NEUTRAL_LINE = "-face: neutral, no notable facial action"

_LINE_RE = re.compile(r"^-(?P<region>[a-z]+):\s*(?P<phrase>.+)$")


@dataclass(frozen=True)
class FacialDescription:
    """An immutable, ordered set of active action units.

    The canonical order is the AU vector-index order, so two
    descriptions with the same AU set are equal and render identically.
    """

    au_ids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.au_ids), key=au_index))
        object.__setattr__(self, "au_ids", ordered)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "FacialDescription":
        """Build from a binary 12-dim AU activation vector."""
        vector = np.asarray(vector)
        if vector.shape != (NUM_AUS,):
            raise ValueError(
                f"AU vector must have shape ({NUM_AUS},), got {vector.shape}"
            )
        active = [AU_IDS[i] for i in range(NUM_AUS) if vector[i] > 0.5]
        return cls(tuple(active))

    @classmethod
    def parse(cls, text: str) -> "FacialDescription":
        """Parse a rendered description back into structured form.

        Raises
        ------
        GenerationError
            If the text does not follow the description grammar.
        """
        lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if not lines or lines[0] != HEADER:
            raise GenerationError(
                f"description must start with {HEADER!r}; got {text[:60]!r}"
            )
        body = lines[1:]
        if body == [NEUTRAL_LINE]:
            return cls(())
        au_ids: list[int] = []
        for line in body:
            match = _LINE_RE.match(line)
            if match is None:
                raise GenerationError(f"unparsable description line {line!r}")
            key = (match.group("region"), match.group("phrase").strip())
            au_id = _PHRASE_TO_AU.get(key)
            if au_id is None:
                raise GenerationError(f"unknown facial action phrase {line!r}")
            au_ids.append(au_id)
        return cls(tuple(au_ids))

    # -- views ---------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Return the binary 12-dim AU activation vector."""
        vector = np.zeros(NUM_AUS, dtype=np.float64)
        for au_id in self.au_ids:
            vector[au_index(au_id)] = 1.0
        return vector

    def render(self) -> str:
        """Render the natural-language description text."""
        if not self.au_ids:
            return f"{HEADER}\n{NEUTRAL_LINE}"
        lines = [HEADER]
        for au_id in self.au_ids:
            unit = au_by_id(au_id)
            lines.append(f"-{unit.region}: {unit.phrase}")
        return "\n".join(lines)

    def regions(self) -> tuple[str, ...]:
        """Facial regions touched by the described actions (no dupes)."""
        seen: list[str] = []
        for au_id in self.au_ids:
            region = au_by_id(au_id).region
            if region not in seen:
                seen.append(region)
        return tuple(seen)

    def __contains__(self, au_id: int) -> bool:
        return au_id in self.au_ids

    def __len__(self) -> int:
        return len(self.au_ids)

    def __iter__(self):
        return iter(self.au_ids)


_PHRASE_TO_AU: dict[tuple[str, str], int] = {
    (au_by_id(au_id).region, au_by_id(au_id).phrase): au_id for au_id in AU_IDS
}
