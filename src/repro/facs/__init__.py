"""Facial Action Coding System (FACS) substrate.

This package models the 12 DISFA+ action units (AUs) the paper's
instruction-tuning stage is built on: the AU registry and metadata
(:mod:`~repro.facs.action_units`), the facial-region geometry each AU
acts on (:mod:`~repro.facs.regions`), the AU <-> natural-language
templates used to build facial-action descriptions
(:mod:`~repro.facs.descriptions`), and the literature-grounded AU-stress
association priors that drive the synthetic datasets
(:mod:`~repro.facs.stress_priors`).
"""

from repro.facs.action_units import (
    AU_IDS,
    NUM_AUS,
    ActionUnit,
    au_by_id,
    au_index,
)
from repro.facs.descriptions import FacialDescription
from repro.facs.regions import FacialRegion, REGIONS, region_for_au
from repro.facs.stress_priors import StressPrior, default_stress_prior

__all__ = [
    "AU_IDS",
    "ActionUnit",
    "FacialDescription",
    "FacialRegion",
    "NUM_AUS",
    "REGIONS",
    "StressPrior",
    "au_by_id",
    "au_index",
    "default_stress_prior",
    "region_for_au",
]
