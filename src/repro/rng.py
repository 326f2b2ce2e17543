"""Deterministic random-number management.

All stochastic components of the library draw from
:class:`numpy.random.Generator` instances produced here.  Seeds are
derived from a root seed plus a string *scope*, so independent
subsystems (dataset synthesis, model initialisation, sampling with the
paper's "K different random seeds", ...) get decorrelated yet fully
reproducible streams, and adding a new consumer never perturbs the
streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "make_rng"]

_MASK_63 = (1 << 63) - 1


def derive_seed(root_seed: int, scope: str) -> int:
    """Derive a stable 63-bit seed from ``root_seed`` and a scope label.

    The derivation uses BLAKE2b over the pair, so distinct scopes give
    independent seeds and the mapping is stable across platforms and
    Python versions (unlike the salted builtin ``hash``).
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{scope}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") & _MASK_63


def make_rng(root_seed: int, scope: str = "") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``scope``.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    scope:
        A label identifying the consumer, e.g. ``"datasets.uvsd"``.
    """
    return np.random.default_rng(derive_seed(root_seed, scope))
