"""Persisting trained models and pipelines.

A trained :class:`~repro.model.foundation.FoundationModel` is its
parameter arrays plus two architecture integers; a pipeline adds a few
inference options.  Everything round-trips through a single ``.npz``
archive so a trained detector can be shipped and reloaded without any
pickle security surface.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.cot.chain import StressChainPipeline
from repro.errors import ModelError
from repro.model.foundation import FoundationModel
from repro.reliability.faults import fault_point
from repro.rng import make_rng

#: Archive format version (bump on layout changes).
FORMAT_VERSION: int = 1


def file_digest(path: str | Path) -> str:
    """Streaming SHA-256 hex digest of an artifact file.

    The model registry records this at publish time and re-checks it at
    load time, so a truncated or bit-flipped archive is refused instead
    of silently deserialized into wrong weights.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _model_payload(model: FoundationModel) -> dict[str, np.ndarray]:
    """The archive entries of a saved model: ``param/*`` and ``meta/*``."""
    payload = {f"param/{k}": v for k, v in model.state_dict().items()}
    payload["meta/version"] = np.array(FORMAT_VERSION)
    payload["meta/embed_dim"] = np.array(model.embed_dim)
    payload["meta/grid"] = np.array(model.grid)
    payload["meta/frozen"] = np.array(int(model.frozen))
    return payload


def _write(path: str | Path, payload: dict[str, np.ndarray]) -> None:
    fault_point("persistence.io")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **payload)


def save_model(model: FoundationModel, path: str | Path) -> None:
    """Save a model's parameters and architecture to ``path``."""
    _write(path, _model_payload(model))


def load_model(path: str | Path) -> FoundationModel:
    """Reconstruct a model saved by :func:`save_model`."""
    fault_point("persistence.io")
    path = Path(path)
    with np.load(path) as archive:
        names = set(archive.files)
        if "meta/version" not in names:
            raise ModelError(f"{path} is not a saved FoundationModel")
        version = int(archive["meta/version"])
        if version != FORMAT_VERSION:
            raise ModelError(
                f"unsupported model format version {version} "
                f"(expected {FORMAT_VERSION})"
            )
        embed_dim = int(archive["meta/embed_dim"])
        grid = int(archive["meta/grid"])
        state = {
            name[len("param/"):]: archive[name]
            for name in names if name.startswith("param/")
        }
        frozen = bool(int(archive["meta/frozen"]))
    model = FoundationModel(make_rng(0, "load-model"), embed_dim=embed_dim,
                            grid=grid)
    model.load_state_dict(state)
    model.frozen = frozen
    return model


def save_pipeline(pipeline: StressChainPipeline, path: str | Path) -> None:
    """Save a pipeline's model + inference options.

    Retrievers and verification pools are dataset-bound and are not
    persisted; re-attach them after loading if needed.
    """
    payload = _model_payload(pipeline.model)
    payload["pipeline/use_chain"] = np.array(int(pipeline.use_chain))
    payload["pipeline/seed"] = np.array(pipeline.seed)
    _write(path, payload)


def load_pipeline(path: str | Path) -> StressChainPipeline:
    """Reconstruct a pipeline saved by :func:`save_pipeline`."""
    model = load_model(path)
    with np.load(Path(path)) as archive:
        if "pipeline/use_chain" not in archive.files:
            raise ModelError(f"{path} holds a bare model, not a pipeline")
        use_chain = bool(int(archive["pipeline/use_chain"]))
        seed = int(archive["pipeline/seed"])
    return StressChainPipeline(model, use_chain=use_chain, seed=seed)
