"""Frozen reference SLIC: the per-pixel Python implementation.

This is the pure-Python ``slic_segments`` / ``_enforce_connectivity``
that :mod:`repro.video.segmentation` replaced with a vectorised
version.  It is kept, unchanged, only as the test oracle for the
bitwise contract: for every finite input the vectorised code must
return exactly this label map (values, shape and ``int64`` dtype).
Do not edit the functions below; they define the expected output.
(Their docstrings are verbatim too: the ``num_labels <= num_segments``
promise is false, see :func:`repro.video.segmentation.slic_segments`.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExplainerError


def _grid_centers(height: int, width: int, num_segments: int) -> np.ndarray:
    """Regular-grid initial cluster centres, shape (k, 2) of (row, col)."""
    grid = int(np.ceil(np.sqrt(num_segments)))
    rows = np.linspace(0, height - 1, grid + 2)[1:-1]
    cols = np.linspace(0, width - 1, grid + 2)[1:-1]
    centers = [(r, c) for r in rows for c in cols]
    return np.asarray(centers[:num_segments], dtype=np.float64)


def slic_segments(
    image: np.ndarray,
    num_segments: int = 64,
    compactness: float = 0.2,
    num_iters: int = 5,
) -> np.ndarray:
    """Segment a grayscale image into SLIC superpixels.

    Parameters
    ----------
    image:
        ``(H, W)`` array in ``[0, 1]``.
    num_segments:
        Target number of superpixels (the paper uses 64).
    compactness:
        Weight of spatial proximity relative to intensity similarity.
        Larger values give more regular, grid-like segments.
    num_iters:
        Number of assignment/update sweeps.

    Returns
    -------
    numpy.ndarray
        ``(H, W)`` int array of contiguous segment labels in
        ``[0, num_labels)``; ``num_labels <= num_segments``.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ExplainerError(f"slic expects a 2-D image, got shape {image.shape}")
    height, width = image.shape
    if num_segments < 1:
        raise ExplainerError("num_segments must be positive")
    if num_segments > height * width:
        raise ExplainerError("more segments requested than pixels available")

    centers_pos = _grid_centers(height, width, num_segments)
    k = centers_pos.shape[0]
    center_rows = centers_pos[:, 0].astype(int)
    center_cols = centers_pos[:, 1].astype(int)
    centers_val = image[center_rows, center_cols].astype(np.float64)

    step = max(1.0, np.sqrt(height * width / k))
    spatial_weight = compactness / step

    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    labels = np.zeros((height, width), dtype=np.int64)
    best_dist = np.full((height, width), np.inf)

    for _ in range(num_iters):
        best_dist.fill(np.inf)
        for ci in range(k):
            r, c = centers_pos[ci]
            r0 = max(0, int(r - 2 * step))
            r1 = min(height, int(r + 2 * step) + 1)
            c0 = max(0, int(c - 2 * step))
            c1 = min(width, int(c + 2 * step) + 1)
            window_val = image[r0:r1, c0:c1]
            window_rows = rows[r0:r1, c0:c1]
            window_cols = cols[r0:r1, c0:c1]
            dist = (window_val - centers_val[ci]) ** 2 + (
                spatial_weight**2
            ) * ((window_rows - r) ** 2 + (window_cols - c) ** 2)
            window_best = best_dist[r0:r1, c0:c1]
            better = dist < window_best
            window_best[better] = dist[better]
            labels[r0:r1, c0:c1][better] = ci
        # Update centres from current assignment.
        for ci in range(k):
            mask = labels == ci
            if not mask.any():
                continue
            centers_pos[ci, 0] = rows[mask].mean()
            centers_pos[ci, 1] = cols[mask].mean()
            centers_val[ci] = image[mask].mean()

    return _enforce_connectivity(labels)


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Relabel so every segment is a single 4-connected component and
    labels are contiguous starting at 0."""
    height, width = labels.shape
    component = -np.ones_like(labels)
    next_label = 0
    # Flood-fill each connected component of equal original label.
    for start_r in range(height):
        for start_c in range(width):
            if component[start_r, start_c] != -1:
                continue
            original = labels[start_r, start_c]
            stack = [(start_r, start_c)]
            component[start_r, start_c] = next_label
            pixels = [(start_r, start_c)]
            while stack:
                r, c = stack.pop()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (
                        0 <= nr < height
                        and 0 <= nc < width
                        and component[nr, nc] == -1
                        and labels[nr, nc] == original
                    ):
                        component[nr, nc] = next_label
                        stack.append((nr, nc))
                        pixels.append((nr, nc))
            next_label += 1
    # Absorb tiny fragments into a neighbouring component.
    min_size = max(4, labels.size // (next_label * 4) if next_label else 4)
    sizes = np.bincount(component.ravel(), minlength=next_label)
    for label in range(next_label):
        if sizes[label] >= min_size:
            continue
        mask = component == label
        neighbour = _dominant_neighbour(component, mask)
        if neighbour is not None:
            component[mask] = neighbour
            sizes[neighbour] += sizes[label]
            sizes[label] = 0
    # Make labels contiguous.
    unique = np.unique(component)
    remap = {old: new for new, old in enumerate(unique)}
    flat = component.ravel()
    remapped = np.array([remap[v] for v in flat], dtype=np.int64)
    return remapped.reshape(labels.shape)


def _dominant_neighbour(component: np.ndarray, mask: np.ndarray) -> int | None:
    """Most frequent component label adjacent to ``mask`` (4-conn)."""
    height, width = component.shape
    counts: dict[int, int] = {}
    rows, cols = np.where(mask)
    for r, c in zip(rows, cols):
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < height and 0 <= nc < width and not mask[nr, nc]:
                label = int(component[nr, nc])
                counts[label] = counts.get(label, 0) + 1
    if not counts:
        return None
    return max(counts, key=counts.get)
