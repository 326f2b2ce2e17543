"""SLIC superpixel segmentation.

The paper's interpretability protocol (Section IV-H) segments the
most-expressive frame into 64 SLIC superpixels and perturbs the
top-scoring segments named by each explainer.  This module implements
SLIC (Achanta et al., 2012) from scratch for single-channel images:
k-means in a joint (intensity, row, col) feature space with cluster
centres initialised on a regular grid and a restricted 2S x 2S search
window, followed by a connectivity-enforcement pass that absorbs
orphaned fragments into their largest neighbour.

Both passes run as whole-array NumPy/SciPy operations, yet return the
label map of the plain per-pixel loops bit for bit (the loops are kept
as the test oracle in ``tests/slic_reference.py``): see
:func:`slic_segments` and :func:`_enforce_connectivity` for why each
step is exact.
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
        Finite ``(H, W)`` array in ``[0, 1]``.
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
        ``(H, W)`` int64 array of segment labels, contiguous in
        ``[0, num_labels)``; every segment is one 4-connected
        component.  ``num_labels`` is near ``num_segments`` but may
        exceed it: connectivity enforcement splits a cluster whose
        pixels fall apart into separate regions.

    Raises
    ------
    ExplainerError
        If the image is not 2-D or holds NaN or inf, or if
        ``num_segments`` is not in ``[1, H * W]``.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ExplainerError(f"slic expects a 2-D image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ExplainerError("slic expects a finite image (found NaN or inf)")
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
    weight_sq = spatial_weight**2

    row_coords = np.arange(height, dtype=np.float64)
    col_coords = np.arange(width, dtype=np.float64)
    flat_image = image.ravel()
    flat_rows = np.repeat(row_coords, width)
    flat_cols = np.tile(col_coords, height)
    labels = np.zeros((height, width), dtype=np.int64)
    flat_labels = labels.ravel()
    best_dist = np.empty((height, width))

    for _ in range(num_iters):
        best_dist.fill(np.inf)
        # Each centre searches a 2S window around itself; the spatial
        # term is the outer sum of its 1-D row and column terms.
        row_sq = (row_coords - centers_pos[:, :1]) ** 2
        col_sq = (col_coords - centers_pos[:, 1:]) ** 2
        low = np.maximum(0, (centers_pos - 2 * step).astype(int))
        high = np.minimum((height, width), (centers_pos + 2 * step).astype(int) + 1)
        windows = zip(low.tolist(), high.tolist())
        # Centres claim pixels in index order and a pixel moves only on
        # a strictly smaller distance, so the lowest-index centre wins
        # a tie.
        for ci, ((r0, c0), (r1, c1)) in enumerate(windows):
            spatial = row_sq[ci, r0:r1, None] + col_sq[ci, c0:c1]
            dist = (image[r0:r1, c0:c1] - centers_val[ci]) ** 2 + (
                weight_sq * spatial
            )
            window_best = best_dist[r0:r1, c0:c1]
            better = dist < window_best
            np.copyto(window_best, dist, where=better)
            np.copyto(labels[r0:r1, c0:c1], ci, where=better)
        # Update centres from current assignment; an empty cluster
        # keeps its centre.  Coordinates are integers, so their sums
        # are exact in any order; the intensity mean is taken over the
        # cluster's pixels in raster order (the stable sort keeps it).
        counts = np.bincount(flat_labels, minlength=k)
        present = counts > 0
        for axis, coords in enumerate((flat_rows, flat_cols)):
            sums = np.bincount(flat_labels, weights=coords, minlength=k)
            centers_pos[present, axis] = sums[present] / counts[present]
        by_cluster = flat_image[np.argsort(flat_labels, kind="stable")]
        starts = np.cumsum(counts) - counts
        for ci in np.flatnonzero(present):
            members = by_cluster[starts[ci]:starts[ci] + counts[ci]]
            centers_val[ci] = members.mean()

    return _enforce_connectivity(labels)


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Relabel so every segment is a single 4-connected component and
    labels are contiguous starting at 0."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    height, width = labels.shape
    # Connected components of equal original label, over the graph of
    # equal-label 4-neighbour pairs, numbered by first raster
    # occurrence (the order a raster-scan flood fill finds them).
    index = np.arange(labels.size).reshape(height, width)
    same_down = labels[:-1, :] == labels[1:, :]
    same_right = labels[:, :-1] == labels[:, 1:]
    heads = np.concatenate((index[:-1, :][same_down], index[:, :-1][same_right]))
    tails = np.concatenate((index[1:, :][same_down], index[:, 1:][same_right]))
    graph = coo_matrix(
        (np.ones(heads.size, dtype=np.int8), (heads, tails)),
        shape=(labels.size, labels.size),
    )
    next_label, found = connected_components(graph, directed=False)
    __, first_pixel = np.unique(found, return_index=True)
    rank = np.empty(next_label, dtype=np.int64)
    rank[np.argsort(first_pixel)] = np.arange(next_label)
    component = rank[found].reshape(height, width)
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
    __, contiguous = np.unique(component, return_inverse=True)
    return contiguous.reshape(labels.shape).astype(np.int64, copy=False)


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


def segment_masks(labels: np.ndarray) -> list[np.ndarray]:
    """Boolean mask per segment label, ordered by label id."""
    return [labels == label for label in range(int(labels.max()) + 1)]
