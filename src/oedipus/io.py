"""File formats: OEDM binary container, PGM images, pattern JSON.

OEDM layout (little-endian): 4-byte magic ``OEDM``, then four uint32 values
``n1, n2, T, n_coils``, followed by ``T * n_coils`` image planes, each
stored as a float64 real plane then a float64 imaginary plane in C order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .design import SamplingPattern, pattern_from_groups

__all__ = [
    "write_oedm",
    "read_oedm",
    "write_pgm",
    "mask_to_rle",
    "rle_to_mask",
    "pattern_to_json",
    "pattern_from_json",
]

_MAGIC = b"OEDM"
_HEADER = struct.Struct("<4s4I")


def write_oedm(path, data: np.ndarray) -> None:
    """Write a (T, n_coils, n1, n2) complex array to an OEDM container."""
    data = np.asarray(data, dtype=complex)
    if data.ndim != 4:
        raise ValueError(f"expected a 4-d array, got shape {data.shape}")
    t, n_coils, n1, n2 = data.shape
    planes = np.stack([data.real, data.imag], axis=2).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, n1, n2, t, n_coils))
        fh.write(planes.tobytes())


def read_oedm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated OEDM header")
        magic, n1, n2, t, n_coils = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an OEDM container")
        shape = (t, n_coils, 2, n1, n2)
        size = 8 * math.prod(shape)
        body = fh.read(size)
    if len(body) < size:
        raise ValueError(f"{path}: truncated OEDM body, {len(body)} of {size} bytes")
    planes = np.frombuffer(body, dtype="<f8").reshape(shape)
    return planes[:, :, 0] + 1j * planes[:, :, 1]


def write_pgm(path, values: np.ndarray, max_abs: float | None = None) -> None:
    """8-bit binary PGM of ``|values|``, windowed to [0, max_abs]."""
    mag = np.abs(np.asarray(values))
    if mag.ndim != 2:
        raise ValueError("PGM export needs a 2-d array")
    peak = float(mag.max()) if max_abs is None else max_abs
    if peak <= 0:
        peak = 1.0
    pix = np.clip(np.round(255.0 * mag / peak), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
        fh.write(pix.tobytes())


def mask_to_rle(mask: np.ndarray) -> list[int]:
    """Run lengths of the flattened mask, first run counting zeros."""
    flat = np.asarray(mask).ravel().astype(bool)
    starts = np.flatnonzero(np.diff(flat, prepend=False))
    return np.diff(starts, prepend=0, append=flat.size).tolist()


def rle_to_mask(runs, shape) -> np.ndarray:
    """Inverse of :func:`mask_to_rle`; a negative run raises ``ValueError``."""
    runs = np.asarray(runs, dtype=int)
    flat = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    if flat.size != math.prod(shape):
        raise ValueError(f"run lengths cover {flat.size} cells, expected {math.prod(shape)}")
    return flat.reshape(shape)


def pattern_to_json(pattern: SamplingPattern) -> str:
    doc = {
        "grid": list(pattern.grid_dims),
        "R": pattern.R,
        "mode": pattern.mode,
        "kept_groups": list(pattern.kept_groups),
        "mask": mask_to_rle(pattern.mask),
        "log": list(pattern.log),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def pattern_from_json(text: str, candidates) -> SamplingPattern:
    """Rebuild a pattern against the candidate set it was designed for."""
    doc = json.loads(text)
    grid = tuple(doc["grid"])
    if grid != candidates.grid_dims:
        raise ValueError(
            f"pattern grid {grid} does not match candidate grid "
            f"{candidates.grid_dims}"
        )
    pattern = pattern_from_groups(
        candidates, doc["kept_groups"], mode=doc["mode"], log=doc.get("log", ())
    )
    stored = rle_to_mask(doc["mask"], grid)
    if not np.array_equal(stored, pattern.mask):
        raise ValueError("stored mask inconsistent with kept groups")
    return pattern

