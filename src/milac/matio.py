"""Plain-text complex matrix files.

Format: first line holds the two dimensions "rows cols", then one line per
row with whitespace-separated entries written as re+imj (Python complex
literal syntax, full repr precision so round trips are exact).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if (im >= 0 or np.isnan(im)) else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def save_matrix(path, M) -> None:
    """Write a 2-D complex (or real) array as a text matrix file."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={M.ndim}")
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(format_complex(complex(z)) for z in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a text matrix file back into a complex array."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DimensionError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise DimensionError(f"{path}: header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DimensionError(f"{path}: bad header {lines[0]!r}") from exc
    if rows < 0 or cols < 0 or len(lines) - 1 != rows:
        raise DimensionError(
            f"{path}: expected {rows} data rows, found {len(lines) - 1}"
        )
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != cols:
            raise DimensionError(f"{path}: row {i} has {len(toks)} entries, expected {cols}")
        for j, tok in enumerate(toks):
            try:
                out[i, j] = complex(tok)
            except ValueError as exc:
                raise DimensionError(f"{path}: bad entry {tok!r} at ({i}, {j})") from exc
    return out
