"""Orthogonal weight initialization."""

from __future__ import annotations

import numpy as np

from repro.determinism import fallback_rng


def orthogonal(shape: tuple, gain: float = 1.0,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Orthogonal initialization, the standard choice for PPO policies."""
    rng = rng if rng is not None else fallback_rng()
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]

