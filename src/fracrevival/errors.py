"""Exception types and the state-norm check shared across the package."""

import numpy as np

NORM_TOL = 1e-12


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition (bad dimension, norm, range)."""


class ResourceLimitError(RuntimeError):
    """Request exceeds a hard size guard and was refused instead of thrashing."""


def require_unit_norm(psi: np.ndarray) -> None:
    """Refuse a state whose norm is not 1 within NORM_TOL (no silent renormalization)."""
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise InvalidInputError(f"state norm is {norm!r}, expected 1 within {NORM_TOL}")
