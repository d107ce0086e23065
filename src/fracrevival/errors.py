"""Exception types and the state and phase checks shared across the package."""

import math

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


def require_finite_phase(tau: float, energies: np.ndarray) -> None:
    """Refuse a time whose product with the largest |energy| overflows, before exp(-i tau E)."""
    largest = float(np.abs(energies).max())
    if not math.isfinite(float(tau) * largest):
        raise InvalidInputError(f"tau * max|E| overflows a float (tau = {tau!r}, max|E| = {largest!r})")
