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


def eigenphases(tau, energies: np.ndarray) -> np.ndarray:
    """exp(-i tau E), a row per time of an array: every walk and chain eigenphase.

    Refused before any exp, in order: a non-finite time, non-finite energies
    (the spectrum overflowed), and a largest |tau| * max|E| that overflows.
    """
    times = np.asarray(tau, dtype=float)
    if not np.isfinite(times).all():
        raise InvalidInputError("tau must be finite")
    if not np.isfinite(energies).all():
        raise InvalidInputError("the spectrum overflows a float")
    largest = float(np.abs(energies).max())
    reach = tau if times.ndim == 0 else float(np.abs(times).max(initial=0.0))
    if not math.isfinite(float(reach) * largest):
        raise InvalidInputError(f"tau * max|E| overflows a float (tau = {reach!r}, max|E| = {largest!r})")
    return np.exp(-1j * np.multiply.outer(times, energies))
