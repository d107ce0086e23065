"""Exception types and the one home of each input rule: model, size guard, state length and norm, phases."""

import math
import os

import numpy as np

NORM_TOL = 1e-12
# The state alone is ~1 GiB of complex amplitudes at M = 26, and an evolution
# peaks at several times that; override with REVIVAL_MAX_M at your own risk.
DEFAULT_MAX_M = 26


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition (bad dimension, norm, range)."""


class ResourceLimitError(RuntimeError):
    """Request exceeds a hard size guard and was refused instead of thrashing."""


def require_model(N: int, alpha: float | None = None, beta: float | None = None) -> None:
    """The one model check: refuse N below 2, a non-finite alpha or beta, then (0, 0) (N alone for columns)."""
    if N < 2:
        raise InvalidInputError(f"need N >= 2, got {N}")
    if alpha is None:
        return
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidInputError("alpha and beta must be finite")
    if alpha == 0.0 and beta == 0.0:
        raise InvalidInputError("(alpha, beta) != (0, 0) required")


def _guard() -> int:
    """The size guard: REVIVAL_MAX_M, or else DEFAULT_MAX_M."""
    raw = os.environ.get("REVIVAL_MAX_M")
    try:
        return DEFAULT_MAX_M if raw is None else int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"REVIVAL_MAX_M must be an integer, got {raw!r}") from exc


def check_size(M: int) -> None:
    """Refuse M above the guard before any 2^M allocation."""
    limit = _guard()
    if M > limit:
        raise ResourceLimitError(
            f"M = {M} exceeds the guard ({limit}); set REVIVAL_MAX_M to override"
        )


def check_elements(count: int, what: str) -> None:
    """Refuse an array of more than 2^guard elements, the budget check_size gives a state."""
    limit = _guard()
    # count > 2^limit, without forming 2^limit
    if (count - 1).bit_length() > limit:
        raise ResourceLimitError(
            f"{what} needs {count} elements, above the guard (2^{limit}); set REVIVAL_MAX_M to override"
        )


def require_length(psi: np.ndarray, length: int) -> None:
    """Refuse a state that is not a vector of the given length: every graph, column and chain state."""
    if psi.shape != (length,):
        raise InvalidInputError(f"state must have length {length}, got shape {psi.shape}")


def require_unit_norm(psi: np.ndarray) -> None:
    """Refuse a state whose norm is not 1 within NORM_TOL (no silent renormalization)."""
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise InvalidInputError(f"state norm is {norm!r}, expected 1 within {NORM_TOL}")


def eigenphases(tau, energies: np.ndarray) -> np.ndarray:
    """exp(-i tau E), a row per time of an array: every walk and chain eigenphase.

    Refused before any exp, in order: a table beyond check_elements, a non-finite time, non-finite
    energies (the spectrum overflowed), and a largest |tau| * max|E| that overflows.  The exp runs
    in place, so a table peaks at 1.5 times its size: itself and the real products.
    """
    times = np.asarray(tau, dtype=float)
    check_elements(times.size * energies.size, "the phase table")
    if not np.isfinite(times).all():
        raise InvalidInputError("tau must be finite")
    if not np.isfinite(energies).all():
        raise InvalidInputError("the spectrum overflows a float")
    largest = float(np.abs(energies).max())
    reach = tau if times.ndim == 0 else float(np.abs(times).max(initial=0.0))
    if not math.isfinite(float(reach) * largest):
        raise InvalidInputError(f"tau * max|E| overflows a float (tau = {reach!r}, max|E| = {largest!r})")
    table = -1j * np.multiply.outer(times, energies)
    return np.exp(table, out=table)
