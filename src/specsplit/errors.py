"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: operator/usage problems
exit 1, spectral preconditions exit 2, numerical non-convergence exit 3.
"""

from __future__ import annotations


class OperatorError(Exception):
    """Raised for invalid operator construction: unknown family names,
    parameters out of range, malformed descriptors, dimension mismatches."""


class NearSpectrumError(Exception):
    """Raised when a spectral precondition fails: a requested point (or a
    whole contour) is too close to the spectrum, or the spectral gap to the
    imaginary axis vanishes.

    Carries the offending eigenvalue and its distance to the requested point.
    """

    def __init__(self, msg, eigenvalue=None, distance=None, tol=None):
        super().__init__(msg)
        self.eigenvalue = eigenvalue
        self.distance = distance
        self.tol = tol


class QuadratureError(Exception):
    """Raised when a contour integral cannot be computed to the requested
    tolerance: the panel bisections of a line are exhausted."""


class TruncationError(QuadratureError):
    """Raised when a line has no truncation height ("no truncation height
    meets tol"), for one of two causes: c ||S||^24, the scale of the Neumann
    remainder bound, leaves the float range, so no height has a finite bound;
    or the 256 dyadic heights from 10h all stay below 2 max(||S||, |p|), the
    least height at which the bound is finite."""


class SplittingMismatchError(Exception):
    """Raised when the ranks of the quadrature projections are inconsistent
    with the eigenvalue counts per half-plane."""
