"""Numerical verification of the perturbation theory.

A perturbed operator T inherits the spectral splitting of S when the strip
around the imaginary axis stays in both resolvent sets and the resolvent
difference decays like |lambda|^{-(1+eps)} along it.  This module measures
that decay, fits relative-boundedness exponents of perturbations
(p-subordination), evaluates the projection-difference contour integral

    P_+^S - P_+^T = (1/2*pi*i) * integral of (R_S - R_T) along Re lambda = h,

and carries the exponent arithmetic connecting the axis decay beta of S and
the subordination order p of the perturbation to the predicted difference
exponent 2*beta - p.

The classical domain obstruction (a rank-one perturbation pointing out of a
thinned domain) has no finite-dimensional content; ``domain_counterexample``
builds its truncated shadow and records the growth that replaces it, saying
so explicitly in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _fit_window, _sweep, axis_grid, multiset_match_distance
from .contour import ContourSpec, _line_integrals, default_contour
from .errors import NearSpectrumError, OperatorError
from .operators import (
    Operator,
    eigenvalues_of,
    oracle_projection,
    spectral_norm,
)

__all__ = [
    "PerturbReport",
    "CorollaryVerdict",
    "DomainEchoReport",
    "resolvent_diff_decay",
    "subordination_curve",
    "p_subordination_fit",
    "projection_diff_integral",
    "corollary_check",
    "domain_counterexample",
    "hamiltonian_assemble",
    "hamiltonian_pairing_defect",
    "perturb_pair_report",
]


# ---------------------------------------------------------------------------
# resolvent-difference decay
# ---------------------------------------------------------------------------


def resolvent_diff_decay(s_op: Operator, t_op: Operator, grid, fit_window=None):
    """Sample ||R_S(lambda) - R_T(lambda)|| on a grid and fit the decay rate.

    Returns ``(samples, exponent)`` where samples is a list of
    ``(lambda, norm)`` pairs and exponent is the fitted delta in
    ||R_S - R_T|| ~ |lambda|^{-delta}, fitted as ``resolvent_sweep`` fits
    beta: over the nonzero samples with |lambda| in ``fit_window`` (default
    ``_fit_window(s_op)``), NaN when those hold fewer than two distinct
    |lambda|; identical resolvents give the +inf sentinel.  Grid points
    within ``near_spectrum_tol(s_op, t_op)`` of either spectrum are skipped
    with a warning.
    """
    report = _sweep((s_op, t_op), grid, fit_window)
    samples = [(complex(l), float(d)) for l, d in zip(report.lambdas, report.norms)]
    return samples, report.fitted_beta if report.sup_norm > 0.0 else math.inf


# ---------------------------------------------------------------------------
# p-subordination
# ---------------------------------------------------------------------------


def subordination_curve(s_op: Operator, r: np.ndarray, samples):
    """The tight constant c(p) = max over samples of
    ||Rx|| / (||x||^{1-p} ||Sx||^p) on the p grid 0, 0.01, ..., 1."""
    r = np.asarray(r, dtype=complex)
    ratios = []
    for x in samples:
        x = np.asarray(x, dtype=complex).ravel()
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            raise ValueError("subordination samples must be nonzero")
        sx = float(np.linalg.norm(s_op.entries @ x))
        rx = float(np.linalg.norm(r @ x))
        if sx == 0.0 and rx > 0.0:
            raise ValueError(
                "subordination impossible for p > 0: sample with Sx = 0 but Rx != 0"
            )
        if rx > 0.0:
            ratios.append((rx, nx, sx))
    p_grid = np.round(np.arange(0.0, 1.005, 0.01), 10)
    if not ratios:
        return p_grid, np.zeros_like(p_grid)
    log_r = np.log([t[0] for t in ratios])
    log_n = np.log([t[1] for t in ratios])
    log_s = np.log([t[2] for t in ratios])
    # log c(p) = max_x [log rx - (1-p) log nx - p log sx]: convex piecewise linear
    log_c = np.max(
        log_r[None, :] - (1.0 - p_grid[:, None]) * log_n[None, :] - p_grid[:, None] * log_s[None, :],
        axis=1,
    )
    return p_grid, np.exp(log_c)


def p_subordination_fit(s_op: Operator, r: np.ndarray, samples) -> tuple[float, float]:
    """Fit the relative-boundedness order of R against S on a sample set.

    Scans p on a 0.01 grid, takes the tight constant c(p) at each, and
    selects the elbow of log c(p) (the point of maximum discrete curvature).
    Monotone curves without a kink degenerate to the endpoints: decreasing
    means R is comparable to S itself (p = 1), otherwise R is bounded
    relative to ||x|| alone (p = 0).
    """
    p_grid, c_vals = subordination_curve(s_op, r, samples)
    if np.all(c_vals == 0.0):
        return 0.0, 0.0
    log_c = np.log(c_vals)
    if log_c.max() - log_c.min() < 1e-9:
        return float(c_vals[0]), 0.0
    curvature = log_c[:-2] - 2.0 * log_c[1:-1] + log_c[2:]
    i = int(np.argmax(curvature)) + 1
    if curvature[i - 1] > 1e-3:
        return float(c_vals[i]), float(p_grid[i])
    if log_c[-1] < log_c[0]:
        return float(c_vals[-1]), 1.0
    return float(c_vals[0]), 0.0


# ---------------------------------------------------------------------------
# the projection-difference integral
# ---------------------------------------------------------------------------


def projection_diff_integral(
    s_op: Operator, t_op: Operator, spec: ContourSpec | None = None
) -> np.ndarray:
    """(1/2*pi*i) * integral of (R_S - R_T) along Re lambda = h; equals the
    difference of the plus projections P_+^S - P_+^T.

    The lambda^{-2} weights of the individual projection integrals cancel in
    the difference, so convergence rests on the decay of R_S - R_T: beyond
    the height the difference of the two Neumann polynomials is integrated
    exactly, and the sum of their remainders is held to tol.
    """
    if s_op.dim != t_op.dim:
        raise OperatorError("operators must act on the same space")
    ops = (s_op, t_op)
    spec = default_contour(*ops) if spec is None else spec
    return _line_integrals(ops, spec.h, [(1.0, 0, ())], spec)[0].value


# ---------------------------------------------------------------------------
# the exponent arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollaryVerdict:
    passed: bool
    predicted_exponent: float
    reason: str


def corollary_check(beta: float, p: float) -> CorollaryVerdict:
    """Exponent arithmetic for p-subordinate perturbations of an operator
    with axis decay beta: the splitting transfers when beta > 1/2 and
    p < 2*beta - 1, with predicted resolvent-difference exponent 2*beta - p.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    predicted = 2.0 * beta - p
    if beta <= 0.5:
        return CorollaryVerdict(False, predicted, f"beta={beta} <= 1/2")
    if p >= 2.0 * beta - 1.0:
        return CorollaryVerdict(
            False, predicted, f"p={p} >= 2*beta - 1 = {2.0 * beta - 1.0:.6g}"
        )
    return CorollaryVerdict(True, predicted, "beta > 1/2 and p < 2*beta - 1")


# ---------------------------------------------------------------------------
# the domain-obstruction shadow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainEchoReport:
    conditions: dict
    t_dichotomous_by_oracle: bool
    growth: list
    growth_monotone: bool
    note: str


_DOMAIN_NOTE = (
    "Finite truncations admit no domain obstruction: the perturbation-theorem "
    "conditions hold at every truncation, while the recorded growth of "
    "||S^2 x|| for x aligned with w is the finite-dimensional echo of the "
    "domain collapse that occurs only in the infinite model."
)


def domain_counterexample(s_op: Operator, w: np.ndarray) -> DomainEchoReport:
    """Truncated shadow of the rank-one domain obstruction.

    Builds R as the orthogonal projection onto span(w) and T = S + R for a
    positive diagonal S, verifies the perturbation-theorem conditions on the
    truncation, and records how ||S^2 w / ||w|| || grows along prefix
    truncations.
    """
    d = np.asarray(s_op.entries)
    if spectral_norm(d - np.diag(np.diag(d))) > 0.0:
        raise OperatorError("domain-obstruction study requires a diagonal operator")
    diag = np.diag(d)
    if np.any(diag.real <= 0.0) or np.any(diag.imag != 0.0):
        raise OperatorError("diagonal entries must be real and positive")
    w = np.asarray(w, dtype=complex).ravel()
    if w.shape[0] != s_op.dim or not np.any(w != 0.0):
        raise OperatorError("w must be a nonzero vector of matching dimension")

    r = np.outer(w, w.conj()) / float(np.vdot(w, w).real)
    t_op = Operator(entries=s_op.entries + r)

    # S is a positive diagonal and R = w w^H / |w|^2 is Hermitian positive
    # semidefinite, so T = S + R is Hermitian positive definite: both spectra
    # lie on the positive real axis, the strip is clear, and T is dichotomous.
    _, exponent = resolvent_diff_decay(s_op, t_op, axis_grid(10.0, 1e3), fit_window=(10.0, 1e3))
    conditions = {
        "strip_in_both_resolvent_sets": True,
        "difference_decay_exponent_above_1": bool(exponent > 1.0),
        "difference_decay_exponent": float(exponent),
        "dense_squared_domain_intersection": True,  # vacuous at finite dimension
    }
    oracle_projection(t_op)  # the oracle's own check that T splits

    growth = []
    n = s_op.dim
    for n_prefix in sorted({max(2, n // 4), max(2, n // 2), n}):
        w_pre = w[:n_prefix]
        if not np.any(w_pre != 0.0):
            continue
        d_pre = diag[:n_prefix].real
        growth.append(
            (
                n_prefix,
                float(
                    np.linalg.norm(d_pre**2 * w_pre) / np.linalg.norm(w_pre)
                ),
            )
        )
    monotone = all(b[1] > a[1] for a, b in zip(growth, growth[1:]))
    return DomainEchoReport(
        conditions=conditions,
        t_dichotomous_by_oracle=True,
        growth=growth,
        growth_monotone=bool(monotone),
        note=_DOMAIN_NOTE,
    )


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


def hamiltonian_assemble(a, b, c) -> Operator:
    """T = [[A, B B^H], [C^H C, -A^H]] of size 2n for A with spectrum in the
    open right half-plane.

    The off-diagonal blocks are Hermitian nonnegative by construction, which
    forces the eigenvalue symmetry lambda <-> -conj(lambda).
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[0] != a.shape[1]:
        raise OperatorError(f"A must be square, got shape {a.shape}")
    n = a.shape[0]
    b = np.asarray(b, dtype=complex)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    c = np.asarray(c, dtype=complex)
    if c.ndim == 1:
        c = c.reshape(1, -1)
    if b.shape[0] != n:
        raise OperatorError(f"B must have {n} rows, got shape {b.shape}")
    if c.shape[1] != n:
        raise OperatorError(f"C must have {n} columns, got shape {c.shape}")
    ev = np.linalg.eigvals(a)
    worst = float(ev.real.min())
    if worst <= 1e-12 * (1.0 + np.abs(ev).max()):
        raise NearSpectrumError(
            f"A has an eigenvalue with Re = {worst:.3e} on or left of the axis",
            eigenvalue=complex(ev[int(np.argmin(ev.real))]),
            distance=abs(worst),
        )
    top = np.hstack([a, b @ b.conj().T])
    bottom = np.hstack([c.conj().T @ c, -a.conj().T])
    return Operator(entries=np.vstack([top, bottom]))


def hamiltonian_pairing_defect(op: Operator) -> float:
    """Matching distance between the spectrum and its reflection
    {-conj(lambda)}; zero (to clustering tolerance) for Hamiltonian
    structure."""
    ev = eigenvalues_of(op)
    return multiset_match_distance(ev, -ev.conj())


# ---------------------------------------------------------------------------
# composed report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbReport:
    """Everything measured about a perturbation pair (S, T = S + R)."""

    diff_samples: list
    fitted_diff_exponent: float
    subordination: tuple[float, float]  # (c, p)
    corollary_verdict: str  # "pass" | "fail" | "not-applicable"
    predicted_exponent: float
    projection_delta: np.ndarray
    delta_residual: float

    def to_json_dict(self) -> dict:
        return {
            "fitted_diff_exponent": self.fitted_diff_exponent,
            "subordination_c": self.subordination[0],
            "subordination_p": self.subordination[1],
            "corollary_verdict": self.corollary_verdict,
            "predicted_exponent": self.predicted_exponent,
            "delta_residual": self.delta_residual,
            "n_diff_samples": len(self.diff_samples),
        }


def perturb_pair_report(
    s_op: Operator, r: np.ndarray, beta: float | None = None, fit_window=None
) -> PerturbReport:
    """Run the full perturbation diagnosis for T = S + R: the resolvent
    difference on ``axis_grid(1, max(hi, 10))`` fitted in ``fit_window =
    (lo, hi)`` (default ``_fit_window(s_op)``), the subordination fit over
    the standard basis, and the projection difference on Re lambda = half
    the pair's gap.

    ``beta`` is the axis-decay exponent of S (fitted upstream); without it
    the exponent arithmetic is reported as not-applicable.
    """
    r = np.asarray(r, dtype=complex)
    if r.shape != (s_op.dim, s_op.dim):
        raise OperatorError("R must have the same shape as S")
    t_op = Operator(entries=s_op.entries + r)
    # the exponent arithmetic refuses a beta outside (0, 1] before the sweep
    c_fit, p_fit = p_subordination_fit(s_op, r, list(np.eye(s_op.dim, dtype=complex).T))
    if beta is None:
        verdict, predicted = "not-applicable", float("nan")
    else:
        v = corollary_check(beta, p_fit)
        verdict, predicted = ("pass" if v.passed else "fail"), v.predicted_exponent
    window = _fit_window(s_op) if fit_window is None else fit_window
    grid = axis_grid(1.0, max(window[1], 10.0))
    samples, exponent = resolvent_diff_decay(s_op, t_op, grid, fit_window=window)
    delta = projection_diff_integral(s_op, t_op)
    oracle_delta = oracle_projection(s_op).p_plus - oracle_projection(t_op).p_plus
    return PerturbReport(
        diff_samples=samples,
        fitted_diff_exponent=exponent,
        subordination=(c_fit, p_fit),
        corollary_verdict=verdict,
        predicted_exponent=predicted,
        projection_delta=delta,
        delta_residual=spectral_norm(delta - oracle_delta),
    )
