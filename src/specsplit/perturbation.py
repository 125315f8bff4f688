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

from .analysis import json_safe_float, multiset_match_distance
from .contour import (
    ContourSpec,
    _check_contour_admissible,
    _line_integrals,
    _line_tails,
    _log_log_fit,
)
from .errors import NearSpectrumError, OperatorError
from .operators import (
    Operator,
    _clear_points,
    _Kernel,
    _spectral_gap,
    eigenvalues_of,
    near_spectrum_tol,
    oracle_projection,
    spectral_norm,
    spectrum,
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


def resolvent_diff_decay(
    s_op: Operator,
    t_op: Operator,
    grid,
    fit_window: tuple[float, float] = (10.0, 1e4),
):
    """Sample ||R_S(lambda) - R_T(lambda)|| on a grid and fit the decay rate.

    Returns ``(samples, exponent)`` where samples is a list of
    ``(lambda, norm)`` pairs and exponent is the fitted delta in
    ||R_S - R_T|| ~ |lambda|^{-delta}; identical resolvents give the +inf
    sentinel.  Grid points near either spectrum are skipped with a warning.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    if grid.size == 0:
        raise ValueError("grid is empty")
    tol = max(near_spectrum_tol(s_op), near_spectrum_tol(t_op))
    lams, _ = _clear_points((s_op, t_op), grid, tol)
    diffs = _Kernel((s_op, t_op)).norms(lams)
    samples = [(complex(l), float(d)) for l, d in zip(lams, diffs)]
    if not np.any(diffs > 0.0):
        return samples, math.inf
    lo, hi = fit_window
    mask = (np.abs(lams) >= lo) & (np.abs(lams) <= hi) & (diffs > 0.0)
    if mask.sum() < 2:
        mask = diffs > 0.0
    delta, *_ = _log_log_fit(np.abs(lams[mask]), diffs[mask])
    return samples, delta


# ---------------------------------------------------------------------------
# p-subordination
# ---------------------------------------------------------------------------


def subordination_curve(s_op: Operator, r: np.ndarray, samples, p_step: float = 0.01):
    """The tight constant c(p) = max over samples of
    ||Rx|| / (||x||^{1-p} ||Sx||^p) on a p grid."""
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
    p_grid = np.round(np.arange(0.0, 1.0 + p_step / 2, p_step), 10)
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


def _common_contour(s_op: Operator, t_op: Operator, spec: ContourSpec | None) -> ContourSpec:
    if spec is None:
        return ContourSpec(h=0.5 * _spectral_gap(s_op, t_op))
    _check_contour_admissible((s_op, t_op), spec)
    return spec


def projection_diff_integral(
    s_op: Operator, t_op: Operator, spec: ContourSpec | None = None
) -> np.ndarray:
    """(1/2*pi*i) * integral of (R_S - R_T) along Re lambda = h; equals the
    difference of the plus projections P_+^S - P_+^T.

    The lambda^{-2} weights of the individual projection integrals cancel in
    the difference, so convergence rests on the resolvent-difference decay,
    which the Neumann bound through R_S - R_T = R_S (T - S) R_T gives from
    T = 2 max(||S||, ||T||) on.  A derived height holds that tail to tol; an
    explicit one whose tail exceeds tol, or lies below 2 max(||S||, ||T||),
    raises :class:`~specsplit.errors.TruncationError`.
    """
    if s_op.dim != t_op.dim:
        raise OperatorError("operators must act on the same space")
    spec = _common_contour(s_op, t_op, spec)
    ops = (s_op, t_op)
    t_eff, _ = _line_tails(ops, spec, spec.h, [(1.0, 0, (), spec.tol, spec.tol)])
    line = _line_integrals(ops, spec.h, [lambda lam: 1.0], [spec.tol], spec, t_eff)
    return line.values[0]


# ---------------------------------------------------------------------------
# the exponent arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollaryVerdict:
    passed: bool
    predicted_exponent: float
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "predicted_exponent": self.predicted_exponent,
            "reason": self.reason,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "conditions": dict(self.conditions),
            "t_dichotomous_by_oracle": self.t_dichotomous_by_oracle,
            "growth": [[int(n), float(g)] for n, g in self.growth],
            "growth_monotone": self.growth_monotone,
            "note": self.note,
        }


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

    gap_s = spectrum(s_op).min_abs_real
    gap_t = spectrum(t_op).min_abs_real
    cond_strip = bool(gap_s > 0.0 and gap_t > 0.0)
    if cond_strip:
        n_pts = 40
        t_grid = 1j * np.logspace(1, 3, n_pts)
        grid = np.concatenate([-t_grid[::-1], t_grid])
        _, exponent = resolvent_diff_decay(s_op, t_op, grid, fit_window=(10.0, 1e3))
        cond_decay = bool(exponent > 1.0)
    else:  # pragma: no cover - positive diagonal always has a gap
        exponent, cond_decay = float("nan"), False
    conditions = {
        "strip_in_both_resolvent_sets": cond_strip,
        "difference_decay_exponent_above_1": cond_decay,
        "difference_decay_exponent": float(exponent),
        "dense_squared_domain_intersection": True,  # vacuous at finite dimension
    }

    try:
        oracle_projection(t_op)
        t_dichotomous = True
    except NearSpectrumError:  # pragma: no cover - positive spectrum
        t_dichotomous = False

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
        t_dichotomous_by_oracle=t_dichotomous,
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
            "fitted_diff_exponent": json_safe_float(self.fitted_diff_exponent),
            "subordination_c": self.subordination[0],
            "subordination_p": self.subordination[1],
            "corollary_verdict": self.corollary_verdict,
            "predicted_exponent": json_safe_float(self.predicted_exponent),
            "delta_residual": self.delta_residual,
            "n_diff_samples": len(self.diff_samples),
        }

    def diff_samples_csv(self) -> str:
        lines = ["re_lambda,im_lambda,diff_norm"]
        for lam, nrm in self.diff_samples:
            lines.append(f"{lam.real!r},{lam.imag!r},{nrm!r}")
        return "\n".join(lines) + "\n"


def perturb_pair_report(
    s_op: Operator,
    r: np.ndarray,
    grid=None,
    spec: ContourSpec | None = None,
    beta: float | None = None,
    fit_window: tuple[float, float] = (10.0, 1e4),
    subordination_samples=None,
) -> PerturbReport:
    """Run the full perturbation diagnosis for T = S + R.

    ``beta`` is the axis-decay exponent of S (fitted upstream); without it
    the exponent arithmetic is reported as not-applicable.
    """
    r = np.asarray(r, dtype=complex)
    if r.shape != (s_op.dim, s_op.dim):
        raise OperatorError("R must have the same shape as S")
    t_op = Operator(entries=s_op.entries + r)
    if grid is None:
        t_vals = np.logspace(0, np.log10(max(fit_window[1], 10.0)), 128)
        grid = np.concatenate([-1j * t_vals[::-1], 1j * t_vals])
    samples, exponent = resolvent_diff_decay(s_op, t_op, grid, fit_window=fit_window)
    if subordination_samples is None:
        subordination_samples = list(np.eye(s_op.dim, dtype=complex).T)
    c_fit, p_fit = p_subordination_fit(s_op, r, subordination_samples)
    if beta is None:
        verdict, predicted = "not-applicable", float("nan")
    else:
        v = corollary_check(beta, p_fit)
        verdict, predicted = ("pass" if v.passed else "fail"), v.predicted_exponent
    delta = projection_diff_integral(s_op, t_op, spec)
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
