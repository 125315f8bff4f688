"""Vertical-line and imaginary-axis resolvent integrals with certified tails.

The integrals all have the shape  (1/2*pi*i) * integral of  w(lambda) *
(S - lambda)^{-1} d(lambda)  along a vertical line Re(lambda) = +-h (or the
imaginary axis), with weights w = 1/lambda^2, 1/lambda, 1, or the rational
weight of the auxiliary half-plane resolvent.  Parameterising lambda = x0 + it
turns them into integrals over t in (-inf, inf) which are truncated at
|t| <= T and evaluated by composite Gauss-Legendre panels.

Node layout.  Panel breakpoints are dyadic in t (0, h, 2h, 4h, ..., T): the
integrands vary on the scale of |lambda|, so log-spaced panels resolve both
the near field and the algebraic tails with O(log(T/h)) panels.  The default
``tangent-substitution`` scheme additionally maps t = h*tan(theta) and places
the Gauss nodes in theta, where the integrand is analytic and slowly varying;
the plain ``composite-gauss`` scheme (same breakpoints, nodes placed in t) is
kept as a structurally different cross-check.  Both schemes subdivide the
central panel further, concentrating nodes where the line passes closest to
the spectrum.

Error control.  Each integral is evaluated at the requested Gauss order and
at half that order; the difference is the quadrature error estimate, and the
order is doubled (up to 2^10) until the estimate meets the tolerance budget.
The omitted |t| > T tail is bounded rigorously from the sampled resolvent
norms: |lambda|^{-2} <= t^{-2} on the line gives tail <= M_strip/(pi*T) for
the 1/lambda^2 weight; for slower weights a fitted decay envelope
M/|lambda|^beta supplies the bound.  Quadrature estimate and tail bound are
combined into ``QuadResult.est_error``.

Node evaluations go through the resolvent kernel
:func:`specsplit.operators.resolvent_sums`: each diagonal block of the
operator (a connected component of its nonzero pattern) is reduced once to
complex Schur form, every node costs one triangular inverse per block
(vectorised over the nodes for small blocks, closed-form for blocks of order
1 and 2, one LAPACK call per node for larger blocks), and the weighted sums are
accumulated in Schur coordinates and back-transformed once per pass.  The
reduction is an ordered sum over the nodes, so results are deterministic.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearSpectrumError, QuadratureError, SlowDecayWarning, TruncationError
from .operators import (
    Operator,
    _check_points_clear,
    _schur_norms,
    eigenvalues_of,
    near_spectrum_tol,
    operator_norm,
    resolvent_sums,
    spectral_norm,
    spectrum,
)

__all__ = [
    "ContourSpec",
    "QuadResult",
    "default_contour",
    "integrate_A",
    "integrate_B",
    "pv_axis_integral",
    "r_minus",
    "contour_shift_check",
    "line_nodes",
]

_MAX_NODES_PER_UNIT = 1024
_SIDES = ("+", "-")


@dataclass(frozen=True)
class ContourSpec:
    """Vertical integration line with truncation and node budget.

    ``h`` is the line abscissa (the line is Re lambda = +h or -h depending on
    ``side``, oriented upward), ``truncation_T`` the integration height
    |Im lambda| <= T, ``nodes_per_unit`` the Gauss order per panel, ``tol``
    the absolute tolerance budget for matrix entries.
    """

    h: float
    side: str = "+"
    truncation_T: float = 1e10
    nodes_per_unit: int = 16
    scheme: str = "tangent-substitution"
    tol: float = 1e-8

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"contour abscissa h must be positive, got {self.h}")
        if self.side not in _SIDES:
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")
        if self.truncation_T < 10.0 * self.h:
            raise ValueError(
                f"truncation_T must be at least 10*h = {10 * self.h}, got {self.truncation_T}"
            )
        if not (isinstance(self.nodes_per_unit, int) and self.nodes_per_unit >= 1):
            raise ValueError(f"nodes_per_unit must be a positive integer, got {self.nodes_per_unit}")
        if self.scheme not in ("composite-gauss", "tangent-substitution"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    def to_json_dict(self) -> dict:
        return {
            "h": self.h,
            "side": self.side,
            "truncation_T": self.truncation_T,
            "nodes_per_unit": self.nodes_per_unit,
            "scheme": self.scheme,
            "tol": self.tol,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContourSpec":
        allowed = {"h", "side", "truncation_T", "nodes_per_unit", "scheme", "tol"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown contour fields {sorted(unknown)}")
        if "h" not in data:
            raise ValueError("contour spec requires 'h'")
        return cls(**data)


@dataclass(frozen=True)
class QuadResult:
    """Value of a contour integral with certified error bookkeeping."""

    value: np.ndarray
    tail_bound: float
    node_count: int
    est_error: float
    flags: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {
            "tail_bound": self.tail_bound,
            "node_count": self.node_count,
            "est_error": self.est_error,
            "flags": list(self.flags),
        }


def default_contour(op: Operator, side: str = "+", safety: float = 0.5, **overrides) -> ContourSpec:
    """Contour at ``h = safety * gap`` with the module defaults."""
    gap = spectrum(op).min_abs_real
    if gap <= 0:
        raise NearSpectrumError("spectral gap to the imaginary axis is zero", distance=0.0)
    return ContourSpec(h=safety * gap, side=side, **overrides)


# ---------------------------------------------------------------------------
# node generation
# ---------------------------------------------------------------------------

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(q: int):
    if q not in _GAUSS_CACHE:
        _GAUSS_CACHE[q] = np.polynomial.legendre.leggauss(q)
    return _GAUSS_CACHE[q]


def _panel_nodes(breaks: np.ndarray, q: int):
    x, w = _gauss(q)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _dyadic_breaks(scale: float, t_max: float) -> np.ndarray:
    """0, scale, 2*scale, 4*scale, ... up to the first dyadic point >= t_max."""
    k = max(0, int(np.ceil(np.log2(t_max / scale))))
    return np.concatenate([[0.0], scale * 2.0 ** np.arange(0, k + 1)])


def line_nodes(scale: float, t_max: float, q: int, scheme: str):
    """Symmetric quadrature nodes/weights for integral over t in [-T_eff, T_eff].

    Returns ``(t, w, t_eff)`` with ``t_eff = scale * 2^K >= t_max`` the
    effective truncation (panel boundaries are kept exactly dyadic so that
    prefix truncations remain exact sub-sums).
    """
    breaks = _dyadic_breaks(scale, t_max)
    t_eff = breaks[-1]
    if scheme == "tangent-substitution":
        theta = np.arctan(breaks / scale)
        theta = np.sort(np.concatenate([theta, theta[1] * np.array([0.125, 0.25, 0.5])]))
        th, wth = _panel_nodes(theta, q)
        t_pos = scale * np.tan(th)
        w_pos = scale / np.cos(th) ** 2 * wth
    else:
        tb = np.sort(np.concatenate([breaks, breaks[1] * np.array([0.25, 0.5])]))
        t_pos, w_pos = _panel_nodes(tb, q)
    t = np.concatenate([-t_pos[::-1], t_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    return t, w, float(t_eff)


# ---------------------------------------------------------------------------
# the quadrature engine
# ---------------------------------------------------------------------------


def _contour_node_tol(op: Operator) -> float:
    # Nodes may legitimately sit at 0.05*gap from the spectrum (h up to
    # 0.95*gap is allowed), so the rejection threshold must stay below that.
    gap = spectrum(op).min_abs_real
    base = 1e-8 * (1.0 + operator_norm(op))
    return min(base, 0.04 * gap) if gap > 0 else base


def _check_nodes_clear(op: Operator, lams: np.ndarray):
    ev = eigenvalues_of(op)
    tol = _contour_node_tol(op)
    # distance of each node to the nearest eigenvalue, computed in chunks
    chunk = max(1, 2_000_000 // max(1, len(ev)))
    for start in range(0, len(lams), chunk):
        piece = lams[start : start + chunk]
        d = np.abs(piece[:, None] - ev[None, :])
        dmin = d.min(axis=1)
        i = int(np.argmin(dmin))
        if dmin[i] <= tol:
            j = int(np.argmin(d[i]))
            raise NearSpectrumError(
                f"contour node {piece[i]} is within {dmin[i]:.3e} of eigenvalue {ev[j]}",
                eigenvalue=complex(ev[j]),
                distance=float(dmin[i]),
                tol=tol,
            )


def _line_pass(op: Operator, x0: float, weight, scale: float, t_max: float, q: int, scheme: str):
    t, w, t_eff = line_nodes(scale, t_max, q, scheme)
    lams = x0 + 1j * t
    _check_nodes_clear(op, lams)
    coefs = w * weight(lams) / (2.0 * np.pi)
    (value,), fro = resolvent_sums(op, lams, [coefs])
    return value, lams, fro, t_eff, len(t)


def _escalate(op: Operator, x0: float, weight, spec: ContourSpec, scale: float | None = None):
    """Run a line integral with order doubling until the quadrature error
    estimate meets ``spec.tol``."""
    scale = spec.h if scale is None else scale
    q = spec.nodes_per_unit
    v_prev, *_ = _line_pass(op, x0, weight, scale, spec.truncation_T, max(1, q // 2), spec.scheme)
    while True:
        value, lams, fro, t_eff, count = _line_pass(
            op, x0, weight, scale, spec.truncation_T, q, spec.scheme
        )
        est_quad = spectral_norm(value - v_prev)
        if est_quad <= spec.tol or q >= _MAX_NODES_PER_UNIT:
            break
        v_prev, q = value, 2 * q
    if est_quad > spec.tol:
        raise QuadratureError(
            f"quadrature did not reach tol={spec.tol:.2e} at {_MAX_NODES_PER_UNIT} "
            f"nodes per panel (estimate {est_quad:.2e})"
        )
    return value, est_quad, lams, fro, t_eff, count


def _decay_fit(abs_lams: np.ndarray, norms: np.ndarray, lo: float, hi: float):
    """Least-squares fit  log||R|| ~ log M - beta * log|lambda|  on a window,
    with the constant bumped to an envelope (M/|lambda|^beta >= samples)."""
    mask = (abs_lams >= lo) & (abs_lams <= hi) & (norms > 0)
    if mask.sum() < 4:
        mask = norms > 0
    x = np.log(abs_lams[mask])
    y = np.log(norms[mask])
    design = np.vstack([np.ones(x.size), -x]).T
    (log_m, beta), *_ = np.linalg.lstsq(design, y, rcond=None)
    log_m_env = float(np.max(y + beta * x))
    return float(beta), float(np.exp(log_m_env))


def _line_decay_exponent(op: Operator, x0: float, t_max: float, n_samples: int = 40) -> float:
    """Operator-norm decay exponent along the line, fitted on a log-spaced
    subsample clear of the near field (|t| >= 10 |x0|)."""
    from .operators import resolvent_norms

    lo = max(10.0 * abs(x0), 1e-2)
    if lo >= t_max:  # pragma: no cover - guarded by truncation_T >= 10 h
        lo = t_max / 10.0
    t = np.logspace(np.log10(lo), np.log10(t_max), n_samples)
    lams = np.concatenate([x0 - 1j * t[::-1], x0 + 1j * t])
    norms = resolvent_norms(op, lams)
    beta, _ = _decay_fit(np.abs(lams), norms, 0.0, np.inf)
    return beta


def _check_contour_admissible(op: Operator, spec: ContourSpec):
    gap = spectrum(op).min_abs_real
    if gap <= 0:
        raise NearSpectrumError("spectral gap to the imaginary axis is zero", distance=0.0)
    if spec.h > 0.95 * gap:
        raise NearSpectrumError(
            f"contour abscissa h={spec.h} exceeds 0.95 * spectral gap ({0.95 * gap:.6g})",
            distance=float(gap - spec.h),
        )


def _side_sign(side: str) -> float:
    if side not in _SIDES:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


# ---------------------------------------------------------------------------
# public integrals
# ---------------------------------------------------------------------------


def integrate_A(op: Operator, side: str, spec: ContourSpec) -> QuadResult:
    """A_side = +-(1/2*pi*i) * integral of lambda^{-2} (S-lambda)^{-1} along
    Re lambda = +-h.

    The two values are complementary in the sense A_+ + A_- = S^{-2}; their
    ranges span the invariant subspaces, and S^2 A_+- are the half-plane
    spectral projections.
    """
    _check_contour_admissible(op, spec)
    sgn = _side_sign(side)
    value, est_quad, lams, fro, t_eff, count = _escalate(
        op, sgn * spec.h, lambda lam: 1.0 / lam**2, spec
    )
    m_strip = float(fro.max())
    tail = m_strip / (np.pi * t_eff)
    if tail > spec.tol:
        raise TruncationError(
            f"tail bound {tail:.2e} exceeds tol={spec.tol:.2e}; increase T "
            f"(currently T_eff={t_eff:.3g})"
        )
    return QuadResult(
        value=sgn * value,
        tail_bound=tail,
        node_count=count,
        est_error=est_quad + tail,
    )


def integrate_B(op: Operator, side: str, spec: ContourSpec) -> QuadResult:
    """B_side = +-(1/2*pi*i) * integral of lambda^{-1} (S-lambda)^{-1} along
    Re lambda = +-h.

    The 1/lambda weight converges only through resolvent decay on the line,
    so a decay exponent is fitted from the sampled norms; a fitted beta at or
    below 0.1 triggers a slow-decay warning.  The relation A_side = B_side
    S^{-1} ties this to :func:`integrate_A`.
    """
    _check_contour_admissible(op, spec)
    sgn = _side_sign(side)
    value, est_quad, lams, fro, t_eff, count = _escalate(
        op, sgn * spec.h, lambda lam: 1.0 / lam, spec
    )
    abs_lams = np.abs(lams)
    beta_line = _line_decay_exponent(op, sgn * spec.h, t_eff)
    if beta_line <= 1e-6:
        raise QuadratureError(
            f"no resolvent decay on the line (fitted beta {beta_line:.3g}); "
            "the 1/lambda-weighted integral may diverge"
        )
    if beta_line <= 0.1:
        warnings.warn(
            f"slow resolvent decay on the line (fitted beta {beta_line:.3g})",
            SlowDecayWarning,
            stacklevel=2,
        )
    # envelope fitted on the asymptotic part of the line, used beyond T_eff
    beta_tail, m_env = _decay_fit(abs_lams, fro, t_eff**0.4, t_eff)
    if beta_tail <= 1e-6:
        raise QuadratureError(
            f"no asymptotic resolvent decay on the line (fitted beta {beta_tail:.3g})"
        )
    tail = m_env / (np.pi * beta_tail * t_eff**beta_tail)
    if tail > spec.tol:
        raise TruncationError(
            f"tail bound {tail:.2e} exceeds tol={spec.tol:.2e}; increase T"
        )
    return QuadResult(
        value=sgn * value,
        tail_bound=tail,
        node_count=count,
        est_error=est_quad + tail,
    )


def pv_axis_integral(op: Operator, spec: ContourSpec) -> QuadResult:
    """Principal value (1/pi*i) * integral of (S-lambda)^{-1} over the whole
    imaginary axis, realised as symmetric truncation plus Richardson
    extrapolation over (T/2, T).

    Equals P_+ - P_- = 2 P_+ - I whenever the resolvent decays on the axis.
    The odd leading term of the resolvent cancels under symmetric truncation
    and the remaining tail is ~ c/T, which the two-point Richardson
    combination removes; failure of the truncations to converge is reported
    through a ``pv-nonconvergent`` flag rather than silently extrapolated.
    """
    gap = spectrum(op).min_abs_real
    if gap <= 0:
        raise NearSpectrumError("imaginary axis touches the spectrum", distance=0.0)
    scale = 1.0
    q = spec.nodes_per_unit

    def richardson_pass(order: int):
        t, w, t_eff = line_nodes(scale, spec.truncation_T, order, spec.scheme)
        lams = 1j * t
        _check_nodes_clear(op, lams)
        base = w / np.pi
        masks = [np.abs(t) <= t_eff / 4.0, np.abs(t) <= t_eff / 2.0, np.ones_like(t, bool)]
        coef_sets = [np.where(m, base, 0.0) for m in masks]
        (i_quarter, i_half, i_full), fro = resolvent_sums(op, lams, coef_sets)
        return (i_quarter, i_half, i_full), lams, fro, t_eff, len(t)

    prev_parts = richardson_pass(max(1, q // 2))[0]
    while True:
        parts, lams, fro, t_eff, count = richardson_pass(q)
        i_quarter, i_half, i_full = parts
        value = 2.0 * i_full - i_half
        prev_value = 2.0 * prev_parts[2] - prev_parts[1]
        est_quad = spectral_norm(value - prev_value)
        if est_quad <= spec.tol or q >= _MAX_NODES_PER_UNIT:
            break
        prev_parts, q = parts, 2 * q
    if est_quad > spec.tol:
        raise QuadratureError(
            f"principal-value quadrature did not reach tol={spec.tol:.2e}"
        )

    flags = []
    step_outer = spectral_norm(i_full - i_half)  # I(T) - I(T/2)
    step_inner = spectral_norm(i_half - i_quarter)  # I(T/2) - I(T/4)
    if step_outer > 1.05 * step_inner and step_outer > spec.tol:
        flags.append("pv-nonconvergent")

    # symmetrised tail: || R(it) + (it)^{-1} || decays ~ ||S||/t^2 because the
    # odd leading resolvent term cancels; fit an envelope on a subsample of
    # the asymptotic axis and bound the Richardson value's truncation error
    # by 3x the T/2 tail.
    t_lo = max(t_eff**0.4, 10.0 * scale)
    if t_lo < t_eff / 2.0:
        t_s = np.logspace(np.log10(t_lo), np.log10(t_eff), 40)
        sym = _symmetrised_norms(op, 1j * t_s)
        gamma, m_env = _decay_fit(t_s, sym, t_lo, t_eff)
    else:  # pragma: no cover - tiny truncations
        gamma, m_env = 1.5, float(fro.max())
    if gamma > 1.0:
        tail = 3.0 * m_env / (np.pi * (gamma - 1.0) * (t_eff / 2.0) ** (gamma - 1.0))
    else:
        tail = float("inf")
        flags.append("pv-nonconvergent")
    richardson_resid = spectral_norm(value - (2.0 * i_half - i_quarter))
    est_error = est_quad + min(tail, richardson_resid + step_outer)
    return QuadResult(
        value=value,
        tail_bound=tail,
        node_count=count,
        est_error=est_error,
        flags=tuple(dict.fromkeys(flags)),
    )


def _symmetrised_norms(op: Operator, lams: np.ndarray) -> np.ndarray:
    """Frobenius norms of R(lambda) + lambda^{-1} I (an upper bound of the
    operator norm, so envelopes fitted on it stay upper bounds)."""
    _check_points_clear(op, lams, near_spectrum_tol(op))
    return _schur_norms(op, lams, spectral=False, shift=1.0 / lams)


def r_minus(op: Operator, z: complex, a_minus: np.ndarray, spec: ContourSpec) -> np.ndarray:
    """The auxiliary operator R_-(z) = (1/2*pi*i) * integral over Re lambda =
    -h of z^2 / (lambda^2 (lambda - z)) (S-lambda)^{-1} d(lambda), Re z < -h.

    Satisfies (S - z) R_-(z) = I - z^2 A_-; on the kernel of A_- it therefore
    acts as the resolvent of the restriction, extending it to the open left
    half-plane.
    """
    _check_contour_admissible(op, spec)
    z = complex(z)
    margin = -spec.h - z.real  # distance of the pole z to the contour line
    if margin < max(spec.tol, 1e-12):
        raise NearSpectrumError(
            f"z={z} is on the wrong side of (or too close to) the contour "
            f"Re lambda = -{spec.h}",
            distance=float(abs(z.real + spec.h)),
        )
    if spec.truncation_T < 2.0 * abs(z):
        raise TruncationError(
            f"truncation_T={spec.truncation_T} too small for |z|={abs(z):.3g}; increase T"
        )
    a_minus = np.asarray(a_minus, dtype=complex)
    if a_minus.shape != (op.dim, op.dim):
        raise ValueError("A_minus has the wrong shape")

    def weight(lam):
        return z**2 / (lam**2 * (lam - z))

    value, est_quad, lams, fro, t_eff, count = _escalate(op, -spec.h, weight, spec)
    tail = float(fro.max()) * abs(z) ** 2 / (np.pi * t_eff**2)
    if tail > spec.tol * max(1.0, abs(z) ** 2):
        raise TruncationError(
            f"R_-(z) tail bound {tail:.2e} above budget; increase T"
        )
    return value


def contour_shift_check(
    op: Operator, h1: float, h2: float, side: str, spec: ContourSpec | None = None
) -> float:
    """||A_side(h1) - A_side(h2)||: by Cauchy's theorem the integral does not
    depend on the abscissa while the strip stays in the resolvent set, so the
    value must be bounded by the combined error estimates."""
    base = spec if spec is not None else default_contour(op, side=side)
    r1 = integrate_A(op, side, dataclasses.replace(base, h=h1))
    r2 = integrate_A(op, side, dataclasses.replace(base, h=h2))
    return spectral_norm(r1.value - r2.value)
