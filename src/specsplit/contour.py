"""Vertical-line and imaginary-axis resolvent integrals with bounded tails.

The integrals all have the shape  (1/2*pi*i) * integral of  w(lambda) *
(S - lambda)^{-1} d(lambda)  along a vertical line Re(lambda) = +-h (or the
imaginary axis), with weights w = 1/lambda^2, 1/lambda, 1, or the rational
weight of the auxiliary half-plane resolvent.  Parameterising lambda = x0 + it
turns them into integrals over t in (-inf, inf) which are truncated at
|t| <= T and evaluated by composite Gauss-Legendre panels.

Node layout.  Panel breakpoints are dyadic in t (0, h, 2h, 4h, ..., T): the
integrands vary on the scale of |lambda|, so log-spaced panels resolve both
the near field and the algebraic tails with O(log(T/h)) panels.  The line is
mapped by t = h*tan(theta) and the Gauss nodes are placed in theta, where the
integrand is analytic and slowly varying; the central panel is subdivided
further, concentrating nodes where the line passes closest to the spectrum.

Error control.  One driver evaluates every integral.  It takes one line and
the coefficient sets of all the integrals wanted on it, so a line is solved
once for all of them: ``analysis.split`` puts A_+ (and B_+) on Re lambda = +h,
and A_-, R_-(-2h) (and B_-) on Re lambda = -h.  Every panel is evaluated at
the Gauss order q = ``nodes_per_unit`` and at q/2.  The quadrature error
estimate of a set is the spectral norm of the sum over the panels of
I_q - I_{q/2}, each panel at its own order.  While some set misses its
tolerance, the order is doubled (up to 2^10) only on the panels whose
Frobenius difference exceeds tol/n_panels for some set; the old order becomes
their half order.  Such a panel exists whenever the test fails, since the
spectral norm of a sum is at most the sum of the Frobenius norms, and a panel
below the threshold is never refined again (per-panel refinement as in
QUADPACK, Piessens et al. 1983).  The omitted |t| > T tail is bounded by the
Neumann bound ||(S - lambda)^{-1}|| <= 1/(|lambda| - ||S||) (Kato,
Perturbation Theory, I-5), integrated in closed form against the weight, for
T >= 2 max(||S||, |z|), z the pole of R_-(z).  The default height T_eff is
the smallest dyadic one, at least 10 h, at which every tail on the line meets
the target of what its integral feeds (:func:`_side_integrals`); an explicit
``truncation_T`` is held to tol and refused (:class:`TruncationError`) below
2 max(||S||, |z|).  ``QuadResult`` reports T_eff, and its ``est_error`` is
the quadrature estimate of the integral's own set plus its tail bound;
``QuadResult.node_count`` counts every solve on the line, at every order and
for every integral that shares the line.

Spectral clearance.  A line Re lambda = +-h needs h <= 0.95 * gap, checked
once before its nodes are solved; every node then lies at least 0.05 * gap
from the spectrum (on the principal value's axis, at least the gap).  Grid
sweeps skip the points near the spectrum with a warning; explicit points
near it are refused.

Node evaluations go through the resolvent kernel of
:mod:`specsplit.operators`: each diagonal block of the operator (a connected
component of its nonzero pattern) is reduced once to complex Schur form,
every node costs one triangular inverse per block (vectorised over the nodes
for small blocks, closed-form for blocks of order 1 and 2, one LAPACK call
per node for larger blocks), and the weighted sums are accumulated per panel
in Schur coordinates, where the per-panel norms are taken too, and
back-transformed once per integral.  A pair (S, T) is reduced on the blocks
of the union of both patterns, and each panel sum is back-transformed before
the difference R_S - R_T is taken.  Only the panels still open keep their
own sums.  The reductions are ordered sums, so results are deterministic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NearSpectrumError, QuadratureError, TruncationError
from .operators import (
    Operator,
    _Kernel,
    _spectral_gap,
    _stack_norms,
    choose_h,
    operator_norm,
    spectral_norm,
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


@dataclass(frozen=True)
class ContourSpec:
    """Vertical integration lines with truncation and node budget.

    ``h`` is the line abscissa (the integrals of a side run along
    Re lambda = +h or -h, oriented upward), ``truncation_T`` the integration
    height |Im lambda| <= T, or None to derive it per line from ``tol``
    (see the module docstring), ``nodes_per_unit`` the Gauss order per panel
    (at least 2, since the error estimate compares it with half of it),
    ``tol`` the absolute tolerance budget for matrix entries.
    """

    h: float
    truncation_T: float | None = None
    nodes_per_unit: int = 16
    tol: float = 1e-8

    def __post_init__(self):
        names = ("h", "tol") if self.truncation_T is None else ("h", "truncation_T", "tol")
        for name in names:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0:
            raise ValueError(f"contour abscissa h must be positive, got {self.h}")
        if self.truncation_T is not None and self.truncation_T < 10.0 * self.h:
            raise ValueError(
                f"truncation_T must be at least 10*h = {10 * self.h}, got {self.truncation_T}"
            )
        if not (isinstance(self.nodes_per_unit, int) and self.nodes_per_unit >= 2):
            raise ValueError(f"nodes_per_unit must be an integer >= 2, got {self.nodes_per_unit}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    def to_json_dict(self) -> dict:
        return {
            "h": self.h,
            "truncation_T": self.truncation_T,
            "nodes_per_unit": self.nodes_per_unit,
            "tol": self.tol,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContourSpec":
        allowed = {"h", "truncation_T", "nodes_per_unit", "tol"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown contour fields {sorted(unknown)}")
        if "h" not in data:
            raise ValueError("contour spec requires 'h'")
        return cls(**data)


@dataclass(frozen=True)
class QuadResult:
    """Value of a contour integral with its error bookkeeping and the
    truncation height ``t_eff`` it was integrated to."""

    value: np.ndarray
    tail_bound: float
    node_count: int
    est_error: float
    t_eff: float
    flags: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {
            "tail_bound": self.tail_bound,
            "node_count": self.node_count,
            "est_error": self.est_error,
            "t_eff": self.t_eff,
            "flags": list(self.flags),
        }


def default_contour(op: Operator, safety: float = 0.5, **overrides) -> ContourSpec:
    """Contour at ``h = safety * gap`` with the module defaults."""
    return ContourSpec(h=choose_h(op, safety), **overrides)


# ---------------------------------------------------------------------------
# node generation
# ---------------------------------------------------------------------------

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(q: int):
    if q not in _GAUSS_CACHE:
        _GAUSS_CACHE[q] = np.polynomial.legendre.leggauss(q)
    return _GAUSS_CACHE[q]


def _dyadic_breaks(scale: float, t_max: float) -> np.ndarray:
    """0, scale, 2*scale, 4*scale, ... up to the first dyadic point >= t_max."""
    k = max(0, int(np.ceil(np.log2(t_max / scale))))
    return np.concatenate([[0.0], scale * 2.0 ** np.arange(0, k + 1)])


def _line_panels(scale: float, t_max: float):
    """Panel edges of the whole line in theta, where t = scale*tan(theta)
    carries the Gauss nodes, increasing, and the effective truncation
    ``t_eff``."""
    breaks = _dyadic_breaks(scale, t_max)
    theta = np.arctan(breaks / scale)
    half = np.sort(np.concatenate([theta, theta[1] * np.array([0.125, 0.25, 0.5])]))
    return np.concatenate([-half[:0:-1], half]), float(breaks[-1])


def line_nodes(scale: float, t_max: float, q: int, panels=None):
    """Symmetric quadrature nodes/weights for integral over t in [-T_eff, T_eff].

    Returns ``(t, w, t_eff)`` with ``t_eff = scale * 2^K >= t_max`` the
    effective truncation (panel boundaries are kept exactly dyadic so that
    prefix truncations remain exact sub-sums).  ``panels`` selects panels by
    their index along the line, from the bottom (all panels by default); each
    selected panel contributes ``q`` consecutive nodes, in increasing t.
    """
    edges, t_eff = _line_panels(scale, t_max)
    lo, hi = edges[:-1], edges[1:]
    if panels is not None:
        lo, hi = lo[panels], hi[panels]
    x, w = _gauss(q)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return scale * np.tan(nodes), scale / np.cos(nodes) ** 2 * weights, t_eff


# ---------------------------------------------------------------------------
# the quadrature driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Line:
    """The integrals of one driver call, one entry per coefficient set in
    ``values`` and ``est``."""

    values: list
    est: list
    node_count: int


def _line_integrals(ops, x0: float, weights, tols, spec: ContourSpec, t_eff, scale=None) -> _Line:
    """Integrals (1/2*pi) * integral of w(lambda) R(lambda) dt over the line
    Re lambda = x0, |t| <= t_eff (a dyadic height from :func:`_line_tails`),
    one per weight, with per-panel order doubling until the quadrature
    estimate of every weight meets its tolerance in ``tols`` (``inf`` lets a
    weight ride along); R is the resolvent of ``ops[0]``, or R_S - R_T when
    ``ops`` is a pair (S, T).  Callers check the line with
    :func:`_check_contour_admissible`; the nodes are not checked."""
    scale = spec.h if scale is None else scale
    kernel = _Kernel(ops)
    edges, _ = _line_panels(scale, t_eff)
    n_panels = edges.size - 1
    tols = np.asarray(tols, dtype=float)
    cuts = tols[:, None] / n_panels
    node_count = 0

    def solve(order, panels):
        nonlocal node_count
        t, w, _ = line_nodes(scale, t_eff, order, panels)
        lams = x0 + 1j * t
        node_count += lams.size
        coefs = np.array([w * weight(lams) / (2.0 * np.pi) for weight in weights])
        return lams, coefs

    q = spec.nodes_per_unit
    panels = np.arange(n_panels)  # the open panels, all at order q
    kept = None  # their sums at the previous order
    closed_hi, closed_diff = kernel.zeros(len(weights)), kernel.zeros(len(weights))
    while True:
        lams, coefs = solve(q, panels)
        if kept is None:
            half = q // 2
            lo_lams, lo_coefs = solve(half, panels)
        open_hi, open_diff = kernel.zeros(len(weights)), kernel.zeros(len(weights))
        is_open, next_kept = np.zeros(panels.size, dtype=bool), []
        batch = kernel.panels_per_batch(q)
        for first in range(0, panels.size, batch):
            p = slice(first, min(first + batch, panels.size))
            nodes = slice(p.start * q, p.stop * q)
            hi = kernel.sums(lams[nodes], coefs[:, nodes], q)
            if kept is None:
                lo_nodes = slice(p.start * half, p.stop * half)
                lo = kernel.sums(lo_lams[lo_nodes], lo_coefs[:, lo_nodes], half)
            else:
                lo = [k[:, p] for k in kept]
            diff = [h - l for h, l in zip(hi, lo)]
            mask = np.any(_stack_norms(diff, spectral=False) > cuts, axis=0)
            for acc, blocks, sel in (
                (closed_hi, hi, ~mask),
                (closed_diff, diff, ~mask),
                (open_hi, hi, mask),
                (open_diff, diff, mask),
            ):
                for a, b in zip(acc, blocks):
                    a += b[:, sel].sum(axis=1)
            is_open[p] = mask
            next_kept.append([h[:, mask] for h in hi])
        est = _stack_norms([c + o for c, o in zip(closed_diff, open_diff)], spectral=True)
        # with every panel closed the estimate is below tol up to rounding
        if np.all(est <= tols) or not is_open.any():
            totals = [c + o for c, o in zip(closed_hi, open_hi)]
            return _Line(
                values=[kernel.dense([t[i] for t in totals]) for i in range(len(weights))],
                est=[float(e) for e in est],
                node_count=node_count,
            )
        if q >= _MAX_NODES_PER_UNIT:
            worst = int(np.argmax(est / tols))
            raise QuadratureError(
                f"quadrature on Re lambda = {x0:.6g} did not reach tol={tols[worst]:.2e} at "
                f"{_MAX_NODES_PER_UNIT} nodes per panel (estimate {est[worst]:.2e})"
            )
        panels = panels[is_open]
        kept = [np.concatenate(parts, axis=1) for parts in zip(*next_kept)]
        q *= 2


def _log_log_fit(abs_lams: np.ndarray, norms: np.ndarray):
    """Least-squares fit  log(norm) ~ log M - beta * log|lambda|  on all the
    samples: beta, log M, log M_env (the smallest M_env with M_env/|lambda|^beta
    >= every sample) and the largest absolute residual in log space."""
    x = np.log(abs_lams)
    y = np.log(norms)
    design = np.vstack([np.ones(x.size), -x]).T
    (log_m, beta), *_ = np.linalg.lstsq(design, y, rcond=None)
    log_m_env = float(np.max(y + beta * x))
    resid = float(np.abs(design @ np.array([log_m, beta]) - y).max())
    return float(beta), float(log_m), log_m_env, resid


def _neumann_tail(ops, t_eff, c: float, k: float, poles=()):
    """Bound of  (1/pi) * integral over t > T of  c t^{-k} prod_p 1/(t - p)
    ||R(x0 + it)|| dt  on a vertical line, where |lambda| >= t.  R is the
    resolvent of ``ops[0]``, or R_S - R_T = R_S (T - S) R_T for a pair; by
    the Neumann series ||R_S(lambda)|| <= 1/(|lambda| - ||S||).  With sigma
    over the operator norms and the poles, t/(t - sigma) <= T/(T - sigma) for
    t >= T gives  c |T - S| prod_sigma T/(T - sigma) / (pi n T^n),
    n = k + #sigma - 1 (no |T - S| for one operator);  inf (no bound) where
    T < 2 max sigma.  ``t_eff`` is one height T, or an array of them."""
    sigmas = [operator_norm(op) for op in ops] + list(poles)
    low = 2.0 * max(sigmas)
    if len(ops) == 2:  # the Frobenius norm bounds |T - S|
        c *= float(np.linalg.norm(ops[1].entries - ops[0].entries))
    n = k + len(sigmas) - 1
    t = np.maximum(t_eff, low)
    tail = c * np.prod([t / (t - s) for s in sigmas], axis=0) / (np.pi * n * t**n)
    return np.where(t_eff < low, np.inf, tail)


def _line_tails(ops, spec: ContourSpec, scale: float, terms, at: float = 1.0):
    """The truncation height T_eff of a line and the tail bound of each of
    its integrals, before any node is solved.  ``terms`` holds per integral
    the (c, k, poles) of :func:`_neumann_tail`, the tail's target at a
    derived height and its budget at an explicit one; every tail is taken
    from ``at * T_eff``.  T_eff is a dyadic height scale * 2^j: the first
    one at or above ``spec.truncation_T``, or when that is None the first
    of the 256 from 10 h up at which every tail is at most its target.  A tail
    above its budget, or with no bound, raises :class:`TruncationError`."""
    if spec.truncation_T is not None:
        t_eff = float(_dyadic_breaks(scale, spec.truncation_T)[-1])
    else:
        heights = _dyadic_breaks(scale, 10.0 * spec.h)[-1] * 2.0 ** np.arange(256)
        meets = np.all(
            [_neumann_tail(ops, at * heights, c, k, p) <= target for c, k, p, target, _ in terms],
            axis=0,
        )
        if not meets.any():
            raise TruncationError(f"no truncation height meets tol={spec.tol:.2e}")
        t_eff = float(heights[np.argmax(meets)])
    tails = [float(_neumann_tail(ops, at * t_eff, c, k, poles)) for c, k, poles, _, _ in terms]
    for tail, (*_, budget) in zip(tails, terms):
        if np.isinf(tail):
            raise TruncationError(
                f"no tail bound from height {at * t_eff:.3g}, below twice the largest "
                "operator norm or pole; increase T"
            )
        if tail > budget:
            raise TruncationError(
                f"tail bound {tail:.2e} exceeds tol={budget:.2e}; increase T "
                f"(currently T_eff={t_eff:.3g})"
            )
    return t_eff, tails


def _check_contour_admissible(ops, spec: ContourSpec):
    """Refuse h > 0.95 * gap of ``ops``, the only check before the solves:
    every node on Re lambda = +-h then lies at least gap - h >= 0.05 * gap
    from every eigenvalue, so no node needs a check of its own."""
    gap = _spectral_gap(*ops)
    if spec.h > 0.95 * gap:
        raise NearSpectrumError(
            f"contour abscissa h={spec.h} exceeds 0.95 * spectral gap ({0.95 * gap:.6g})",
            distance=float(gap - spec.h),
        )


def _side_sign(side: str) -> float:
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


# ---------------------------------------------------------------------------
# public integrals
# ---------------------------------------------------------------------------


def _r_minus_weight(z: complex, spec: ContourSpec):
    """The weight of R_-(z), after checking that the pole z lies left of the
    line Re lambda = -h."""
    margin = -spec.h - z.real  # distance of the pole z to the contour line
    if margin < 1e-12 * (1.0 + abs(z)):
        raise NearSpectrumError(
            f"z={z} is on the wrong side of (or too close to) the contour "
            f"Re lambda = -{spec.h}",
            distance=float(abs(z.real + spec.h)),
        )
    return lambda lam: z**2 / (lam**2 * (lam - z))


def _side_integrals(
    op: Operator, side: str, spec: ContourSpec, kinds, z=None, rank_cutoff=np.inf
) -> dict:
    """The integrals ``kinds`` on the line Re lambda = +-h, from one driver
    call: "A" and "B" as :func:`integrate_A` and :func:`integrate_B` return
    them, "R" (side "-" only) the matrix R_-(z) of :func:`r_minus`.  A
    derived height holds the tail of A to min(tol, ``rank_cutoff``) /
    max(1, ||S||)^2, as A feeds P = S^2 A and its rank test; that of R_-(z)
    to tol / max(1, ||S|| + |z|), as it feeds (S - z) R_-(z); that of B to
    tol.  An explicit one holds them to tol, R_-(z)'s to tol max(1, |z|^2)."""
    _check_contour_admissible((op,), spec)
    sgn = _side_sign(side)
    x0 = sgn * spec.h
    norm = operator_norm(op)
    # per integral: its weight and its terms of _line_tails, the (c, k, poles)
    # of _neumann_tail, |z^2/(lambda^2 (lambda - z))| <= |z|^2 t^{-2}/(t - |z|),
    # then the target and the budget
    weights, terms = [], []
    for kind in kinds:
        if kind == "A":
            weights.append(lambda lam: 1.0 / lam**2)
            target = min(spec.tol, rank_cutoff) / max(1.0, norm) ** 2
            terms.append((1.0, 2, (), target, spec.tol))
        elif kind == "B":
            weights.append(lambda lam: 1.0 / lam)
            terms.append((1.0, 1, (), spec.tol, spec.tol))
        elif kind == "R" and side == "-":
            z = complex(z)
            weights.append(_r_minus_weight(z, spec))
            target = spec.tol / max(1.0, norm + abs(z))
            terms.append((abs(z) ** 2, 2, (abs(z),), target, spec.tol * max(1.0, abs(z) ** 2)))
        else:
            raise ValueError(f"no integral {kind!r} on side {side!r}")
    t_eff, tails = _line_tails((op,), spec, spec.h, terms)
    line = _line_integrals((op,), x0, weights, [spec.tol] * len(kinds), spec, t_eff)
    count = line.node_count
    return {
        kind: value if kind == "R" else QuadResult(sgn * value, tail, count, est + tail, t_eff)
        for kind, value, est, tail in zip(kinds, line.values, line.est, tails)
    }


def integrate_A(op: Operator, side: str, spec: ContourSpec) -> QuadResult:
    """A_side = +-(1/2*pi*i) * integral of lambda^{-2} (S-lambda)^{-1} along
    Re lambda = +-h.

    The two values are complementary in the sense A_+ + A_- = S^{-2}; their
    ranges span the invariant subspaces, and S^2 A_+- are the half-plane
    spectral projections.
    """
    return _side_integrals(op, side, spec, ("A",))["A"]


def integrate_B(op: Operator, side: str, spec: ContourSpec) -> QuadResult:
    """B_side = +-(1/2*pi*i) * integral of lambda^{-1} (S-lambda)^{-1} along
    Re lambda = +-h.

    The 1/lambda weight converges only through resolvent decay on the line,
    which the Neumann bound gives from T = 2 ||S|| on; an explicit
    truncation height below that is refused with :class:`TruncationError`.
    The relation A_side = B_side S^{-1} ties this to :func:`integrate_A`.
    """
    return _side_integrals(op, side, spec, ("B",))["B"]


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
    _spectral_gap(op)  # the axis then stays at least the gap from the spectrum
    scale = 1.0
    # I(inf) - I(T) = (1/pi) * integral over |t| > T of R(it) + (it)^{-1}, the
    # odd term cancelling under symmetric truncation, and R + 1/lambda =
    # -S/lambda^2 + R S^2/lambda^2.  The first term gives exactly c/T, which
    # the Richardson value 2 I(T) - I(T/2) cancels; the second, two-sided,
    # leaves at most 2 (2 tail(T)) + 2 tail(T/2) <= 6 tail(T/2), so
    # c = 6 ||S||^2 with the weight t^{-2}, taken at T/2.  An explicit height
    # does not hold it to tol: est_error takes the smaller of it and the
    # Richardson step.
    terms = [(6.0 * operator_norm(op) ** 2, 2, (), spec.tol, np.inf)]
    t_eff, (tail,) = _line_tails((op,), spec, scale, terms, at=0.5)

    def ring(lo, hi):  # I(hi) - I(lo) of the symmetric truncations
        return lambda lam: np.where((np.abs(lam.imag) > lo) & (np.abs(lam.imag) <= hi), 2.0, 0.0)

    # the Richardson value 2 I(T) - I(T/2), and the rings I(T) - I(T/2) and
    # I(T/2) - I(T/4), which ride along at the value's panel orders
    line = _line_integrals(
        (op,),
        0.0,
        [
            lambda lam: np.where(np.abs(lam.imag) <= t_eff / 2.0, 2.0, 4.0),
            ring(t_eff / 2.0, t_eff),
            ring(t_eff / 4.0, t_eff / 2.0),
        ],
        [spec.tol, np.inf, np.inf],
        spec,
        t_eff,
        scale=scale,
    )
    value, outer, inner = line.values
    est_quad = line.est[0]

    flags = []
    step_outer = spectral_norm(outer)  # I(T) - I(T/2)
    step_inner = spectral_norm(inner)  # I(T/2) - I(T/4)
    if step_outer > 1.05 * step_inner and step_outer > spec.tol:
        flags.append("pv-nonconvergent")

    # value - (2 I(T/2) - I(T/4)), the change of the Richardson value
    richardson_resid = spectral_norm(2.0 * outer - inner)
    est_error = est_quad + min(tail, richardson_resid + step_outer)
    return QuadResult(
        value=value,
        tail_bound=tail,
        node_count=line.node_count,
        est_error=est_error,
        t_eff=t_eff,
        flags=tuple(flags),
    )


def r_minus(op: Operator, z: complex, spec: ContourSpec) -> np.ndarray:
    """The auxiliary operator R_-(z) = (1/2*pi*i) * integral over Re lambda =
    -h of z^2 / (lambda^2 (lambda - z)) (S-lambda)^{-1} d(lambda), Re z < -h.

    Satisfies (S - z) R_-(z) = I - z^2 A_-; on the kernel of A_- it therefore
    acts as the resolvent of the restriction, extending it to the open left
    half-plane.
    """
    return _side_integrals(op, "-", spec, ("R",), z)["R"]


def contour_shift_check(
    op: Operator, h1: float, h2: float, side: str, spec: ContourSpec | None = None
) -> float:
    """||A_side(h1) - A_side(h2)||: by Cauchy's theorem the integral does not
    depend on the abscissa while the strip stays in the resolvent set, so the
    value must be bounded by the combined error estimates."""
    base = spec if spec is not None else default_contour(op)
    r1 = integrate_A(op, side, dataclasses.replace(base, h=h1))
    r2 = integrate_A(op, side, dataclasses.replace(base, h=h2))
    return spectral_norm(r1.value - r2.value)
