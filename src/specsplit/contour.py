"""Vertical-line and imaginary-axis resolvent integrals with bounded tails.

The integrals all have the shape  (1/2*pi*i) * integral of  w(lambda) *
(S - lambda)^{-1} d(lambda)  along a vertical line Re(lambda) = +-h (or the
imaginary axis), with weights w = 1/lambda^2, 1/lambda, 1, or the rational
weight of the auxiliary half-plane resolvent.  Parameterising lambda = x0 + it
turns them into integrals over t in (-inf, inf) which are truncated at
|t| <= T and evaluated by composite Gauss-Kronrod panels.

Node layout.  Panel breakpoints are dyadic in t (0, h, 2h, 4h, ..., T): the
integrands vary on the scale of |lambda|, so log-spaced panels resolve both
the near field and the algebraic tails with O(log(T/h)) panels.  The line is
mapped by t = h*tan(theta), where the integrand is analytic and slowly
varying, and every panel carries the 15 nodes in theta of the Kronrod
extension of the 7-point Gauss rule (Piessens et al., QUADPACK, 1983).

Error control.  One driver, :func:`_line_integrals`, evaluates every
integral.  It takes one line and, per integral wanted on it, one description
(c, k, poles) of the weight w = c lambda^{-k} prod_p (lambda - p)^{-1}
(:func:`_weight`), from which its node coefficients, far field and remainder
follow, so a line is solved once for all of them: ``analysis.split`` puts
A_+ (and B_+) on Re lambda = +h, and A_-, R_-(-2h) (and B_-) on Re lambda =
-h.  It checks the strip, derives the height and returns one ``QuadResult``
per integral.  A panel's value is its Kronrod sum and its estimate the
Kronrod minus the embedded Gauss sum, from the same solves; the estimate of a
set is the spectral norm of the sum over the panels.  While some set misses
tol, the panels whose Frobenius estimate exceeds their share tol * width /
(line width) in theta for some set are bisected, and only the halves are
solved again, at most 6 times.  Such a panel exists whenever the test fails,
since the shares sum to tol and the spectral norm of a sum is at most the sum
of the Frobenius norms.  Beyond |t| = T the resolvent is R = -sum_{k<K} S^k
lambda^{-k-1} + R (S/lambda)^K, K = 24: the polynomial is integrated exactly
(:func:`_far_moments`, by the panels' 15-point rule on both halves of
u = T/|t| in (0, 1]) and added to the value, and the remainder is bounded in
closed form through ||R(lambda)|| <= 1/(|lambda| - ||S||) (Kato, Perturbation
Theory, I-5), for T >= 2 max(||S||, |p|) (:func:`_neumann_tail`); a pair's
remainder is the sum of both operators'.  T_eff is the smallest dyadic
height, at least 10 h, at which every remainder on the line is at most tol;
where none is (c ||S||^K overflows, or the 256 heights tried stay below 2
max(||S||, |p|)), :class:`TruncationError` names the cause.  For
||S|| >= 1 the first height with a finite bound holds A's remainder to
3.65e-10 / ||S||^2 and that of R_-(-2h) to 7e-11 / T, so targets scaled by
what they feed (P = S^2 A, (S - z) R_-(z)) would differ only below tol 4e-10.
``QuadResult`` reports T_eff, the remainder as ``tail_bound``, and as
``est_error`` the quadrature estimate of the integral's own set plus the
remainder plus dim * eps * kappa * ||value||, which the estimate cannot see:
the rounding of the back-transforms, inner products of length at most dim
(Higham, Accuracy and Stability, 3.1 and 3.5).  From Schur coordinates that
is dim * eps * ||value||.  Where the kernel decouples a block's panel sums
as Z Y F Y^{-1} Z^H (operators, "Decoupled panel sums"), the products with
Z Y and Y^{-1} Z^H round at most about dim * eps ||Y|| ||F|| ||Y^{-1}||; on
the single eigenvalues F holds the f(t_jj), eigenvalues of the value and so
at most ||value||, whence the factor kappa = ||Y|| ||Y^{-1}||, the largest
over the decoupled blocks, 1 where every block stays whole.  The F that
a chunk sums over its panels before its one transform is that of its part of
the value, so the bound holds for it.  On random_gap_operator(d, 7), d = 16
to 64, the term lies above the sums' deviation from dense LU.  It does not
cover the rounding of the per-node solves, which grows with cond(S - lambda).
``node_count`` counts every solve on the line, in every pass and for every
integral that shares the line.

Real operators.  When the operators are real and every integral on the line
has a real c and real poles, w(conj lambda) R(conj lambda) is the complex
conjugate of w(lambda) R(lambda) in operator coordinates, so the panels
theta < 0 mirror those theta > 0 and only the latter are solved: the value
is 2 Re of the half-line sum, back-transformed, plus the far field of the
whole line, and the estimate ||2 Re E||, E the half-line estimate.  A panel
and its mirror have the same Frobenius estimate (unitarily invariant, and
||conj E|| = ||E||), so the panels open as on the whole line, against the
same shares of tol, and with every panel closed ||2 Re E|| <= tol still.
``node_count`` then counts half the nodes.  A complex operator or weight
(R_-(z) for a non-real z) takes the whole line; the lines Re lambda = +h and
-h are always solved apart.

Spectral clearance.  :func:`default_contour` places the lines at h = gap / 2,
the gap taken over one operator or a pair.  A line Re lambda = +-h needs
h <= 0.95 * gap, which the driver checks once before its nodes are solved;
every node then lies at least 0.05 * gap from the spectrum (on the principal
value's axis, at least the gap).  Grid sweeps skip the points near the
spectrum with a warning; explicit points near it are refused.

Node evaluations go through the resolvent kernel of
:mod:`specsplit.operators` (``_Kernel``): per chunk, the closed and the open
panels' sums and norms are taken per diagonal block in Schur coordinates, a
decoupled block's in decoupled ones (norms from cached Gram matrices, sums
back-transformed once per chunk and panel group).  Open sums are dropped once
their halves are solved; totals and far field go back once per integral, for
a pair before R_S - R_T.  The reductions are ordered sums: deterministic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NearSpectrumError, QuadratureError, TruncationError
from .operators import (
    _MACHINE_EPS,
    Operator,
    _Kernel,
    _spectral_gap,
    _stack_norms,
    operator_norm,
)

__all__ = [
    "ContourSpec",
    "QuadResult",
    "default_contour",
    "integrate_A",
    "integrate_B",
    "pv_axis_integral",
    "r_minus",
    "line_nodes",
]

@dataclass(frozen=True)
class ContourSpec:
    """Vertical integration lines and their tolerance.

    ``h`` is the line abscissa (the integrals of a side run along
    Re lambda = +h or -h, oriented upward), ``tol`` the absolute tolerance
    budget for matrix entries, from which every line derives its truncation
    height (see the module docstring).
    """

    h: float
    tol: float = 1e-8

    def __post_init__(self):
        for name in ("h", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0:
            raise ValueError(f"contour abscissa h must be positive, got {self.h}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    to_json_dict = dataclasses.asdict


@dataclass(frozen=True)
class QuadResult:
    """Value of a contour integral with its error bookkeeping and the
    truncation height ``t_eff`` it was integrated to.  ``node_count`` is the
    number of solves on the line, half its nodes where a real operator and
    real weights fold it (see "Real operators" in the module docstring)."""

    value: np.ndarray
    tail_bound: float
    node_count: int
    est_error: float
    t_eff: float

    def summary(self) -> dict:
        return {
            "tail_bound": self.tail_bound,
            "node_count": self.node_count,
            "est_error": self.est_error,
            "t_eff": self.t_eff,
        }


def default_contour(*ops: Operator, **overrides) -> ContourSpec:
    """Contour at ``h = gap / 2`` of one operator or a pair; ``overrides`` may set ``tol``."""
    return ContourSpec(h=0.5 * _spectral_gap(*ops), **overrides)


# ---------------------------------------------------------------------------
# node generation
# ---------------------------------------------------------------------------

# The abscissae that extend the 7-point Gauss rule to the 15-point Kronrod
# rule (QUADPACK qk15, Piessens et al. 1983).
_KRONROD_ABSCISSAE = (
    0.991455371120812639, 0.864864423359769073, 0.586087235467691130, 0.207784955007898468
)


def _kronrod_rule():
    """The 15 nodes on [-1, 1], increasing, with the Kronrod weights, which
    make the rule exact on the Legendre polynomials up to degree 14, and the
    weights of the embedded Gauss rule (zero on the Kronrod abscissae)."""
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(7)
    x = np.concatenate([gauss_x, np.negative(_KRONROD_ABSCISSAE), _KRONROD_ABSCISSAE])
    order = np.argsort(x)
    moments = np.eye(x.size)[0] * 2.0  # the integrals of P_0, ..., P_14
    weights = np.linalg.solve(np.polynomial.legendre.legvander(x[order], 14).T, moments)
    return x[order], weights, np.concatenate([gauss_w, np.zeros(8)])[order]


_NODES, _WEIGHTS, _GAUSS_WEIGHTS = _kronrod_rule()
# a node's weight in the Kronrod-minus-Gauss estimate, relative to its weight
_ESTIMATE_RATIO = 1.0 - _GAUSS_WEIGHTS / _WEIGHTS
_MAX_BISECTIONS = 6
# the terms of the Neumann polynomial integrated exactly over |t| > T_eff
_NEUMANN_TERMS = 24


# the far field's nodes and weights in u = T/|t|: the panel rule on both
# halves of (0, 1]
_FAR_NODES = np.concatenate([0.25 + 0.25 * _NODES, 0.75 + 0.25 * _NODES])
_FAR_WEIGHTS = 0.25 * np.tile(_WEIGHTS, 2)


def _dyadic_breaks(scale: float, t_max: float) -> np.ndarray:
    """0, scale, 2*scale, 4*scale, ... up to the first dyadic point >= t_max."""
    k = max(0, int(np.ceil(np.log2(t_max / scale))))
    return np.concatenate([[0.0], scale * 2.0 ** np.arange(0, k + 1)])


def _line_panels(scale: float, t_max: float):
    """Panel edges of the whole line in theta, where t = scale*tan(theta)
    carries the nodes, increasing, and the effective truncation ``t_eff``."""
    breaks = _dyadic_breaks(scale, t_max)
    theta = np.arctan(breaks / scale)
    return np.concatenate([-theta[:0:-1], theta]), float(breaks[-1])


def line_nodes(scale: float, t_max: float, q: int, panels=None):
    """Symmetric quadrature nodes/weights for integral over t in [-T_eff, T_eff].

    Returns ``(t, w, t_eff)`` with ``t_eff = scale * 2^K >= t_max`` the
    effective truncation (panel boundaries are kept exactly dyadic so that
    prefix truncations remain exact sub-sums).  ``panels`` is a pair (lo, hi)
    of panel edges in theta (the dyadic panels of the whole line by default);
    each panel contributes the ``q = 15`` nodes of the Kronrod rule, in
    increasing t, with their Kronrod weights.
    """
    if q != _NODES.size:
        raise ValueError(f"a panel carries the {_NODES.size} Kronrod nodes, got q={q}")
    edges, t_eff = _line_panels(scale, t_max)
    lo, hi = (edges[:-1], edges[1:]) if panels is None else panels
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    weights = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return scale * np.tan(nodes), scale / np.cos(nodes) ** 2 * weights, t_eff


# ---------------------------------------------------------------------------
# the quadrature driver
# ---------------------------------------------------------------------------


def _weight(c: complex, k: int, poles=()):
    """The weight  lambda -> c / (lambda^k prod_p (lambda - p))  of an integral."""
    return lambda lam: c / (lam**k * np.prod([lam - p for p in poles], axis=0))


def _far_moments(weights, x0: float, t_eff: float) -> np.ndarray:
    """mu[i, k] = T^k (1/2*pi) * integral over |t| > T of w_i(lambda)
    lambda^{-k-1} dt, lambda = x0 + it, so that integral i has the far field
    -sum_k mu[i, k] (S/T)^k.  In u = T/|t| both half-lines give one integrand
    u^{-2} sum_+- w(lambda) (T/lambda)^{k+1} on (0, 1], whose 1/u terms cancel
    at k = 0; for T >= 10 |x0| and T >= 2 |p|, p over the poles of w, it is
    analytic for |u| < 5/3, and the 15-point Kronrod rule on each half of
    (0, 1] is exact to rounding."""
    u = _FAR_NODES
    lam = x0 + 1j * t_eff / np.concatenate([u, -u])  # both half-lines
    w = np.tile(_FAR_WEIGHTS / u**2, 2) / (2.0 * np.pi)
    powers = (t_eff / lam)[:, None] ** np.arange(1, _NEUMANN_TERMS + 1)
    return np.array([(w * weight(lam)) @ powers for weight in weights])


def _line_integrals(ops, x0: float, integrals, spec: ContourSpec, scale=None) -> list:
    """Integrals (1/2*pi) * integral of w(lambda) R(lambda) dt over the line
    Re lambda = x0 (see "Error control"), one :class:`QuadResult` per entry
    (c, k, poles) of ``integrals``, with weight :func:`_weight` and remainder
    :func:`_neumann_tail` of (|c| ||S||^K, k + K, |poles|); R is the
    resolvent of ``ops[0]``, or R_S - R_T when ``ops`` is a pair (S, T)."""
    gap = _spectral_gap(*ops)
    if abs(x0) > 0.95 * gap:
        raise NearSpectrumError(
            f"contour abscissa h={abs(x0)} exceeds 0.95 * spectral gap ({0.95 * gap:.6g})",
            distance=float(gap - abs(x0)),
        )
    scale = spec.h if scale is None else scale
    heights = _dyadic_breaks(scale, 10.0 * spec.h)[-1] * 2.0 ** np.arange(256)
    big_k, norms = _NEUMANN_TERMS, [np.float64(operator_norm(op)) for op in ops]
    with np.errstate(over="ignore"):  # ||S||^K beyond the float range leaves no bound
        tails = np.array([sum(
            _neumann_tail(norm, heights, abs(c) * norm**big_k, k + big_k, [abs(p) for p in poles])
            for norm in norms) for c, k, poles in integrals])
        overflow = np.isinf(max(abs(c) for c, _, _ in integrals) * max(norms) ** big_k)
    meets = np.all(tails <= spec.tol, axis=0)
    if not meets.any():
        cause, low = "", 2.0 * max([*norms, *(abs(p) for _, _, poles in integrals for p in poles)])
        if overflow:  # then that remainder is inf at every height
            cause = f": ||S|| = {max(norms):.3e}, whose {big_k}th power leaves the float range"
        elif heights[-1] < low:  # so is every remainder below 2 max(||S||, |p|)
            cause = (f": the {heights.size} dyadic heights from 10h end at {heights[-1]:.3e}, below 2 max("
                     f"||S||, |p|) = {low:.3e} (h = {spec.h:.3e}, ||S|| = {max(norms):.3e})")
        raise TruncationError(f"no truncation height meets tol={spec.tol:.2e}{cause}")
    j = int(np.argmax(meets))
    t_eff, tails = float(heights[j]), [float(tail) for tail in tails[:, j]]

    kernel = _Kernel(ops)
    edges, _ = _line_panels(scale, t_eff)
    lo, hi = edges[:-1], edges[1:]
    n, q, dim = len(integrals), _NODES.size, ops[0].dim
    closed = kernel.zeros(2 * n)  # the values, then the estimates, of the closed panels
    weights = [_weight(*integral) for integral in integrals]
    far = kernel.neumann(_far_moments(weights, x0, t_eff), t_eff)
    # real operators and weights: the panels theta < 0 are the complex
    # conjugates of those theta > 0 in operator coordinates (see "Real operators")
    fold = kernel.real and all(np.isreal([c, *poles]).all() for c, _, poles in integrals)
    if fold:
        lo, hi = lo[lo >= 0], hi[lo >= 0]
        far = kernel.operator(far)
    else:
        for acc, f in zip(closed, far):
            acc[:n] += f
    node_count = 0
    for _ in range(_MAX_BISECTIONS + 1):
        t, w = line_nodes(scale, t_eff, q, (lo, hi))[:2]
        lams = x0 + 1j * t
        node_count += lams.size
        coefs = np.array([w * weight(lams) / (2.0 * np.pi) for weight in weights])
        coefs = np.concatenate([coefs, coefs * np.tile(_ESTIMATE_RATIO, lo.size)])
        share = spec.tol * (hi - lo) / (edges[-1] - edges[0])
        still_open, is_open = kernel.zeros(2 * n), np.zeros(lo.size, dtype=bool)
        for nodes in kernel.chunks(lams.size, q):
            p = slice(nodes.start // q, nodes.stop // q)
            sums, is_open[p] = kernel.totals(lams[nodes], coefs[:, nodes], q, share[p])
            for acc, chunk in zip((closed, still_open), sums):
                for a, b in zip(acc, chunk):
                    a += b
        totals = [c + o for c, o in zip(closed, still_open)]
        if fold:  # 2 Re of the half line, plus the far field of the whole line
            totals = [t + t.conj() for t in kernel.operator(totals)]
            for total, f in zip(totals, far):
                total[:n] += f
        est = _stack_norms([t[n:] for t in totals], spectral=True)
        # the shares of the panels sum to tol, so with every panel closed the
        # estimate is below tol up to rounding
        if np.all(est <= spec.tol) or not is_open.any():
            rounding = dim * _MACHINE_EPS * kernel.kappa * _stack_norms([t[:n] for t in totals], spectral=True)
            values = [[t[i] for t in totals] for i in range(n)]
            if not fold:
                values = [kernel.operator(value) for value in values]
            return [
                QuadResult(
                    kernel.dense(value, np.zeros((dim, dim), complex)),
                    tails[i],
                    node_count,
                    float(est[i] + rounding[i]) + tails[i],
                    t_eff,
                )
                for i, value in enumerate(values)
            ]
        mid = 0.5 * (lo + hi)[is_open]
        lo = np.stack([lo[is_open], mid], axis=1).ravel()
        hi = np.stack([mid, hi[is_open]], axis=1).ravel()
    raise QuadratureError(
        f"quadrature on Re lambda = {x0:.6g} did not reach tol={spec.tol:.2e} after "
        f"{_MAX_BISECTIONS} bisections (estimate {est.max():.2e})"
    )


def _neumann_tail(norm: float, t_eff, c: float, k: float, poles=()):
    """Bound of  (1/pi) * integral over t > T of  c t^{-k} prod_p 1/(t - p)
    ||R(x0 + it)|| dt,  R the resolvent of an operator S of norm ``norm``,
    with |lambda| >= t and ||R|| <= 1/(|lambda| - ||S||): by t/(t - sigma) <=
    T/(T - sigma), sigma over ||S|| and the poles, it is  c prod_sigma
    T/(T - sigma) / (pi n T^n),  n = k + #sigma - 1, taken in logarithms;
    inf where T < 2 max sigma.  ``t_eff`` is one height T or an array."""
    sigmas = [norm, *poles]
    low = 2.0 * max(sigmas)
    n = k + len(sigmas) - 1
    t = np.maximum(t_eff, low)
    log_tail = np.log(c / (np.pi * n)) - n * np.log(t) + sum(np.log(t / (t - s)) for s in sigmas)
    with np.errstate(over="ignore"):
        return np.where(t_eff < low, np.inf, np.exp(log_tail))


def _side_sign(side: str) -> float:
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


# ---------------------------------------------------------------------------
# public integrals
# ---------------------------------------------------------------------------


def _side_integrals(op: Operator, side: str, spec: ContourSpec, kinds, z=None) -> dict:
    """The integrals ``kinds`` on the line Re lambda = +-h, from one driver
    call, as one :class:`QuadResult` each: "A" and "B" as :func:`integrate_A`
    and :func:`integrate_B` return them, "R" (side "-" only) that of R_-(z),
    whose pole z must lie left of the line.  Every remainder is held to tol
    (see "Error control")."""
    sgn = _side_sign(side)
    integrals = []  # per integral its (c, k, poles)
    for kind in kinds:
        if kind in ("A", "B"):
            integrals.append((sgn, 2 if kind == "A" else 1, ()))
        elif kind == "R" and side == "-":
            z = complex(z)
            if -spec.h - z.real < 1e-12 * (1.0 + abs(z)):  # the pole's distance to the line
                raise NearSpectrumError(
                    f"z={z} is on the wrong side of (or too close to) the contour "
                    f"Re lambda = -{spec.h}",
                    distance=float(abs(z.real + spec.h)),
                )
            integrals.append((z**2, 2, (z,)))
        else:
            raise ValueError(f"no integral {kind!r} on side {side!r}")
    return dict(zip(kinds, _line_integrals((op,), sgn * spec.h, integrals, spec)))


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

    The 1/lambda weight converges only through the decay of the resolvent,
    whose Neumann polynomial integrates exactly beyond T_eff.  The relation
    A_side = B_side S^{-1} ties this to :func:`integrate_A`.
    """
    return _side_integrals(op, side, spec, ("B",))["B"]


def pv_axis_integral(op: Operator, spec: ContourSpec) -> QuadResult:
    """Principal value (1/pi*i) * integral of (S-lambda)^{-1} over the whole
    imaginary axis: symmetric truncation at T plus the exact integral of the
    Neumann polynomial beyond it, whose odd powers of lambda cancel (-1/lambda
    does not converge on its own).  Equals P_+ - P_- = 2 P_+ - I whenever the
    resolvent decays on the axis."""
    return _line_integrals((op,), 0.0, [(2.0, 0, ())], spec, scale=1.0)[0]


def r_minus(op: Operator, z: complex, spec: ContourSpec) -> np.ndarray:
    """The auxiliary operator R_-(z) = (1/2*pi*i) * integral over Re lambda =
    -h of z^2 / (lambda^2 (lambda - z)) (S-lambda)^{-1} d(lambda), Re z < -h.

    Satisfies (S - z) R_-(z) = I - z^2 A_-; on the kernel of A_- it therefore
    acts as the resolvent of the restriction, extending it to the open left
    half-plane.
    """
    return _side_integrals(op, "-", spec, ("R",), z)["R"].value
