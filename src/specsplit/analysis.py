"""Assembly of the spectral splitting and its diagnostic checks.

``split`` turns the two vertical-line integrals into the half-plane
projections P_+- = S^2 A_+-, extracts orthonormal bases of the invariant
subspaces by a rank-revealing factorisation, restricts the operator to them,
and records the residual of every identity the construction is supposed to
satisfy: complementarity and idempotency of the projections, the algebra of
the A operators (sum to S^{-2}, annihilate each other, commute with the
resolvent), the containment of the restricted spectra in the open half-planes,
and the defining identity of the auxiliary R_-(z) operator.

The remaining routines probe resolvent-norm behaviour: decay-exponent fitting
on the imaginary axis, uniform bounds on half-plane grids for the restricted
operators, the weighted (sectorial) variant of those bounds, and the
parabola-shaped resolvent-set region that a decay exponent guarantees.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .contour import ContourSpec, _log_log_fit, _side_integrals, default_contour
from .errors import OperatorError, SplittingMismatchError
from .operators import (
    Operator,
    _check_points_clear,
    _clear_points,
    _Kernel,
    _spectrum_distance,
    eigenvalues_of,
    near_spectrum_tol,
    resolvent,
    spectral_norm,
    spectrum,
)

__all__ = [
    "SplitResult",
    "SweepReport",
    "split",
    "resolvent_sweep",
    "axis_grid",
    "opposite_halfplane_grid",
    "halfplane_bound_check",
    "sectoriality_report",
    "parabola_probe",
    "m_subspace",
    "block_commutant_check",
    "subspace_angle",
    "multiset_match_distance",
    "pair_identity_residuals",
    "projection_pair_residuals",
    "HalfplaneCheck",
    "SectorialityCheck",
    "ParabolaProbe",
]

_RANK_CUTOFF = 1e-8  # singular values below cutoff*sigma_max count as zero


def json_safe_float(value: float):
    """Representable float for strict-JSON payloads: NaN becomes null,
    infinities become the strings "inf"/"-inf"."""
    value = float(value)
    if np.isnan(value):
        return None
    if np.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


# ---------------------------------------------------------------------------
# small shared linear-algebra helpers
# ---------------------------------------------------------------------------


def subspace_angle(v: np.ndarray, w: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of two
    column-orthonormal matrices; pi/2 when the ranks differ.

    Computed through its sine ||(I - V V^H) W||_2, which stays accurate for
    tiny angles where the cosine formulation loses half the digits.
    """
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    if v.shape[1] != w.shape[1]:
        return float(np.pi / 2)
    if v.shape[1] == 0:
        return 0.0
    residual = w - v @ (v.conj().T @ w)
    sine = np.linalg.svd(residual, compute_uv=False).max()
    return float(np.arcsin(np.clip(sine, 0.0, 1.0)))


def orthonormal_range(m: np.ndarray, cutoff: float = _RANK_CUTOFF) -> np.ndarray:
    """Column-orthonormal basis of range(m) by singular value thresholding."""
    m = np.asarray(m, dtype=complex)
    u, sig, _ = np.linalg.svd(m, full_matrices=False)
    if sig.size == 0 or sig[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(sig > cutoff * sig[0]))
    return u[:, :rank]


def m_subspace(a_side: np.ndarray, tol: float = _RANK_CUTOFF) -> np.ndarray:
    """Orthonormal basis of the closure of range(A_side).

    At finite dimension this must coincide with the invariant-subspace basis
    of the same side whenever the projections are bounded, so the subspace
    angle against ``basis_g_plus``/``basis_g_minus`` is the natural check.
    """
    return orthonormal_range(a_side, cutoff=tol)


def multiset_match_distance(ev_a, ev_b, rel_tol_scale: float = 1.0) -> float:
    """Optimal-matching distance between two eigenvalue multisets.

    Pairs the values by a minimum-cost assignment of relative distances
    |a - b| / (1 + max(|a|, |b|)) and returns the largest matched cost;
    infinity when the multisets have different sizes.
    """
    a = np.asarray(ev_a, dtype=complex).ravel()
    b = np.asarray(ev_b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = 1.0 + np.maximum(np.abs(a)[:, None], np.abs(b)[None, :])
    cost = np.abs(a[:, None] - b[None, :]) / (rel_tol_scale * scale)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# identity residual helpers (shared with the corpus reproductions)
# ---------------------------------------------------------------------------


def pair_identity_residuals(op: Operator, a1: np.ndarray, a2: np.ndarray) -> dict:
    """Residuals of the closed-projection algebra for a candidate pair
    (A1, A2): sum to S^{-2}, mutual annihilation, commutation with S^{-1}
    and with the resolvent at i."""
    eye = np.eye(op.dim, dtype=complex)
    s_inv = np.linalg.solve(op.entries, eye)
    s_inv2 = np.linalg.solve(op.entries @ op.entries, eye)
    res_i = resolvent(op, 1j)
    return {
        "sum": spectral_norm(a1 + a2 - s_inv2),
        "cross_12": spectral_norm(a1 @ a2),
        "cross_21": spectral_norm(a2 @ a1),
        "comm_inv_1": spectral_norm(a1 @ s_inv - s_inv @ a1),
        "comm_inv_2": spectral_norm(a2 @ s_inv - s_inv @ a2),
        "comm_resolvent_1": spectral_norm(a1 @ res_i - res_i @ a1),
        "comm_resolvent_2": spectral_norm(a2 @ res_i - res_i @ a2),
    }


def projection_pair_residuals(p1: np.ndarray, p2: np.ndarray) -> dict:
    """Complementarity/idempotency residuals for a candidate projection pair."""
    eye = np.eye(p1.shape[0], dtype=complex)
    return {
        "sum_identity": spectral_norm(p1 + p2 - eye),
        "idempotent_1": spectral_norm(p1 @ p1 - p1),
        "idempotent_2": spectral_norm(p2 @ p2 - p2),
        "cross_12": spectral_norm(p1 @ p2),
        "cross_21": spectral_norm(p2 @ p1),
    }


# ---------------------------------------------------------------------------
# the splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """Projections, invariant-subspace bases, restrictions, and residuals."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    basis_g_plus: np.ndarray
    basis_g_minus: np.ndarray
    restricted_plus: np.ndarray
    restricted_minus: np.ndarray
    residuals: dict
    spectrum_margin_plus: float
    spectrum_margin_minus: float
    est_error: float
    t_eff_plus: float
    t_eff_minus: float
    b_plus: np.ndarray | None = None
    b_minus: np.ndarray | None = None

    @property
    def rank_plus(self) -> int:
        return self.basis_g_plus.shape[1]

    @property
    def rank_minus(self) -> int:
        return self.basis_g_minus.shape[1]

    def max_residual(self) -> float:
        return max(self.residuals.values())

    def passes(self, tol: float) -> bool:
        return (
            self.max_residual() <= tol
            and self.spectrum_margin_plus > 0.0
            and self.spectrum_margin_minus > 0.0
        )

    def to_json_dict(self) -> dict:
        return {
            "rank_plus": self.rank_plus,
            "rank_minus": self.rank_minus,
            "spectrum_margin_plus": self.spectrum_margin_plus,
            "spectrum_margin_minus": self.spectrum_margin_minus,
            "est_error": self.est_error,
            "t_eff_plus": self.t_eff_plus,
            "t_eff_minus": self.t_eff_minus,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }


def split(
    op: Operator,
    spec: ContourSpec | None = None,
    with_b: bool = False,
    rank_cutoff: float = _RANK_CUTOFF,
) -> SplitResult:
    """Compute the half-plane splitting of ``op`` from contour quadrature.

    P_+- = S^2 A_+- with A_+- as :func:`specsplit.contour.integrate_A`
    returns them; bases of the invariant subspaces come from a rank-revealing
    factorisation of the projections.  Each contour line is evaluated once:
    Re lambda = +h for A_+ (and B_+), Re lambda = -h for A_-, R_-(-2h) (and
    B_-).  Operators whose spectrum touches the imaginary axis are refused
    rather than regularised.

    Raises
    ------
    NearSpectrumError
        Zero spectral gap, or a contour too close to the spectrum.
    SplittingMismatchError
        Projection ranks inconsistent with the eigenvalue counts per
        half-plane.
    """
    spec = default_contour(op) if spec is None else spec
    z = -2.0 * spec.h
    b = ("B",) if with_b else ()
    plus = _side_integrals(op, "+", spec, ("A", *b), rank_cutoff=rank_cutoff)
    minus = _side_integrals(op, "-", spec, ("A", "R", *b), z, rank_cutoff)
    quad_plus, quad_minus = plus["A"], minus["A"]
    a_plus, a_minus = quad_plus.value, quad_minus.value
    est_error = quad_plus.est_error + quad_minus.est_error

    s2 = op.entries @ op.entries
    p_plus = s2 @ a_plus
    p_minus = s2 @ a_minus

    ev = eigenvalues_of(op)
    n_right = int(np.sum(ev.real > 0))
    n_left = op.dim - n_right

    basis_plus = orthonormal_range(p_plus, cutoff=rank_cutoff)
    basis_minus = orthonormal_range(p_minus, cutoff=rank_cutoff)
    if basis_plus.shape[1] != n_right or basis_minus.shape[1] != n_left:
        raise SplittingMismatchError(
            f"projection ranks ({basis_plus.shape[1]}, {basis_minus.shape[1]}) "
            f"inconsistent with half-plane eigenvalue counts ({n_right}, {n_left})"
        )

    # The spans are invariant, so the compression V^H S V is the restriction
    # of S in the chosen orthonormal coordinates.
    restricted_plus = basis_plus.conj().T @ op.entries @ basis_plus
    restricted_minus = basis_minus.conj().T @ op.entries @ basis_minus
    ev_plus = np.linalg.eigvals(restricted_plus) if n_right else np.array([], complex)
    ev_minus = np.linalg.eigvals(restricted_minus) if n_left else np.array([], complex)
    margin_plus = float(ev_plus.real.min()) if ev_plus.size else float("inf")
    margin_minus = float(-ev_minus.real.max()) if ev_minus.size else float("inf")

    residuals = {}
    pair = pair_identity_residuals(op, a_plus, a_minus)
    residuals["a_sum"] = pair["sum"]
    residuals["a_cross_pm"] = pair["cross_12"]
    residuals["a_cross_mp"] = pair["cross_21"]
    residuals["a_comm_inv_plus"] = pair["comm_inv_1"]
    residuals["a_comm_inv_minus"] = pair["comm_inv_2"]
    residuals["a_comm_resolvent_plus"] = pair["comm_resolvent_1"]
    residuals["a_comm_resolvent_minus"] = pair["comm_resolvent_2"]
    proj = projection_pair_residuals(p_plus, p_minus)
    residuals["p_sum_identity"] = proj["sum_identity"]
    residuals["p_idempotent_plus"] = proj["idempotent_1"]
    residuals["p_idempotent_minus"] = proj["idempotent_2"]
    residuals["p_cross"] = max(proj["cross_12"], proj["cross_21"])
    residuals["basis_span_plus"] = spectral_norm(
        p_plus - basis_plus @ (basis_plus.conj().T @ p_plus)
    )
    residuals["basis_span_minus"] = spectral_norm(
        p_minus - basis_minus @ (basis_minus.conj().T @ p_minus)
    )
    residuals["spectrum_split"] = multiset_match_distance(
        np.concatenate([ev_plus, ev_minus]), ev
    )
    residuals["r_minus_identity"] = spectral_norm(
        (op.entries - z * np.eye(op.dim)) @ minus["R"] - np.eye(op.dim) + z**2 * a_minus
    )

    b_plus = plus["B"].value if with_b else None
    b_minus = minus["B"].value if with_b else None

    return SplitResult(
        a_plus=a_plus,
        a_minus=a_minus,
        p_plus=p_plus,
        p_minus=p_minus,
        basis_g_plus=basis_plus,
        basis_g_minus=basis_minus,
        restricted_plus=restricted_plus,
        restricted_minus=restricted_minus,
        residuals=residuals,
        spectrum_margin_plus=margin_plus,
        spectrum_margin_minus=margin_minus,
        est_error=est_error,
        t_eff_plus=quad_plus.t_eff,
        t_eff_minus=quad_minus.t_eff,
        b_plus=b_plus,
        b_minus=b_minus,
    )


# ---------------------------------------------------------------------------
# resolvent-norm sweeps and fits
# ---------------------------------------------------------------------------


def axis_grid(lo: float = 1e-2, hi: float = 1e4, per_decade: int = 64) -> np.ndarray:
    """Logarithmic grid +-i*t, t in [lo, hi], ``per_decade`` points per decade."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    npts = int(np.ceil(np.log10(hi / lo) * per_decade)) + 1
    t = np.logspace(np.log10(lo), np.log10(hi), npts)
    return np.concatenate([-1j * t[::-1], 1j * t])


@dataclass(frozen=True)
class SweepReport:
    """Resolvent norms on a grid plus the fitted decay law M/|lambda|^beta."""

    lambdas: np.ndarray
    norms: np.ndarray
    sup_norm: float
    fitted_beta: float
    fitted_m: float
    fit_residual: float
    fit_window: tuple[float, float]
    skipped: int = 0

    @property
    def samples(self) -> list[tuple[complex, float]]:
        return [(complex(l), float(n)) for l, n in zip(self.lambdas, self.norms)]

    def to_json_dict(self) -> dict:
        return {
            "sup_norm": self.sup_norm,
            "fitted_beta": json_safe_float(self.fitted_beta),
            "fitted_M": json_safe_float(self.fitted_m),
            "fit_residual": json_safe_float(self.fit_residual),
            "fit_window": list(self.fit_window),
            "skipped": self.skipped,
            "n_samples": int(self.lambdas.size),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("re_lambda,im_lambda,resolvent_norm\n")
        for lam, nrm in zip(self.lambdas, self.norms):
            buf.write(f"{float(lam.real)!r},{float(lam.imag)!r},{float(nrm)!r}\n")
        return buf.getvalue()


def resolvent_sweep(
    op: Operator,
    grid,
    fit_window: tuple[float, float] = (10.0, 1e4),
) -> SweepReport:
    """Sample ||(S-lambda)^{-1}|| on a grid and fit the decay law.

    Grid points within the near-spectrum tolerance are skipped with a
    warning; the least-squares fit of  log||R|| ~ log M - beta log|lambda|
    runs over samples with |lambda| inside ``fit_window``.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    lams, skipped = _clear_points((op,), grid, near_spectrum_tol(op))
    norms = _Kernel((op,)).norms(lams)

    lo, hi = fit_window
    mask = (np.abs(lams) >= lo) & (np.abs(lams) <= hi)
    if mask.sum() >= 2:
        fitted_beta, log_m, _, resid = _log_log_fit(np.abs(lams[mask]), norms[mask])
        fitted_m = float(np.exp(log_m))
    else:
        fitted_beta, fitted_m, resid = float("nan"), float("nan"), float("nan")
    return SweepReport(
        lambdas=lams,
        norms=norms,
        sup_norm=float(norms.max()),
        fitted_beta=fitted_beta,
        fitted_m=fitted_m,
        fit_residual=resid,
        fit_window=(float(lo), float(hi)),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# half-plane and parabola checks
# ---------------------------------------------------------------------------


def opposite_halfplane_grid(
    side: str,
    r_lo: float = 1e-1,
    r_hi: float = 1e3,
    n_radii: int = 16,
    n_angles: int = 16,
) -> np.ndarray:
    """Log-polar grid in the closed half-plane opposite to ``side``."""
    radii = np.logspace(np.log10(r_lo), np.log10(r_hi), n_radii)
    if side == "+":
        angles = np.linspace(np.pi / 2, 3 * np.pi / 2, n_angles)
    elif side == "-":
        angles = np.linspace(-np.pi / 2, np.pi / 2, n_angles)
    else:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def _restricted_norms(restricted: np.ndarray, grid: np.ndarray) -> np.ndarray:
    k = restricted.shape[0]
    if k == 0:
        return np.zeros(grid.size)
    op = Operator(entries=restricted)
    _check_points_clear(op, grid, 1e-12 * (1.0 + np.abs(eigenvalues_of(op)).max()))
    return _Kernel((op,)).norms(grid)


@dataclass(frozen=True)
class HalfplaneCheck:
    passed: bool
    max_norm: float
    bound: float
    worst_lambda: complex

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_norm": self.max_norm,
            "bound": self.bound,
            "worst_lambda": [self.worst_lambda.real, self.worst_lambda.imag],
        }


def halfplane_bound_check(
    result: SplitResult, side: str, grid, bound_m: float
) -> HalfplaneCheck:
    """Verify the uniform resolvent bound of the restriction on the closed
    opposite half-plane: max over the grid of ||(S|G_side - lambda)^{-1}||
    must not exceed ``bound_m``."""
    grid = np.asarray(grid, dtype=complex).ravel()
    if side == "+":
        if np.any(grid.real > 1e-12):
            raise ValueError("grid for side '+' must lie in the closed left half-plane")
        restricted = result.restricted_plus
    elif side == "-":
        if np.any(grid.real < -1e-12):
            raise ValueError("grid for side '-' must lie in the closed right half-plane")
        restricted = result.restricted_minus
    else:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    norms = _restricted_norms(restricted, grid)
    worst = int(np.argmax(norms)) if norms.size else 0
    max_norm = float(norms.max()) if norms.size else 0.0
    return HalfplaneCheck(
        passed=bool(max_norm <= bound_m),
        max_norm=max_norm,
        bound=float(bound_m),
        worst_lambda=complex(grid[worst]) if norms.size else 0j,
    )


@dataclass(frozen=True)
class SectorialityCheck:
    passed: bool
    beta: float
    bound: float
    max_weighted_plus: float
    max_weighted_minus: float

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "beta": self.beta,
            "bound": self.bound,
            "max_weighted_plus": self.max_weighted_plus,
            "max_weighted_minus": self.max_weighted_minus,
        }


def sectoriality_report(
    result: SplitResult, beta: float, grid, bound_m: float
) -> SectorialityCheck:
    """Check the weighted bounds |lambda|^beta ||(S|G_+ - lambda)^{-1}|| <= M
    on a left-half-plane grid, and the mirrored bound for the minus side.

    beta = 1 is the sectorial statement; 0 < beta < 1 the almost sectorial
    one.  The constants are expected to carry over from the axis decay law
    unchanged.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    if np.any(grid.real > 1e-12):
        raise ValueError("sectoriality grid must lie in the closed left half-plane")
    if np.any(np.abs(grid) == 0.0):
        raise ValueError("sectoriality grid must avoid 0")
    w_plus = np.abs(grid) ** beta * _restricted_norms(result.restricted_plus, grid)
    w_minus = np.abs(grid) ** beta * _restricted_norms(result.restricted_minus, -grid)
    max_plus = float(w_plus.max()) if w_plus.size else 0.0
    max_minus = float(w_minus.max()) if w_minus.size else 0.0
    return SectorialityCheck(
        passed=bool(max(max_plus, max_minus) <= bound_m),
        beta=float(beta),
        bound=float(bound_m),
        max_weighted_plus=max_plus,
        max_weighted_minus=max_minus,
    )


@dataclass(frozen=True)
class ParabolaProbe:
    passed: bool
    intrusions: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def cx(z):
            return [z.real, z.imag]

        return {
            "passed": self.passed,
            "intrusions": [cx(z) for z in self.intrusions],
            "violations": [cx(z) for z in self.violations],
            "n_points": len(self.records),
        }


def parabola_probe(op: Operator, alpha: float, beta: float, m_const: float, grid) -> ParabolaProbe:
    """Probe the parabola-shaped region |Re lambda| <= alpha |Im lambda|^beta.

    For alpha < 1/M a Neumann-series argument keeps the region inside the
    resolvent set with the bound M / ((1 - alpha M) |Im lambda|^beta); the
    probe verifies that pointwise.  Spectrum intruding into the region, or a
    bound violation (automatic when alpha*M >= 1 makes the bound vacuous),
    fails the probe with witnesses.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    if grid.size == 0:
        raise ValueError("parabola grid is empty")
    inside = np.abs(grid.real) <= alpha * np.abs(grid.imag) ** beta + 1e-15
    if not np.all(inside & (grid != 0)):
        raise ValueError("parabola grid contains points outside the region (or 0)")
    tol = near_spectrum_tol(op)
    dist, _ = _spectrum_distance((op,), grid)
    intrusions = [complex(z) for z in grid[dist <= tol]]
    safe = grid[dist > tol]
    records, violations = [], []
    if safe.size:
        norms = _Kernel((op,)).norms(safe)
        denom = 1.0 - alpha * m_const
        for lam, nrm in zip(safe, norms):
            bound = m_const / (denom * np.abs(lam.imag) ** beta) if denom > 0 else -np.inf
            records.append((complex(lam), float(nrm), float(bound)))
            if nrm > bound:
                violations.append(complex(lam))
    return ParabolaProbe(
        passed=not intrusions and not violations,
        intrusions=intrusions,
        violations=violations,
        records=records,
    )


# ---------------------------------------------------------------------------
# block-diagonal structure checks
# ---------------------------------------------------------------------------


def block_commutant_check(op: Operator, n: int, lams=None) -> float:
    """Max over sample points of ||Q_n (S-lambda)^{-1} - (S-lambda)^{-1} Q_n||
    where Q_n is the orthogonal projection onto the first n blocks.

    Exactness of the block structure makes this zero up to solver roundoff;
    it realises the commuting approximating family available for
    block-diagonal operators.
    """
    if op.family_tag is None:
        raise OperatorError("not block-diagonal: operator carries no family tag")
    tag = op.family_tag
    if not 1 <= n <= tag.n_blocks:
        raise OperatorError(f"block count n={n} outside 1..{tag.n_blocks}")
    dims = tag.block_dims
    cut = int(np.sum(dims[:n]))
    q_n = np.zeros((op.dim, op.dim), dtype=complex)
    q_n[:cut, :cut] = np.eye(cut)
    if lams is None:
        gap = spectrum(op).min_abs_real
        unit = max(gap, 1.0)
        lams = [0.5j * gap, -0.5j * gap, 1j * (gap + unit), -1j * (gap + 2.5 * unit)]
    worst = 0.0
    for lam in lams:
        res = resolvent(op, lam)
        worst = max(worst, spectral_norm(q_n @ res - res @ q_n))
    return worst
