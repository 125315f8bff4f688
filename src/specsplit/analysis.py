"""Assembly of the spectral splitting and its diagnostic checks.

``split`` turns the two vertical-line integrals into the half-plane
projections P_+- = S^2 A_+-, takes their ranks from their traces and
orthonormal bases of the invariant subspaces from their singular vectors,
restricts the operator to them,
and records the residual of every identity the construction is supposed to
satisfy: complementarity and idempotency of the projections, the algebra of
the A operators (sum to S^{-2}, annihilate each other, commute with the
resolvent), the containment of the restricted spectra in the open half-planes,
and the defining identity of the auxiliary R_-(z) operator.  All of these
matrices are functions of S, so all are block diagonal on S's connected
components: ||S||, P_+-, the residuals, the bases and the restrictions are
taken block by block, and only the matching of the restricted spectra against
the whole spectrum is global.

The remaining routines are the axis sweep of resolvent norms and its
decay-exponent fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .contour import ContourSpec, _side_integrals, default_contour
from .errors import SplittingMismatchError
from .operators import (
    Operator,
    _assemble,
    _block_layout,
    _blocks,
    _clear_points,
    _Kernel,
    _layout,
    _resolvent_blocks,
    _stack_norms,
    eigenvalues_of,
    operator_norm,
)

__all__ = [
    "SplitResult",
    "SweepReport",
    "split",
    "resolvent_sweep",
    "axis_grid",
    "subspace_angle",
    "multiset_match_distance",
    "pair_identity_residuals",
    "projection_pair_residuals",
]


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


def multiset_match_distance(ev_a, ev_b) -> float:
    """Optimal-matching distance between two eigenvalue multisets.

    Pairs the values by a minimum-sum assignment of relative distances
    |a - b| / (1 + max(|a|, |b|)) and returns the largest matched cost;
    infinity when the multisets have different sizes.  The assignment comes
    from ``scipy.sparse.csgraph``, whose sparse input would drop an exact
    zero cost, so every cost is raised to at least the smallest normal float.
    """
    a = np.asarray(ev_a, dtype=complex).ravel()
    b = np.asarray(ev_b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = 1.0 + np.maximum(np.abs(a)[:, None], np.abs(b)[None, :])
    cost = np.abs(a[:, None] - b[None, :]) / scale
    rows, cols = min_weight_full_bipartite_matching(
        csr_matrix(np.maximum(cost, np.finfo(float).tiny))
    )
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# identity residuals, block by block
# ---------------------------------------------------------------------------
#
# Every matrix the residuals check is a function of S, so it is block diagonal
# on S's connected components, and so is every residual: its spectral norm is
# the largest over the blocks.  The residuals are formed on stacks of blocks,
# one (..., count, m, m) array per block order, and their norms taken by the
# kernel's _stack_norms: the closed forms for orders 1 and 2, one batched SVD
# per larger order.  A dense operator of order 3 or more is one block, on
# which each formula and norm is the dense one, bit for bit.


def _pair_terms(s_inv, res_i, a1, a2) -> dict:
    """The matrices behind :func:`pair_identity_residuals` on one stack of
    blocks: of S^{-1} = R(0), R(i), A_+ and A_-, with S^{-2} = S^{-1} S^{-1}."""
    return {
        "a_sum": a1 + a2 - s_inv @ s_inv,
        "a_cross_pm": a1 @ a2,
        "a_cross_mp": a2 @ a1,
        "a_comm_inv_plus": a1 @ s_inv - s_inv @ a1,
        "a_comm_inv_minus": a2 @ s_inv - s_inv @ a2,
        "a_comm_resolvent_plus": a1 @ res_i - res_i @ a1,
        "a_comm_resolvent_minus": a2 @ res_i - res_i @ a2,
    }


def _projection_terms(p1, p2) -> dict:
    """The matrices behind :func:`projection_pair_residuals` on one stack of
    blocks; ``p_cross`` stacks both products."""
    eye = np.eye(p1.shape[-1], dtype=complex)
    return {
        "p_sum_identity": p1 + p2 - eye,
        "p_idempotent_plus": p1 @ p1 - p1,
        "p_idempotent_minus": p2 @ p2 - p2,
        "p_cross": np.stack([p1 @ p2, p2 @ p1]),
    }


def _residual_norms(per_order: list[dict]) -> dict:
    """The spectral norm of every named residual, given per block order as
    (..., count, m, m) stacks with the same names: the largest over its
    blocks and leading axes, from one :func:`_stack_norms` call."""
    names = list(per_order[0])
    sizes = [int(np.prod(per_order[0][name].shape[:-3])) for name in names]
    norms = _stack_norms(
        [np.concatenate([t[name].reshape(-1, *t[name].shape[-3:]) for name in names]) for t in per_order],
        spectral=True,
    )
    ends = np.cumsum(sizes)
    return {name: float(norms[end - size:end].max()) for name, size, end in zip(names, sizes, ends)}


def pair_identity_residuals(op: Operator, a1: np.ndarray, a2: np.ndarray) -> dict:
    """Residuals of the closed-projection algebra for a candidate pair
    (A1, A2) = (A_+, A_-): sum to S^{-2}, mutual annihilation, commutation
    with S^{-1} = R(0) and with the resolvent R(i), both certified solves.
    Taken block by block on the components of the union of the nonzero
    patterns of S, A1 and A2, so an entry of A1 or A2 outside S's components
    joins them and is counted."""
    layout = _block_layout((op.entries != 0) | (a1 != 0) | (a2 != 0))
    s_inv, res_i = (_resolvent_blocks(op, lam, layout) for lam in (0.0, 1j))
    return _residual_norms([_pair_terms(*b) for b in zip(s_inv, res_i, _blocks(a1, layout), _blocks(a2, layout))])


def projection_pair_residuals(p1: np.ndarray, p2: np.ndarray) -> dict:
    """Complementarity/idempotency residuals for a candidate projection pair
    (P1, P2) = (P_+, P_-); ``p_cross`` is the larger of ||P1 P2|| and
    ||P2 P1||.  Taken block by block on the components of the union of both
    nonzero patterns."""
    layout = _block_layout((p1 != 0) | (p2 != 0))
    return _residual_norms([_projection_terms(*pair) for pair in zip(_blocks(p1, layout), _blocks(p2, layout))])


# ---------------------------------------------------------------------------
# the splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """Projections, invariant-subspace bases, restrictions, and residuals.

    All of them are taken per connected component of S and assembled: the
    matrices are dense (dim, dim) arrays that vanish off the components, the
    basis columns are ordered by the singular values of P_+- over all
    components, each column supported on one component, and the restrictions
    are block diagonal up to that column order.  ``est_error`` is the sum of
    both lines' error estimates for A_+-; ``p_est_error`` =
    max(1, ||S||)^2 est_error is what it implies for P_+- = S^2 A_+-, the
    matrices the residuals check."""

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
    p_est_error: float
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
        if not tol > 0:
            raise ValueError(f"pass tolerance must be > 0, got {tol}")
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
            "p_est_error": self.p_est_error,
            "t_eff_plus": self.t_eff_plus,
            "t_eff_minus": self.t_eff_minus,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }


def _side_basis(dim: int, layout, s, p, k: int, sgn: int):
    """One side's basis, restriction, restricted spectrum, margin and span
    residual, from P's blocks ``p`` and S's blocks ``s`` on ``layout``.

    The basis is the k leading left singular vectors over all blocks, by
    singular value; as P's singular values are at least 1 or at rounding
    level, they are those of the dense SVD, and each block keeps a leading
    run of its own.  The spans are invariant, so V^H S V is the restriction
    of S in these coordinates.  It is formed per block, on the block's own
    kept vectors, so the restriction is block diagonal up to the basis'
    column order.  The span residual ||P - V V^H P||_2 is, by Eckart-Young,
    sigma_{k_b+1} on a block that keeps k_b vectors, so over the block
    diagonal it is the largest singular value not kept.  A side's margin is
    min sgn Re lambda over its spectrum, inf for an empty side."""
    svds = [np.linalg.svd(pb, full_matrices=False)[:2] for pb in p]
    sig = np.concatenate([sv.ravel() for _, sv in svds])
    col = np.full(sig.size, -1)  # every singular vector's basis column, -1 if not kept
    col[np.argsort(-sig, kind="stable")[:k]] = np.arange(k)
    basis, restricted = np.zeros((dim, k), complex), np.zeros((k, k), complex)
    ev, start = [], 0
    for idx, sb, (u, sv) in zip(layout, s, svds):
        cols = col[start:start + sv.size].reshape(sv.shape)
        start += sv.size
        kept = np.sum(cols >= 0, axis=1)
        for kb in np.unique(kept[kept > 0]):
            sub = np.flatnonzero(kept == kb)
            v = u[sub][..., :kb]
            c = cols[sub, :kb]
            basis[idx[sub][:, :, None], c[:, None, :]] = v
            r = v.conj().transpose(0, 2, 1) @ sb[sub] @ v
            restricted[c[:, :, None], c[:, None, :]] = r
            ev.append(np.linalg.eigvals(r).ravel())
    ev = np.concatenate(ev) if ev else np.array([], complex)
    margin = float((sgn * ev.real).min()) if k else float("inf")
    return basis, restricted, ev, margin, float(sig[col < 0].max(initial=0.0))


def split(op: Operator, spec: ContourSpec | None = None, with_b: bool = False) -> SplitResult:
    """Compute the half-plane splitting of ``op`` from contour quadrature.

    P_+- = S^2 A_+- with A_+- as :func:`specsplit.contour.integrate_A`
    returns them; the rank of P_+- is Re tr P_+- rounded, as the trace of a
    projection is its rank, and its leading left singular vectors are the
    basis of the invariant subspace (see :func:`_side_basis`).  Each contour
    line is evaluated once: Re lambda = +h for A_+ (and B_+), Re lambda = -h
    for A_-, R_-(-2h) (and B_-).  Operators whose spectrum touches the imaginary axis are refused
    rather than regularised.

    Raises
    ------
    NearSpectrumError
        Zero spectral gap, or a contour too close to the spectrum.
    SplittingMismatchError
        Projection traces that do not round to the eigenvalue counts per
        half-plane.
    """
    spec = default_contour(op) if spec is None else spec
    z = -2.0 * spec.h
    b = ("B",) if with_b else ()
    lines = (
        _side_integrals(op, "+", spec, ("A", *b)),
        _side_integrals(op, "-", spec, ("A", "R", *b), z),
    )
    ev = eigenvalues_of(op)
    n_right = int(np.sum(ev.real > 0))
    counts = (n_right, op.dim - n_right)

    # A_+-, R_-(z), S^2, S^{-1} = R(0) and R(i) are functions of S, block
    # diagonal on its components as the quadrature returns them; so is
    # everything below
    layout = _layout(op)
    s = _blocks(op.entries, layout)
    a = [_blocks(line["A"].value, layout) for line in lines]
    s2 = [sb @ sb for sb in s]
    p = [[s2b @ ab for s2b, ab in zip(s2, a_side)] for a_side in a]
    p_dense = [_assemble(p_side, layout, np.zeros((op.dim, op.dim), complex)) for p_side in p]
    traces = [np.trace(p_side).real for p_side in p_dense]
    if not np.array_equal(np.rint(traces), counts):  # also for a NaN trace
        raise SplittingMismatchError(
            f"projection traces ({traces[0]:.6g}, {traces[1]:.6g}) inconsistent "
            f"with half-plane eigenvalue counts {counts}"
        )

    sides = [_side_basis(op.dim, layout, s, p_side, k, sgn) for p_side, k, sgn in zip(p, counts, (1, -1))]
    bases, restrictions, ev_sides, margins, spans = zip(*sides)

    r_minus = _blocks(lines[1]["R"].value, layout)
    s_inv, res_i = (_resolvent_blocks(op, lam, layout) for lam in (0.0, 1j))
    terms = []
    for g, idx in enumerate(layout):
        eye = np.eye(idx.shape[1])
        terms.append({
            **_pair_terms(s_inv[g], res_i[g], a[0][g], a[1][g]),
            **_projection_terms(p[0][g], p[1][g]),
            "r_minus_identity": (s[g] - z * eye) @ r_minus[g] - eye + z**2 * a[1][g],
        })
    residuals = {
        **_residual_norms(terms),
        "basis_span_plus": spans[0],
        "basis_span_minus": spans[1],
        "spectrum_split": multiset_match_distance(np.concatenate(ev_sides), ev),
    }
    est_error = sum(line["A"].est_error for line in lines)
    b_plus, b_minus = (line["B"].value if with_b else None for line in lines)

    return SplitResult(
        a_plus=lines[0]["A"].value, a_minus=lines[1]["A"].value, p_plus=p_dense[0], p_minus=p_dense[1],
        basis_g_plus=bases[0], basis_g_minus=bases[1],
        restricted_plus=restrictions[0], restricted_minus=restrictions[1],
        residuals=residuals, spectrum_margin_plus=margins[0], spectrum_margin_minus=margins[1],
        est_error=est_error, p_est_error=max(1.0, operator_norm(op)) ** 2 * est_error,
        t_eff_plus=lines[0]["A"].t_eff, t_eff_minus=lines[1]["A"].t_eff,
        b_plus=b_plus, b_minus=b_minus,
    )


# ---------------------------------------------------------------------------
# resolvent-norm sweeps and fits
# ---------------------------------------------------------------------------


def axis_grid(lo: float = 1e-2, hi: float = 1e4, per_decade: int = 64) -> np.ndarray:
    """Logarithmic grid +-i*t, t in [lo, hi], ``per_decade`` points per decade."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if not (hi / lo < np.inf and per_decade >= 1):
        raise ValueError(f"axis grid needs a finite hi/lo and per_decade >= 1, got {hi}/{lo}, {per_decade}")
    npts = int(np.ceil(np.log10(hi / lo) * per_decade)) + 1
    t = np.logspace(np.log10(lo), np.log10(hi), npts)
    return np.concatenate([-1j * t[::-1], 1j * t])


def _log_log_fit(abs_lams: np.ndarray, norms: np.ndarray):
    """Least-squares fit  log(norm) ~ log M - beta * log|lambda|  on all the
    samples: beta, log M and the largest absolute residual in log space, all
    three NaN when the samples hold fewer than two distinct |lambda|."""
    if np.unique(abs_lams).size < 2:
        return float("nan"), float("nan"), float("nan")
    x = np.log(abs_lams)
    y = np.log(norms)
    design = np.vstack([np.ones(x.size), -x]).T
    (log_m, beta), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.abs(design @ np.array([log_m, beta]) - y).max())
    return float(beta), float(log_m), resid


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

    def to_json_dict(self) -> dict:
        return {
            "sup_norm": self.sup_norm,
            "fitted_beta": self.fitted_beta,
            "fitted_M": self.fitted_m,
            "fit_residual": self.fit_residual,
            "fit_window": list(self.fit_window),
            "skipped": self.skipped,
            "n_samples": int(self.lambdas.size),
        }


def _fit_window(op: Operator) -> tuple[float, float]:
    """Default decay-fit window: a truncated block family obeys its decay law
    only below its largest block scale, so the window ends at N/2 (at least
    20, at most 1e4); an untagged operator gets the full asymptotic window."""
    if op.family_tag is None:
        return 10.0, 1e4
    return 10.0, min(1e4, max(20.0, op.family_tag.n_blocks / 2.0))


def _sweep(ops: tuple[Operator, ...], grid, fit_window) -> SweepReport:
    """The one axis sweep: ||R_S(lambda)|| for one operator, or
    ||R_S(lambda) - R_T(lambda)|| for a pair, at the grid points clear of
    every spectrum (the rest are skipped with a warning), and the fit of
    log(norm) ~ log M - beta log|lambda| over the nonzero samples with
    |lambda| in ``fit_window``, which must have 0 < lo < hi and defaults to
    ``_fit_window`` of the first operator."""
    grid = np.asarray(grid, dtype=complex).ravel()
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    lo, hi = _fit_window(ops[0]) if fit_window is None else fit_window
    if not 0 < lo < hi:
        raise ValueError(f"fit window needs 0 < lo < hi, got ({lo}, {hi})")
    lams, skipped = _clear_points(ops, grid)
    norms = _Kernel(ops).norms(lams)
    mask = (np.abs(lams) >= lo) & (np.abs(lams) <= hi) & (norms > 0.0)
    fitted_beta, log_m, resid = _log_log_fit(np.abs(lams[mask]), norms[mask])
    return SweepReport(
        lambdas=lams,
        norms=norms,
        sup_norm=float(norms.max()),
        fitted_beta=fitted_beta,
        fitted_m=float(np.exp(log_m)),
        fit_residual=resid,
        fit_window=(float(lo), float(hi)),
        skipped=skipped,
    )


def resolvent_sweep(op: Operator, grid, fit_window=None) -> SweepReport:
    """Sample ||(S-lambda)^{-1}|| on a grid and fit the decay law
    M/|lambda|^beta in ``fit_window`` (default ``_fit_window(op)``); grid
    points within the near-spectrum tolerance are skipped with a warning."""
    return _sweep((op,), grid, fit_window)
