"""Dense complex operators, block-diagonal families, and the projection oracle.

Everything downstream works on :class:`Operator`: an immutable dense complex
square matrix, optionally tagged as the N-block truncation of a named
block-diagonal family.  This module provides

* construction of the built-in block families (``build_block_operator``),
* the JSON operator descriptor (``operator_from_descriptor``),
* basic spectral queries (``spectrum``, ``resolvent``, the zero-gap refusal ``_spectral_gap``),
* the resolvent kernel behind every quadrature, norm sweep and resolvent
  stack (``_Kernel``, ``resolvent_many``, ``resolvent_norms``): per-block
  Schur forms of the operator's connected components, or for a pair of
  both operators on the components of the union of their patterns,
  triangular inverses per node (or, for the norms of coupled-diagonal
  Schur factors, their products in closed form), and for the quadrature's
  panel sums of larger blocks a cached block diagonalisation of the Schur
  form,
* the ground-truth spectral projector ``oracle_projection``, computed per
  connected component from one ordered triangular (Schur) decomposition and
  one triangular Sylvester solve for the invariant-subspace coupling --
  deliberately *not* by contour quadrature, so it can serve as an
  independent oracle for the quadrature route.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrexc as _ztrexc
from scipy.linalg.lapack import ztrsyl as _ztrsyl
from scipy.linalg.lapack import ztrtri as _ztrtri
from scipy.linalg.lapack import ztrtrs as _ztrtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NearSpectrumError, OperatorError

__all__ = [
    "Operator",
    "FamilyTag",
    "Spectrum",
    "ProjectionPair",
    "build_block_operator",
    "family_names",
    "mcintosh_yagi_parts",
    "mcintosh_yagi_pick_n",
    "operator_from_descriptor",
    "descriptor_of",
    "dense_operator",
    "diag_operator",
    "random_gap_operator",
    "spectrum",
    "eigenvalues_of",
    "operator_norm",
    "near_spectrum_tol",
    "resolvent",
    "resolvent_many",
    "resolvent_norms",
    "oracle_projection",
    "spectral_norm",
]

_MACHINE_EPS = float(np.finfo(np.float64).eps)

# Size cap for generated blocks; beyond this a desk-scale computation is
# hopeless and the generator refuses.
_BLOCK_SIZE_CAP = 4096


@dataclass(frozen=True)
class FamilyTag:
    """Identifies an operator as the truncation of a named block family."""

    family: str
    params: dict
    n_blocks: int
    block_dims: tuple[int, ...]

    def block_slices(self):
        """Index ranges of the individual blocks inside the direct sum."""
        out = []
        start = 0
        for d in self.block_dims:
            out.append(slice(start, start + d))
            start += d
        return out


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix, immutable after construction."""

    entries: np.ndarray
    family_tag: FamilyTag | None = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex, copy=True, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise OperatorError(f"operator entries must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise OperatorError("operator must have positive dimension")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise OperatorError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.family_tag is not None and sum(self.family_tag.block_dims) != m.shape[0]:
            raise OperatorError("family_tag block dimensions do not sum to operator dimension")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    # Eigenvalues, the operator norm and the Schur factors of the diagonal
    # blocks (the kernel's "schur" entries) are cached on first use; the
    # operator itself never changes, so the cache cannot go stale.
    def _cache(self, key: Hashable, compute: Callable[[], Any]):
        store = self.__dict__.get("_lazy")
        if store is None:
            store = {}
            object.__setattr__(self, "_lazy", store)
        if key not in store:
            store[key] = compute()
        return store[key]


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues (with multiplicity) and the gap to the imaginary axis."""

    eigenvalues: np.ndarray
    min_abs_real: float


@dataclass(frozen=True)
class ProjectionPair:
    """Complementary spectral projections for the right/left open half-plane.

    ``basis_plus``/``basis_minus`` are column-orthonormal and span the ranges
    of ``p_plus``/``p_minus`` (the invariant subspaces).  Note the ranges are
    in general not orthogonal to each other; only each basis is orthonormal.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    basis_plus: np.ndarray
    basis_minus: np.ndarray

    @property
    def rank_plus(self) -> int:
        return self.basis_plus.shape[1]

    @property
    def rank_minus(self) -> int:
        return self.basis_minus.shape[1]


# ---------------------------------------------------------------------------
# basic queries
# ---------------------------------------------------------------------------


def spectral_norm(m) -> float:
    """Largest singular value of a matrix (the operator norm)."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def eigenvalues_of(op: Operator) -> np.ndarray:
    """All eigenvalues of ``op`` in a deterministic order (by real, then
    imaginary part)."""

    def compute():
        ev = np.linalg.eigvals(op.entries)
        order = np.lexsort((ev.imag, ev.real))
        ev = ev[order]
        ev.setflags(write=False)
        return ev

    return op._cache("eigs", compute)


def operator_norm(op: Operator) -> float:
    """||S||, the largest spectral norm over the operator's connected
    components (see "the resolvent kernel"), of which S is the direct sum."""
    def compute():  # over a power of two, exactly: the closed forms of order 1 and 2 square the entries
        scale = np.ldexp(1.0, np.clip(np.frexp(np.abs(op.entries).max(initial=0.0))[1], -1021, 1021))
        return float(scale * _stack_norms(_blocks(op.entries / scale, _layout(op)), True))
    return op._cache("norm", compute)


def spectrum(op: Operator) -> Spectrum:
    """Eigenvalues with multiplicity plus the spectral gap ``min |Re lambda|``."""
    try:
        ev = eigenvalues_of(op)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigensolver failure
        raise OperatorError(f"eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=ev, min_abs_real=float(np.abs(ev.real).min()))


def near_spectrum_tol(*ops: Operator) -> float:
    """Default tolerance for the "near spectrum" precondition, the largest
    over ``ops`` (a pair is clear where it is clear of both spectra).

    Scale-aware default 1e-8*(1+||S||), capped at a quarter of the spectral
    gap.  The cap keeps operators with a huge norm but a modest gap usable
    (the Toeplitz-coupled dyadic family reaches ||S|| ~ 1e51 at desk scale
    while its gap stays 1); without it every point of interest would be
    rejected as "near spectrum".  Where the spectral radius, a lower bound
    on ||S||, already puts the default at twice the cap, ||S|| is not
    computed.
    """

    def tol(op):
        spec = spectrum(op)
        gap = spec.min_abs_real
        # ||S|| >= rho(S), the largest |eigenvalue|: where half of what rho
        # gives already reaches the cap, rounding of either cannot move the
        # minimum off the cap, and the SVD of ||S|| is skipped
        if gap > 0 and 1e-8 * (1.0 + np.abs(spec.eigenvalues).max()) >= 0.5 * gap:
            return 0.25 * gap
        base = 1e-8 * (1.0 + operator_norm(op))
        return min(base, 0.25 * gap) if gap > 0 else base

    return max(map(tol, ops))


def _spectral_gap(*ops: Operator) -> float:
    """The smallest |Re lambda| over the spectra of ``ops``; a zero gap is
    refused, since no strip around the imaginary axis is then clear."""
    gap = min(spectrum(op).min_abs_real for op in ops)
    if gap <= 0.0:
        raise NearSpectrumError("spectral gap to the imaginary axis is zero", distance=0.0)
    return gap


def _spectrum_distance(ops, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance of every point of ``lams`` to the joint spectrum of ``ops``,
    and the nearest eigenvalue."""
    ev = np.concatenate([eigenvalues_of(op) for op in ops])
    d = np.abs(lams[:, None] - ev[None, :])
    nearest = np.argmin(d, axis=1)
    return d[np.arange(lams.size), nearest], ev[nearest]


def _clear_points(ops, grid: np.ndarray) -> tuple[np.ndarray, int]:
    """The points of ``grid`` farther than :func:`near_spectrum_tol` from the
    joint spectrum of ``ops`` and the count of the others, skipped with a
    warning; refuses if none is left."""
    tol = near_spectrum_tol(*ops)
    dist, _ = _spectrum_distance(ops, grid)
    keep = dist > tol
    if not keep.any():
        raise NearSpectrumError("all grid points are near the spectrum", tol=tol)
    skipped = int(np.sum(~keep))
    if skipped:
        warnings.warn(
            f"skipped {skipped} grid points within {tol:.2e} of the spectrum", stacklevel=3
        )
    return grid[keep], skipped


def resolvent(op: Operator, lam: complex) -> np.ndarray:
    """(S - lambda)^{-1} by dense linear solves, one per connected component.

    Refuses when ``lam`` is within :func:`near_spectrum_tol` of the spectrum
    and verifies the solve residual ``||(S - lambda) R - I||`` against a
    backward-stability bound.
    """
    layout = _layout(op)
    return _assemble(_resolvent_blocks(op, lam, layout), layout, np.zeros((op.dim, op.dim), complex))


def _resolvent_blocks(op: Operator, lam: complex, layout) -> list[np.ndarray]:
    """:func:`resolvent` as one (count, m, m) stack per block order of
    ``layout``, each block a union of components of the operator.  The
    residual check is one statement over all blocks: its Frobenius norms are
    the roots of the sums of the blocks' squares."""
    dist, ev = _check_points_clear(op, np.array([lam], dtype=complex))
    res, fro2 = [], np.zeros(3)  # the squares of residual, ||S - lambda||, ||R||
    for s in _blocks(op.entries, layout):
        eye = np.eye(s.shape[-1])
        shifted = s - lam * eye
        res.append(np.linalg.solve(shifted, np.broadcast_to(eye.astype(complex), s.shape)))
        for i, x in enumerate((shifted @ res[-1] - eye, shifted, res[-1])):
            fro2[i] += np.sum(np.abs(x) ** 2)
    residual, shifted_fro, res_fro = np.sqrt(fro2)
    bound = 100.0 * op.dim * _MACHINE_EPS * shifted_fro * res_fro
    if residual > max(bound, 1e3 * _MACHINE_EPS):
        raise NearSpectrumError(
            f"resolvent solve at lambda={lam} lost accuracy (residual {residual:.3e})",
            eigenvalue=ev,
            distance=dist,
            tol=near_spectrum_tol(op),
        )
    return res


def _check_points_clear(op: Operator, lams: np.ndarray):
    """Refuse when any point of ``lams`` is within :func:`near_spectrum_tol`
    of the spectrum; otherwise the distance of the closest point to the
    spectrum and the eigenvalue nearest to it (inf and None for no points)."""
    if lams.size == 0:
        return float("inf"), None
    tol = near_spectrum_tol(op)
    dist, nearest = _spectrum_distance((op,), lams)
    bad = int(np.argmin(dist))
    dist, ev = float(dist[bad]), complex(nearest[bad])
    if dist <= tol:
        raise NearSpectrumError(
            f"lambda={lams[bad]} is within {dist:.3e} of eigenvalue {ev} (tol {tol:.3e})",
            eigenvalue=ev,
            distance=dist,
            tol=tol,
        )
    return dist, ev


def resolvent_many(op: Operator, lams) -> np.ndarray:
    """Resolvents at many spectral parameters, as a (k, dim, dim) stack.

    Same near-spectrum precondition as :func:`resolvent`, checked for every
    point at once.  The values come from the resolvent kernel, as for every
    other evaluation: per point the triangular inverses (T - lam)^{-1} of the
    cached Schur forms B = Q T Q^H of the diagonal blocks, back-transformed
    by Q, not from the certified solve of :func:`resolvent`: per-point
    residual verification is skipped, and callers that need certified values
    estimate errors at a higher level.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    _check_points_clear(op, lams)
    kernel = _Kernel((op,))
    out = np.zeros((lams.size, op.dim, op.dim), dtype=complex)
    for part in kernel.chunks(lams.size):
        kernel.dense(kernel.operator(kernel.nodes(lams[part])), out[part])
    return out


def resolvent_norms(op: Operator, lams) -> np.ndarray:
    """Operator norms ||(S - lam)^{-1}|| on a grid of spectral parameters.

    The norm is the largest over the operator's connected components, each
    in Schur form T, of ||(T - lam)^{-1}||: in closed form for components
    of order 1 and 2, by an SVD below order _LANCZOS_MIN_ORDER (64), and
    from there on by Lanczos on X^H X, X = (T - lam)^{-1}.  The Lanczos
    value sqrt(theta_1 + rho_1), top Ritz value plus its residual, is
    returned only where the trace of X^H X and Cauchy interlacing prove it
    an upper bound on ||X||^2, and the SVD is used at every other node (see
    ``_lanczos_norms``); both agree with the SVD to rounding.  Where T is
    coupled-diagonal, its diagonal plus a strict upper part on rows and
    columns that do not meet (as for [[D+, C], [0, D-]] with diagonal D+-),
    Lanczos takes X v and X^H u from the closed form of X and forms no
    inverse.  For a real
    operator a point and its mirror conj(lam) get the same value, from one
    solve.  Points within :func:`near_spectrum_tol` of the spectrum are
    refused.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    _check_points_clear(op, lams)
    return _Kernel((op,)).norms(lams)


# ---------------------------------------------------------------------------
# the resolvent kernel
# ---------------------------------------------------------------------------
#
# Every resolvent evaluation of the package except the certified single solve
# of ``resolvent`` runs in :class:`_Kernel`.  The operator splits into the
# connected components of the nonzero pattern of |S| + |S^H|; a permutation
# makes S block diagonal with these components as blocks, so (S - lam)^{-1}
# is block diagonal too.  The layout is cached on the operator (_layout) and
# shared with ``operator_norm``, ``resolvent`` and split's checks.  Each block B is reduced once to complex Schur form
# B = Q T Q^H (a triangular B is its own, T = B and Q = I: _schur_stack),
# cached on the operator, and (B - lam)^{-1} = Q (T - lam)^{-1}
# Q^H (Golub & Van Loan, Matrix Computations, 7.6; Higham, Functions of
# Matrices, ch. 9).  A pair (S, T) is reduced on the components of the union
# of both patterns instead: every component of either operator lies inside
# one of them, so R_S and R_T are block diagonal on the same blocks and their
# difference is taken block by block.  Nodes are solved in the chunks of
# _Kernel.chunks, runs of whole quadrature panels.  The triangular inverses of
# small blocks come from back substitution vectorised over nodes and blocks
# (closed-form for order 1 and 2), those of larger blocks from LAPACK ztrtri,
# one call per node and block, in place in the output array.  For one
# operator, weighted sums are accumulated in Schur coordinates, over the
# closed and the open quadrature panels, and back-transformed once;
# Frobenius and spectral norms are unitarily invariant and are taken there
# too.  The spectral norm of a triangular inverse X of
# order m is the closed form for m <= 2, an SVD below _LANCZOS_MIN_ORDER, and
# from there on Lanczos on X^H X (the standard pseudospectra method:
# Trefethen, "Computation of pseudospectra", Acta Numerica 8, 1999; Wright &
# Trefethen, EigTool, 2002), whose value sqrt(theta_1 + rho_1) is certified
# as an upper bound by the trace of X^H X and Cauchy interlacing, with the SVD
# wherever that certificate does not close (_lanczos_norms).  A Schur factor
# T = Delta + N whose strict upper part N lies on rows R and columns C, R and
# C disjoint (``_schur_groups`` tests its exact zero pattern once), has
# X = D - D N D with D = (Delta - lam)^{-1}, as N D' N = 0 for every diagonal
# D'; Lanczos then takes its products and trace from D and N[R, C], batched
# over the nodes, and forms no X (_Coupled).  The triangular block operators
# [[D+, C], [0, D-]] with diagonal D+-, the McIntosh-Yagi blocks among them,
# are their own Schur factors of this form.  For a pair,
# every panel sum (or node value) is back-transformed before the difference,
# and spectral norms always come from the SVD.  For real operators (the
# kernel's ``real``) the integrand at conj(lam) is the complex conjugate of
# that at lam in operator coordinates, though not in Schur coordinates, as
# the complex Schur form of a real matrix is not real: ``norms`` takes each
# point below the real axis as its mirror and solves every distinct point
# once, and the quadrature driver solves half of a line (contour, "Real
# operators").  None of this checks the distance to the spectrum: callers do.
#
# Decoupled panel sums.  A panel sum sum_k c_k (T - lam_k)^{-1} is a rational
# function f of T, so with T = Z Y blockdiag(D_c) Y^{-1} Z^H it is
# Z Y blockdiag(f(D_c)) Y^{-1} Z^H (Bavely & Stewart, SIAM J. Numer. Anal. 16, 1979;
# Davies & Higham, SIAM J. Matrix Anal. Appl. 25, 2003).  For every block of
# order m >= _LAPACK_MIN_ORDER, ``totals`` takes its panel sums that way: the
# eigenvalues on the Schur diagonal that chain within _CLUSTER_DELTA of each
# other form a cluster, ztrexc makes each cluster contiguous (Z), and the
# Sylvester equations of the clusters give W = Y^{-1}, unit upper block
# triangular, column by column (_sylvester_decoupling).  Two clusters
# whose block W_KJ exceeds _COUPLING_BOUND in the Frobenius norm are merged
# and the reordering is redone, until no block does.  Then a single
# eigenvalue contributes f_j = sum_k c_k / (t_jj - lam_k), a larger cluster
# its per-node inverses.  Panels are summed there, F = blockdiag(f(D_c)); a
# panel's ||L F R||_F (L = Z Y, R = Y^{-1} Z^H) comes from L^H L and R R^H,
# cached with the transform next to the Schur factors (_piece_squares), and
# L (sum_p F_p) R, a chunk's closed or open total (a pair's every panel, and
# those of a chunk of up to two, as cheap), is an f(T) transformed once, as
# one panel was.  A block stays whole, and takes the
# per-node inverses unchanged, where the cubes of its cluster orders sum to
# more than _WHOLE_SHARE m^3, one cluster of all m among them; merging stops
# there.  The rounding of the transform grows with kappa = ||Y|| ||Y^{-1}||,
# which the quadrature driver adds to its rounding term (contour, "Error
# control"); kappa is 1 for a block left whole.  ``nodes`` and ``norms``
# never take this path, and neither does the oracle.

# Complex entries per node chunk of the kernel's work arrays (16 MiB); a
# chunk holds at least one panel, so it is larger where one panel is.
_CHUNK_ENTRIES = 1 << 20

# Blocks of this order and above are inverted by LAPACK, one call per node;
# smaller ones by back substitution vectorised over all nodes, which is
# faster up to about this order (one Intel Xeon core, OpenBLAS, 4096 nodes:
# 0.6 against 5 us per node at order 4, equal near order 12, 12 against 8 us
# at order 16).
_LAPACK_MIN_ORDER = 12

# One operator's blocks of this order and above take their spectral norms
# from Lanczos on X^H X, X the triangular inverse (_lanczos_norms): each step
# is two O(m^2) products, against an O(m^3) SVD per node below.  Measured on
# random_gap_operator(d, 7) sweeps (one BLAS thread, 64 axis points or 128
# line nodes), the two break even near order 64.  On the order-340
# McIntosh-Yagi block the 32 distinct points of the 64-point axis sweep take
# 0.56 s by SVD, 0.14 s by Lanczos on explicit inverses, and 0.025 s by
# Lanczos on the products of its coupled-diagonal Schur factor (_Coupled),
# which forms no inverse (one BLAS thread of a 2-core Xeon).  A node takes at
# most m/4 steps, and at most _LANCZOS_MAX_STEPS, about the cost of one SVD;
# the top Ritz pair is accepted at a relative residual of _LANCZOS_RTOL.
_LANCZOS_MIN_ORDER = 64
_LANCZOS_MAX_STEPS = 80
_LANCZOS_RTOL = 1e-14

# Decoupled panel sums (see above).  The cluster distance is Davies & Higham's
# delta.  The bound and the share were measured on random_gap_operator(d, s),
# s = 1, 2, 3, 7, one BLAS thread.  With a bound of 30, kappa stays below
# 8e3 for d <= 64 and every block of order d >= 128 stays whole (at 96, one
# seed of four decouples, kappa 2.6e4); with 100, d = 128 decouples at kappa
# 1.7e5 and its P_+ lies 3x further from the oracle's; with 10, three d = 64
# blocks merge clusters of order 18 to 40.  The decoupled sums of one line
# with 2 to 6 coefficient sets beat the per-node inverses while one cluster
# holds up to about 0.7 m (m >= 32): a quarter of m^3 in cluster cubes.
_CLUSTER_DELTA = 0.1
_COUPLING_BOUND = 30.0
_WHOLE_SHARE = 0.25


@dataclass(frozen=True)
class _SchurGroup:
    """All diagonal blocks of one order m, in complex Schur form
    B = Q T Q^H: their positions ``idx`` (nb, m) in the operator and the
    factors ``t`` (upper triangular) and ``q`` (unitary), both (nb, m, m).
    ``coupling`` is, for groups of order _LANCZOS_MIN_ORDER and above, the
    rows R and columns C that hold the nonzero entries of the strict upper
    parts of all t, where R and C are disjoint (each t is then
    coupled-diagonal, see :class:`_Coupled`), else None."""

    idx: np.ndarray
    t: np.ndarray
    q: np.ndarray
    coupling: tuple[np.ndarray, np.ndarray] | None


def _block_layout(pattern: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the symmetrised boolean ``pattern``, as one
    (count, m) index array per component size m (increasing); each component
    is sorted and components are ordered by their smallest index.  The graph
    is sparse: the weak components of the directed pattern are those of its
    symmetrisation."""
    _, labels = connected_components(csr_matrix(pattern), connection="weak")
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    by_size: dict[int, list[np.ndarray]] = {}
    for comp in sorted(comps, key=lambda c: c[0]):
        by_size.setdefault(comp.size, []).append(comp)
    return tuple(np.array(by_size[m]) for m in sorted(by_size))


def _layout(op: Operator) -> tuple[np.ndarray, ...]:
    """The :func:`_block_layout` of the operator's own nonzero pattern, its
    connected components, cached on the operator."""
    return op._cache("layout", lambda: _block_layout(op.entries != 0))


def _blocks(x: np.ndarray, layout) -> list[np.ndarray]:
    """The diagonal blocks of the (..., dim, dim) matrices ``x`` on
    ``layout``, one (..., count, m, m) array per block order."""
    return [x[..., idx[:, :, None], idx[:, None, :]] for idx in layout]


def _assemble(blocks, layout, out: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_blocks`: the blocks written into the zeroed
    (..., dim, dim) array ``out``, which is returned."""
    for idx, b in zip(layout, blocks):
        out[..., idx[:, :, None], idx[:, None, :]] = b
    return out


def _schur_groups(op: Operator, layout=None) -> tuple[_SchurGroup, ...]:
    """Schur factors of the operator's diagonal blocks on ``layout`` (index
    arrays as from :func:`_block_layout`, each block a union of components of
    the operator), grouped by order; the operator's own components without
    one.  Cached on the operator per layout, keyed by each group's shape and
    indices, as one index list can be grouped in more than one way."""
    if layout is None:
        return op._cache("schur", lambda: _schur_groups(op, _layout(op)))

    def factors():
        groups = []
        for idx, blocks in zip(layout, _blocks(op.entries, layout)):
            t, q, _ = _schur_stack(blocks)
            coupling = None
            if idx.shape[1] >= _LANCZOS_MIN_ORDER:  # the only orders that use it
                upper = (np.triu(t, 1) != 0).any(axis=0)
                rows, cols = np.flatnonzero(upper.any(axis=1)), np.flatnonzero(upper.any(axis=0))
                if not np.isin(rows, cols).any():
                    coupling = (rows, cols)
            for a in (idx, t, q, *(coupling or ())):
                a.setflags(write=False)
            groups.append(_SchurGroup(idx=idx, t=t, q=q, coupling=coupling))
        return tuple(groups)

    return op._cache(("schur", *((idx.shape, idx.tobytes()) for idx in layout)), factors)


def _schur_stack(blocks: np.ndarray, ordered: bool = False):
    """Complex Schur factors B = Q T Q^H of the (nb, m, m) stack ``blocks``
    and the count k of each T's diagonal entries with Re > 0, which come
    first where ``ordered``.  A block whose strict lower part is exactly zero
    (and, ordered, whose Re > 0 diagonal entries come first) is its own
    factor, T = B and Q = I, with no rounding; every other block takes one
    sorted or unsorted sla.schur call."""
    right = np.diagonal(blocks, axis1=1, axis2=2).real > 0
    own = ~np.tril(blocks, -1).any(axis=(1, 2))
    if ordered:
        own &= ~(right[:, 1:] & ~right[:, :-1]).any(axis=1)
    t, q = blocks.copy(), np.broadcast_to(np.eye(blocks.shape[1], dtype=complex), blocks.shape).copy()
    sort = (lambda z: z.real > 0) if ordered else None
    for b in np.flatnonzero(~own):
        t[b], q[b] = sla.schur(blocks[b], output="complex", sort=sort)[:2]
    return t, q, (np.diagonal(t, axis1=1, axis2=2).real > 0).sum(axis=1)


def _triangular_inverses(t: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """(T_b - lam_k)^{-1} for every node k and upper triangular block T_b of
    the (nb, m, m) stack ``t``, shape (k, nb, m, m)."""
    nb, m = t.shape[:2]
    diag = np.arange(m)
    if m >= _LAPACK_MIN_ORDER:
        out = np.empty((lams.size, nb, m, m), dtype=complex)
        out[...] = t
        out[..., diag, diag] -= lams[:, None, None]
        # x.T is the lower triangular (T - lam)^T in Fortran order, which
        # LAPACK inverts in place, so x holds (T - lam)^{-1}
        for k, x in enumerate(out.reshape(-1, m, m)):
            if _ztrtri(x.T, lower=1, overwrite_c=1)[1] != 0:
                raise np.linalg.LinAlgError(f"singular resolvent at lambda={lams[k // nb]}")
        return out
    # Back substitution row by row from the bottom, vectorised over nodes and
    # blocks; for m = 2 it is the closed form
    # [[a, c], [0, d]]^{-1} = [[1/a, -c/(a d)], [0, 1/d]].
    inv_diag = 1.0 / (np.diagonal(t, axis1=1, axis2=2)[None] - lams[:, None, None])
    out = np.zeros((lams.size, nb, m, m), dtype=complex)
    out[..., diag, diag] = 1.0
    for i in range(m - 1, -1, -1):
        row = out[:, :, i, :]
        for j in range(i + 1, m):
            row -= t[None, :, i, j, None] * out[:, :, j, :]
        row *= inv_diag[:, :, i, None]
    return out


def _node_sums(c: np.ndarray, t: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_k c[p, s, k] (T_b - lam_{p,k})^{-1} over the nodes k of every panel
    p, for coefficients ``c`` (panels, sets, nodes per panel) and the (nb, m,
    m) triangular stack ``t``: per-node inverses, reduced by one batched
    product, shape (sets, panels, nb, m, m)."""
    n, n_sets, q = c.shape
    prod = np.matmul(c, _triangular_inverses(t, lams).reshape(n, q, t.size))
    return prod.transpose(1, 0, 2).reshape(n_sets, n, *t.shape)


@dataclass(frozen=True)
class _Decoupling:
    """A block diagonalisation T = L blockdiag(D_c) R, R = L^{-1}, of one
    triangular Schur factor T of order m: ``d`` is T reordered so that every
    cluster of eigenvalues is contiguous, ``edges`` the cluster bounds on its
    diagonal (0 first, m last), whose diagonal blocks are the D_c;
    ``left`` = Z Y and ``right`` = Y^{-1} Z^H, Z the unitary of the
    reordering and Y the unit upper block triangular Sylvester transform;
    ``kappa`` = ||Y|| ||Y^{-1}||; ``single`` the clusters of order 1 (their
    positions), ``clusters`` the others (s, e), and ``squares`` the operands
    of :func:`_piece_squares`: with G = L^H L and H = R R^H,
    ((G o H^T)[single, single]^T, H, G[:, C], G[single, C]), C the positions
    in ``clusters``."""

    edges: np.ndarray
    d: np.ndarray
    left: np.ndarray
    right: np.ndarray
    kappa: float
    single: np.ndarray
    clusters: tuple
    squares: tuple[np.ndarray, ...]


def _decoupling(t: np.ndarray) -> _Decoupling | None:
    """The block diagonalisation of the triangular Schur factor ``t`` used
    for its panel sums, or None where the block stays whole (see "Decoupled
    panel sums")."""
    m = t.shape[0]
    ev = np.diagonal(t)
    labels = connected_components(np.abs(ev[:, None] - ev[None, :]) <= _CLUSTER_DELTA)[1]
    d, z = np.array(t, order="F"), np.eye(m, dtype=complex, order="F")
    while True:
        sizes = np.bincount(labels)
        if np.sum(sizes.astype(float) ** 3) > _WHOLE_SHARE * float(m) ** 3:
            return None
        # clusters in the order of their first position, each in its own order
        first = np.full(sizes.size, m)
        np.minimum.at(first, labels, np.arange(m))
        perm = np.argsort(first[labels], kind="stable")
        slots = list(range(m))  # the original position at each position
        for p, want in enumerate(perm):
            f = slots.index(want)
            if f != p:
                d, z = _ztrexc(d, z, f + 1, p + 1, overwrite_a=1, overwrite_q=1)[:2]
                slots.insert(p, slots.pop(f))
        labels = labels[perm]
        edges = np.flatnonzero(np.diff(labels, prepend=-1, append=-1))
        y_inv = _sylvester_decoupling(d, edges)
        # the Frobenius norm of every block (K, J) of Y^{-1}, the solution
        # of the Sylvester equation that decouples cluster K from cluster J
        blocks = np.add.reduceat(np.add.reduceat(np.abs(y_inv) ** 2, edges[:-1], axis=0), edges[:-1], axis=1)
        np.fill_diagonal(blocks, 0.0)
        if not np.any(blocks > _COUPLING_BOUND**2):
            break
        merged = connected_components(blocks > _COUPLING_BOUND**2)[1]
        labels = merged[np.unique(labels, return_inverse=True)[1]]
    y = _ztrtri(y_inv, unitdiag=1)[0]
    left, right = z @ y, y_inv @ z.conj().T
    single, (g, h) = edges[:-1][np.diff(edges) == 1], (left.conj().T @ left, right @ right.conj().T)
    g_rows = g[:, np.flatnonzero(np.repeat(np.diff(edges) > 1, np.diff(edges)))]
    squares = ((g * h.T)[np.ix_(single, single)].T, h, g_rows, g_rows[single])
    for a in (edges, d, left, right, single, *squares):
        a.setflags(write=False)
    clusters = tuple((s, e) for s, e in zip(edges[:-1], edges[1:]) if e > s + 1)
    return _Decoupling(edges, d, left, right, spectral_norm(y) * spectral_norm(y_inv), single, clusters, squares)


def _sylvester_decoupling(d: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """W = Y^{-1} for the triangular ``d`` with clusters ``edges``: unit upper
    block triangular, with W d = D W, D the diagonal blocks D_K of d.

    Block (K, J) of W d = D W reads D_K W_KJ - W_KJ D_J = W[K, :s] d[:s, J],
    s the start of cluster J, whose right side holds only the columns before
    J.  So the columns are solved in order, each column j of J from
    (D_K - d_jj) w_Kj = W[K, :s] d[:s, j] + W[K, s:j] d[s:j, j]: one division
    for every single eigenvalue K and one triangular solve for the rows of
    the larger clusters, which the Sylvester equations of the clusters
    (ztrsyl, one per cluster against all later ones) would take element by
    element, five times slower at m = 256."""
    m = d.shape[0]
    ev = np.diagonal(d)
    w = np.eye(m, dtype=complex)
    sizes = np.diff(edges)
    in_cluster = np.flatnonzero(np.repeat(sizes > 1, sizes))
    label = np.repeat(np.arange(sizes.size), sizes)
    blocks = np.where(label[:, None] == label[None, :], d, 0.0)  # the diagonal blocks D_K
    for s, e in zip(edges[1:-1], edges[2:]):
        rhs = w[:s, :s] @ d[:s, s:e]
        rows = in_cluster[in_cluster < s]
        sub = blocks[np.ix_(rows, rows)]
        for j in range(s, e):
            col = rhs[:, j - s] + w[:s, s:j] @ d[s:j, j]
            w[:s, j] = col / (ev[:s] - ev[j])
            if rows.size:
                w[rows, j] = _ztrtrs(sub - ev[j] * np.eye(rows.size), col[rows])[0]
    return w


def _decouplings(op: Operator, group: _SchurGroup) -> tuple:
    """Per block of ``group``, its :func:`_decoupling`, or None for blocks of
    order below _LAPACK_MIN_ORDER; cached on the operator, keyed like the
    Schur factors."""
    nb, m = group.idx.shape
    if m < _LAPACK_MIN_ORDER:
        return (None,) * nb
    key = ("decoupling", group.idx.shape, group.idx.tobytes())
    return op._cache(key, lambda: tuple(_decoupling(t) for t in group.t))


def _pieces(part: _Decoupling, c: np.ndarray, lams: np.ndarray) -> list[np.ndarray]:
    """:func:`_node_sums` of a decoupled block as F's pieces: f_j (sets, panels, count), then each cluster's block."""
    (n, n_sets, q), ev = c.shape, np.diagonal(part.d)[part.single]
    f = np.matmul(c, (1.0 / (ev - lams[:, None])).reshape(n, q, ev.size)).transpose(1, 0, 2)
    return [f, *(_node_sums(c, part.d[None, s:e, s:e], lams)[:, :, 0] for s, e in part.clusters)]


def _from_pieces(part: _Decoupling, pieces: list[np.ndarray]) -> np.ndarray:
    """L F R for F given by its ``pieces`` (..., count) and (..., k, k): (..., m, m)."""
    (f, *blocks), m = pieces, part.d.shape[0]
    left_f = np.empty((*f.shape[:-1], m, m), dtype=complex)
    left_f[..., part.single] = part.left[:, part.single] * f[..., None, :]  # the columns of L scaled
    for (s, e), block in zip(part.clusters, blocks):  # or, on a cluster, times its block
        left_f[..., s:e] = part.left[:, s:e] @ block
    out = (left_f.reshape(-1, m) @ part.right).reshape(left_f.shape)
    return np.multiply(out, np.tri(m, dtype=bool).T, out=out)  # f(T) is upper triangular: no rounding below


def _piece_squares(part: _Decoupling, pieces: list[np.ndarray]) -> np.ndarray:
    """||L F R||_F^2 (...) for F = D + C given by its ``pieces``, D the f_j
    and C the cluster blocks C_c: with G = L^H L, H = R R^H and V = C H,
    Re tr(F^H G F H) = f^H (G o H^T) f + 2 Re tr(D^H G V) + Re sum_c <C_c,
    (G V)[c, c]>, O(m N) for N entries, no more work than one L F R; the
    parts of G and H are cached (``part.squares``)."""
    (gh, h, g_rows, g_single), single, (d, *blocks) = part.squares, part.single, pieces
    out = np.einsum("...j,...j->...", d.conj(), d @ gh)
    if blocks:  # G on the rows of V, g_rows, and of these the rows of the single eigenvalues
        v = np.concatenate([block @ h[s:e] for (s, e), block in zip(part.clusters, blocks)], axis=-2)
        out += 2.0 * np.einsum("...j,...j->...", d.conj(), np.einsum("ji,...ij->...j", g_single, v[..., single]))
        for (s, e), block in zip(part.clusters, blocks):
            out += np.einsum("...ij,...ij->...", block.conj(), g_rows[s:e] @ v[..., s:e])
    return out.real


def _lanczos_start(m: int) -> np.ndarray:
    """The fixed unit start vector of :func:`_lanczos_norms`: Weyl sequences
    in its real and imaginary parts, deterministic and without a symmetry
    that a structured block could be orthogonal to."""
    j = np.arange(1.0, m + 1.0)
    v = (j * 0.6180339887498949) % 1.0 - 0.5 + 1j * ((j * 1.4142135623730951) % 1.0 - 0.5)
    return v / np.linalg.norm(v)


def _squares(x: np.ndarray) -> np.ndarray:
    """The sum of |x|^2 over every axis but the first, from one pass over a
    real view."""
    real = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[0], -1)
    return np.einsum("nk,nk->n", real, real)


class _Explicit:
    """An explicit (n, m, m) stack X as the product source of
    :func:`_lanczos_norms`: per matrix, so X itself is never copied."""

    def __init__(self, x: np.ndarray):
        self.x, self.shape = x, x.shape

    def trace(self) -> np.ndarray:
        """tr X^H X = ||X||_F^2 per matrix."""
        return _squares(self.x)

    def gram(self, todo: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """X v and X^H X v for the matrices ``todo``, one row of ``v`` each."""
        xv = np.array([self.x[i] @ u for i, u in zip(todo, v)])
        return xv, np.array([self.x[i].T @ u for i, u in zip(todo, xv.conj())]).conj()

    def svd_norms(self, idx) -> np.ndarray:
        return np.linalg.svd(self.x[idx], compute_uv=False)[:, 0]


class _Coupled:
    """The triangular inverses X_k = (T - lam_k)^{-1} at the nodes ``lams``
    of one coupled-diagonal Schur factor T = Delta + N, whose strict upper
    part N is nonzero only on rows R and columns C, R and C disjoint
    (``_SchurGroup.coupling``), as the product source of
    :func:`_lanczos_norms`, without forming X.

    Then N Delta' N = 0 for every diagonal Delta', so X_k = D_k - D_k N D_k,
    D_k = (Delta - lam_k)^{-1}: each product is one batched product with
    N[R, C] over all nodes, and the trace is sum_i |d_i|^2 plus
    sum_ij |d_i n_ij d_j|^2.  N only meets vectors already scaled by D, and
    no entry of N is squared alone, as N may not square in range where X
    does (the entries of the McIntosh-Yagi blocks reach 1e225 at m = 4).
    The fallback SVDs take the explicit inverses of the nodes that need
    them."""

    def __init__(self, t: np.ndarray, coupling, lams: np.ndarray):
        self.t, self.lams, (self.rows, self.cols) = t, lams, coupling
        self.shape = (lams.size, *t.shape)
        self.d = 1.0 / (np.diagonal(t)[None] - lams[:, None])
        self.n = t[self.rows[:, None], self.cols]

    def trace(self) -> np.ndarray:
        size = np.abs(self.d)
        off = np.empty((self.shape[0], *self.n.shape))  # |d_i n_ij d_j|
        np.multiply(np.abs(self.n), size[:, None, self.cols], out=off)
        off *= size[:, self.rows, None]
        return _squares(self.d) + _squares(off)

    def gram(self, todo: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """As :meth:`_Explicit.gram`: X v = D v - D N D v, then X^H on it."""
        d, r, c = self.d[todo], self.rows, self.cols
        xv = d * v
        xv[:, r] -= d[:, r] * (xv[:, c] @ self.n.T)
        w = d.conj() * xv  # X^H u = D^H u - D^H N^H D^H u
        w[:, c] -= d[:, c].conj() * (w[:, r] @ self.n.conj())
        return xv, w

    def svd_norms(self, idx) -> np.ndarray:
        x = _triangular_inverses(self.t[None], self.lams[idx])[:, 0]
        return np.linalg.svd(x, compute_uv=False)[:, 0]


def _lanczos_norms(x) -> np.ndarray:
    """Upper bounds on the spectral norms of an (n, m, m) stack X, given
    explicitly or as a :class:`_Coupled` source, certified by Lanczos on
    A = X^H X, or the SVD norms where the certificate fails.

    Lanczos with full reorthogonalisation runs from the fixed start vector,
    two matrix-vector products per step.  After k steps the Ritz values
    theta_1 >= ... >= theta_k of the tridiagonal T_k satisfy
    theta_j <= lambda_j, the eigenvalues of A (Cauchy interlacing), and some
    eigenvalue lies within rho_1 = beta_k |e_k^T s_1| of theta_1.  As
    tr A = ||X||_F^2 and tr T_k is the sum of the Ritz values,

        lambda_2 <= tr A - theta_1 - sum_{j>=3} theta_j = theta_2 + tr A - tr T_k.

    Once that bound, plus a rounding margin of 4 m eps tr A, is below
    theta_1 - rho_1, the eigenvalue within rho_1 of theta_1 is lambda_1, so
    ||X||_2^2 = lambda_1 <= theta_1 + rho_1, and sqrt(theta_1 + rho_1) is
    returned at the first step where also rho_1 <= _LANCZOS_RTOL theta_1.

    Every other matrix gets its SVD norm: one whose certificate has not
    closed within min(m/4, _LANCZOS_MAX_STEPS) steps, or whose Krylov space
    turns invariant, and, from the fourth step on, one whose tr A - tr T_k
    exceeds the steps left times G, the Gershgorin bound of T_k: each step
    takes off at most lambda_1, which G estimates, so the bound could not
    close in time.
    """
    if isinstance(x, np.ndarray):
        x = _Explicit(x)
    n, m, _ = x.shape
    steps = min(_LANCZOS_MAX_STEPS, m // 4)
    out = np.empty(n)
    trace = x.trace()
    # the matrices still iterating, and per step their Lanczos vectors and
    # coefficients
    todo = np.arange(n)
    basis = [np.tile(_lanczos_start(m), (n, 1))]
    alpha, beta = [], []
    fallback = []
    for k in range(steps):
        xv, w = x.gram(todo, basis[-1])  # X v_k and A v_k
        alpha.append(np.einsum("nm,nm->n", xv.conj(), xv).real)
        vs = np.stack(basis, axis=1)
        vh = vs.conj().transpose(0, 2, 1)
        for _ in range(2):  # classical Gram-Schmidt against the whole basis, twice
            w -= (w[:, None, :] @ vh @ vs)[:, 0]
        beta.append(np.linalg.norm(w, axis=1))
        a, b = np.stack(alpha, axis=1), np.stack(beta, axis=1)
        rest = trace - a.sum(axis=1) + 4 * m * _MACHINE_EPS * trace
        gersh = a.max(axis=1) + 2.0 * b.max(axis=1)
        certified = np.zeros(todo.size, dtype=bool)
        if np.any(rest < gersh):  # else no gap test can pass, as theta_1 <= G
            tri = np.zeros((todo.size, k + 1, k + 1))
            diag = np.arange(k + 1)
            tri[:, diag, diag] = a
            tri[:, diag[1:], diag[:-1]] = tri[:, diag[:-1], diag[1:]] = b[:, :-1]
            theta, s = np.linalg.eigh(tri)
            top = theta[:, -1]
            rho = b[:, -1] * np.abs(s[:, -1, -1])
            second = theta[:, -2] if k else 0.0
            certified = (rho <= _LANCZOS_RTOL * top) & (second + rest < top - rho)
            out[todo[certified]] = np.sqrt(top + rho)[certified]
        done = (
            certified
            | (k == steps - 1)
            | (b[:, -1] <= _MACHINE_EPS * gersh)
            | ((k >= 3) & (rest > (steps - k) * gersh))
        )
        fallback.extend(todo[done & ~certified])
        if done.all():
            break
        keep = ~done
        todo, trace, w = todo[keep], trace[keep], w[keep]
        basis, alpha, beta = ([c[keep] for c in cs] for cs in (basis, alpha, beta))
        basis.append(w / beta[-1][:, None])
    if fallback:
        out[fallback] = x.svd_norms(fallback)
    return out


def _block_norms(x: np.ndarray, spectral: bool) -> np.ndarray:
    """Norm of every block of a (k, nb, m, m) stack, shape (k, nb)."""
    m = x.shape[-1]
    if not spectral or m == 1:
        # one pass over a real view: no temporaries the size of the stack
        v = np.ascontiguousarray(x).view(np.float64)
        return np.sqrt(np.einsum("kbij,kbij->kb", v, v))
    if m == 2:
        # sigma_max^2 is the larger eigenvalue of X^H X = [[p, z], [z*, s]],
        # written as a sum of nonnegative terms so that nothing cancels
        fro2 = (x.real**2 + x.imag**2).sum(axis=(2, 3))
        col = (x.real**2 + x.imag**2).sum(axis=2)
        z = x[:, :, 0, 0].conj() * x[:, :, 0, 1] + x[:, :, 1, 0].conj() * x[:, :, 1, 1]
        half_gap = 0.5 * (col[:, :, 0] - col[:, :, 1])
        return np.sqrt(0.5 * fro2 + np.hypot(half_gap, np.abs(z)))
    return np.linalg.svd(x, compute_uv=False)[:, :, 0]


def _stack_norms(blocks: list[np.ndarray], spectral: bool) -> np.ndarray:
    """Norms of block-diagonal matrices given as one (..., count, m, m) array
    per block order, all with the same leading shape, which the result has:
    the largest block norm (spectral) or the root of their sum of squares
    (Frobenius)."""
    lead = blocks[0].shape[:-3]
    per_block = np.concatenate([_block_norms(b.reshape(-1, *b.shape[-3:]), spectral) for b in blocks], axis=1)
    norms = per_block.max(axis=1) if spectral else np.sqrt((per_block**2).sum(axis=1))
    return norms.reshape(lead)


def _from_schur(group: _SchurGroup, x: np.ndarray) -> np.ndarray:
    """Q X Q^H for a (..., nb, m, m) stack given in the group's Schur
    coordinates.  The stack is folded into the columns, then the rows, of two
    products per block, instead of one small product per matrix and block."""
    lead = x.shape[:-3]
    nb, m = group.idx.shape
    x = x.reshape(-1, nb, m, m)
    k = x.shape[0]
    left = group.q @ x.transpose(1, 2, 0, 3).reshape(nb, m, k * m)  # columns (k, j)
    left = left.reshape(nb, m, k, m).transpose(0, 2, 1, 3).reshape(nb, k * m, m)
    out = left @ group.q.conj().transpose(0, 2, 1)  # rows (k, i)
    return out.reshape(nb, k, m, m).transpose(1, 0, 2, 3).reshape(*lead, nb, m, m)


class _Kernel:
    """The resolvent kernel: node values, per-node norms and weighted sums of
    the integrand over closed and open panels, in block coordinates where
    Frobenius and spectral norms are taken block by block.

    For one operator the integrand is its resolvent, in Schur coordinates; for
    a pair (S, T) it is R_S - R_T, on the diagonal blocks of the union of both
    nonzero patterns, in operator coordinates.  Values come as one
    (..., count, m, m) array per block order.  The nodes are not checked
    against the spectrum; callers do that first.
    """

    def __init__(self, ops):
        self.ops = tuple(ops)
        if len(self.ops) == 1:
            self.groups = (_schur_groups(self.ops[0]),)
        else:
            s_op, t_op = self.ops
            layout = _block_layout((s_op.entries != 0) | (t_op.entries != 0))
            self.groups = tuple(_schur_groups(op, layout) for op in self.ops)
        self.layout = [g.idx for g in self.groups[0]]
        self.width = sum(g.t.size for groups in self.groups for g in groups)
        self.real = not any(op.entries.imag.any() for op in self.ops)  # mirror folds

    def zeros(self, n_sets: int) -> list[np.ndarray]:
        """Zero sums for ``n_sets`` coefficient sets, one (sets, count, m, m)
        array per block order."""
        return [np.zeros((n_sets, *idx.shape, idx.shape[1]), dtype=complex) for idx in self.layout]

    def chunks(self, count: int, q: int = 1) -> list[slice]:
        """Node slices covering ``count`` nodes in runs of whole panels of
        ``q`` consecutive nodes, each filling about one node chunk of
        _CHUNK_ENTRIES complex entries, and at least one panel."""
        step = q * max(1, _CHUNK_ENTRIES // (self.width * q))
        return [slice(first, min(first + step, count)) for first in range(0, count, step)]

    def _integrand(self, per_op) -> list[np.ndarray]:
        """Kernel coordinates from Schur-coordinate stacks, one list per
        operator: unchanged for one operator, back-transformed and subtracted
        for a pair."""
        if len(per_op) == 1:
            return per_op[0]
        s, t = ([_from_schur(g, x) for g, x in zip(gs, xs)] for gs, xs in zip(self.groups, per_op))
        return [a - b for a, b in zip(s, t)]

    def nodes(self, lams: np.ndarray) -> list[np.ndarray]:
        """The integrand at every node, one (nodes, count, m, m) array per
        block order."""
        return self._integrand([[_triangular_inverses(g.t, lams) for g in gs] for gs in self.groups])

    def norms(self, lams: np.ndarray) -> np.ndarray:
        """Spectral norm of the integrand at every node; for one operator,
        blocks of order _LANCZOS_MIN_ORDER and above give certified upper
        bounds by :func:`_lanczos_norms`, coupled-diagonal ones (see
        :class:`_Coupled`) without per-node inverses.  For a real kernel a
        node below the real axis takes the norm of its mirror conj(lam),
        which is the same, and each distinct node is solved once."""

        def group_norms(g, lams):  # (nodes, nb) for one operator's group
            m = g.idx.shape[1]
            if g.coupling is not None:
                return np.stack([_lanczos_norms(_Coupled(t, g.coupling, lams)) for t in g.t], axis=1)
            if m < _LANCZOS_MIN_ORDER:
                return _block_norms(_triangular_inverses(g.t, lams), True)
            return _lanczos_norms(_triangular_inverses(g.t, lams).reshape(-1, m, m)).reshape(lams.size, -1)

        if self.real:
            lams, back = np.unique(np.where(lams.imag < 0, lams.conj(), lams), return_inverse=True)
        out = np.empty(lams.size)
        for part in self.chunks(lams.size):
            if len(self.ops) == 1:
                out[part] = np.concatenate([group_norms(g, lams[part]) for g in self.groups[0]], axis=1).max(axis=1)
            else:
                out[part] = _stack_norms(self.nodes(lams[part]), True)
        return out[back] if self.real else out

    def totals(self, lams: np.ndarray, coef_sets, q: int, share: np.ndarray):
        """The ordered sums  sum_k coef[k] * integrand(lam_k)  over the closed and
        the open panels of ``q`` nodes, one (sets, count, m, m) array per block
        order each (Schur coordinates for one operator), and the open mask: the
        panels where the Frobenius norm of one set of the second half (the
        estimates) exceeds ``share``.  Decoupled blocks sum and take norms in
        decoupled form ("Decoupled panel sums").  Pass one of :meth:`chunks`."""
        coefs = np.asarray(coef_sets, dtype=complex)
        n_sets, n = coefs.shape[0], lams.size // q
        # (panels, sets, nodes per panel) against (panels, nodes per panel, entries)
        c = coefs.reshape(n_sets, n, q).transpose(1, 0, 2)
        est, n_est = slice(n_sets // 2, None), n_sets - n_sets // 2

        def panel_sums(op, g):  # the whole blocks' as one stack, the others' as their pieces
            parts = _decouplings(op, g)
            whole = [b for b, part in enumerate(parts) if part is None]
            return g, whole, _node_sums(c, g.t[whole], lams), [
                (b, part, _pieces(part, c, lams)) for b, part in enumerate(parts) if part is not None]

        def reduced(g, whole, stack, decoupled, sel=None):  # the sums over the panels sel, or every panel
            total = (lambda x: x) if sel is None else (lambda x: x[:, sel].sum(axis=1))
            out = head = total(stack)
            if decoupled:
                out = np.zeros((*head.shape[:-3], *g.t.shape), dtype=complex)
                out[..., whole, :, :] = head
            for b, part, a in decoupled if sel is None or sel.any() else ():  # else the total is zero
                out[..., b, :, :] = _from_pieces(part, [total(x) for x in a])
            return out

        panels = [[panel_sums(op, g) for g in gs] for op, gs in zip(self.ops, self.groups)]
        panels = panels[0] if len(self.ops) == 1 and n > 2 else [  # a pair's, or up to two panels, one by one
            (None, None, v, []) for v in self._integrand([[reduced(*p) for p in ps] for ps in panels])]
        # the estimates' squared Frobenius norms per block, a decoupled one's from its grams
        squares = [_block_norms(x[est].reshape(n_est * n, *x.shape[-3:]), False) ** 2 for _, _, x, _ in panels]
        squares += [_piece_squares(p, [x[est] for x in a]).reshape(-1, 1) for *_, ds in panels for _, p, a in ds]
        fro = np.sqrt(np.maximum(np.concatenate(squares, axis=1).sum(axis=1), 0.0)).reshape(n_est, n)
        is_open = np.any(fro > share, axis=0)
        return [[reduced(*p, sel) for p in panels] for sel in (~is_open, is_open)], is_open

    @property
    def kappa(self) -> float:
        """The largest decoupling condition ||Y|| ||Y^{-1}|| of the blocks
        whose panel sums :meth:`totals` takes decoupled, 1 if there is none."""
        parts = [p for op, gs in zip(self.ops, self.groups) for g in gs for p in _decouplings(op, g)]
        return max([1.0] + [p.kappa for p in parts if p is not None])

    def neumann(self, mu, scale: float) -> list[np.ndarray]:
        """The far fields  -sum_k mu[i, k] (X/scale)^k  of the moment sets, an
        array ``mu`` (sets, K), X the operator, like :meth:`totals`.  Powers of
        X/scale, of norm at most 1/2 for scale >= 2 ||X||, cannot overflow
        where those of X can."""
        def polynomial(g):
            x, power = g.t / scale, np.broadcast_to(np.eye(g.t.shape[-1]), g.t.shape)
            out = np.zeros((mu.shape[0], *x.shape), dtype=complex)
            for coef in mu.T:
                out -= coef[:, None, None, None] * power
                power = power @ x
            return out

        return self._integrand([[polynomial(g) for g in gs] for gs in self.groups])

    def operator(self, blocks) -> list[np.ndarray]:
        """Blocks in kernel coordinates, one (..., count, m, m) array per
        block order, in operator coordinates: back-transformed for one
        operator, unchanged for a pair."""
        if len(self.ops) == 1:
            return [_from_schur(g, b) for g, b in zip(self.groups[0], blocks)]
        return blocks

    def dense(self, blocks, out: np.ndarray) -> np.ndarray:
        """The matrices, from one (..., count, m, m) array per block order in
        operator coordinates (see :meth:`operator`), all with the same leading
        shape, written into the zeroed (..., dim, dim) array ``out``, which is
        returned."""
        return _assemble(blocks, self.layout, out)


# ---------------------------------------------------------------------------
# the projection oracle
# ---------------------------------------------------------------------------


def oracle_projection(op: Operator) -> ProjectionPair:
    """Riesz spectral projections onto the right/left half-plane invariant
    subspaces, by one ordered Schur decomposition per connected component.

    With a component ``B = Q T Q^H`` and its right-half-plane eigenvalues
    ordered first, the coupling ``X`` solving ``T11 X - X T22 = T12`` (one
    triangular Sylvester solve, as in Bartels & Stewart) yields the
    projections ``[[I, X], [0, 0]]`` and ``[[0, -X], [0, I]]`` in Schur
    coordinates, so ``Q [-X; I]`` spans the range of ``P_-``.  S is the
    direct sum of its components, so this is an ordered Schur form of S up to
    a permutation, in which each solve scales only its own component; a
    triangular component already so ordered is its own Schur form
    (:func:`_schur_stack`), and every basis column lies on one component.
    This is the ground-truth oracle the contour quadrature is checked
    against; it never reads the kernel's cached factors, and eigenvalues are
    never assumed simple.  An eigenvalue on the imaginary axis is refused by
    the same zero-gap check as the quadrature's (:func:`_spectral_gap`).
    """
    _spectral_gap(op)
    n = op.dim
    p_plus, basis, is_plus = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex), np.zeros(n, dtype=bool)
    for idx, blocks in zip(_layout(op), _blocks(op.entries, _layout(op))):
        t, q, ranks = _schur_stack(blocks, ordered=True)
        m = idx.shape[1]
        for k in np.unique(ranks):  # per rank, batched: core = [[I, X], [0, 0]]
            rows, t_k, q_k = idx[ranks == k], t[ranks == k], q[ranks == k]
            core = np.zeros_like(q_k)
            core[:, :k, :k] = np.eye(k)
            x = core[:, :k, k:]  # solved in place
            for x_b, t_b in zip(x if 0 < k < m else (), t_k):  # ztrsyl rejects empty blocks
                x_b[...], scale, _ = _ztrsyl(t_b[:k, :k], t_b[k:, k:], t_b[:k, k:], isgn=-1)
                x_b /= scale
            _assemble([core if k == m else q_k @ core @ q_k.conj().transpose(0, 2, 1)], [rows], p_plus)
            span = q_k @ np.concatenate([-x, np.broadcast_to(np.eye(m - k), (len(rows), m - k, m - k))], axis=1)
            _assemble([np.concatenate([q_k[:, :, :k], np.linalg.qr(span)[0]], axis=2)], [rows], basis)
            is_plus[rows[:, :k]] = True
    return ProjectionPair(p_plus, np.eye(n, dtype=complex) - p_plus, basis[:, is_plus], basis[:, ~is_plus])


# ---------------------------------------------------------------------------
# block families
# ---------------------------------------------------------------------------


def _require_params(family: str, params: dict, allowed: set[str]):
    unknown = set(params) - allowed
    if unknown:
        raise OperatorError(f"family '{family}' does not accept parameters {sorted(unknown)}")


def _param(name: str, value, convert=float):
    """``convert(value)``; a value that does not convert, such as a string
    or null, is refused naming the parameter."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise OperatorError(f"parameter {name} must be numeric, got {value!r}") from exc


def _blocks_dichotomy(params: dict, n_blocks: int) -> list[np.ndarray]:
    # S_n = [[n, 2n^2], [0, -n]]: one eigenvalue at +n, one at -n, with a
    # coupling that makes the spectral projections grow like n.
    _require_params("dichotomy-2.3", params, set())
    return [
        np.array([[n, 2.0 * n * n], [0.0, -n]], dtype=complex)
        for n in range(1, n_blocks + 1)
    ]


def _blocks_almost_bisect(params: dict, n_blocks: int) -> list[np.ndarray]:
    # S_n = [[n, 2n^(1+p)], [0, -n]] with 0 < p < 1: resolvent decay on the
    # axis degrades to |lambda|^(p-1) while the projections grow like n^p.
    _require_params("almost-bisect-5.5", params, {"p"})
    if "p" not in params:
        raise OperatorError("family 'almost-bisect-5.5' requires parameter p")
    p = _param("p", params["p"])
    if not 0.0 < p < 1.0:
        # p = 0 degenerates to the bounded-coupling family whose axis decay is
        # a full power of 1/|lambda|; it is a different regime, so refuse.
        raise OperatorError(f"parameter p must lie strictly in (0, 1), got {p}")
    return [
        np.array([[n, 2.0 * n ** (1.0 + p)], [0.0, -n]], dtype=complex)
        for n in range(1, n_blocks + 1)
    ]


def _blocks_constant_diag(params: dict, n_blocks: int) -> list[np.ndarray]:
    _require_params("constant-diag", params, {"values"})
    values = params.get("values", (1.0, -1.0))
    vals = np.atleast_1d(_param("values", values, lambda v: np.asarray(v, dtype=complex)))
    if not np.isfinite(vals).all():  # null converts to nan rather than failing
        raise OperatorError(f"parameter values must be finite numbers, got {values!r}")
    if vals.size == 0:
        raise OperatorError("family 'constant-diag' needs at least one diagonal value")
    return [np.diag(vals) for _ in range(n_blocks)]


def mcintosh_yagi_pick_n(m_const: float, m: int) -> int:
    """Smallest matrix order n with (M-1)/(pi*sqrt(18)) * log(n/2 + 1) >= m."""
    c = (m_const - 1.0) / (np.pi * np.sqrt(18.0))
    with np.errstate(over="ignore"):
        n = 2.0 * (np.exp(m / c) - 1.0)  # the real solution of n/2 + 1 = e^(m/c)
    # Walk up from a little below it, so the returned n is the smallest integer
    # satisfying the inequality despite float fuzz.  A solution above the cap,
    # inf or nan skips the walk (int() would raise on inf) and is refused.
    if n <= _BLOCK_SIZE_CAP:
        n = max(1, int(np.ceil(n)) - 3)
        while c * np.log(n / 2.0 + 1.0) < m:
            n += 1
    if not n <= _BLOCK_SIZE_CAP:
        raise OperatorError(
            f"desk-scale exceeded: block order n={n:.6g} above cap {_BLOCK_SIZE_CAP}"
        )
    return n


def mcintosh_yagi_parts(m_const: float, m: int):
    """Ingredients of the m-th dyadic Toeplitz-coupled block.

    Returns ``(n, D, B)`` where D = diag(2^0, ..., 2^n) and B is the
    antisymmetric Toeplitz coupling with entries (M-1)/(pi*(j-i)) off the
    diagonal.  The block itself is [[D, B@D], [0, -D]].
    """
    if not 1.0 < m_const < np.inf:
        raise OperatorError(f"constant M must be finite and exceed 1, got {m_const}")
    if m < 1:
        raise OperatorError(f"block index m must be >= 1, got {m}")
    n = mcintosh_yagi_pick_n(m_const, m)
    # the largest entry of D and B@D, max(1, (M-1)/pi) 2^n = f 2^(e+n) with frexp's
    # f in [0.5, 1), is finite iff e + n <= maxexp: refuse the block before it overflows
    if np.frexp(max(1.0, (m_const - 1.0) / np.pi))[1] + n > np.finfo(float).maxexp:
        raise OperatorError(
            f"mcintosh-yagi block m={m} needs order n={n}, whose entries up to "
            f"max(1, (M-1)/pi) * 2^n leave the float range (below 2^{np.finfo(float).maxexp})"
        )
    d = np.diag(2.0 ** np.arange(0, n + 1))
    j = np.arange(n + 1)
    diff = j[None, :] - j[:, None]
    b = (m_const - 1.0) / np.pi * np.sign(diff) / np.maximum(np.abs(diff), 1)
    return n, d, b


def _blocks_mcintosh_yagi(params: dict, n_blocks: int) -> list[np.ndarray]:
    _require_params("mcintosh-yagi", params, {"Mconst"})
    m_const = _param("Mconst", params.get("Mconst", 10.0))
    blocks = []
    for m in range(1, n_blocks + 1):
        _, d, b = mcintosh_yagi_parts(m_const, m)
        zero = np.zeros_like(d)
        blocks.append(np.block([[d, b @ d], [zero, -d]]).astype(complex))
    return blocks


_FAMILIES: dict[str, Callable[[dict, int], list[np.ndarray]]] = {
    "dichotomy-2.3": _blocks_dichotomy,
    # the supremum-bound study in the text uses the same block family
    "bound-4.6": _blocks_dichotomy,
    "almost-bisect-5.5": _blocks_almost_bisect,
    "constant-diag": _blocks_constant_diag,
    "mcintosh-yagi": _blocks_mcintosh_yagi,
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def build_block_operator(family: str, n_blocks: int, params: dict | None = None) -> Operator:
    """Direct sum of the first ``n_blocks`` blocks of a named family.

    The generators are deterministic: rebuilding with the same arguments
    yields bit-identical entries.
    """
    if family not in _FAMILIES:
        raise OperatorError(f"unknown family '{family}'; known: {', '.join(family_names())}")
    if not isinstance(n_blocks, numbers.Integral) or n_blocks < 1:
        raise OperatorError(f"N must be a positive integer, got {n_blocks!r}")
    params = dict(params or {})
    blocks = _FAMILIES[family](params, int(n_blocks))
    entries = sla.block_diag(*blocks).astype(complex)
    tag = FamilyTag(
        family=family,
        params=params,
        n_blocks=int(n_blocks),
        block_dims=tuple(b.shape[0] for b in blocks),
    )
    return Operator(entries=entries, family_tag=tag)


def dense_operator(entries) -> Operator:
    return Operator(entries=np.asarray(entries, dtype=complex))


def diag_operator(values) -> Operator:
    return Operator(entries=np.diag(np.asarray(list(values), dtype=complex)))


def random_gap_operator(dim: int, seed: int) -> Operator:
    """Seeded random dense operator with spectral gap >= 0.5.

    Construction: a triangular matrix with eigenvalues placed at
    +-[0.5, 2.5] x [-2, 2]i (half of each sign), mild strictly-upper
    coupling, conjugated by a Haar-random unitary.  The eigenvalues are
    exactly the diagonal, so the gap holds by construction; the coupling
    makes ||S|| grow with dim (8.25 at dim 128, seed 7).
    """
    if dim < 2:
        raise OperatorError("random gap operator needs dim >= 2")
    rng = np.random.default_rng(seed)
    n_plus = dim // 2 + (rng.integers(0, 2) if dim % 2 else 0)
    n_minus = dim - n_plus
    re = np.concatenate(
        [rng.uniform(0.5, 2.5, n_plus), -rng.uniform(0.5, 2.5, n_minus)]
    )
    im = rng.uniform(-2.0, 2.0, dim)
    tri = np.diag(re + 1j * im)
    tri += np.triu(
        0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))), 1
    )
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return Operator(entries=q @ tri @ q.conj().T)


# ---------------------------------------------------------------------------
# JSON operator descriptors
# ---------------------------------------------------------------------------

_FAMILY_FIELDS = {"kind", "family", "params", "N"}
_DENSE_FIELDS = {"kind", "entries"}


def _entries_from_json(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OperatorError(f"malformed dense entries: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise OperatorError(
            "dense entries must be rows of [re, im] pairs, "
            f"got an array of shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _entries_to_json(entries: np.ndarray) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(entries, dtype=complex)
    ]


def operator_from_descriptor(desc: dict) -> Operator:
    """Build an operator from the JSON descriptor schema.

    ``{"kind": "family", "family": name, "params": {...}, "N": int}`` or
    ``{"kind": "dense", "entries": [[[re, im], ...], ...]}``.  Unknown fields
    are rejected.
    """
    if not isinstance(desc, dict):
        raise OperatorError("operator descriptor must be a JSON object")
    kind = desc.get("kind")
    if kind == "family":
        unknown = set(desc) - _FAMILY_FIELDS
        if unknown:
            raise OperatorError(f"unknown descriptor fields {sorted(unknown)}")
        if "family" not in desc or "N" not in desc:
            raise OperatorError("family descriptor requires 'family' and 'N'")
        n = desc["N"]
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise OperatorError(f"'N' must be a positive integer, got {n!r}")
        params = desc.get("params", {})
        if not isinstance(params, dict):
            raise OperatorError("'params' must be an object")
        return build_block_operator(desc["family"], int(n), params)
    if kind == "dense":
        unknown = set(desc) - _DENSE_FIELDS
        if unknown:
            raise OperatorError(f"unknown descriptor fields {sorted(unknown)}")
        if "entries" not in desc:
            raise OperatorError("dense descriptor requires 'entries'")
        return Operator(entries=_entries_from_json(desc["entries"]))
    raise OperatorError(f"descriptor kind must be 'family' or 'dense', got {kind!r}")


def descriptor_of(op: Operator) -> dict:
    """Inverse of :func:`operator_from_descriptor` (dense form when untagged)."""
    if op.family_tag is not None:
        tag = op.family_tag
        return {
            "kind": "family",
            "family": tag.family,
            "params": dict(tag.params),
            "N": tag.n_blocks,
        }
    return {"kind": "dense", "entries": _entries_to_json(op.entries)}
