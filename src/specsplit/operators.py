"""Dense complex operators, block-diagonal families, and the projection oracle.

Everything downstream works on :class:`Operator`: an immutable dense complex
square matrix, optionally tagged as the N-block truncation of a named
block-diagonal family.  This module provides

* construction of the built-in block families (``build_block_operator``),
* the JSON operator descriptor (``operator_from_descriptor``),
* basic spectral queries (``spectrum``, ``resolvent``, ``choose_h``),
* the resolvent kernel behind every quadrature, norm sweep and resolvent
  stack (``_Kernel``, ``resolvent_many``, ``resolvent_norms``): per-block
  Schur forms of the operator's connected components, or for a pair of
  both operators on the components of the union of their patterns,
  triangular inverses per node,
* the ground-truth spectral projector ``oracle_projection``, computed from an
  ordered triangular (Schur) decomposition with a Sylvester solve for the
  invariant-subspace coupling -- deliberately *not* by contour quadrature, so
  it can serve as an independent oracle for the quadrature route.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrtri as _ztrtri
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
    "choose_h",
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
    # blocks (the resolvent kernel's "schur" entry) are cached on first use;
    # the operator itself never changes, so the cache cannot go stale.
    def _cache(self, key: str, compute: Callable[[], Any]):
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
    return op._cache("norm", lambda: spectral_norm(op.entries))


def spectrum(op: Operator) -> Spectrum:
    """Eigenvalues with multiplicity plus the spectral gap ``min |Re lambda|``."""
    try:
        ev = eigenvalues_of(op)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigensolver failure
        raise OperatorError(f"eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=ev, min_abs_real=float(np.abs(ev.real).min()))


def near_spectrum_tol(op: Operator) -> float:
    """Default tolerance for the "near spectrum" precondition.

    Scale-aware default 1e-8*(1+||S||), capped at a quarter of the spectral
    gap.  The cap keeps operators with a huge norm but a modest gap usable
    (the Toeplitz-coupled dyadic family reaches ||S|| ~ 1e51 at desk scale
    while its gap stays 1); without it every point of interest would be
    rejected as "near spectrum".
    """
    base = 1e-8 * (1.0 + operator_norm(op))
    gap = spectrum(op).min_abs_real
    if gap > 0:
        return min(base, 0.25 * gap)
    return base


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


def _clear_points(ops, grid: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """The points of ``grid`` farther than ``tol`` from the joint spectrum of
    ``ops`` and the count of the others, skipped with a warning; refuses if none is left."""
    dist, _ = _spectrum_distance(ops, grid)
    keep = dist > tol
    skipped = int(np.sum(~keep))
    if skipped:
        warnings.warn(
            f"skipped {skipped} grid points within {tol:.2e} of the spectrum", stacklevel=3
        )
    if not keep.any():
        raise NearSpectrumError("all grid points are near the spectrum", tol=tol)
    return grid[keep], skipped


def resolvent(op: Operator, lam: complex, tol: float | None = None) -> np.ndarray:
    """(S - lambda)^{-1} by a dense linear solve.

    Refuses when ``lam`` is within ``tol`` of the spectrum and verifies the
    solve residual ``||(S - lambda) R - I||`` against a backward-stability
    bound.
    """
    if tol is None:
        tol = near_spectrum_tol(op)
    dist, nearest = _spectrum_distance((op,), np.array([lam], dtype=complex))
    ev, dist = complex(nearest[0]), float(dist[0])
    if dist <= tol:
        raise NearSpectrumError(
            f"lambda={lam} is within {dist:.3e} of eigenvalue {ev} (tol {tol:.3e})",
            eigenvalue=ev,
            distance=dist,
            tol=tol,
        )
    n = op.dim
    shifted = op.entries - lam * np.eye(n)
    res = np.linalg.solve(shifted, np.eye(n, dtype=complex))
    residual = np.linalg.norm(shifted @ res - np.eye(n), "fro")
    bound = 100.0 * n * _MACHINE_EPS * np.linalg.norm(shifted, "fro") * np.linalg.norm(res, "fro")
    if residual > max(bound, 1e3 * _MACHINE_EPS):
        raise NearSpectrumError(
            f"resolvent solve at lambda={lam} lost accuracy (residual {residual:.3e})",
            eigenvalue=ev,
            distance=dist,
            tol=tol,
        )
    return res


def _check_points_clear(op: Operator, lams: np.ndarray, tol: float):
    """Refuse when any point of ``lams`` is within ``tol`` of the spectrum."""
    if lams.size == 0:
        return
    dist, nearest = _spectrum_distance((op,), lams)
    bad = int(np.argmin(dist))
    if dist[bad] <= tol:
        raise NearSpectrumError(
            f"lambda={lams[bad]} is within {dist[bad]:.3e} of eigenvalue "
            f"{nearest[bad]} (tol {tol:.3e})",
            eigenvalue=complex(nearest[bad]),
            distance=float(dist[bad]),
            tol=tol,
        )


def resolvent_many(op: Operator, lams, tol: float | None = None) -> np.ndarray:
    """Resolvents at many spectral parameters, as a (k, dim, dim) stack.

    Same near-spectrum precondition as :func:`resolvent`, checked for every
    point at once.  The values come from the resolvent kernel (one cached
    Schur form per diagonal block, triangular inverses per point,
    back-transformed per point), not from the certified solve of
    :func:`resolvent`: per-point residual verification is skipped, and
    callers that need certified values estimate errors at a higher level.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if tol is None:
        tol = near_spectrum_tol(op)
    _check_points_clear(op, lams, tol)
    kernel = _Kernel((op,))
    out = np.empty((lams.size, op.dim, op.dim), dtype=complex)
    for part, _, _ in _panel_slices(op.dim**2, lams.size, 1):
        out[part] = kernel.dense(kernel.nodes(lams[part]))
    return out


def resolvent_norms(op: Operator, lams, tol: float | None = None) -> np.ndarray:
    """Operator norms ||(S - lam)^{-1}|| on a grid of spectral parameters."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if tol is None:
        tol = near_spectrum_tol(op)
    _check_points_clear(op, lams, tol)
    return _Kernel((op,)).norms(lams)


# ---------------------------------------------------------------------------
# the resolvent kernel
# ---------------------------------------------------------------------------
#
# Every resolvent evaluation of the package except the certified single solve
# of ``resolvent`` runs in :class:`_Kernel`.  The operator splits into the
# connected components of the nonzero pattern of |S| + |S^H|; a permutation
# makes S block diagonal with these components as blocks, so (S - lam)^{-1}
# is block diagonal too.  Each block B is reduced once to complex Schur form
# B = Q T Q^H, cached on the operator, and (B - lam)^{-1} = Q (T - lam)^{-1}
# Q^H (Golub & Van Loan, Matrix Computations, 7.6; Higham, Functions of
# Matrices, ch. 9).  A pair (S, T) is reduced on the components of the union
# of both patterns instead: every component of either operator lies inside
# one of them, so R_S and R_T are block diagonal on the same blocks and their
# difference is taken block by block.  The triangular inverses of small blocks
# come from back substitution vectorised over nodes and blocks (closed-form
# for order 1 and 2), those of larger blocks from LAPACK ztrtri, one call per
# node.  For one operator, weighted sums are accumulated in Schur coordinates,
# per quadrature panel when the quadrature driver asks for it, and
# back-transformed once; Frobenius and spectral norms are unitarily invariant
# and are taken there too.  For a pair, every panel sum (or node value) is
# back-transformed before the difference.  None of this checks the distance
# to the spectrum: callers do.

# Complex entries per node chunk of the kernel's work arrays (16 MiB).
_CHUNK_ENTRIES = 1 << 20

# Blocks of this order and above are inverted by LAPACK, one call per node;
# smaller ones by back substitution vectorised over all nodes, which is
# faster up to about this order (one Intel Xeon core, OpenBLAS, 4096 nodes:
# 0.6 against 5 us per node at order 4, equal near order 12, 12 against 8 us
# at order 16).
_LAPACK_MIN_ORDER = 12


@dataclass(frozen=True)
class _SchurGroup:
    """All diagonal blocks of one order m, in complex Schur form
    B = Q T Q^H: their positions ``idx`` (nb, m) in the operator and the
    factors ``t`` (upper triangular) and ``q`` (unitary), both (nb, m, m)."""

    idx: np.ndarray
    t: np.ndarray
    q: np.ndarray


def _block_layout(pattern: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the symmetrised boolean ``pattern``, as one
    (count, m) index array per component size m (increasing); each component
    is sorted and components are ordered by their smallest index."""
    _, labels = connected_components(pattern | pattern.T, directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    by_size: dict[int, list[np.ndarray]] = {}
    for comp in sorted(comps, key=lambda c: c[0]):
        by_size.setdefault(comp.size, []).append(comp)
    return tuple(np.array(by_size[m]) for m in sorted(by_size))


def _schur_groups(op: Operator, layout=None) -> tuple[_SchurGroup, ...]:
    """Schur factors of the operator's diagonal blocks on ``layout`` (index
    arrays as from :func:`_block_layout`, each block a union of components of
    the operator), grouped by order.  Without a layout, the operator's own
    components, computed on first use and cached on the operator."""
    if layout is None:
        return op._cache("schur", lambda: _schur_groups(op, _block_layout(op.entries != 0)))
    groups = []
    for idx in layout:
        blocks = op.entries[idx[:, :, None], idx[:, None, :]]
        if idx.shape[1] == 1:
            t, q = blocks, np.ones_like(blocks)
        else:
            t, q = np.empty_like(blocks), np.empty_like(blocks)
            for b, block in enumerate(blocks):
                t[b], q[b] = sla.schur(block, output="complex")
        for a in (idx, t, q):
            a.setflags(write=False)
        groups.append(_SchurGroup(idx=idx, t=t, q=q))
    return tuple(groups)


def _triangular_inverses(group: _SchurGroup, lams: np.ndarray) -> np.ndarray:
    """(T_b - lam_k)^{-1} for every node k and block b, shape (k, nb, m, m)."""
    t = group.t
    nb, m = group.idx.shape
    if m >= _LAPACK_MIN_ORDER:
        out = np.empty((lams.size, nb, m, m), dtype=complex)
        for b in range(nb):
            tb = np.asfortranarray(t[b])  # LAPACK then works in place
            for k, lam in enumerate(lams):
                shifted = tb.copy(order="F")
                shifted.ravel(order="K")[:: m + 1] -= lam  # the diagonal
                out[k, b], info = _ztrtri(shifted, overwrite_c=1)
                if info != 0:
                    raise np.linalg.LinAlgError(f"singular resolvent at lambda={lam}")
        return out
    # Back substitution row by row from the bottom, vectorised over nodes and
    # blocks; for m = 2 it is the closed form
    # [[a, c], [0, d]]^{-1} = [[1/a, -c/(a d)], [0, 1/d]].
    inv_diag = 1.0 / (np.diagonal(t, axis1=1, axis2=2)[None] - lams[:, None, None])
    out = np.zeros((lams.size, nb, m, m), dtype=complex)
    for i in range(m - 1, -1, -1):
        row = out[:, :, i, :]
        row[:, :, i] = 1.0
        for j in range(i + 1, m):
            row -= t[None, :, i, j, None] * out[:, :, j, :]
        row *= inv_diag[:, :, i, None]
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
    per_block = np.concatenate(
        [_block_norms(b.reshape(-1, *b.shape[-3:]), spectral) for b in blocks], axis=1
    )
    norms = per_block.max(axis=1) if spectral else np.sqrt((per_block**2).sum(axis=1))
    return norms.reshape(lead)


def _panel_slices(width: int, count: int, q: int):
    """Node slices covering ``count`` nodes in panels of ``q`` consecutive
    nodes, each of at most _CHUNK_ENTRIES // width nodes: runs of whole
    panels, or pieces of one panel when a panel is longer than that.  Yields
    (nodes, first panel, panel count)."""
    step = max(1, _CHUNK_ENTRIES // width)
    n_panels = count // q
    if step >= q:
        per = step // q
        for p in range(0, n_panels, per):
            n = min(per, n_panels - p)
            yield slice(p * q, (p + n) * q), p, n
        return
    for p in range(n_panels):
        for j in range(0, q, step):
            yield slice(p * q + j, p * q + min(j + step, q)), p, 1


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
    """The resolvent kernel: node values, per-node norms and per-panel
    weighted sums of the integrand, in block coordinates where Frobenius and
    spectral norms are taken block by block.

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

    def zeros(self, n_sets: int) -> list[np.ndarray]:
        """Zero sums for ``n_sets`` coefficient sets, one (sets, count, m, m)
        array per block order."""
        return [np.zeros((n_sets, *idx.shape, idx.shape[1]), dtype=complex) for idx in self.layout]

    def panels_per_batch(self, q: int) -> int:
        """Panels of ``q`` nodes whose solves fill about one node chunk."""
        return max(1, _CHUNK_ENTRIES // (self.width * q))

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
        return self._integrand([[_triangular_inverses(g, lams) for g in gs] for gs in self.groups])

    def norms(self, lams: np.ndarray) -> np.ndarray:
        """Spectral norm of the integrand at every node."""
        out = np.empty(lams.size)
        for part, _, _ in _panel_slices(self.width, lams.size, 1):
            out[part] = _stack_norms(self.nodes(lams[part]), spectral=True)
        return out

    def sums(self, lams: np.ndarray, coef_sets, q: int) -> list[np.ndarray]:
        """Ordered sums  sum_k coef[k] * integrand(lam_k)  over every panel of
        ``q`` consecutive nodes, for several coefficient vectors: one (sets,
        panels, count, m, m) array per block order.  The panels of a node
        chunk are reduced together by one batched product."""
        coefs = np.asarray(coef_sets, dtype=complex)
        n_sets, n_panels = coefs.shape[0], lams.size // q
        sums = [
            [np.zeros((n_sets, n_panels, *g.t.shape), dtype=complex) for g in gs]
            for gs in self.groups
        ]
        for part, first, n in _panel_slices(self.width, lams.size, q):
            # (panels, sets, nodes per panel) against (panels, nodes per panel, entries)
            c = coefs[:, part].reshape(n_sets, n, -1).transpose(1, 0, 2)
            for gs, outs in zip(self.groups, sums):
                for g, out in zip(gs, outs):
                    x = _triangular_inverses(g, lams[part])
                    prod = np.matmul(c, x.reshape(n, -1, g.t.size))
                    out[:, first : first + n] += prod.transpose(1, 0, 2).reshape(
                        n_sets, n, *g.t.shape
                    )
        return self._integrand(sums)

    def dense(self, blocks) -> np.ndarray:
        """The matrices in operator coordinates, from one (..., count, m, m)
        array per block order, all with the same leading shape."""
        if len(self.ops) == 1:
            blocks = [_from_schur(g, b) for g, b in zip(self.groups[0], blocks)]
        n = self.ops[0].dim
        total = np.zeros((*blocks[0].shape[:-3], n, n), dtype=complex)
        for idx, b in zip(self.layout, blocks):
            total[..., idx[:, :, None], idx[:, None, :]] = b
        return total


def choose_h(op: Operator, safety: float) -> float:
    """Contour abscissa ``h = safety * gap``; the strip |Re z| <= h is then
    inside the resolvent set."""
    if not 0.0 < safety < 1.0:
        raise OperatorError(f"safety must lie in (0, 1), got {safety}")
    return safety * _spectral_gap(op)


# ---------------------------------------------------------------------------
# the projection oracle
# ---------------------------------------------------------------------------


def _sorted_schur_basis(entries: np.ndarray, want_plus: bool):
    """Schur vectors with the selected half-plane eigenvalues leading."""
    if want_plus:
        t, q, sdim = sla.schur(entries, output="complex", sort=lambda z: z.real > 0)
    else:
        t, q, sdim = sla.schur(entries, output="complex", sort=lambda z: z.real < 0)
    return t, q, int(sdim)


def oracle_projection(op: Operator, tol: float | None = None) -> ProjectionPair:
    """Riesz spectral projections onto the right/left half-plane invariant
    subspaces, by ordered Schur decomposition.

    With ``S = Q T Q^H`` and the right-half-plane eigenvalues ordered first,
    the coupling ``X`` solving ``T11 X - X T22 = T12`` yields the projection
    ``[[I, X], [0, 0]]`` in Schur coordinates.  This is the ground-truth
    oracle the contour quadrature is checked against; eigenvalues are never
    assumed simple.
    """
    if tol is None:
        tol = near_spectrum_tol(op)
    spec = spectrum(op)
    if spec.min_abs_real <= tol:
        offender = spec.eigenvalues[int(np.argmin(np.abs(spec.eigenvalues.real)))]
        raise NearSpectrumError(
            f"eigenvalue {offender} is within {spec.min_abs_real:.3e} of the "
            f"imaginary axis (tol {tol:.3e})",
            eigenvalue=complex(offender),
            distance=spec.min_abs_real,
            tol=tol,
        )
    n = op.dim
    t, q, k = _sorted_schur_basis(op.entries, want_plus=True)
    if k == 0:
        p_plus = np.zeros((n, n), dtype=complex)
    elif k == n:
        p_plus = np.eye(n, dtype=complex)
    else:
        x = sla.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
        core = np.zeros((n, n), dtype=complex)
        core[:k, :k] = np.eye(k)
        core[:k, k:] = x
        p_plus = q @ core @ q.conj().T
    basis_plus = q[:, :k].copy()

    _, q_minus, k_minus = _sorted_schur_basis(op.entries, want_plus=False)
    if k + k_minus != n:
        raise SplittingRankError(n, k, k_minus)
    basis_minus = q_minus[:, :k_minus].copy()
    p_minus = np.eye(n, dtype=complex) - p_plus
    return ProjectionPair(
        p_plus=p_plus, p_minus=p_minus, basis_plus=basis_plus, basis_minus=basis_minus
    )


class SplittingRankError(OperatorError):
    def __init__(self, n, k_plus, k_minus):
        super().__init__(
            f"half-plane eigenvalue counts {k_plus}+{k_minus} do not sum to dimension {n}"
        )


# ---------------------------------------------------------------------------
# block families
# ---------------------------------------------------------------------------


def _require_params(family: str, params: dict, allowed: set[str]):
    unknown = set(params) - allowed
    if unknown:
        raise OperatorError(f"family '{family}' does not accept parameters {sorted(unknown)}")


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
    p = float(params["p"])
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
    vals = np.asarray(list(values), dtype=complex)
    if vals.size == 0:
        raise OperatorError("family 'constant-diag' needs at least one diagonal value")
    return [np.diag(vals) for _ in range(n_blocks)]


def mcintosh_yagi_pick_n(m_const: float, m: int) -> int:
    """Smallest matrix order n with (M-1)/(pi*sqrt(18)) * log(n/2 + 1) >= m."""
    c = (m_const - 1.0) / (np.pi * np.sqrt(18.0))
    target = np.exp(m / c)  # need n/2 + 1 >= target
    # Start a little below the analytic answer and walk up, so the returned
    # n is the smallest one satisfying the inequality despite float fuzz.
    n = max(1, int(np.ceil(2.0 * (target - 1.0))) - 3)
    while c * np.log(n / 2.0 + 1.0) < m:
        n += 1
        if n > _BLOCK_SIZE_CAP:
            raise OperatorError(
                f"desk-scale exceeded: block order n={n} above cap {_BLOCK_SIZE_CAP}"
            )
    if n > _BLOCK_SIZE_CAP:
        raise OperatorError(
            f"desk-scale exceeded: block order n={n} above cap {_BLOCK_SIZE_CAP}"
        )
    return n


def mcintosh_yagi_parts(m_const: float, m: int):
    """Ingredients of the m-th dyadic Toeplitz-coupled block.

    Returns ``(n, D, B)`` where D = diag(2^0, ..., 2^n) and B is the
    antisymmetric Toeplitz coupling with entries (M-1)/(pi*(j-i)) off the
    diagonal.  The block itself is [[D, B@D], [0, -D]].
    """
    if m_const <= 1.0:
        raise OperatorError(f"constant M must exceed 1, got {m_const}")
    if m < 1:
        raise OperatorError(f"block index m must be >= 1, got {m}")
    n = mcintosh_yagi_pick_n(m_const, m)
    d = np.diag(2.0 ** np.arange(0, n + 1))
    j = np.arange(n + 1)
    diff = j[None, :] - j[:, None]
    with np.errstate(divide="ignore"):
        b = np.where(
            diff == 0,
            0.0,
            (m_const - 1.0) / np.pi * np.sign(diff) / np.maximum(np.abs(diff), 1),
        )
    return n, d, b


def _blocks_mcintosh_yagi(params: dict, n_blocks: int) -> list[np.ndarray]:
    _require_params("mcintosh-yagi", params, {"Mconst"})
    m_const = float(params.get("Mconst", 10.0))
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


def random_gap_operator(
    dim: int, seed: int, gap: float = 0.5, norm_cap: float = 10.0
) -> Operator:
    """Seeded random dense operator with spectral gap >= ``gap``.

    Construction: a triangular matrix with eigenvalues placed at
    +-[gap, 2.5] x [-2, 2]i (half of each sign), mild strictly-upper
    coupling, conjugated by a Haar-random unitary.  The eigenvalues are
    exactly the diagonal, so the gap holds by construction; the norm stays
    well under ``norm_cap`` for desk dimensions.
    """
    if dim < 2:
        raise OperatorError("random gap operator needs dim >= 2")
    rng = np.random.default_rng(seed)
    n_plus = dim // 2 + (rng.integers(0, 2) if dim % 2 else 0)
    n_minus = dim - n_plus
    re = np.concatenate(
        [rng.uniform(gap, 2.5, n_plus), -rng.uniform(gap, 2.5, n_minus)]
    )
    im = rng.uniform(-2.0, 2.0, dim)
    tri = np.diag(re + 1j * im)
    tri += np.triu(
        0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))), 1
    )
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    entries = q @ tri @ q.conj().T
    op = Operator(entries=entries)
    if operator_norm(op) > norm_cap:  # pragma: no cover - construction keeps norms small
        op = Operator(entries=entries * (norm_cap / operator_norm(op)))
    return op


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
