"""Cross-checks of the resolvent kernel against batched dense LU solves.

The dense-LU reference below is the one the kernel replaced; it lives only
here.  Agreement is required to 1e-12 relative, on every block shape the
kernel distinguishes: order-1 and order-2 blocks (closed-form inverses),
larger blocks (triangular LAPACK inverses), non-contiguous components, and
the union pattern of a perturbation pair, also where one block of the union
holds several components of one operator (there relative to the resolvents,
as their difference cancels below what dense LU resolves).
"""

import numpy as np
import pytest

from specsplit import (
    NearSpectrumError,
    Operator,
    build_block_operator,
    dense_operator,
    diag_operator,
    random_gap_operator,
    resolvent_many,
    resolvent_norms,
    spectrum,
)
from specsplit.contour import line_nodes
from specsplit.operators import _Kernel, _schur_groups, _stack_norms

REL_TOL = 1e-12
Q = 4  # nodes per panel, as ``nodes_for`` lays them out


def dense_resolvents(op, lams):
    """(S - lam_k)^{-1} by one batched LU solve per node."""
    eye = np.eye(op.dim, dtype=complex)
    shifted = op.entries[None, :, :] - lams[:, None, None] * eye[None, :, :]
    return np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))


def rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def nodes_for(op):
    """A quadrature line at half the gap, as the integrals lay it out."""
    h = 0.5 * spectrum(op).min_abs_real
    t, w, _ = line_nodes(h, 1e8, Q)
    return h + 1j * t, w


def summed(kernel, sums, i):
    """Coefficient set ``i`` of per-panel kernel sums, summed over the panels,
    in operator coordinates."""
    return kernel.dense([s[i].sum(axis=0) for s in sums])


def permuted_blocks():
    """Block-diagonal operator of blocks of order 1, 2, 3 and 5 under a random
    permutation, so that no component is a contiguous index range."""
    rng = np.random.default_rng(11)
    blocks = []
    for m, shift in ((1, 1.5), (2, -2.0), (3, 1.0), (5, -1.2)):
        b = 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        blocks.append(b + shift * np.eye(m))
    dim = sum(b.shape[0] for b in blocks)
    entries = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in blocks:
        m = b.shape[0]
        entries[start : start + m, start : start + m] = b
        start += m
    perm = rng.permutation(dim)
    return dense_operator(entries[np.ix_(perm, perm)])


def criterion8_pair():
    n = 128
    k = np.arange(1, n + 1, dtype=float)
    s_op = diag_operator(np.where(k % 2 == 1, k, -k))
    r = 0.5 * np.diag(k**0.4).astype(complex)
    r[0, 1] += 0.1
    r[1, 0] += 0.1
    return s_op, Operator(entries=s_op.entries + r)


def coupled_permuted_blocks():
    """``permuted_blocks`` and a copy with one entry coupling its order-2 and
    order-5 components: the union pattern joins them into one block that
    holds two components of S."""
    s_op = permuted_blocks()
    two, five = (g.idx[0] for g in _schur_groups(s_op) if g.idx.shape[1] in (2, 5))
    entries = s_op.entries.copy()
    entries[two[0], five[0]] = 0.4
    return s_op, dense_operator(entries), [np.concatenate([two, five])]


def recoupled_dichotomy():
    """dichotomy-2.3?N=4 and a perturbation R that cancels S[0, 1], so that
    T splits the first block into two components, and couples the blocks on
    indices 2-3 and 4-5."""
    s_op = build_block_operator("dichotomy-2.3", 4)
    r = np.zeros((8, 8), dtype=complex)
    r[0, 1] = -s_op.entries[0, 1]
    r[3, 4] = 0.5
    return s_op, Operator(entries=s_op.entries + r), [np.arange(2), np.arange(2, 6)]


SHARED_BLOCK_PAIRS = {
    "permuted blocks, order 2 and 5 coupled": coupled_permuted_blocks,
    "dichotomy-2.3?N=4 recoupled": recoupled_dichotomy,
}


OPERATORS = {
    "dichotomy-2.3": lambda: build_block_operator("dichotomy-2.3", 6),
    "almost-bisect-5.5": lambda: build_block_operator("almost-bisect-5.5", 6, {"p": 0.5}),
    "constant-diag": lambda: build_block_operator("constant-diag", 4),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "random(64, 7)": lambda: random_gap_operator(64, 7),
    "permuted blocks": permuted_blocks,
}


@pytest.fixture(params=sorted(OPERATORS), scope="module")
def case(request):
    op = OPERATORS[request.param]()
    lams, w = nodes_for(op)
    return op, lams, w, dense_resolvents(op, lams)


class TestAgainstDenseLU:
    def test_weighted_sums_and_frobenius(self, case):
        op, lams, w, dense = case
        coef_sets = [w / (2.0 * np.pi), w / lams**2]
        kernel = _Kernel((op,))
        sums = kernel.sums(lams, coef_sets, Q)
        per_panel = dense.reshape(-1, Q, op.dim, op.dim)
        for i, coefs in enumerate(coef_sets):
            assert rel(summed(kernel, sums, i),
                       np.tensordot(coefs, dense, axes=(0, 0))) <= REL_TOL
            # the Frobenius norm of every panel sum, taken in Schur coordinates
            expect = np.einsum("pk,pkij->pij", coefs.reshape(-1, Q), per_panel)
            fro = _stack_norms(sums, spectral=False)[i]
            assert np.max(np.abs(fro / np.linalg.norm(expect, axis=(1, 2)) - 1.0)) <= REL_TOL

    def test_full_stack(self, case):
        op, lams, _, dense = case
        assert rel(resolvent_many(op, lams), dense) <= REL_TOL

    def test_spectral_norms(self, case):
        op, lams, _, dense = case
        expect = np.linalg.svd(dense, compute_uv=False)[:, 0]
        assert np.max(np.abs(resolvent_norms(op, lams) / expect - 1.0)) <= REL_TOL

    def test_cold_copy_is_byte_identical(self, case):
        op, lams, w, _ = case
        coef_sets = [w / lams**2]
        warm = _Kernel((op,)).sums(lams, coef_sets, Q)
        cold = _Kernel((Operator(entries=op.entries, family_tag=op.family_tag),)).sums(
            lams, coef_sets, Q
        )
        assert [s.tobytes() for s in warm] == [s.tobytes() for s in cold]


class TestBlocks:
    def test_components_need_not_be_contiguous(self):
        op = permuted_blocks()
        groups = _schur_groups(op)
        assert [g.idx.shape for g in groups] == [(1, 1), (1, 2), (1, 3), (1, 5)]
        assert any(np.any(np.diff(g.idx[0]) != 1) for g in groups if g.idx.shape[1] > 1)

    def test_family_blocks_found_without_tag(self):
        tagged = build_block_operator("almost-bisect-5.5", 6, {"p": 0.5})
        groups = _schur_groups(dense_operator(tagged.entries))
        assert [g.idx.shape for g in groups] == [(6, 2)]

    def test_schur_factors_reproduce_blocks(self):
        op = permuted_blocks()
        for g in _schur_groups(op):
            for idx, t, q in zip(g.idx, g.t, g.q):
                assert np.allclose(np.tril(t, -1), 0.0)
                block = op.entries[np.ix_(idx, idx)]
                assert np.linalg.norm(q @ t @ q.conj().T - block) <= 1e-13 * np.linalg.norm(block)


class TestPerturbationPair:
    def test_union_pattern_difference(self):
        s_op, t_op = criterion8_pair()
        lams, w = nodes_for(t_op)
        diff = dense_resolvents(s_op, lams) - dense_resolvents(t_op, lams)
        pair = _Kernel((s_op, t_op))
        got = pair.norms(lams)
        expect = np.linalg.svd(diff, compute_uv=False)[:, 0]
        assert np.max(np.abs(got / expect - 1.0)) <= REL_TOL
        got_fro = _stack_norms(pair.nodes(lams), spectral=False)
        assert np.max(np.abs(got_fro / np.linalg.norm(diff, axis=(1, 2)) - 1.0)) <= REL_TOL

    def test_difference_of_sums(self):
        s_op, t_op = criterion8_pair()
        lams, w = nodes_for(t_op)
        coefs = [w / (2.0 * np.pi)]
        diff = dense_resolvents(s_op, lams) - dense_resolvents(t_op, lams)
        expect = np.tensordot(coefs[0], diff, axes=(0, 0))
        pair = _Kernel((s_op, t_op))
        assert rel(summed(pair, pair.sums(lams, coefs, Q), 0), expect) <= REL_TOL

    @pytest.mark.parametrize("name", sorted(SHARED_BLOCK_PAIRS))
    def test_union_block_holding_several_components(self, name):
        s_op, t_op, shared = SHARED_BLOCK_PAIRS[name]()
        pair = _Kernel((s_op, t_op))
        blocks = [list(idx) for group in pair.layout for idx in group]
        assert all(sorted(block) in blocks for block in shared)
        h = 0.5 * min(spectrum(s_op).min_abs_real, spectrum(t_op).min_abs_real)
        t, w, _ = line_nodes(h, 1e8, Q)
        lams = h + 1j * t
        rs, rt = dense_resolvents(s_op, lams), dense_resolvents(t_op, lams)
        diff = rs - rt
        # the difference cancels to about 1e-9 of each resolvent, below what
        # dense LU resolves, so the errors are measured against the resolvents
        scale = np.maximum(np.linalg.norm(rs, axis=(1, 2)), np.linalg.norm(rt, axis=(1, 2)))
        assert np.all(np.linalg.norm(pair.dense(pair.nodes(lams)) - diff, axis=(1, 2))
                      <= REL_TOL * scale)
        fro = _stack_norms(pair.nodes(lams), spectral=False)
        assert np.all(np.abs(fro - np.linalg.norm(diff, axis=(1, 2))) <= REL_TOL * scale)
        spectral = np.linalg.svd(diff, compute_uv=False)[:, 0]
        assert np.all(np.abs(pair.norms(lams) - spectral) <= REL_TOL * scale)
        coefs = w / (2.0 * np.pi)
        got = summed(pair, pair.sums(lams, [coefs], Q), 0)
        expect = np.tensordot(coefs, diff, axes=(0, 0))
        assert np.linalg.norm(got - expect) <= REL_TOL * np.sum(np.abs(coefs) * scale)


class TestPreconditions:
    def test_node_near_spectrum_refused(self):
        op = random_gap_operator(8, 3)
        ev = spectrum(op).eigenvalues[0]
        lams = np.array([2j, ev + 1e-12])
        with pytest.raises(NearSpectrumError):
            resolvent_many(op, lams)
        with pytest.raises(NearSpectrumError):
            resolvent_norms(op, lams)

    def test_empty_node_sets(self):
        op = build_block_operator("dichotomy-2.3", 3)
        assert resolvent_many(op, []).shape == (0, 6, 6)
        assert resolvent_norms(op, []).shape == (0,)
        kernel = _Kernel((op,))
        sums = kernel.sums(np.array([], dtype=complex), [np.array([])], Q)
        assert np.array_equal(summed(kernel, sums, 0), np.zeros((6, 6)))
        assert kernel.norms(np.array([], dtype=complex)).shape == (0,)
