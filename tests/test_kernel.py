"""Cross-checks of the resolvent kernel against batched dense LU solves.

The dense-LU reference below is the one the kernel replaced; it lives only
here.  Agreement is required to 1e-12 relative, on every block shape the
kernel distinguishes: order-1 and order-2 blocks (closed-form inverses),
larger blocks (triangular LAPACK inverses), dense blocks whose panel sums
are decoupled (single eigenvalues, a cluster of order 2, a cluster of order
12 inverted by LAPACK, two or three equal clusters of order 64 or 43 whose
pieces hold about m^2 / 4 or m^2 / 6 entries), non-contiguous components,
and the union pattern of a perturbation pair, also where one block of the
union holds several components of one operator (there relative to the
resolvents, as their difference cancels below what dense LU resolves).
"""

import re

import numpy as np
import pytest
import scipy.linalg as sla

from specsplit import (
    NearSpectrumError,
    Operator,
    build_block_operator,
    dense_operator,
    diag_operator,
    random_gap_operator,
    resolvent,
    resolvent_many,
    resolvent_norms,
    spectrum,
)
from specsplit import operators
from specsplit.contour import _side_integrals, default_contour, line_nodes
from specsplit.operators import (
    _MACHINE_EPS,
    _Coupled,
    _Kernel,
    _decouplings,
    _lanczos_norms,
    _lanczos_start,
    _node_sums,
    _schur_groups,
    _stack_norms,
    _triangular_inverses,
    near_spectrum_tol,
    operator_norm,
    oracle_projection,
)

REL_TOL = 1e-12
Q = 15  # nodes per panel: the Kronrod rule, as ``nodes_for`` lays them out


def dense_resolvents(op, lams):
    """(S - lam_k)^{-1} by one batched LU solve per node."""
    eye = np.eye(op.dim, dtype=complex)
    shifted = op.entries[None, :, :] - lams[:, None, None] * eye[None, :, :]
    return np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))


def rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def nodes_for(op):
    """A quadrature line at half the gap, as the integrals lay it out, up to
    the height 2 ||S|| where their Neumann tail bounds start: the nodes
    beyond it meet no block shape that these miss."""
    h = 0.5 * spectrum(op).min_abs_real
    t, w, _ = line_nodes(h, 2.0 * max(1.0, operator_norm(op)), Q)
    return h + 1j * t, w


def neumann_reference(entries, mu, scale):
    """-sum_k mu[i, k] (S/scale)^k for every set i, by dense powers of S/scale."""
    x = entries / scale
    power = np.eye(x.shape[0], dtype=complex)
    out = np.zeros((mu.shape[0], *x.shape), dtype=complex)
    for coef in mu.T:
        out -= coef[:, None, None] * power
        power = power @ x
    return out


def neumann_moments():
    """Two sets of moments of the size the far field's have, about 1/k."""
    rng = np.random.default_rng(0)
    mu = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
    return mu / np.arange(1, 25)


def dense_set(kernel, sums, i):
    """Coefficient set ``i`` of kernel sums (one (sets, count, m, m) array per
    block order) as a dense matrix in operator coordinates."""
    dim = kernel.ops[0].dim
    return kernel.dense(kernel.operator([s[i] for s in sums]), np.zeros((dim, dim), complex))


def summed(kernel, lams, coef_sets, i):
    """Coefficient set ``i`` summed over every panel by ``_Kernel.totals``,
    its closed and open totals together, in operator coordinates."""
    (closed, still_open), _ = kernel.totals(lams, coef_sets, Q, np.inf)
    return dense_set(kernel, [c + o for c, o in zip(closed, still_open)], i)


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


def triangular_operator(eigenvalues, seed):
    """A dense operator with the given eigenvalues: a triangular matrix with
    mild coupling, conjugated by a seeded random unitary."""
    rng = np.random.default_rng(seed)
    dim = len(eigenvalues)
    tri = np.diag(np.asarray(eigenvalues, dtype=complex))
    tri += np.triu(0.1 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))), 1)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return dense_operator(q @ tri @ q.conj().T)


def spread(count, side):
    """``count`` eigenvalues 0.4 apart on a vertical line, at Re = side."""
    return side + 0.4j * (np.arange(count) - count / 2.0)


def near_pair():
    """Order 16: 15 single eigenvalues and a second one 0.01 from the
    first, a cluster of order 2."""
    values = np.concatenate([spread(8, 1.0), spread(7, -1.5)])
    return triangular_operator(np.append(values, values[0] + 0.01), 3)


def large_cluster():
    """Order 24: 12 eigenvalues 0.05 apart, which chain into one cluster of
    order 12, inverted by LAPACK, and 12 single ones."""
    chain = 1.0 + 0.05j * np.arange(12)
    return triangular_operator(np.concatenate([chain, spread(12, -1.2)]), 4)


def decoupled_and_whole():
    """Two blocks of order 16: one decouples, the other is one cluster of
    16 eigenvalues 0.05 apart and stays whole."""
    chain = triangular_operator(1.0 + 0.05j * np.arange(16), 6)
    return dense_operator(sla.block_diag(near_pair().entries, chain.entries))


def cluster_orders(op):
    """The cluster orders of the one dense block's decoupling, or None where
    the block stays whole."""
    (group,) = _schur_groups(op)
    (part,) = _decouplings(op, group)
    return None if part is None else sorted(np.diff(part.edges).tolist())


SHARED_BLOCK_PAIRS = {
    "permuted blocks, order 2 and 5 coupled": coupled_permuted_blocks,
    "dichotomy-2.3?N=4 recoupled": recoupled_dichotomy,
}


OPERATORS = {
    "dichotomy-2.3": lambda: build_block_operator("dichotomy-2.3", 6),
    "almost-bisect-5.5": lambda: build_block_operator("almost-bisect-5.5", 6, {"p": 0.5}),
    "constant-diag": lambda: build_block_operator("constant-diag", 4),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "random(48, 7)": lambda: random_gap_operator(48, 7),
    "random(64, 7)": lambda: random_gap_operator(64, 7),
    "permuted blocks": permuted_blocks,
    "near-coincident pair": near_pair,
    "cluster of order 12": large_cluster,
    "order-16 blocks, decoupled and whole": decoupled_and_whole,
}


@pytest.fixture(params=sorted(OPERATORS), scope="module")
def case(request):
    op = OPERATORS[request.param]()
    lams, w = nodes_for(op)
    return op, lams, w, dense_resolvents(op, lams)


class TestAgainstDenseLU:
    def test_weighted_sums_and_frobenius(self, case):
        op, lams, w, dense = case
        coef_sets = [w / (2.0 * np.pi), w / lams**2]  # a value and its estimate
        kernel = _Kernel((op,))
        per_panel = dense.reshape(-1, Q, op.dim, op.dim)
        panels = [np.einsum("pk,pkij->pij", c.reshape(-1, Q), per_panel) for c in coef_sets]
        # the Frobenius norm of every panel of the estimate, taken in Schur
        # coordinates or from a decoupled block's Gram matrices, lies within
        # REL_TOL of dense LU: every panel opens at a share just below it and
        # none just above it; then every other panel, to check both totals
        fro = np.linalg.norm(panels[1], axis=(1, 2))
        odd = np.arange(fro.size) % 2 == 1
        assert odd.any()
        for share, expect in ((fro * (1.0 - REL_TOL), np.ones(fro.size, bool)),
                              (fro * (1.0 + REL_TOL), np.zeros(fro.size, bool)),
                              (fro * np.where(odd, 1.0 - REL_TOL, 1.0 + REL_TOL), odd)):
            (closed, still_open), is_open = kernel.totals(lams, coef_sets, Q, share)
            assert np.array_equal(is_open, expect)
            for i, coefs in enumerate(coef_sets):
                total = dense_set(kernel, [c + o for c, o in zip(closed, still_open)], i)
                assert rel(total, np.tensordot(coefs, dense, axes=(0, 0))) <= REL_TOL
                for sums, sel in ((closed, ~expect), (still_open, expect)):
                    if sel.any():
                        assert rel(dense_set(kernel, sums, i), panels[i][sel].sum(axis=0)) <= REL_TOL
                    else:
                        assert not np.any(dense_set(kernel, sums, i))

    def test_neumann_polynomial(self, case):
        # the far field in Schur coordinates, at the least height a line
        # takes it at (2 ||S||), against dense powers of S
        op = case[0]
        mu, scale = neumann_moments(), 2.0 * operator_norm(op)
        kernel = _Kernel((op,))
        got = kernel.dense(kernel.operator(kernel.neumann(mu, scale)), np.zeros((2, op.dim, op.dim), complex))
        assert rel(got, neumann_reference(op.entries, mu, scale)) <= REL_TOL

    def test_full_stack(self, case):
        op, lams, _, dense = case
        assert rel(resolvent_many(op, lams), dense) <= REL_TOL

    def test_spectral_norms(self, case):
        op, lams, _, dense = case
        expect = np.linalg.svd(dense, compute_uv=False)[:, 0]
        assert np.max(np.abs(resolvent_norms(op, lams) / expect - 1.0)) <= REL_TOL

    def test_cold_copy_is_byte_identical(self, case):
        op, lams, w, _ = case
        coef_sets, share = [w, w / lams**2], np.linspace(0.0, 1.0, lams.size // Q)
        warm = _Kernel((op,)).totals(lams, coef_sets, Q, share)
        cold = _Kernel((Operator(entries=op.entries, family_tag=op.family_tag),)).totals(
            lams, coef_sets, Q, share
        )
        assert warm[1].tobytes() == cold[1].tobytes()
        assert [s.tobytes() for part in warm[0] for s in part] == [s.tobytes() for part in cold[0] for s in part]


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
        assert rel(summed(pair, lams, coefs, 0), expect) <= REL_TOL

    @pytest.mark.parametrize("pair", ["criterion 8", *sorted(SHARED_BLOCK_PAIRS)])
    def test_neumann_polynomial_of_a_pair(self, pair):
        # the difference of both operators' polynomials, each back-transformed
        s_op, t_op = criterion8_pair() if pair == "criterion 8" else SHARED_BLOCK_PAIRS[pair]()[:2]
        mu = neumann_moments()
        scale = 2.0 * max(operator_norm(s_op), operator_norm(t_op))
        kernel = _Kernel((s_op, t_op))
        got = kernel.dense(kernel.neumann(mu, scale), np.zeros((2, s_op.dim, s_op.dim), complex))
        expect = [neumann_reference(op.entries, mu, scale) for op in (s_op, t_op)]
        # the k = 0 terms cancel, so the error is measured against each polynomial
        assert np.linalg.norm(got - (expect[0] - expect[1])) <= REL_TOL * np.linalg.norm(expect[0])

    def test_pair_reduced_once(self, monkeypatch):
        # the Schur factors on the union layout are cached on each operator,
        # so a second kernel of the same pair reduces no block again
        s_op, t_op = (Operator(entries=op.entries) for op in criterion8_pair())
        lams, w = nodes_for(t_op)
        coefs = [w / (2.0 * np.pi)]
        calls = []
        schur = sla.schur
        monkeypatch.setattr(sla, "schur", lambda *a, **k: calls.append(1) or schur(*a, **k))
        first = _Kernel((s_op, t_op)).totals(lams, coefs, Q, np.inf)[0][0]
        assert calls
        calls.clear()
        second = _Kernel((s_op, t_op)).totals(lams, coefs, Q, np.inf)[0][0]
        assert calls == []
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]

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
        dense = pair.dense(pair.nodes(lams), np.zeros_like(diff))
        assert np.all(np.linalg.norm(dense - diff, axis=(1, 2)) <= REL_TOL * scale)
        fro = _stack_norms(pair.nodes(lams), spectral=False)
        assert np.all(np.abs(fro - np.linalg.norm(diff, axis=(1, 2))) <= REL_TOL * scale)
        spectral = np.linalg.svd(diff, compute_uv=False)[:, 0]
        assert np.all(np.abs(pair.norms(lams) - spectral) <= REL_TOL * scale)
        coefs = w / (2.0 * np.pi)
        got = summed(pair, lams, [coefs], 0)
        expect = np.tensordot(coefs, diff, axes=(0, 0))
        assert np.linalg.norm(got - expect) <= REL_TOL * np.sum(np.abs(coefs) * scale)


class TestDecoupledSums:
    """Panel sums of dense blocks through a block diagonalisation of the
    Schur form, and the blocks that stay whole."""

    @pytest.mark.parametrize("build, largest", [
        (lambda: random_gap_operator(48, 7), 3), (near_pair, 2), (large_cluster, 12),
    ])
    def test_clusters(self, build, largest):
        orders = cluster_orders(build())
        assert orders is not None and orders[-1] == largest and orders[-2] == 1

    @pytest.mark.parametrize("build", [
        # from order 96 on, the clusters of random(d, 7) merge past the share
        lambda: random_gap_operator(96, 7),
        lambda: random_gap_operator(128, 7),
        # twelve eigenvalues 0.05 apart: one cluster of all of them
        lambda: triangular_operator(1.0 + 0.05j * np.arange(12), 5),
    ])
    def test_whole_block_takes_the_per_node_sums(self, build):
        op = build()
        assert cluster_orders(op) is None
        lams, w = nodes_for(op)
        lams, w = lams[: 3 * Q], w[: 3 * Q]
        coef_sets = np.array([w / lams**2, w / lams])
        kernel = _Kernel((op,))
        (group,) = _schur_groups(op)
        c = coef_sets.astype(complex).reshape(2, 3, Q).transpose(1, 0, 2)
        panels = _node_sums(c, group.t, lams)
        # the estimate's panel norms bit for bit: a share equal to them opens
        # no panel, the next float below opens every one
        fro = _stack_norms([panels[1:]], spectral=False)[0]
        for share, is_open in ((fro, np.zeros(3, bool)), (np.nextafter(fro, 0.0), np.ones(3, bool))):
            ((closed,), (still_open,)), got = kernel.totals(lams, coef_sets, Q, share)
            assert np.array_equal(got, is_open)
            assert closed.tobytes() == panels[:, ~is_open].sum(axis=1).tobytes()
            assert still_open.tobytes() == panels[:, is_open].sum(axis=1).tobytes()
        assert kernel.kappa == 1.0

    def test_one_group_decoupled_and_whole(self):
        op = decoupled_and_whole()
        (group,) = _schur_groups(op)
        parts = _decouplings(op, group)
        assert group.idx.shape == (2, 16) and sum(part is None for part in parts) == 1

    def test_norms_stacks_and_oracle_stay_off(self, monkeypatch):
        def refuse(t):
            raise AssertionError("decoupling called")

        monkeypatch.setattr(operators, "_decoupling", refuse)
        op = random_gap_operator(48, 7)
        lams, w = nodes_for(op)
        lams, w = lams[:Q], w[:Q]
        oracle_projection(op)
        resolvent_norms(op, lams)
        resolvent_many(op, lams)
        _Kernel((op,)).norms(lams)
        with pytest.raises(AssertionError, match="decoupling called"):
            _Kernel((op,)).totals(lams, [w, w], Q, np.inf)

    def test_one_operator_takes_its_totals_back_once(self, monkeypatch):
        # one L F R for the closed and one for the open total of a decoupled
        # block, none for an empty one; a pair takes back every panel
        calls, from_pieces = [], operators._from_pieces
        monkeypatch.setattr(operators, "_from_pieces", lambda p, a: calls.append(a[0].shape) or from_pieces(p, a))
        op = random_gap_operator(48, 7)
        (part,) = _decouplings(op, _schur_groups(op)[0])
        lams, w = nodes_for(op)
        panels, single = lams.size // Q, part.single.size
        for share, count in ((np.inf, 1), (0.0, 1), (np.where(np.arange(panels) % 2, np.inf, 0.0), 2)):
            calls.clear()
            _Kernel((op,)).totals(lams, [w, w / lams], Q, share)
            assert calls == [(2, single)] * count
        calls.clear()
        _Kernel((op, dense_operator(op.entries + 0.01 * np.eye(op.dim)))).totals(lams, [w, w / lams], Q, np.inf)
        assert calls == [(2, panels, single)] * 2

    @pytest.mark.parametrize("centres, order", [((-1.0, 1.0, 3.0), 43), ((-1.0, 1.0), 64)])
    def test_large_clusters_against_dense_lu(self, centres, order):
        # two or three equal clusters, whose pieces hold about m^2 / 4 or
        # m^2 / 6 entries, two of order 64 right at the share m^3 / 4 above
        # which the block stays whole: the panel norms from the Gram matrices
        # L^H L and R R^H lie within REL_TOL of dense LU, and so do the totals
        chain = 0.05j * (np.arange(order) - order / 2)
        op = triangular_operator(np.concatenate([c + chain for c in centres]), 5)
        assert cluster_orders(op) == [order] * len(centres)
        (part,) = _decouplings(op, _schur_groups(op)[0])
        assert part.single.size == 0 and 8 * len(centres) * order * (order + 1) // 2 > op.dim**2
        lams, w = nodes_for(op)
        lams, w = lams[: 3 * Q], w[: 3 * Q]
        dense = dense_resolvents(op, lams)
        coef_sets = [w / (2.0 * np.pi), w / lams**2]
        panels = [np.einsum("pk,pkij->pij", c.reshape(-1, Q), dense.reshape(-1, Q, op.dim, op.dim)) for c in coef_sets]
        fro = np.linalg.norm(panels[1], axis=(1, 2))
        kernel = _Kernel((op,))
        for share, is_open in ((fro * (1.0 - REL_TOL), True), (fro * (1.0 + REL_TOL), False)):
            sums, got = kernel.totals(lams, coef_sets, Q, share)
            assert np.all(got == is_open)
            total = dense_set(kernel, sums[int(is_open)], 0)
            assert rel(total, panels[0].sum(axis=0)) <= REL_TOL

    @pytest.mark.parametrize("dim", [16, 32, 48, 64])
    def test_rounding_term_covers_the_dense_lu_deviation(self, dim):
        # the driver's rounding term dim * eps * kappa * ||value||, on the
        # A weight of a line of a decoupled block
        op = random_gap_operator(dim, 7)
        kernel = _Kernel((op,))
        lams, w = nodes_for(op)
        coefs = w / (2.0 * np.pi * lams**2)
        value = summed(kernel, lams, [coefs], 0)
        assert kernel.kappa > 1.0
        deviation = np.linalg.norm(value - np.tensordot(coefs, dense_resolvents(op, lams), axes=(0, 0)), 2)
        assert deviation <= dim * _MACHINE_EPS * kernel.kappa * np.linalg.norm(value, 2)

    def test_pair_of_decoupled_blocks(self):
        s_op = near_pair()
        t_op = dense_operator(s_op.entries + 0.01 * np.eye(s_op.dim))
        assert cluster_orders(t_op) is not None
        lams, w = nodes_for(s_op)
        rs, rt = dense_resolvents(s_op, lams), dense_resolvents(t_op, lams)
        scale = np.maximum(np.linalg.norm(rs, axis=(1, 2)), np.linalg.norm(rt, axis=(1, 2)))
        coefs = w / (2.0 * np.pi)
        pair = _Kernel((s_op, t_op))
        got = summed(pair, lams, [coefs], 0)
        expect = np.tensordot(coefs, rs - rt, axes=(0, 0))
        assert np.linalg.norm(got - expect) <= REL_TOL * np.sum(np.abs(coefs) * scale)


def mcintosh_yagi_block(m):
    """The m-th block of the McIntosh-Yagi family as one dense operator."""
    op = build_block_operator("mcintosh-yagi", m)
    sl = op.family_tag.block_slices()[m - 1]
    return dense_operator(op.entries[sl, sl])


def axis_grid():
    """The 64 points of the corpus's McIntosh-Yagi axis-bound check."""
    t = np.logspace(-2, 4, 32)
    return np.concatenate([-1j * t[::-1], 1j * t])


def top_singular_values(stack, lams, chunk=8):
    """Largest singular value of every matrix of ``stack(part)``, over the
    points ``lams`` a few at a time."""
    parts = (lams[i : i + chunk] for i in range(0, lams.size, chunk))
    return np.concatenate([np.linalg.svd(stack(p), compute_uv=False)[:, 0] for p in parts])


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the arguments of every ``np.linalg.svd`` call made
    after the fixture: a stack of n matrices is an SVD fallback for n nodes."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def random_128_line():
    op = random_gap_operator(128, 7)
    return op, nodes_for(op)[0]


LANCZOS_CASES = {
    "mcintosh-yagi m=2 (order 76), axis": lambda: (mcintosh_yagi_block(2), axis_grid()),
    "mcintosh-yagi m=3 (order 340), axis": lambda: (mcintosh_yagi_block(3), axis_grid()),
    "random(128, 7), line": random_128_line,
    "random(128, 7), axis": lambda: (random_gap_operator(128, 7), axis_grid()),
}


class TestLanczosNorms:
    """Spectral norms of blocks of order 64 and above come from Lanczos on
    X^H X, certified as upper bounds, with the SVD where that fails."""

    @pytest.mark.parametrize("name", sorted(LANCZOS_CASES))
    def test_matches_svd_from_above(self, name, svd_shapes):
        op, lams = LANCZOS_CASES[name]()
        m = op.dim
        expect = top_singular_values(lambda part: dense_resolvents(op, part), lams)
        svd_shapes.clear()
        got = resolvent_norms(op, lams)
        fallbacks = sum(shape[0] for shape in svd_shapes if len(shape) == 3)
        assert np.max(np.abs(got / expect - 1.0)) <= REL_TOL
        # an upper bound on the norm of the same triangular inverses, up to
        # the rounding of their SVD (dense LU differs from them by more)
        exact = top_singular_values(lambda part: _Kernel((op,)).nodes(part)[0][:, 0], lams)
        assert np.all(got >= exact * (1.0 - 4 * m * np.finfo(float).eps))
        if name.startswith("mcintosh-yagi"):
            assert fallbacks == 0  # every axis point certified
        else:
            assert fallbacks < lams.size  # some nodes certified, the rest by SVD

    @pytest.mark.parametrize("decay", [0.5, 0.95])
    @pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "mixed"])
    def test_top_vector_orthogonal_to_the_start(self, decay, invariant):
        # the start vector is orthogonal to the top right singular vector, so
        # in exact arithmetic the Krylov space never sees it.  ``invariant``:
        # the start vector is the second right singular vector, so the Krylov
        # space is invariant after one step, with a Ritz pair of zero residual
        # at the wrong value; else it mixes all the others.  The certificate
        # must fail (or close on the right value once rounding brings the top
        # vector in); an underestimate is never returned
        m = 96
        rng = np.random.default_rng(5)
        start = _lanczos_start(m)
        top = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        top -= start * np.vdot(start, top)
        second = start if invariant else rng.standard_normal(m)
        cols = np.column_stack([top, second, rng.standard_normal((m, m - 2))])
        v = np.linalg.qr(cols)[0]
        u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        x = u @ np.diag(decay ** np.arange(m)) @ v.conj().T
        assert abs(np.vdot(v[:, 0], start)) <= 1e-15
        expect = np.linalg.svd(x, compute_uv=False)[0]
        got = _lanczos_norms(x[None])[0]
        assert abs(got / expect - 1.0) <= REL_TOL

    def test_deterministic(self):
        op, lams = mcintosh_yagi_block(2), axis_grid()
        first = resolvent_norms(op, lams)
        cold = dense_operator(op.entries)
        assert resolvent_norms(cold, lams).tobytes() == first.tobytes()

    def test_pairs_and_oracle_stay_off_lanczos(self, monkeypatch):
        def refuse(x):
            raise AssertionError("Lanczos called")

        monkeypatch.setattr(operators, "_lanczos_norms", refuse)
        s_op = random_gap_operator(64, 7)
        t_op = dense_operator(s_op.entries + 0.01 * np.eye(64))
        lams, _ = nodes_for(s_op)
        lams = lams[:Q]
        diff = dense_resolvents(s_op, lams) - dense_resolvents(t_op, lams)
        expect = np.linalg.svd(diff, compute_uv=False)[:, 0]
        assert np.max(np.abs(_Kernel((s_op, t_op)).norms(lams) / expect - 1.0)) <= REL_TOL
        oracle_projection(s_op)
        with pytest.raises(AssertionError, match="Lanczos called"):
            resolvent_norms(s_op, lams)


def coupled_blocks(order=96, count=2, seed=1, step=1):
    """``count`` blocks [[D+, C], [0, D-]] of one order, dyadic as in the
    McIntosh-Yagi family: D+ and D- diagonal with moduli 2^(step k) right
    and left of the axis (D- in a random order), and C random with its
    columns scaled like D-, as B D is.  Each is its own Schur factor,
    coupled-diagonal with R the rows of D+ and C the columns of D-."""
    rng = np.random.default_rng(seed)
    half = order // 2
    exponents = step * np.arange(half)
    blocks = []
    for _ in range(count):
        plus = 2.0**exponents * (1.0 + 0.5j * rng.uniform(-1.0, 1.0, half))
        minus = -(2.0 ** rng.permutation(exponents)) * (1.0 + 0.5j * rng.uniform(-1.0, 1.0, half))
        c = (rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))) * np.abs(minus)
        blocks.append(np.block([[np.diag(plus), c], [np.zeros((half, half)), np.diag(minus)]]))
    return dense_operator(sla.block_diag(*blocks))


def coupled_nodes():
    """The corpus axis grid and a line right of the axis."""
    return np.concatenate([axis_grid(), 0.2 + 1j * np.linspace(-3.0, 3.0, 17)])


def explicit_inverses(t, lams):
    return _triangular_inverses(t[None], lams)[:, 0]


class TestCoupledNorms:
    """Blocks whose Schur factor is coupled-diagonal, T = Delta + N with N
    only on rows R and columns C, R and C disjoint, take their Lanczos
    products from X = D - D N D, D = (Delta - lam)^{-1}, without per-node
    inverses; the certificate and the SVD fallback are those of the
    explicit stacks."""

    def test_two_blocks_match_the_explicit_inverses(self, monkeypatch, svd_shapes):
        op, lams = coupled_blocks(), coupled_nodes()
        (group,) = _schur_groups(op)
        m = group.idx.shape[1]
        assert group.idx.shape == (2, 96) and group.coupling is not None
        assert [r.tolist() for r in group.coupling] == [list(range(48)), list(range(48, 96))]
        dense = np.stack([_lanczos_norms(explicit_inverses(t, lams)) for t in group.t], axis=1)
        svd = np.stack([top_singular_values(lambda part: explicit_inverses(t, part), lams) for t in group.t], axis=1)

        inverted, inverses = [], operators._triangular_inverses
        monkeypatch.setattr(operators, "_triangular_inverses", lambda t, p: inverted.append(p.size) or inverses(t, p))
        svd_shapes.clear()
        got = np.stack([_lanczos_norms(_Coupled(t, group.coupling, lams)) for t in group.t], axis=1)
        norms = resolvent_norms(op, lams)
        # inverses are formed only for the SVD fallback, and most nodes certify
        fallbacks = [shape[0] for shape in svd_shapes if len(shape) == 3]
        assert inverted == fallbacks and sum(fallbacks) < lams.size
        assert np.max(np.abs(got / dense - 1.0)) <= REL_TOL
        assert np.all(got >= svd * (1.0 - 4 * m * _MACHINE_EPS))
        assert np.max(np.abs(norms / got.max(axis=1) - 1.0)) <= REL_TOL

    def test_trace_where_the_coupling_does_not_square(self):
        # entries of C and D- near 2^900: |n_ij|^2 overflows, while X and
        # its Frobenius norm stay in range
        op = coupled_blocks(order=64, count=1, step=29)
        (group,) = _schur_groups(op)
        lams = coupled_nodes()
        assert np.abs(group.t[0]).max() > 1e200
        coupled = _Coupled(group.t[0], group.coupling, lams)
        fro2 = np.linalg.norm(explicit_inverses(group.t[0], lams), axis=(1, 2)) ** 2
        assert np.max(np.abs(coupled.trace() / fro2 - 1.0)) <= REL_TOL
        got = _lanczos_norms(coupled)
        expect = top_singular_values(lambda part: explicit_inverses(group.t[0], part), lams)
        assert np.max(np.abs(got / expect - 1.0)) <= REL_TOL

    def test_one_entry_inside_a_diagonal_part_keeps_the_dense_path(self, monkeypatch):
        # an entry of the D+ part of the first block: its column joins C,
        # which then meets R, so the group takes the explicit inverses
        entries = coupled_blocks().entries.copy()
        entries[0, 1] = 0.5
        op, lams = dense_operator(entries), coupled_nodes()
        (group,) = _schur_groups(op)
        assert group.coupling is None

        def refuse(*args):
            raise AssertionError("coupled products used")

        monkeypatch.setattr(operators, "_Coupled", refuse)
        expect = top_singular_values(lambda part: dense_resolvents(op, part), lams)
        assert np.max(np.abs(resolvent_norms(op, lams) / expect - 1.0)) <= REL_TOL

    def test_failed_certificate_takes_the_svd_of_the_inverses(self, monkeypatch, svd_shapes):
        op, lams = coupled_blocks(), coupled_nodes()
        (group,) = _schur_groups(op)
        monkeypatch.setattr(operators, "_LANCZOS_MAX_STEPS", 1)
        for t in group.t:
            svd_shapes.clear()
            got = _lanczos_norms(_Coupled(t, group.coupling, lams))
            assert svd_shapes == [(lams.size, 96, 96)]  # one fallback stack of every node
            expect = np.linalg.svd(explicit_inverses(t, lams), compute_uv=False)[:, 0]
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_near_spectrum_tol_without_the_norm(self, m):
        # rho(S) <= ||S|| already puts 1e-8 (1 + ||S||) far above the cap, a
        # quarter of the gap, so the axis sweep takes no SVD of S
        op = mcintosh_yagi_block(m)
        tol = near_spectrum_tol(op)
        resolvent_norms(op, axis_grid())
        assert "norm" not in op._lazy
        assert tol == min(1e-8 * (1.0 + operator_norm(op)), 0.25 * spectrum(op).min_abs_real)


class TestChunks:
    """The kernel solves a line chunk by chunk, each of whole panels holding
    about _CHUNK_ENTRIES entries; nothing may depend on where the chunks end."""

    def test_whole_panels_cover_the_nodes(self, monkeypatch):
        kernel = _Kernel((random_gap_operator(8, 7),))
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 3 * Q * kernel.width + 1)
        bounds = [0, 3 * Q, 6 * Q, 7 * Q]  # three panels a chunk, and what is left
        assert kernel.chunks(7 * Q, Q) == [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        assert kernel.chunks(7) == [slice(0, 7)]
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 1)  # at least one panel each
        assert kernel.chunks(2 * Q, Q) == [slice(0, Q), slice(Q, 2 * Q)]
        assert kernel.chunks(2) == [slice(0, 1), slice(1, 2)]
        assert kernel.chunks(0, Q) == []

    @pytest.mark.parametrize("dim", [16, 64])
    def test_norms_and_stack_byte_identical(self, dim, monkeypatch):
        op = random_gap_operator(dim, 7)
        lams, _ = nodes_for(op)
        whole = resolvent_norms(op, lams), resolvent_many(op, lams)
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 3 * dim**2)  # three nodes a chunk
        assert len(_Kernel((op,)).chunks(lams.size)) > 1
        chunked = resolvent_norms(op, lams), resolvent_many(op, lams)
        for a, b in zip(whole, chunked):
            assert a.tobytes() == b.tobytes()

    def test_line_integrals_one_panel_a_chunk(self, monkeypatch):
        op = random_gap_operator(64, 7)
        spec = default_contour(op)
        z = -2.0 * spec.h
        whole = _side_integrals(op, "-", spec, ("A", "R"), z)
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", Q * op.dim**2)
        chunked = _side_integrals(op, "-", spec, ("A", "R"), z)
        assert chunked["A"].node_count == whole["A"].node_count
        # the per-chunk totals are added in another order, so not byte-identical
        assert rel(chunked["A"].value, whole["A"].value) <= 1e-13
        assert rel(chunked["R"].value, whole["R"].value) <= 1e-13


class TestRealMirror:
    """For a real operator R(conj lam) = conj R(lam), so the kernel takes a
    point below the real axis as its mirror and solves each point once."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """The points the kernel solves, one list per block group: its
        per-node inverses, or its coupled-diagonal products."""
        points = []
        for name in ("_triangular_inverses", "_Coupled"):
            solve = getattr(operators, name)
            monkeypatch.setattr(operators, name, lambda t, *a, solve=solve: points.append(list(a[-1])) or solve(t, *a))
        return points

    def test_corpus_axis_grid_mirrors_bit_for_bit(self, solved):
        op = build_block_operator("mcintosh-yagi", 2)  # blocks of order 16 and 76 (Lanczos, coupled)
        t = np.logspace(-2, 4, 32)
        lams = np.concatenate([-1j * t[::-1], 1j * t])  # the grid of the axis-bound facts
        norms = resolvent_norms(op, lams)
        assert [sorted(p, key=abs) for p in solved] == [list(1j * t)] * 2
        assert norms[: t.size][::-1].tobytes() == norms[t.size :].tobytes()
        svd = [np.linalg.svd(resolvent(op, lam), compute_uv=False)[0] for lam in lams]
        assert np.max(np.abs(norms / svd - 1.0)) <= 1e-13

    def test_only_exact_mirrors_merge(self, solved):
        op = build_block_operator("dichotomy-2.3", 4)
        lams = np.array([2j, -2j, -2j * (1 + 1e-15), 1 - 1j, 1 + 1j, 3j, 3j])
        norms = resolvent_norms(op, lams)
        assert [sorted(p, key=abs) for p in solved] == [[1 + 1j, 2j, 2j * (1 + 1e-15), 3j]]
        assert norms[0] == norms[1] and norms[3] == norms[4] and norms[5] == norms[6]
        alone = [resolvent_norms(op, [lam])[0] for lam in lams]
        assert np.max(np.abs(norms / alone - 1.0)) <= 1e-15

    def test_complex_entries_take_every_point(self):
        assert _Kernel((build_block_operator("dichotomy-2.3", 4),)).real
        assert not _Kernel((random_gap_operator(8, 7),)).real
        real, pair = build_block_operator("dichotomy-2.3", 2), diag_operator([1.0, -1.0, 1j, -2.0])
        assert not _Kernel((real, pair)).real


class TestPreconditions:
    def test_singular_node_named(self):
        # two blocks of order 13, solved by LAPACK: the node hitting the second
        # block's spectrum is named, not its position in the (node, block) loop
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((2, 13, 13)) + 1j * rng.standard_normal((2, 13, 13))
        (group,) = _schur_groups(dense_operator(sla.block_diag(*blocks)))
        assert group.idx.shape == (2, 13)
        lams = np.array([3j, -2j, group.t[1, 4, 4], 1j])
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(f"lambda={lams[2]}")):
            _triangular_inverses(group.t, lams)

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
        empty = np.array([], dtype=complex)
        assert np.array_equal(summed(kernel, empty, [empty, empty], 0), np.zeros((6, 6)))
        assert kernel.totals(empty, [empty, empty], Q, empty)[1].shape == (0,)
        assert kernel.norms(np.array([], dtype=complex)).shape == (0,)
