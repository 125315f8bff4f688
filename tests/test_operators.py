import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import ztrsyl

from specsplit import (
    NearSpectrumError,
    OperatorError,
    build_block_operator,
    dense_operator,
    descriptor_of,
    diag_operator,
    operator_from_descriptor,
    oracle_projection,
    random_gap_operator,
    resolvent,
    resolvent_many,
    spectral_norm,
    spectrum,
    subspace_angle,
)
import specsplit.operators as operators_module
from specsplit.operators import _schur_groups, _schur_stack, mcintosh_yagi_parts, mcintosh_yagi_pick_n


def block23(n):
    return np.array([[n, 2.0 * n * n], [0.0, -n]], dtype=complex)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class TestFamilies:
    def test_dichotomy_block_n1(self):
        op = build_block_operator("dichotomy-2.3", 1)
        assert np.array_equal(op.entries, np.array([[1, 2], [0, -1]], dtype=complex))

    def test_constant_diag_default(self):
        op = build_block_operator("constant-diag", 1)
        assert np.array_equal(op.entries, np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_almost_bisect_blocks(self):
        op = build_block_operator("almost-bisect-5.5", 2, {"p": 0.5})
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = [[1, 2], [0, -1]]
        expect[2:, 2:] = [[2, 2 * 2**1.5], [0, -2]]
        assert np.allclose(op.entries, expect, rtol=0, atol=0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 2.0])
    def test_almost_bisect_rejects_bad_p(self, p):
        with pytest.raises(OperatorError):
            build_block_operator("almost-bisect-5.5", 2, {"p": p})

    def test_unknown_family(self):
        with pytest.raises(OperatorError):
            build_block_operator("no-such-family", 3)

    def test_unknown_parameter(self):
        with pytest.raises(OperatorError):
            build_block_operator("dichotomy-2.3", 2, {"bogus": 1})

    def test_family_tag(self):
        op = build_block_operator("almost-bisect-5.5", 3, {"p": 0.25})
        tag = op.family_tag
        assert tag.family == "almost-bisect-5.5"
        assert tag.n_blocks == 3
        assert tag.block_dims == (2, 2, 2)
        assert [s.start for s in tag.block_slices()] == [0, 2, 4]

    def test_bit_identical_regeneration(self):
        a = build_block_operator("mcintosh-yagi", 2, {"Mconst": 10.0})
        b = build_block_operator("mcintosh-yagi", 2, {"Mconst": 10.0})
        assert np.array_equal(a.entries, b.entries)

    def test_mcintosh_yagi_pick_n(self):
        # M = 10, m = 1: the inequality needs log(n/2 + 1) >= pi*sqrt(18)/9
        assert mcintosh_yagi_pick_n(10.0, 1) == 7
        c = 9.0 / (np.pi * np.sqrt(18.0))
        assert c * np.log(6 / 2 + 1) < 1.0  # the next smaller order fails

    @pytest.mark.parametrize("m_const", [1.0, 0.5, np.inf, np.nan])
    def test_mcintosh_yagi_constant_refused(self, m_const):
        # inf used to reach the entries as nan under a numpy warning
        with pytest.raises(OperatorError, match="constant M must be finite and exceed 1"):
            build_block_operator("mcintosh-yagi", 1, {"Mconst": m_const})

    def test_mcintosh_yagi_float_overflow_named(self):
        # M = 3, m = 1 needs order 1566, under the cap, but 2^n overflows from n = 1024
        message = r"m=1 needs order n=1566, .* leave the float range \(below 2\^1024\)"
        with pytest.raises(OperatorError, match=message):
            mcintosh_yagi_parts(3.0, 1)

    @pytest.mark.parametrize("m_const, refused", [(3.0, False), (1.0 + 2.0 * np.pi, True)])
    def test_mcintosh_yagi_float_range_edge(self, monkeypatch, m_const, refused):
        # at n = 1023 the diagonal 2^n is finite, and the largest entry
        # (M-1)/pi * 2^n of B@D is too while (M-1)/pi < 2
        monkeypatch.setattr(operators_module, "mcintosh_yagi_pick_n", lambda m_const, m: 1023)
        if refused:
            with pytest.raises(OperatorError, match="n=1023"):
                mcintosh_yagi_parts(m_const, 1)
        else:
            _, d, b = mcintosh_yagi_parts(m_const, 1)
            assert d[-1, -1] == 2.0**1023 and np.isfinite(b @ d).all()

    def test_entries_immutable(self):
        op = build_block_operator("dichotomy-2.3", 1)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_non_square_rejected(self):
        with pytest.raises(OperatorError):
            dense_operator(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


class TestResolvent:
    def test_block_n1_at_zero(self):
        op = dense_operator(block23(1))
        assert np.allclose(resolvent(op, 0.0), [[1, 2], [0, -1]], atol=1e-14)

    def test_diag_at_i(self):
        op = diag_operator([1, -1])
        expect = np.diag([1.0 / (1 - 1j), -1.0 / (1 + 1j)])
        assert np.allclose(resolvent(op, 1j), expect, atol=1e-14)

    def test_block_n1_at_i(self):
        # Substituting n=1, lambda=i into the closed-form block resolvent:
        # [[1/(1-i), 2/((1-i)(1+i))], [0, -1/(1+i)]] = [[(1+i)/2, 1], [0, -(1-i)/2]]
        op = dense_operator(block23(1))
        expect = np.array([[(1 + 1j) / 2, 1.0], [0.0, -(1 - 1j) / 2]])
        assert np.allclose(resolvent(op, 1j), expect, atol=1e-14)

    def test_near_spectrum_error_carries_eigenvalue(self):
        op = diag_operator([1, -1])
        with pytest.raises(NearSpectrumError) as err:
            resolvent(op, 1.0 + 1e-12j)
        assert err.value.eigenvalue == pytest.approx(1.0)
        assert err.value.distance <= err.value.tol

    def test_resolvent_many_writes_into_its_result(self):
        # each chunk's values go straight into the result, so the peak stays
        # near the result's size on block-diagonal operators, whose chunks
        # span many nodes of dim x dim matrices
        op = build_block_operator("dichotomy-2.3", 50)
        lams = 1j * np.linspace(1, 200, 200)
        tracemalloc.start()
        try:
            out = resolvent_many(op, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_resolvent_many_matches_single(self):
        op = random_gap_operator(6, seed=3)
        lams = np.array([1j, 2j, 0.1 + 5j])
        stack = resolvent_many(op, lams)
        for lam, res in zip(lams, stack):
            assert np.allclose(res, resolvent(op, lam), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        t1=st.floats(-20, 20),
        t2=st.floats(-20, 20),
        off=st.floats(0.05, 3),
    )
    @example(t1=0.0, t2=0.0, off=2.0)  # lambda = 2 and mu = -2 are eigenvalues
    def test_first_resolvent_identity(self, t1, t2, off):
        op = dense_operator(block23(2))
        lam, mu = off + 1j * t1, -off + 1j * t2
        # the eigenvalues are +-2: keep lambda and mu at least as far from
        # them as off keeps them from the axis
        assume(abs(lam - 2.0) >= 0.05 and abs(mu + 2.0) >= 0.05)
        r_lam = resolvent(op, lam)
        r_mu = resolvent(op, mu)
        lhs = r_lam - r_mu
        rhs = (lam - mu) * r_lam @ r_mu
        assert spectral_norm(lhs - rhs) <= 1e-9 * (1 + abs(lam - mu))

    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_refuses_eigenvalue(self, lam):
        with pytest.raises(NearSpectrumError):
            resolvent(dense_operator(block23(2)), lam)

    def test_block_functoriality(self):
        op = build_block_operator("dichotomy-2.3", 4)
        full = resolvent(op, 0.3 + 2j)
        for n, sl in zip(range(1, 5), op.family_tag.block_slices()):
            single = resolvent(dense_operator(block23(n)), 0.3 + 2j)
            assert np.allclose(full[sl, sl], single, atol=1e-12)
        off_diag = full.copy()
        for sl in op.family_tag.block_slices():
            off_diag[sl, sl] = 0.0
        assert spectral_norm(off_diag) <= 1e-12


# ---------------------------------------------------------------------------
# spectrum / gap
# ---------------------------------------------------------------------------


class TestSpectrum:
    def test_diag(self):
        spec = spectrum(diag_operator([1, -1]))
        assert sorted(spec.eigenvalues.real.tolist()) == [-1.0, 1.0]
        assert spec.min_abs_real == pytest.approx(1.0)

    def test_dichotomy_truncation(self):
        spec = spectrum(build_block_operator("dichotomy-2.3", 3))
        assert np.allclose(np.sort(spec.eigenvalues.real), [-3, -2, -1, 1, 2, 3], atol=1e-12)
        assert spec.min_abs_real == pytest.approx(1.0, abs=1e-12)

    def test_mcintosh_yagi_block_eigenvalues(self):
        # block-triangular structure: eigenvalues are +-2^0..+-2^n
        op = build_block_operator("mcintosh-yagi", 1, {"Mconst": 10.0})
        n = op.dim // 2 - 1
        expect = np.sort(np.concatenate([2.0 ** np.arange(n + 1), -(2.0 ** np.arange(n + 1))]))
        assert np.allclose(np.sort(spectrum(op).eigenvalues.real), expect, rtol=1e-12)



# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_projection_block_norm(self, n):
        m = np.array([[1.0, n], [0.0, 0.0]])
        assert spectral_norm(m) == pytest.approx(np.sqrt(1 + n * n), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_submultiplicative_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) * (1 + 1e-12)
        assert spectral_norm(2.5 * a) == pytest.approx(2.5 * spectral_norm(a), rel=1e-12)


# ---------------------------------------------------------------------------
# the projection oracle
# ---------------------------------------------------------------------------


class TestOracle:
    def test_diag(self):
        pair = oracle_projection(diag_operator([1, -1]))
        assert np.allclose(pair.p_plus, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(pair.p_minus, np.diag([0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_dichotomy_block(self, n):
        pair = oracle_projection(dense_operator(block23(n)))
        assert np.allclose(pair.p_plus, [[1, n], [0, 0]], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_almost_bisect_block(self, n):
        block = np.array([[n, 2.0 * n**1.5], [0, -n]], dtype=complex)
        pair = oracle_projection(dense_operator(block))
        assert np.allclose(pair.p_plus, [[1, np.sqrt(n)], [0, 0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_on_random_operators(self, seed):
        op = random_gap_operator(8, seed=seed)
        pair = oracle_projection(op)
        s = op.entries
        tol = 1e-10 * (1 + spectral_norm(s))
        assert spectral_norm(pair.p_plus @ pair.p_plus - pair.p_plus) <= tol
        assert spectral_norm(pair.p_plus + pair.p_minus - np.eye(8)) <= tol
        assert spectral_norm(pair.p_plus @ pair.p_minus) <= tol
        assert spectral_norm(pair.p_plus @ s - s @ pair.p_plus) <= tol
        assert pair.rank_plus + pair.rank_minus == 8

    def test_range_splitting(self):
        op = random_gap_operator(9, seed=42)
        pair = oracle_projection(op)
        restr = pair.basis_plus.conj().T @ op.entries @ pair.basis_plus
        assert np.linalg.eigvals(restr).real.min() > 0
        restr_m = pair.basis_minus.conj().T @ op.entries @ pair.basis_minus
        assert np.linalg.eigvals(restr_m).real.max() < 0

    def test_refuses_axis_eigenvalue(self):
        with pytest.raises(NearSpectrumError):
            oracle_projection(diag_operator([1j, 1.0]))

    def test_one_sided_spectrum(self):
        pair = oracle_projection(diag_operator([1, 2, 3]))
        assert np.allclose(pair.p_plus, np.eye(3), atol=1e-14)
        assert pair.rank_minus == 0
        pair = oracle_projection(diag_operator([-1, -2]))
        assert pair.rank_plus == 0
        assert np.array_equal(pair.p_plus, np.zeros((2, 2)))
        assert np.allclose(pair.p_minus, np.eye(2), atol=1e-14)

    def test_one_schur_form(self, monkeypatch):
        calls = []
        schur = sla.schur

        def counted(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr("specsplit.operators.sla.schur", counted)
        oracle_projection(random_gap_operator(8, seed=3))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "op",
        [
            build_block_operator("dichotomy-2.3", 10),
            build_block_operator("almost-bisect-5.5", 50, {"p": 0.5}),
            random_gap_operator(64, seed=7),
        ],
        ids=["dichotomy-2.3?N=10", "almost-bisect-5.5?N=50", "random(64, 7)"],
    )
    def test_basis_minus_spans_range_of_p_minus(self, op):
        pair = oracle_projection(op)
        b = pair.basis_minus
        assert b.shape[1] == pair.rank_minus
        assert spectral_norm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-12
        residual = spectral_norm(pair.p_minus @ b - b)
        assert residual <= 1e-12 * spectral_norm(pair.p_minus)

    def test_block_diagonal_structure(self):
        op = build_block_operator("dichotomy-2.3", 3)
        pair = oracle_projection(op)
        for n, sl in zip(range(1, 4), op.family_tag.block_slices()):
            assert np.allclose(pair.p_plus[sl, sl], [[1, n], [0, 0]], atol=1e-10)


def dense_oracle(entries):
    """The oracle as one ordered Schur form of the whole matrix, one ztrsyl
    and Q core Q^H: (P_+, basis of its range, basis of the range of P_-)."""
    n = entries.shape[0]
    t, q, k = sla.schur(entries, output="complex", sort=lambda z: z.real > 0)
    x = np.zeros((k, n - k), dtype=complex)
    if 0 < k < n:
        x, scale, _ = ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        x = x / scale
    core = np.zeros((n, n), dtype=complex)
    core[:k, :k] = np.eye(k)
    core[:k, k:] = x
    p_plus = np.eye(n, dtype=complex) if k == n else q @ core @ q.conj().T
    return p_plus, q[:, :k], np.linalg.qr(q @ np.vstack([-x, np.eye(n - k)]))[0]


def diag128():
    """The diagonal operator of acceptance criterion 8: +-k, odd k positive."""
    k = np.arange(1, 129, dtype=float)
    return diag_operator(np.where(k % 2 == 1, k, -k))


def perturbed_diag128():
    """:func:`diag128` plus a diagonal perturbation and one symmetric coupling
    of its first two entries: one non-triangular 2 x 2 component."""
    k = np.arange(1, 129, dtype=float)
    r = 0.5 * np.diag(k**0.4).astype(complex)
    r[0, 1] = r[1, 0] = 0.1
    return dense_operator(diag128().entries + r)


def permuted_components(*blocks, seed=5):
    """The direct sum of ``blocks`` under a fixed random permutation, which
    spreads the indices of each component out."""
    perm = np.random.default_rng(seed).permutation(sum(len(b) for b in blocks))
    return dense_operator(sla.block_diag(*blocks)[np.ix_(perm, perm)])


def rotated(values, seed):
    """A dense, non-triangular matrix with the eigenvalues ``values``."""
    rng = np.random.default_rng(seed)
    n = len(values)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    t = np.triu(rng.standard_normal((n, n)), 1) + np.diag(values)
    return u @ t @ u.conj().T


MIXED = permuted_components(rotated([1.5, -0.7, 2 + 1j], 1), [[1.0, 2.0], [0.5, -1.0]], [[2.0]], [[-3.0]], [[0.5 + 1j]])
ONE_SIDED = permuted_components(rotated([1.0, 2.0, 0.5 - 1j], 2), rotated([-1.0, -2.0 + 3j], 3), [[4.0]], [[-0.25]])

# every component triangular with its Re > 0 diagonal entries first
ORDERED_TRIANGULAR = {
    "dichotomy-2.3?N=6": lambda: build_block_operator("dichotomy-2.3", 6),
    "bound-4.6?N=6": lambda: build_block_operator("bound-4.6", 6),
    "almost-bisect-5.5?p=0.5&N=10": lambda: build_block_operator("almost-bisect-5.5", 10, {"p": 0.5}),
    "constant-diag?N=3": lambda: build_block_operator("constant-diag", 3),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "mcintosh-yagi?N=2": lambda: build_block_operator("mcintosh-yagi", 2),
    "diag128": diag128,
}
OTHERS = {
    "random(8, 3)": lambda: random_gap_operator(8, 3),
    "random(24, 7)": lambda: random_gap_operator(24, 7),
    "constant-diag?values=-1,2,1+3j": lambda: build_block_operator("constant-diag", 2, {"values": [-1, 2, 1 + 3j]}),
    "perturbed diag128": perturbed_diag128,
    "permuted components": lambda: MIXED,
    "components with k = 0 and k = m": lambda: ONE_SIDED,
}


class TestOracleAgainstDenseForm:
    """The per-component oracle against one ordered Schur form of the whole
    matrix: the same projections, up to the rounding of the dense form."""

    def check_bases(self, pair, reference):
        _, plus, minus = reference
        assert (pair.rank_plus, pair.rank_minus) == (plus.shape[1], minus.shape[1])
        for got, want in ((pair.basis_plus, plus), (pair.basis_minus, minus)):
            assert spectral_norm(got.conj().T @ got - np.eye(got.shape[1])) <= 1e-13
            assert subspace_angle(got, want) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ORDERED_TRIANGULAR))
    def test_bit_for_bit_on_ordered_triangular_components(self, name):
        # the dense form differs only by exact swaps of uncoupled eigenvalues
        op = ORDERED_TRIANGULAR[name]()
        pair, reference = oracle_projection(op), dense_oracle(op.entries)
        assert np.array_equal(pair.p_plus, reference[0])
        self.check_bases(pair, reference)

    @pytest.mark.parametrize("name", sorted(OTHERS))
    def test_within_rounding_elsewhere(self, name):
        op = OTHERS[name]()
        pair, reference = oracle_projection(op), dense_oracle(op.entries)
        assert spectral_norm(pair.p_plus - reference[0]) <= 1e-13 * spectral_norm(reference[0])
        assert np.array_equal(pair.p_minus, np.eye(op.dim) - pair.p_plus)
        self.check_bases(pair, reference)

    def test_components_of_either_rank_end(self):
        # the 3 x 3 component lies right of the axis (k = m), the 2 x 2 one left of it (k = 0)
        pair = oracle_projection(ONE_SIDED)
        assert (pair.rank_plus, pair.rank_minus) == (4, 3)
        _, two, three = operators_module._layout(ONE_SIDED)
        assert np.array_equal(pair.p_plus[np.ix_(three[0], three[0])], np.eye(3))
        assert not pair.p_plus[np.ix_(two[0], two[0])].any()

    def test_each_basis_column_on_one_component(self):
        pair = oracle_projection(MIXED)
        labels = np.zeros(MIXED.dim, dtype=int)
        for c, idx in enumerate(i for group in operators_module._layout(MIXED) for i in group):
            labels[idx] = c
        for basis in (pair.basis_plus, pair.basis_minus):
            for col in basis.T:
                assert np.unique(labels[col != 0]).size == 1

    def test_mixed_scale_components_each_as_if_alone(self):
        # the order-340 block of N = 3 has entries up to 1e51; its Sylvester
        # scale must not touch the coupling of the blocks of order 16 and 76
        op = build_block_operator("mcintosh-yagi", 3)
        p_plus = oracle_projection(op).p_plus
        slices = op.family_tag.block_slices()
        for i, sl in enumerate(slices):
            alone = oracle_projection(dense_operator(op.entries[sl, sl])).p_plus
            assert spectral_norm(p_plus[sl, sl] - alone) <= 1e-13 * spectral_norm(alone)
            for other in slices[:i] + slices[i + 1 :]:
                assert not p_plus[sl, other].any()
        assert spectral_norm(p_plus[slices[0], slices[0]]) == pytest.approx(4.362976636306096, rel=1e-13)
        assert spectral_norm(p_plus[slices[1], slices[1]]) == pytest.approx(7.531539892396505, rel=1e-13)


class TestSchurStack:
    @pytest.fixture
    def schur_calls(self, monkeypatch):
        calls = []
        schur = sla.schur
        monkeypatch.setattr(operators_module.sla, "schur", lambda *a, **k: calls.append(a[0].shape) or schur(*a, **k))
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_block_operator("almost-bisect-5.5", 50, {"p": 0.5}),
            lambda: build_block_operator("mcintosh-yagi", 3),
        ],
        ids=["almost-bisect-5.5?p=0.5&N=50", "mcintosh-yagi?N=3"],
    )
    def test_triangular_components_take_no_schur_call(self, build, schur_calls):
        _schur_groups(build())
        oracle_projection(build())
        assert schur_calls == []

    def test_one_call_per_coupled_component(self, schur_calls):
        _schur_groups(perturbed_diag128())
        assert schur_calls == [(2, 2)]
        oracle_projection(perturbed_diag128())
        assert schur_calls == [(2, 2), (2, 2)]

    @pytest.mark.parametrize("family", operators_module.family_names())
    def test_family_blocks_as_lapack_gives_them(self, family):
        params = {"p": 0.5} if family == "almost-bisect-5.5" else {}
        op = build_block_operator(family, 3, params)
        for sl in op.family_tag.block_slices():
            block = op.entries[sl, sl]
            for ordered, sort in ((False, None), (True, lambda z: z.real > 0)):
                t, q, (k,) = _schur_stack(block[None], ordered)
                want_t, want_q = sla.schur(block, output="complex", sort=sort)[:2]
                assert t[0].tobytes() == want_t.tobytes() and q[0].tobytes() == want_q.tobytes()
                assert k == np.sum(block.diagonal().real > 0)

    def test_huge_triangular_block_kept_exactly(self):
        # zgees scales a matrix of such norm, and its T then differs from B at rounding
        block = 1e200 * np.array([[2.0, 3.0, -1j], [0.0, 1.0 + 1j, 5.0], [0.0, 0.0, -1.0]])
        for ordered in (False, True):
            t, q, (k,) = _schur_stack(block[None], ordered)
            assert t[0].tobytes() == block.tobytes() and q[0].tobytes() == np.eye(3, dtype=complex).tobytes()
            assert k == 2

    def test_unordered_triangular_block_is_sorted(self):
        block = np.array([[-1.0, 2.0, 0.5], [0.0, 3.0, 1.0], [0.0, 0.0, 2.0 - 1j]], dtype=complex)
        t, q, (k,) = _schur_stack(block[None], ordered=True)
        assert k == 2 and (t[0].diagonal().real[:2] > 0).all() and t[0].diagonal().real[2] < 0
        assert np.linalg.norm(q[0] @ t[0] @ q[0].conj().T - block) <= 1e-14 * np.linalg.norm(block)


# ---------------------------------------------------------------------------
# random gap operators
# ---------------------------------------------------------------------------


class TestRandomGapOperator:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_contract(self, seed):
        op = random_gap_operator(8, seed=seed)
        spec = spectrum(op)
        assert spec.min_abs_real >= 0.5 - 1e-9
        assert spectral_norm(op.entries) <= 10.0

    def test_gap_holds_at_large_dims(self):
        # the norm grows with dim and is not capped: a cap that rescaled the
        # entries shrank the gap to 0.447 here
        assert spectrum(random_gap_operator(256, 7)).min_abs_real >= 0.5

    def test_deterministic(self):
        a = random_gap_operator(7, seed=11)
        b = random_gap_operator(7, seed=11)
        assert np.array_equal(a.entries, b.entries)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


class TestDescriptors:
    def test_family_round_trip(self):
        desc = {"kind": "family", "family": "almost-bisect-5.5", "params": {"p": 0.5}, "N": 3}
        op = operator_from_descriptor(desc)
        assert descriptor_of(op) == desc

    def test_dense_round_trip(self):
        entries = np.array([[1 + 2j, 0.5], [0, -1 - 1j]])
        desc = descriptor_of(dense_operator(entries))
        op = operator_from_descriptor(desc)
        assert np.allclose(op.entries, entries, atol=0)

    def test_rejects_unknown_fields(self):
        with pytest.raises(OperatorError):
            operator_from_descriptor(
                {"kind": "family", "family": "dichotomy-2.3", "N": 2, "extra": 1}
            )
        with pytest.raises(OperatorError):
            operator_from_descriptor(
                {"kind": "dense", "entries": [[[1, 0]]], "note": "hi"}
            )

    def test_rejects_bad_kind_and_shapes(self):
        with pytest.raises(OperatorError):
            operator_from_descriptor({"kind": "sparse"})
        with pytest.raises(OperatorError):
            operator_from_descriptor({"kind": "dense", "entries": [[1, 0], [0, 1]]})
        with pytest.raises(OperatorError):
            operator_from_descriptor({"kind": "family", "family": "dichotomy-2.3", "N": 0})

    def test_requires_mandatory_fields(self):
        with pytest.raises(OperatorError):
            operator_from_descriptor({"kind": "family", "N": 2})
        with pytest.raises(OperatorError):
            operator_from_descriptor({"kind": "dense"})
