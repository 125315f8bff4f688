"""split's checks taken block by block against the dense formulas.

Every matrix that ``split`` checks is a function of S, so it is block diagonal
on S's connected components, and ``split``, ``pair_identity_residuals`` and
``projection_pair_residuals`` take their norms, bases and restrictions per
block.  The references here are the dense formulas: one SVD, solve or product
of the whole matrix each.
"""

import dataclasses

import numpy as np
import pytest

import specsplit.analysis as analysis_module
from specsplit import (
    build_block_operator,
    dense_operator,
    diag_operator,
    hamiltonian_assemble,
    multiset_match_distance,
    opposite_halfplane_grid,
    oracle_projection,
    random_gap_operator,
    resolvent,
    resolvent_norms,
    spectral_norm,
    split,
    subspace_angle,
)
from specsplit.analysis import pair_identity_residuals, projection_pair_residuals
from specsplit.corpus import mixed_choice_pair
from specsplit.operators import Operator, _layout, operator_norm

EPS = np.finfo(float).eps

BLOCK_FAMILIES = {
    "dichotomy-2.3?N=10": lambda: build_block_operator("dichotomy-2.3", 10),
    "almost-bisect-5.5?p=0.5&N=50": lambda: build_block_operator("almost-bisect-5.5", 50, {"p": 0.5}),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "constant-diag?N=32": lambda: build_block_operator("constant-diag", 32),
}


def seeded_hamiltonian(n, seed):
    rng = np.random.default_rng(seed)
    tri = np.diag(rng.uniform(0.8, 2.5, n)).astype(complex)
    tri += np.triu(0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))), 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = q @ tri @ q.conj().T
    return hamiltonian_assemble(a, 0.4 * rng.standard_normal((n, 2)), 0.4 * rng.standard_normal((2, n)))


DENSE = {
    "random(32, 7)": lambda: random_gap_operator(32, 7),
    "hamiltonian(4, 2)": lambda: seeded_hamiltonian(4, 2),
}


# ---------------------------------------------------------------------------
# the dense formulas
# ---------------------------------------------------------------------------


def dense_pair(op, a1, a2):
    eye = np.eye(op.dim, dtype=complex)
    s_inv = np.linalg.solve(op.entries, eye)
    s_inv2 = np.linalg.solve(op.entries @ op.entries, eye)
    res_i = np.linalg.solve(op.entries - 1j * np.eye(op.dim), eye)
    return {
        "a_sum": spectral_norm(a1 + a2 - s_inv2),
        "a_cross_pm": spectral_norm(a1 @ a2),
        "a_cross_mp": spectral_norm(a2 @ a1),
        "a_comm_inv_plus": spectral_norm(a1 @ s_inv - s_inv @ a1),
        "a_comm_inv_minus": spectral_norm(a2 @ s_inv - s_inv @ a2),
        "a_comm_resolvent_plus": spectral_norm(a1 @ res_i - res_i @ a1),
        "a_comm_resolvent_minus": spectral_norm(a2 @ res_i - res_i @ a2),
    }


def dense_projection(p1, p2):
    eye = np.eye(p1.shape[0], dtype=complex)
    return {
        "p_sum_identity": spectral_norm(p1 + p2 - eye),
        "p_idempotent_plus": spectral_norm(p1 @ p1 - p1),
        "p_idempotent_minus": spectral_norm(p2 @ p2 - p2),
        "p_cross": max(spectral_norm(p1 @ p2), spectral_norm(p2 @ p1)),
    }


def dense_basis(op, p, k):
    """The dense construction: basis, restriction and span residual."""
    basis = np.linalg.svd(p, full_matrices=False)[0][:, :k]
    restricted = basis.conj().T @ op.entries @ basis
    return basis, restricted, spectral_norm(p - basis @ (basis.conj().T @ p))


@pytest.fixture
def split_with_lines(monkeypatch):
    """split(op) and the two contour lines it evaluated, with R_-(z)'s z."""
    side_integrals = analysis_module._side_integrals

    def run(op, **kwargs):
        lines = []

        def record(*args):
            lines.append((side_integrals(*args), args[4] if len(args) > 4 else None))
            return lines[-1][0]

        monkeypatch.setattr(analysis_module, "_side_integrals", record)
        result = split(op, **kwargs)
        monkeypatch.setattr(analysis_module, "_side_integrals", side_integrals)
        (plus, _), (minus, z) = lines
        return result, plus, minus, z

    return run


def dense_residuals(op, result, plus, minus, z):
    """Every residual of split but spectrum_split, by the dense formulas."""
    a1, a2 = plus["A"].value, minus["A"].value
    s2 = op.entries @ op.entries
    p1, p2 = s2 @ a1, s2 @ a2
    eye = np.eye(op.dim)
    return {
        **dense_pair(op, a1, a2),
        **dense_projection(p1, p2),
        "basis_span_plus": dense_basis(op, p1, result.rank_plus)[2],
        "basis_span_minus": dense_basis(op, p2, result.rank_minus)[2],
        "r_minus_identity": spectral_norm((op.entries - z * eye) @ minus["R"].value - eye + z**2 * a2),
    }


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


class TestResiduals:
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_block_families_agree_to_rounding(self, name, split_with_lines):
        op = BLOCK_FAMILIES[name]()
        result, plus, minus, z = split_with_lines(op, with_b=name.startswith("dichotomy"))
        reference = dense_residuals(op, result, plus, minus, z)
        assert set(result.residuals) == set(reference) | {"spectrum_split"}
        p_norm = max(spectral_norm(result.p_plus), spectral_norm(result.p_minus))
        for key, ref in reference.items():
            # a few units in the last place; a span residual also carries the
            # rounding of its basis, eps ||P||, which per-block SVDs round apart
            slack = 16 * EPS * p_norm if key.startswith("basis_span") else 0.0
            assert abs(result.residuals[key] - ref) <= 8 * EPS * ref + slack + 1e-300, key

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_dense_operators_agree_bit_for_bit(self, name, split_with_lines):
        op = DENSE[name]()
        assert len(_layout(op)) == 1 and _layout(op)[0].shape == (1, op.dim)
        result, plus, minus, z = split_with_lines(op)
        reference = dense_residuals(op, result, plus, minus, z)
        assert {k: result.residuals[k] for k in reference} == reference
        basis, restricted, _ = dense_basis(op, result.p_plus, result.rank_plus)
        assert np.array_equal(result.basis_g_plus, basis)
        assert np.array_equal(result.restricted_plus, restricted)

    @pytest.fixture
    def off_block_pair(self):
        """check_mixed's pair on dichotomy N=4, with 1e-3 added to A_1 between
        the first and the last block."""
        op = build_block_operator("dichotomy-2.3", 4)
        a1, a2 = mixed_choice_pair(4, (1, 3))
        a1 = a1.astype(complex)
        a1[0, 7] += 1e-3
        return op, a1, a2

    def test_pair_residuals_see_an_off_block_entry(self, off_block_pair):
        op, a1, a2 = off_block_pair
        got = pair_identity_residuals(op, a1, a2)
        assert got["a_sum"] >= 1e-3
        for key, ref in dense_pair(op, a1, a2).items():
            assert got[key] == pytest.approx(ref, rel=1e-12, abs=1e-15), key
        # without the entry, the algebra holds to rounding
        a1[0, 7] -= 1e-3
        assert max(pair_identity_residuals(op, a1, a2).values()) <= 1e-12

    def test_projection_residuals_see_an_off_block_entry(self, off_block_pair):
        op, a1, a2 = off_block_pair
        s2 = op.entries @ op.entries
        p1, p2 = s2 @ a1, s2 @ a2
        got = projection_pair_residuals(p1, p2)
        assert got["p_sum_identity"] >= 1e-3
        for key, ref in dense_projection(p1, p2).items():
            assert got[key] == pytest.approx(ref, rel=1e-12, abs=1e-15), key

    def test_resolvent_per_block(self):
        op = build_block_operator("almost-bisect-5.5", 8, {"p": 0.5})
        res = resolvent(op, 1j)
        dense = np.linalg.solve(op.entries - 1j * np.eye(op.dim), np.eye(op.dim))
        outside = np.ones((op.dim, op.dim), dtype=bool)
        for sl in op.family_tag.block_slices():
            outside[sl, sl] = False
        assert not res[outside].any()
        assert spectral_norm(res - dense) <= 4 * EPS * spectral_norm(dense)
        dense_op = random_gap_operator(16, 3)
        assert np.array_equal(
            resolvent(dense_op, 0.5j),
            np.linalg.solve(dense_op.entries - 0.5j * np.eye(16), np.eye(16, dtype=complex)),
        )


# ---------------------------------------------------------------------------
# bases and restrictions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(BLOCK_FAMILIES))
def family_split(request):
    op = BLOCK_FAMILIES[request.param]()
    return op, split(op)


def with_dense_restrictions(op, result):
    restricted = [
        dense_basis(op, p, k)[1]
        for p, k in ((result.p_plus, result.rank_plus), (result.p_minus, result.rank_minus))
    ]
    return dataclasses.replace(result, restricted_plus=restricted[0], restricted_minus=restricted[1])


class TestBasesAndRestrictions:
    def test_bases_span_the_oracle_subspaces(self, family_split):
        op, result = family_split
        pair = oracle_projection(op)
        assert subspace_angle(result.basis_g_plus, pair.basis_plus) <= 1e-6
        assert subspace_angle(result.basis_g_minus, pair.basis_minus) <= 1e-6

    def test_restricted_spectra_match_the_dense_construction(self, family_split):
        op, result = family_split
        dense = with_dense_restrictions(op, result)
        for side in ("plus", "minus"):
            ours = np.linalg.eigvals(getattr(result, f"restricted_{side}"))
            theirs = np.linalg.eigvals(getattr(dense, f"restricted_{side}"))
            assert multiset_match_distance(ours, theirs) <= 1e-12

    def test_restrictions_are_block_diagonal(self, family_split):
        op, result = family_split
        largest = max(idx.shape[1] for idx in _layout(op))
        for restricted in (result.restricted_plus, result.restricted_minus):
            assert max(idx.shape[1] for idx in _layout(Operator(entries=restricted))) <= largest

    def test_restricted_resolvent_checks_match_dense(self, family_split):
        op, result = family_split
        dense = with_dense_restrictions(op, result)
        for side, attr in (("+", "restricted_plus"), ("-", "restricted_minus")):
            grid = opposite_halfplane_grid(side)
            ours, theirs = (resolvent_norms(Operator(entries=getattr(r, attr)), grid) for r in (result, dense))
            for beta in (0.0, 0.5):
                weighted = [float((np.abs(grid) ** beta * norms).max()) for norms in (ours, theirs)]
                assert weighted[0] == pytest.approx(weighted[1], rel=1e-9)


# ---------------------------------------------------------------------------
# the operator norm
# ---------------------------------------------------------------------------


class TestOperatorNorm:
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_block_families_to_rounding(self, name):
        op = BLOCK_FAMILIES[name]()
        assert operator_norm(op) == pytest.approx(spectral_norm(op.entries), rel=8 * EPS)

    @pytest.mark.parametrize("make", [
        lambda: random_gap_operator(3, 1),
        lambda: random_gap_operator(32, 7),
        lambda: seeded_hamiltonian(4, 2),
        lambda: dense_operator(np.arange(1.0, 10.0).reshape(3, 3)),
    ])
    def test_dense_operators_exactly(self, make):
        op = make()
        assert operator_norm(op) == spectral_norm(op.entries)

    @pytest.mark.parametrize("make", [
        lambda: random_gap_operator(2, 1),
        lambda: dense_operator([[2.0]]),
        lambda: diag_operator([1, -3]),
    ])
    def test_orders_one_and_two_in_closed_form(self, make):
        # components of order 1 and 2 take the kernel's closed forms
        op = make()
        assert operator_norm(op) == pytest.approx(spectral_norm(op.entries), rel=4 * EPS)
