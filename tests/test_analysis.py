import itertools
import json

import numpy as np
import pytest

from specsplit import (
    NearSpectrumError,
    OperatorError,
    SplittingMismatchError,
    axis_grid,
    block_commutant_check,
    build_block_operator,
    dense_operator,
    descriptor_of,
    diag_operator,
    halfplane_bound_check,
    m_subspace,
    multiset_match_distance,
    opposite_halfplane_grid,
    oracle_projection,
    parabola_probe,
    random_gap_operator,
    resolvent_norms,
    resolvent_sweep,
    sectoriality_report,
    spectral_norm,
    split,
    spectrum,
    subspace_angle,
)
from specsplit.analysis import pair_identity_residuals, projection_pair_residuals


def block23(n):
    return np.array([[n, 2.0 * n * n], [0.0, -n]], dtype=complex)


@pytest.fixture(scope="module")
def mcintosh_yagi_n2():
    return split(build_block_operator("mcintosh-yagi", 2))


class TestSplit:
    def test_diag(self):
        result = split(diag_operator([1, -1]))
        assert np.allclose(result.p_plus, np.diag([1.0, 0.0]), atol=1e-8)
        assert result.max_residual() <= 1e-8
        assert result.passes(1e-8)
        assert result.spectrum_margin_plus == pytest.approx(1.0, abs=1e-8)

    def test_dichotomy_blocks(self):
        op = build_block_operator("dichotomy-2.3", 4)
        result = split(op)
        for n, sl in zip(range(1, 5), op.family_tag.block_slices()):
            assert np.abs(result.p_plus[sl, sl] - [[1, n], [0, 0]]).max() <= 1e-8
            assert np.abs(result.p_minus[sl, sl] - [[0, -n], [0, 1]]).max() <= 1e-8
        assert result.rank_plus == 4 and result.rank_minus == 4

    def test_ranks_from_the_trace_at_the_precision_floor(self, mcintosh_yagi_n2):
        # ||S|| = 5.5e11, so P = S^2 A carries the roundoff of A times ||S||^2:
        # spurious singular values of P rise far above roundoff, but tr P still
        # rounds to the eigenvalue count, and the residuals of P fail instead
        # (||S||/T)^k, not ||S||^k, enters the far field: S^24 would overflow
        result = mcintosh_yagi_n2
        for p in (result.p_plus, result.p_minus):
            assert np.isfinite(p).all() and np.isfinite(np.trace(p))
        assert (result.rank_plus, result.rank_minus) == (46, 46)
        assert not result.passes(1e-6)

    def test_error_of_p_beside_error_of_a(self, mcintosh_yagi_n2):
        # A's estimate meets the CLI's default pass_tol, but P = S^2 A is
        # checked, and ||S||^2 = 3e23 times it does not
        result = mcintosh_yagi_n2
        pass_tol = 1e-6
        assert result.est_error <= pass_tol < result.p_est_error
        norm = spectral_norm(build_block_operator("mcintosh-yagi", 2).entries)
        assert result.p_est_error == norm**2 * result.est_error

    @pytest.mark.parametrize("seed", [1, 8])
    def test_matches_oracle(self, seed):
        op = random_gap_operator(8, seed=seed)
        result = split(op)
        pair = oracle_projection(op)
        assert spectral_norm(result.p_plus - pair.p_plus) <= 1e-6
        assert result.max_residual() <= 1e-6

    def test_rank_refusal_when_the_traces_miss_the_counts(self, zero_a_integrals):
        message = r"traces \(0, 0\) inconsistent with half-plane eigenvalue counts \(2, 2\)"
        with pytest.raises(SplittingMismatchError, match=message):
            split(build_block_operator("dichotomy-2.3", 2))

    def test_refuses_axis_spectrum(self):
        with pytest.raises(NearSpectrumError):
            split(diag_operator([1j, -1j]))

    def test_scale_invariance_of_subspaces(self):
        op = random_gap_operator(7, seed=4)
        scaled = dense_operator(3.7 * op.entries)
        r1, r2 = split(op), split(scaled)
        assert subspace_angle(r1.basis_g_plus, r2.basis_g_plus) <= 1e-6
        assert subspace_angle(r1.basis_g_minus, r2.basis_g_minus) <= 1e-6

    def test_uniqueness_against_oracle_bases(self):
        op = random_gap_operator(9, seed=17)
        result = split(op)
        pair = oracle_projection(op)
        assert subspace_angle(result.basis_g_plus, pair.basis_plus) <= 1e-6
        assert subspace_angle(result.basis_g_minus, pair.basis_minus) <= 1e-6

    def test_spectrum_multiset_preserved(self):
        op = random_gap_operator(8, seed=30)
        result = split(op)
        joint = np.concatenate(
            [np.linalg.eigvals(result.restricted_plus), np.linalg.eigvals(result.restricted_minus)]
        )
        assert multiset_match_distance(joint, spectrum(op).eigenvalues) <= 1e-6

    def test_with_b_operators(self):
        op = diag_operator([1, -1])
        result = split(op, with_b=True)
        assert np.allclose(result.b_plus, np.diag([1.0, 0.0]), atol=1e-8)
        # P = S B on both sides
        assert spectral_norm(op.entries @ result.b_plus - result.p_plus) <= 1e-7

    def test_unequal_ranks(self):
        op = build_block_operator("constant-diag", 1, {"values": [1, 2, -3]})
        result = split(op, with_b=True)
        assert (result.rank_plus, result.rank_minus) == (2, 1)
        assert result.spectrum_margin_plus == pytest.approx(1.0, abs=1e-8)
        assert result.spectrum_margin_minus == pytest.approx(3.0, abs=1e-8)
        for b, p in ((result.b_plus, result.p_plus), (result.b_minus, result.p_minus)):
            assert spectral_norm(op.entries @ b - p) <= 1e-7
        assert np.allclose(result.p_plus, np.diag([1.0, 1.0, 0.0]), atol=1e-8)

    def test_json_dict(self):
        payload = split(diag_operator([1, -1])).to_json_dict()
        assert payload["rank_plus"] == 1
        assert payload["p_est_error"] == payload["est_error"]  # ||S|| = 1
        assert set(payload["residuals"]) >= {"a_sum", "p_sum_identity", "r_minus_identity"}

    def test_residual_helpers_keep_their_keys_apart(self):
        # split and the unbproj mixed-choice fact merge both helpers' residuals
        # into one dict, so a shared key would drop one of the two values
        op = diag_operator([1, -1])
        a_plus, a_minus = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        pair = pair_identity_residuals(op, a_plus, a_minus)
        proj = projection_pair_residuals(a_plus, a_minus)
        assert not set(pair) & set(proj)
        assert set(split(op).residuals) >= set(pair) | set(proj)


class TestSweep:
    def test_axis_bound_small_truncation(self):
        op = build_block_operator("bound-4.6", 10)
        report = resolvent_sweep(op, axis_grid(1e-2, 1e3, 16))
        assert report.sup_norm <= 3.0 + 1e-9

    def test_bisectorial_exponent(self):
        report = resolvent_sweep(diag_operator([1, -1]), axis_grid())
        assert report.fitted_beta == pytest.approx(1.0, abs=0.05)
        assert report.fit_residual <= 0.05

    def test_almost_bisect_exponent(self):
        op = build_block_operator("almost-bisect-5.5", 50, {"p": 0.5})
        report = resolvent_sweep(op, axis_grid(), fit_window=(10.0, 25.0))
        assert report.fitted_beta == pytest.approx(0.5, abs=0.05)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            resolvent_sweep(diag_operator([1, -1]), [])

    def test_near_spectrum_points_skipped(self):
        op = diag_operator([1, -1])
        grid = np.array([1.0 + 0j, 2j, 3j])  # first point is an eigenvalue
        with pytest.warns(UserWarning, match="skipped"):
            report = resolvent_sweep(op, grid)
        assert report.skipped == 1
        assert report.lambdas.size == 2

    def test_csv_shape(self, cli_csv):
        op = diag_operator([1, -1])
        report = resolvent_sweep(op, axis_grid(1, 10, 4))
        source = json.dumps(descriptor_of(op))
        lines = cli_csv("sweep", source, "--grid-lo", "1", "--grid-hi", "10", "--grid-per-decade", "4")
        assert lines[0] == "re_lambda,im_lambda,resolvent_norm"
        assert len(lines) == report.lambdas.size + 1
        # plain decimal floats, three columns per row
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 3
            float(parts[0]), float(parts[1]), float(parts[2])

    def test_csv_round_trips(self, cli_csv):
        report = resolvent_sweep(random_gap_operator(6, 3), axis_grid(0.1, 100, 16))
        lines = cli_csv(
            "sweep", "random?seed=3&dim=6", "--grid-lo", "0.1", "--grid-hi", "100", "--grid-per-decade", "16"
        )
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows[:, 0].tobytes() == report.lambdas.real.tobytes()
        assert rows[:, 1].tobytes() == report.lambdas.imag.tobytes()
        assert rows[:, 2].tobytes() == report.norms.tobytes()


class TestHalfplaneChecks:
    def test_diag(self):
        result = split(diag_operator([1, -1]))
        grid = opposite_halfplane_grid("+")
        report = resolvent_sweep(diag_operator([1, -1]), axis_grid(1e-1, 1e3, 8))
        check = halfplane_bound_check(result, "+", grid, report.sup_norm)
        assert check.passed

    def test_dichotomy_truncation(self):
        op = build_block_operator("dichotomy-2.3", 4)
        result = split(op)
        sup = resolvent_sweep(op, axis_grid(1e-2, 1e3, 16)).sup_norm
        for side in "+-":
            check = halfplane_bound_check(result, side, opposite_halfplane_grid(side), sup)
            assert check.passed, check

    def test_mcintosh_yagi_block(self):
        op = build_block_operator("mcintosh-yagi", 1, {"Mconst": 10.0})
        result = split(op)
        sup = resolvent_sweep(op, axis_grid(1e-2, 1e3, 16)).sup_norm
        check = halfplane_bound_check(result, "+", opposite_halfplane_grid("+"), sup)
        assert check.passed

    def test_wrong_halfplane_grid(self):
        result = split(diag_operator([1, -1]))
        with pytest.raises(ValueError):
            halfplane_bound_check(result, "+", np.array([1.0 + 0j]), 10.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mcintosh_yagi_oracle_restriction(self, m):
        # for the larger blocks the P = S^2 A route is out of float range, so
        # the restriction comes from the oracle basis instead of split()
        op = build_block_operator("mcintosh-yagi", m, {"Mconst": 10.0})
        basis = oracle_projection(op).basis_plus
        restricted = dense_operator(basis.conj().T @ op.entries @ basis)
        sup = 10.0  # the family's axis bound M/|lambda| gives sup M at |lambda| -> gap
        grid = opposite_halfplane_grid("+")
        from specsplit import resolvent_norms

        norms = resolvent_norms(restricted, grid)
        assert norms.max() <= sup


RESTRICTED_CASES = [
    ("constant-diag", lambda: build_block_operator("constant-diag", 1, {"values": [1, 2, -3]})),
    ("random", lambda: random_gap_operator(6, seed=11)),
]


def restricted_norms(result, side):
    """||(S|G_side - lambda)^{-1}|| on ``opposite_halfplane_grid(side)``."""
    restricted = result.restricted_plus if side == "+" else result.restricted_minus
    grid = opposite_halfplane_grid(side)
    return grid, resolvent_norms(dense_operator(restricted), grid)


class TestRestrictedSupremum:
    @pytest.mark.parametrize("name, make", RESTRICTED_CASES)
    @pytest.mark.parametrize("side", "+-")
    def test_halfplane_check_is_the_grid_maximum(self, name, make, side):
        result = split(make())
        grid, norms = restricted_norms(result, side)
        check = halfplane_bound_check(result, side, grid, 1e3)
        assert check.max_norm == pytest.approx(norms.max(), rel=1e-12)
        assert check.worst_lambda == grid[np.argmax(norms)]
        assert check.passed == (norms.max() <= 1e3)

    @pytest.mark.parametrize("name, make", RESTRICTED_CASES)
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_sectoriality_weights_both_sides(self, name, make, beta):
        # the minus side is measured on the mirror of the left-half-plane
        # grid, which is the right-half-plane grid up to rounding
        result = split(make())
        expected = {}
        for side in "+-":
            grid, norms = restricted_norms(result, side)
            expected[side] = float((np.abs(grid) ** beta * norms).max())
        report = sectoriality_report(result, beta, opposite_halfplane_grid("+"), 1e3)
        assert report.max_weighted_plus == pytest.approx(expected["+"], rel=1e-9)
        assert report.max_weighted_minus == pytest.approx(expected["-"], rel=1e-9)
        assert expected["-"] != pytest.approx(expected["+"], rel=1e-9)  # a swap would show


class TestResidualVsEstimate:
    def test_projection_residuals_within_estimate(self):
        # complementarity/idempotency residuals stay within 10x the combined
        # quadrature error estimate (scaled through S^2 for the P level)
        op = random_gap_operator(8, seed=55)
        result = split(op)
        amplification = 1.0 + spectral_norm(op.entries @ op.entries)
        budget = 10.0 * result.est_error * amplification
        for key in ("p_sum_identity", "p_cross", "p_idempotent_plus", "p_idempotent_minus"):
            assert result.residuals[key] <= budget


class TestSectoriality:
    def test_diag_sectorial(self):
        op = diag_operator([1, -1])
        result = split(op)
        report = resolvent_sweep(op, axis_grid(1e-1, 1e3, 16))
        m_axis = float((np.abs(report.lambdas) ** 1.0 * report.norms).max())
        check = sectoriality_report(result, 1.0, opposite_halfplane_grid("+"), m_axis)
        assert check.passed

    def test_almost_bisect(self):
        op = build_block_operator("almost-bisect-5.5", 12, {"p": 0.5})
        result = split(op)
        report = resolvent_sweep(op, axis_grid(1e-2, 1e3, 16))
        beta = 0.5
        m_axis = float((np.abs(report.lambdas) ** beta * report.norms).max())
        check = sectoriality_report(result, beta, opposite_halfplane_grid("+"), m_axis)
        assert check.passed, check

    def test_dichotomy_family_beta_one(self):
        op = build_block_operator("dichotomy-2.3", 4)
        result = split(op)
        report = resolvent_sweep(op, axis_grid(1e-2, 1e3, 16))
        m_axis = float((np.abs(report.lambdas) * report.norms).max())
        check = sectoriality_report(result, 1.0, opposite_halfplane_grid("+"), m_axis)
        assert check.passed


class TestParabolaProbe:
    @staticmethod
    def region_grid(alpha, beta, n=200):
        # points strictly inside the parabola region, away from 0
        b = np.logspace(-1, 3, n // 2)
        a = 0.5 * alpha * b**beta
        pts = np.concatenate([a + 1j * b, -a - 1j * b])
        return pts

    def test_almost_bisect_passes(self):
        op = build_block_operator("almost-bisect-5.5", 30, {"p": 0.5})
        report = resolvent_sweep(op, axis_grid(1e-1, 1e3, 16), fit_window=(10.0, 15.0))
        m = report.sup_norm
        alpha = 0.5 / m
        probe = parabola_probe(op, alpha, 0.5, m, self.region_grid(alpha, 0.5))
        assert probe.passed, (probe.intrusions, probe.violations[:3])

    def test_diag_passes(self):
        op = diag_operator([1, -1])
        m = resolvent_sweep(op, axis_grid(1e-1, 1e3, 16)).sup_norm
        alpha = 0.5 / m
        probe = parabola_probe(op, alpha, 1.0, m, self.region_grid(alpha, 1.0))
        assert probe.passed

    def test_negative_control_reports_violations(self):
        op = build_block_operator("dichotomy-2.3", 4)
        m = resolvent_sweep(op, axis_grid(1e-1, 1e3, 16)).sup_norm
        alpha = 2.0 / m  # alpha*M = 2 > 1: the guaranteed bound is vacuous
        probe = parabola_probe(op, alpha, 1.0, m, self.region_grid(alpha, 1.0))
        assert not probe.passed
        assert probe.violations

    def test_violations_are_the_points_over_the_pointwise_bound(self):
        # half the true axis constant: the bound holds at some points only
        op = build_block_operator("dichotomy-2.3", 4)
        m = 0.5 * resolvent_sweep(op, axis_grid(1e-1, 1e3, 16)).sup_norm
        alpha = 0.5 / m
        grid = self.region_grid(alpha, 1.0)
        probe = parabola_probe(op, alpha, 1.0, m, grid)
        norms = resolvent_norms(op, grid)
        expect = [
            complex(lam)
            for lam, nrm in zip(grid, norms)
            if nrm > m / ((1.0 - alpha * m) * abs(lam.imag))
        ]
        assert 0 < len(expect) < grid.size
        assert probe.violations == expect

    def test_grid_outside_region_rejected(self):
        op = diag_operator([1, -1])
        with pytest.raises(ValueError):
            parabola_probe(op, 0.1, 1.0, 1.0, np.array([100.0 + 0.1j]))


class TestMSubspace:
    def test_diag(self):
        basis = m_subspace(np.diag([1.0, 0.0]))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12

    def test_block_n1(self):
        a_plus = np.array([[1.0, 1.0], [0.0, 0.0]])
        basis = m_subspace(a_plus)
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12
        assert abs(basis[1, 0]) <= 1e-12

    def test_coincides_with_invariant_subspace(self):
        # ranges of the integral operators equal the invariant subspaces
        op = random_gap_operator(8, seed=2)
        result = split(op)
        pair = oracle_projection(op)
        assert subspace_angle(m_subspace(result.a_plus), pair.basis_plus) <= 1e-6
        assert subspace_angle(m_subspace(result.a_minus), pair.basis_minus) <= 1e-6
        assert subspace_angle(m_subspace(result.a_plus), result.basis_g_plus) <= 1e-6


class TestBlockCommutant:
    def test_dichotomy_family(self):
        op = build_block_operator("dichotomy-2.3", 5)
        assert block_commutant_check(op, 2, lams=[1j]) <= 1e-12

    def test_almost_bisect_family(self):
        op = build_block_operator("almost-bisect-5.5", 5, {"p": 0.5})
        assert block_commutant_check(op, 3) <= 1e-12

    def test_dense_rejected(self):
        with pytest.raises(OperatorError, match="not block-diagonal"):
            block_commutant_check(random_gap_operator(6, seed=0), 1)

    def test_block_count_range(self):
        op = build_block_operator("dichotomy-2.3", 3)
        with pytest.raises(OperatorError):
            block_commutant_check(op, 4)


class TestSubspaceAngle:
    def test_same_span(self):
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))[0]
        rot = np.linalg.qr(np.random.default_rng(1).standard_normal((2, 2)))[0]
        assert subspace_angle(v, v @ rot) <= 1e-12

    def test_orthogonal(self):
        v = np.eye(4)[:, :1]
        w = np.eye(4)[:, 1:2]
        assert subspace_angle(v, w) == pytest.approx(np.pi / 2)

    def test_rank_mismatch(self):
        assert subspace_angle(np.eye(4)[:, :1], np.eye(4)[:, :2]) == pytest.approx(np.pi / 2)


class TestMultisetMatch:
    def test_exact(self):
        a = np.array([1 + 1j, -2.0, 3.0])
        assert multiset_match_distance(a, a[::-1]) == 0.0

    def test_perturbed(self):
        a = np.array([1.0, 2.0, -5.0])
        b = a + 1e-8
        assert multiset_match_distance(a, b) <= 1e-8

    def test_size_mismatch(self):
        assert multiset_match_distance([1.0], [1.0, 2.0]) == np.inf

    @pytest.mark.parametrize("n", range(1, 7))
    def test_largest_cost_of_the_min_sum_assignment(self, n):
        # against the minimum-sum assignment over all n! permutations
        rng = np.random.default_rng(n)
        perms = np.array(list(itertools.permutations(range(n))))
        for trial in range(20):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 2:  # a perturbed permutation of a
                b = rng.permutation(a) + 1e-3 * b
            scale = 1.0 + np.maximum(np.abs(a)[:, None], np.abs(b)[None, :])
            cost = np.abs(a[:, None] - b[None, :]) / scale
            sums = cost[np.arange(n), perms].sum(axis=1)
            order = np.argsort(sums)
            assert n == 1 or sums[order[1]] - sums[order[0]] > 1e-9  # no ties
            best = perms[order[0]]
            assert multiset_match_distance(a, b) == cost[np.arange(n), best].max()

    def test_permutation_with_repeated_values(self):
        # constant-diag's +-1 blocks: every match costs exactly 0, which a
        # sparse cost matrix would drop
        op = build_block_operator("constant-diag", 3)
        assert multiset_match_distance(spectrum(op).eigenvalues, np.diag(op.entries)) == 0.0
        assert multiset_match_distance([2.0, 2.0, -1.0, 2.0], [-1.0, 2.0, 2.0, 2.0]) == 0.0


def test_restricted_bounds_on_empty_grids_pass_vacuously():
    result = split(build_block_operator("dichotomy-2.3", 2))
    check = halfplane_bound_check(result, "+", [], 3.0)
    assert check.passed and check.max_norm == 0.0
    report = sectoriality_report(result, 1.0, [], 3.0)
    assert report.passed
    assert report.max_weighted_plus == 0.0 and report.max_weighted_minus == 0.0


def test_restricted_bound_on_an_empty_side_passes():
    # no eigenvalue of diag(1, 2) lies left of the axis, so S|G_- is 0 x 0
    result = split(build_block_operator("constant-diag", 2, {"values": [1, 2]}))
    check = halfplane_bound_check(result, "-", opposite_halfplane_grid("-"), 1.0)
    assert check.passed and check.max_norm == 0.0


@pytest.mark.parametrize(
    "measure",
    [
        lambda: subspace_angle(np.zeros((3, 0)), np.zeros((3, 0))),
        lambda: multiset_match_distance([], []),
        lambda: spectral_norm(np.zeros((0, 3))),
    ],
)
def test_empty_inputs_measure_zero(measure):
    assert measure() == 0.0


def test_range_of_zero_is_empty():
    assert m_subspace(np.zeros((3, 3))).shape == (3, 0)
