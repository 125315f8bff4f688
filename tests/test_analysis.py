import dataclasses
import itertools
import json

import numpy as np
import pytest

from specsplit import (
    NearSpectrumError,
    SplittingMismatchError,
    axis_grid,
    build_block_operator,
    corpus_almbisect,
    dense_operator,
    descriptor_of,
    diag_operator,
    multiset_match_distance,
    oracle_projection,
    random_gap_operator,
    resolvent,
    resolvent_norms,
    resolvent_sweep,
    run_case,
    spectral_norm,
    split,
    spectrum,
    subspace_angle,
)
from specsplit.analysis import pair_identity_residuals, projection_pair_residuals
from specsplit.corpus import _parabola_ratio, _restricted_max


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

    @pytest.mark.parametrize("seed", [1, 7])
    def test_a_sum_measures_the_pair_not_its_reference(self, seed):
        # a_sum = ||A_+ + A_- - S^{-2}|| against the same norm with S^{-2}
        # refined in extended precision: S^{-2} as the square of the certified
        # S^{-1} keeps the residual within 3x of the deviation it stands for
        # (about 2.3x and 1.4x); a solve with S^2 read 5.4x and 4.1x
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        op = random_gap_operator(128, seed)
        result = split(op)
        eye, s = np.eye(op.dim, dtype=np.clongdouble), op.entries.astype(np.clongdouble)
        s_inv = np.linalg.solve(op.entries, np.eye(op.dim, dtype=complex)).astype(np.clongdouble)
        for _ in range(3):  # iterative refinement, residuals in extended precision
            s_inv += np.linalg.solve(op.entries, (eye - s @ s_inv).astype(complex))
        deviation = spectral_norm((result.a_plus + result.a_minus - s_inv @ s_inv).astype(complex))
        assert result.residuals["a_sum"] <= 3.0 * deviation

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


def restricted_norms(result, side):
    """||(S|G_side - lambda)^{-1}|| on the default axis grid, where the
    maximum principle puts its supremum over the opposite half-plane."""
    restricted = result.restricted_plus if side == "+" else result.restricted_minus
    grid = axis_grid()
    return grid, resolvent_norms(dense_operator(restricted), grid)


class TestHalfplaneChecks:
    # a dichotomous S: the restrictions' resolvents are bounded on the closed
    # opposite half-planes, here by the axis supremum on the same grid

    def test_diag(self):
        result = split(diag_operator([1, -1]))
        report = resolvent_sweep(diag_operator([1, -1]), axis_grid())
        assert restricted_norms(result, "+")[1].max() <= report.sup_norm

    def test_dichotomy_truncation(self):
        op = build_block_operator("dichotomy-2.3", 4)
        result = split(op)
        sup = resolvent_sweep(op, axis_grid()).sup_norm
        for side in "+-":
            assert restricted_norms(result, side)[1].max() <= sup

    def test_mcintosh_yagi_block(self):
        op = build_block_operator("mcintosh-yagi", 1, {"Mconst": 10.0})
        result = split(op)
        sup = resolvent_sweep(op, axis_grid()).sup_norm
        assert restricted_norms(result, "+")[1].max() <= sup

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mcintosh_yagi_oracle_restriction(self, m):
        # for the larger blocks the P = S^2 A route is out of float range, so
        # the restriction comes from the oracle basis instead of split()
        op = build_block_operator("mcintosh-yagi", m, {"Mconst": 10.0})
        basis = oracle_projection(op).basis_plus
        restricted = dense_operator(basis.conj().T @ op.entries @ basis)
        sup = 10.0  # the family's axis bound M/|lambda| gives sup M at |lambda| -> gap
        norms = resolvent_norms(restricted, axis_grid())
        assert norms.max() <= sup


def log_polar_grid(side):
    """The 16 x 16 log-polar grid in the closed half-plane opposite to
    ``side``: 16 radii from 1e-1 to 1e3 by 16 angles from one half of the
    imaginary axis to the other."""
    start = (1.0 if side == "+" else -1.0) * np.pi / 2
    radii = np.logspace(-1.0, 3.0, 16)
    angles = np.linspace(start, start + np.pi, 16)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


MAXIMUM_PRINCIPLE_CASES = {
    **{f"dichotomy-2.3?N={n}": (lambda n=n: build_block_operator("dichotomy-2.3", n)) for n in range(1, 6)},
    "almost-bisect-5.5?N=12": lambda: build_block_operator("almost-bisect-5.5", 12, {"p": 0.5}),
    "random?seed=11&dim=6": lambda: random_gap_operator(6, seed=11),
    "constant-diag 1,2,-3": lambda: build_block_operator("constant-diag", 1, {"values": [1, 2, -3]}),
}


class TestMaximumPrinciple:
    # log(|lambda|^beta ||(S|G_+- - lambda)^{-1}||), beta <= 1, is subharmonic
    # and bounded on the closed opposite half-plane, so by Phragmen-Lindelof
    # no point inside exceeds the imaginary axis: reading the restrictions on
    # the axis grid loses nothing that a grid inside the half-plane sees

    @pytest.mark.parametrize("name", sorted(MAXIMUM_PRINCIPLE_CASES))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_halfplane_grid_stays_below_the_axis(self, name, beta):
        result = split(MAXIMUM_PRINCIPLE_CASES[name]())
        for side, sgn in (("+", 1.0), ("-", -1.0)):
            grid = log_polar_grid(side)
            assert np.all(sgn * grid.real <= 1e-12) and np.any(sgn * grid.real < -1.0)
            restricted = dense_operator(result.restricted_plus if side == "+" else result.restricted_minus)
            inside = float((np.abs(grid) ** beta * resolvent_norms(restricted, grid)).max())
            axis, norms = restricted_norms(result, side)
            on_axis = float((np.abs(axis) ** beta * norms).max())
            assert inside <= on_axis * (1.0 + 1e-12)


RESTRICTED_CASES = [
    ("constant-diag", lambda: build_block_operator("constant-diag", 1, {"values": [1, 2, -3]})),
    ("random", lambda: random_gap_operator(6, seed=11)),
]


class TestRestrictedSupremum:
    @pytest.mark.parametrize("name, make", RESTRICTED_CASES)
    @pytest.mark.parametrize("side", "+-")
    def test_halfplane_check_is_the_grid_maximum(self, name, make, side):
        # each side enters the one maximum: with the other restriction
        # emptied, the check reads this side's axis-grid maximum
        result = split(make())
        _, norms = restricted_norms(result, side)
        other = "restricted_minus" if side == "+" else "restricted_plus"
        alone = dataclasses.replace(result, **{other: np.zeros((0, 0), complex)})
        assert _restricted_max(alone, axis_grid(), 0.0) == pytest.approx(norms.max(), rel=1e-12)

    @pytest.mark.parametrize("name, make", RESTRICTED_CASES)
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_sectoriality_weights_both_sides(self, name, make, beta):
        # one weighted maximum over both restrictions on one axis grid
        result = split(make())
        weighted = []
        for side in "+-":
            grid, norms = restricted_norms(result, side)
            weighted.append(float((np.abs(grid) ** beta * norms).max()))
        assert _restricted_max(result, axis_grid(), beta) == pytest.approx(max(weighted), rel=1e-9)
        assert weighted[0] != pytest.approx(weighted[1], rel=1e-9)  # both sides differ, so both are read


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


def axis_constant(op, beta):
    """M = max |t|^beta ||R(it)|| over the default axis grid."""
    report = resolvent_sweep(op, axis_grid())
    return float((np.abs(report.lambdas) ** beta * report.norms).max())


class TestSectoriality:
    # |lambda|^beta ||(S|G_+- - lambda)^{-1}|| stays below the axis constant
    # M = max |t|^beta ||R(it)||: beta = 1 is sectorial, 0 < beta < 1 almost
    # sectorial

    def test_diag_sectorial(self):
        op = diag_operator([1, -1])
        result = split(op)
        assert _restricted_max(result, axis_grid(), 1.0) <= axis_constant(op, 1.0)

    def test_almost_bisect(self):
        op = build_block_operator("almost-bisect-5.5", 12, {"p": 0.5})
        result = split(op)
        assert _restricted_max(result, axis_grid(), 0.5) <= axis_constant(op, 0.5)

    def test_dichotomy_family_beta_one(self):
        op = build_block_operator("dichotomy-2.3", 4)
        result = split(op)
        assert _restricted_max(result, axis_grid(), 1.0) <= axis_constant(op, 1.0)


class TestParabolaProbe:
    def test_almost_bisect_passes(self):
        report = run_case(corpus_almbisect(30, 0.5))
        fact = next(f for f in report.facts if f.name == "parabola_region")
        assert fact.passed and fact.measured <= 1.0

    def test_diag_passes(self):
        op = diag_operator([1, -1])
        inside, ratio = _parabola_ratio(op, 1.0, axis_constant(op, 1.0))
        assert inside == 0 and ratio <= 1.0

    def test_negative_control_reports_violations(self):
        # M = 1/4 is below diag(1, -1)'s axis constant: with beta = 0 the
        # region becomes the strip |Re lambda| <= 2, which holds both
        # eigenvalues, and ||R(1 + 0.1i)|| = 10 exceeds the bound 2M
        inside, ratio = _parabola_ratio(diag_operator([1, -1]), 0.0, 0.25)
        assert inside == 2 and ratio == pytest.approx(20.0)

    def test_violations_are_the_points_over_the_pointwise_bound(self):
        # half the true axis constant: the bound holds at some points only,
        # and the ratio is the largest norm over its pointwise bound
        op = build_block_operator("dichotomy-2.3", 4)
        m = 0.5 * resolvent_sweep(op, axis_grid(1e-1, 1e3, 16)).sup_norm
        im = np.logspace(-1, 3, 50)
        z = 0.25 / m * im + 1j * im
        grid = np.concatenate([z, -z, z.conj(), -z.conj()])
        over = resolvent_norms(op, grid) / (m / ((1.0 - 0.5) * np.abs(grid.imag)))
        assert 0 < np.sum(over > 1.0) < grid.size
        assert _parabola_ratio(op, 1.0, m) == (0, pytest.approx(over.max(), rel=1e-12))


class TestMSubspace:
    def test_coincides_with_invariant_subspace(self):
        # the ranges of the integral operators A_+- are the invariant
        # subspaces: A_+- has the rank of the subspace and V V^H A_+- = A_+-
        op = random_gap_operator(8, seed=2)
        result = split(op)
        pair = oracle_projection(op)
        for a, v in ((result.a_plus, pair.basis_plus), (result.a_minus, pair.basis_minus)):
            assert np.linalg.matrix_rank(a, tol=1e-8 * spectral_norm(a)) == v.shape[1]
            assert spectral_norm(a - v @ (v.conj().T @ a)) <= 1e-6 * spectral_norm(a)


class TestBlockCommutant:
    # the projection Q_n onto the first n blocks commutes with the resolvent

    @staticmethod
    def commutator(op, n, lam):
        cut = int(np.sum(op.family_tag.block_dims[:n]))
        q_n = np.diag((np.arange(op.dim) < cut).astype(complex))
        res = resolvent(op, lam)
        return spectral_norm(q_n @ res - res @ q_n)

    def test_dichotomy_family(self):
        op = build_block_operator("dichotomy-2.3", 5)
        assert self.commutator(op, 2, 1j) <= 1e-12

    def test_almost_bisect_family(self):
        op = build_block_operator("almost-bisect-5.5", 5, {"p": 0.5})
        for lam in (0.5j, -0.5j, 2j, -3.5j):
            assert self.commutator(op, 3, lam) <= 1e-12


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

