import json

import numpy as np
import pytest
import scipy.linalg as sla

from specsplit import (
    Budget,
    axis_grid,
    OperatorError,
    case_names,
    corpus_almbisect,
    corpus_mcintosh_yagi,
    corpus_unbproj,
    make_case,
    resolvent_sweep,
    run_case,
    spectral_norm,
    sylvester_diag_solve,
)
import specsplit.corpus as corpus_module
from specsplit.contour import integrate_A
from specsplit.corpus import dichotomy_block_forms, mixed_choice_pair
from specsplit.operators import mcintosh_yagi_parts


class TestMixedChoicePair:
    def test_three_blocks_chosen_13(self):
        a1, a2 = mixed_choice_pair(3, (1, 3))
        expect1 = sla.block_diag(
            dichotomy_block_forms(1)["A_plus"],
            dichotomy_block_forms(2)["A_minus"],
            dichotomy_block_forms(3)["A_plus"],
        )
        assert np.array_equal(a1, expect1)

    def test_single_block(self):
        a1, _ = mixed_choice_pair(1, (1,))
        assert np.allclose(a1, [[1, 1], [0, 0]], atol=0)

    def test_empty_choice_is_complementary(self):
        a1, a2 = mixed_choice_pair(2, ())
        expect1 = sla.block_diag(
            dichotomy_block_forms(1)["A_minus"], dichotomy_block_forms(2)["A_minus"]
        )
        expect2 = sla.block_diag(
            dichotomy_block_forms(1)["A_plus"], dichotomy_block_forms(2)["A_plus"]
        )
        assert np.array_equal(a1, expect1)
        assert np.array_equal(a2, expect2)


class TestUnbproj:
    def test_all_facts_pass(self):
        report = run_case(corpus_unbproj(3, (1, 3)))
        assert report.all_passed and not report.incomplete
        # the mixed-choice fact checks all seven A residuals and four P ones
        (mixed,) = [f for f in report.facts if f.name == "mixed_choice_pair_identities"]
        assert mixed.detail.count("'a_") == 7 and mixed.detail.count("'p_") == 4

    def test_lambda_set_validation(self):
        with pytest.raises(OperatorError):
            corpus_unbproj(2, (5,))

    def test_each_side_is_integrated_once(self, monkeypatch):
        sides = []

        def counting_integrate_A(op, side, spec):
            sides.append(side)
            return integrate_A(op, side, spec)

        monkeypatch.setattr(corpus_module, "integrate_A", counting_integrate_A)
        report = run_case(make_case("unbproj"))
        assert report.all_passed
        assert sorted(sides) == ["+", "-"]

    def test_default_lambda_set_is_the_odd_blocks(self):
        assert corpus_unbproj().params["lambda1"] == [1, 3]
        assert corpus_unbproj(6).params["lambda1"] == [1, 3, 5]

    def test_budget_skips_quadrature(self):
        report = run_case(corpus_unbproj(3, (1, 3)), Budget(max_quad_dim=1))
        assert report.incomplete
        assert report.all_passed  # skipped facts do not fail
        skipped = {f.name for f in report.facts if f.skipped}
        assert "quadrature_a_plus_blocks" in skipped
        assert {"restricted_halfplane_bound", "restricted_sectorial_bound"} <= skipped

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_restricted_bounds(self, n_blocks):
        # the restrictions S|G_+- of split(op): the resolvent stays below the
        # axis bound 3 on the opposite half-planes, and |lambda| times it
        # below M_1 = max |t| ||R(it)|| on the axis, about sqrt(1 + N^2)
        case = corpus_unbproj(n_blocks)
        facts = {f.name: f for f in run_case(case).facts}
        bound, sectorial = facts["restricted_halfplane_bound"], facts["restricted_sectorial_bound"]
        assert bound.passed and bound.measured == pytest.approx(0.9950, abs=1e-4)
        report = resolvent_sweep(case.operator, axis_grid())
        m1 = float((np.abs(report.lambdas) * report.norms).max())
        assert m1 == pytest.approx(np.sqrt(1.0 + n_blocks**2), rel=1e-3)
        assert sectorial.passed and sectorial.measured == pytest.approx(1.0, abs=1e-4)
        assert sectorial.detail == f"max over both sides, against M_1 = {m1:.6g}"


class TestAlmbisect:
    def test_all_facts_pass(self):
        report = run_case(corpus_almbisect(50, 0.5))
        assert report.all_passed, [f for f in report.facts if not f.passed]

    @pytest.mark.parametrize("n_blocks, skipped", [(10, True), (20, True), (30, False)])
    def test_beta_skipped_where_the_window_lies_above_the_block_scale(self, n_blocks, skipped):
        # the fit window (10, 20) starts at or above N/2 for N <= 20, where the
        # truncated family follows no decay law; from N = 30 on it is fitted
        report = run_case(corpus_almbisect(n_blocks, 0.5))
        beta = next(f for f in report.facts if f.name == "fitted_beta")
        assert report.all_passed and report.incomplete == skipped and beta.skipped == skipped
        if skipped:
            assert beta.measured is None
            assert beta.detail == f"fit window (10, 20) lies above the block scale N/2 = {n_blocks // 2}"
        else:
            assert abs(beta.measured - 0.5) <= 0.05

    @pytest.mark.parametrize("n_blocks", [10, 50])
    def test_parabola_region(self, n_blocks):
        # no eigenvalue in |Re lambda| <= alpha |Im lambda|^(1-p), alpha = 1/(2M),
        # and ||R(lambda)|| there at about half its Neumann-series bound
        fact = next(f for f in run_case(corpus_almbisect(n_blocks, 0.5)).facts if f.name == "parabola_region")
        assert fact.passed and not fact.skipped
        assert fact.measured == pytest.approx(0.5044, abs=1e-4)
        assert fact.detail.startswith("0 eigenvalues inside")

    def test_one_sweep_per_case(self, monkeypatch):
        calls = []

        def counting_sweep(op, grid, fit_window=None):
            calls.append(grid.size)
            return resolvent_sweep(op, grid, fit_window)

        monkeypatch.setattr(corpus_module, "resolvent_sweep", counting_sweep)
        assert run_case(corpus_almbisect(50, 0.5)).all_passed
        assert len(calls) == 1

    def test_fact_names_include_growth_witness(self):
        case = corpus_almbisect(50, 0.5)
        assert "projection_norm_exceeds_10" in {f.name for f in case.facts}

    def test_small_p_has_no_growth_witness(self):
        case = corpus_almbisect(10, 0.1)
        assert "projection_norm_exceeds_10" not in {f.name for f in case.facts}

    def test_p_zero_rejected(self):
        with pytest.raises(OperatorError):
            corpus_almbisect(10, 0.0)


class TestMcintoshYagi:
    def test_facts_m2(self):
        report = run_case(corpus_mcintosh_yagi(10.0, 2))
        assert report.all_passed, [f for f in report.facts if not f.passed]

    def test_z_norms_exceed_m(self):
        for m in (1, 2):
            _, d, b = mcintosh_yagi_parts(10.0, m)
            z = sylvester_diag_solve(np.diag(d), b @ d)
            assert spectral_norm(z) >= m

    def test_block_count_matches_m_max(self):
        case = corpus_mcintosh_yagi(10.0, 2)
        assert case.operator.family_tag.n_blocks == 2


class TestSylvesterDiag:
    def test_scalar(self):
        assert np.allclose(sylvester_diag_solve(np.array([1.0]), np.array([[2.0]])), [[1.0]])

    def test_two_by_two(self):
        z = sylvester_diag_solve(np.array([1.0, 2.0]), np.ones((2, 2)))
        assert np.allclose(z, [[0.5, 1 / 3], [1 / 3, 0.25]], atol=1e-15)

    def test_accepts_diagonal_matrix_form(self):
        z = sylvester_diag_solve(np.diag([1.0, 2.0]), np.ones((2, 2)))
        assert np.allclose(z, [[0.5, 1 / 3], [1 / 3, 0.25]], atol=1e-15)

    def test_residual_at_scale(self):
        _, d, b = mcintosh_yagi_parts(10.0, 2)
        rhs = b @ d
        z = sylvester_diag_solve(np.diag(d), rhs)
        resid = np.linalg.norm(d @ z + z @ d - rhs, "fro")
        assert resid <= d.shape[0] * np.finfo(float).eps * np.linalg.norm(rhs, "fro")

    def test_vanishing_denominator(self):
        with pytest.raises(OperatorError, match="denominator"):
            sylvester_diag_solve(np.array([1.0, -1.0]), np.ones((2, 2)))

    def test_non_diagonal_rejected(self):
        with pytest.raises(OperatorError):
            sylvester_diag_solve(np.ones((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(OperatorError):
            sylvester_diag_solve(np.array([1.0, 2.0]), np.ones((3, 3)))


class TestRegistry:
    def test_names(self):
        assert set(case_names()) == {"almbisect", "mcintosh-yagi", "unbproj"}

    def test_make_case_with_overrides(self):
        case = make_case("unbproj", N=2, lambda1=[2])
        assert case.params == {"N": 2, "lambda1": [2]}

    def test_unknown_case(self):
        with pytest.raises(OperatorError):
            make_case("no-such-case")

    def test_unknown_parameter(self):
        with pytest.raises(OperatorError, match=r"case 'unbproj' does not accept parameters \['n'\]"):
            make_case("unbproj", n=5)

    def test_builder_coerces_cli_values(self):
        case = make_case("mcintosh-yagi", Mconst=12, m_max=1)
        assert case.params == {"Mconst": 12.0, "m_max": 1}
        assert isinstance(case.params["Mconst"], float)

    def test_bit_identical_regeneration(self):
        a = make_case("mcintosh-yagi", m_max=2)
        b = make_case("mcintosh-yagi", m_max=2)
        assert np.array_equal(a.operator.entries, b.operator.entries)

    def test_report_json_deterministic(self):
        r1 = run_case(corpus_unbproj(2, (1,)))
        r2 = run_case(corpus_unbproj(2, (1,)))
        s1 = json.dumps(r1.to_json_dict(), sort_keys=True)
        s2 = json.dumps(r2.to_json_dict(), sort_keys=True)
        assert s1 == s2

    def test_report_json_is_the_explicit_dict(self):
        # the dataclass fields, as the hand-written serialiser listed them
        report = run_case(make_case("unbproj"))
        explicit = {
            "case": report.case,
            "params": {k: report.params[k] for k in sorted(report.params)},
            "facts": [
                {
                    "name": f.name,
                    "provenance": f.provenance,
                    "passed": f.passed,
                    "skipped": f.skipped,
                    "measured": f.measured,
                    "expected": f.expected,
                    "detail": f.detail,
                }
                for f in report.facts
            ],
            "all_passed": report.all_passed,
            "incomplete": report.incomplete,
        }
        got = report.to_json_dict()
        assert {**got, "facts": list(got["facts"])} == explicit
        assert json.dumps(got, sort_keys=True) == json.dumps(explicit, sort_keys=True)
