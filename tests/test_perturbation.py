import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsplit import (
    NearSpectrumError,
    OperatorError,
    corollary_check,
    dense_operator,
    descriptor_of,
    diag_operator,
    hamiltonian_assemble,
    multiset_match_distance,
    oracle_projection,
    p_subordination_fit,
    perturb_pair_report,
    projection_diff_integral,
    random_gap_operator,
    resolvent_diff_decay,
    spectral_norm,
    spectrum,
    split,
    subordination_curve,
)
from specsplit.cli import main
from specsplit.operators import near_spectrum_tol


def axis_points(lo, hi, n):
    t = np.logspace(np.log10(lo), np.log10(hi), n)
    return np.concatenate([-1j * t[::-1], 1j * t])


def alternating_diag(n):
    k = np.arange(1, n + 1, dtype=float)
    return diag_operator(np.where(k % 2 == 1, k, -k))


class TestDiffDecay:
    def test_identical_operators_sentinel(self):
        op = diag_operator([1, -2, 3])
        same = diag_operator([1, -2, 3])
        samples, exponent = resolvent_diff_decay(op, same, axis_points(1, 100, 20))
        assert exponent == math.inf
        assert all(d == 0.0 for _, d in samples)

    def test_bounded_perturbation_slope_two(self):
        # bounded rank-one perturbation: difference ~ |lambda|^{-2}
        s_op = alternating_diag(20)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(20)
        r = 0.3 * np.outer(u, u) / np.linalg.norm(u) ** 2
        t_op = dense_operator(s_op.entries + r)
        _, exponent = resolvent_diff_decay(
            s_op, t_op, axis_points(30, 1e4, 50), fit_window=(50.0, 1e4)
        )
        assert exponent == pytest.approx(2.0, abs=0.1)

    def test_subordinate_scaling_exponent(self):
        # diagonal power coupling of order p against linear growth: the
        # difference decays like |lambda|^{-(2 - p)}
        n = 64
        k = np.arange(1, n + 1, dtype=float)
        s_op = alternating_diag(n)
        r = 0.5 * np.diag(k**0.4)
        t_op = dense_operator(s_op.entries + r)
        _, exponent = resolvent_diff_decay(
            s_op, t_op, axis_points(5, 40, 40), fit_window=(10.0, 32.0)
        )
        assert exponent == pytest.approx(1.6, abs=0.15)

    @pytest.mark.parametrize("grid", [[1j], [20j], [20j, -20j], [1j, 20j, -20j]])
    def test_one_radius_fits_no_exponent(self, grid):
        # the window (10, 1e4) holds one |lambda|, which fixes no slope; the
        # sample at |lambda| = 1 outside it is not fitted either, as in
        # ``resolvent_sweep``
        s_op, t_op = diag_operator([1, -2]), diag_operator([1.5, -2])
        samples, exponent = resolvent_diff_decay(s_op, t_op, grid)
        assert len(samples) == len(grid) and math.isnan(exponent)

    def test_skips_near_spectrum_points(self):
        s_op = diag_operator([1, -1])
        t_op = diag_operator([2, -1])
        grid = np.array([1.0 + 0j, 10j, 100j])
        with pytest.warns(UserWarning, match="skipped"):
            samples, _ = resolvent_diff_decay(s_op, t_op, grid)
        assert len(samples) == 2

    def test_pair_tolerance_is_the_larger(self):
        # T's norm sets the pair's tolerance (1e-2) far above S's (2e-8), so
        # a point 5e-3 from an eigenvalue of S alone is skipped
        s_op, t_op = diag_operator([1, -1]), diag_operator([1e6, -2])
        tol = near_spectrum_tol(s_op, t_op)
        assert tol == max(near_spectrum_tol(s_op), near_spectrum_tol(t_op))
        assert tol == near_spectrum_tol(t_op) > 1e3 * near_spectrum_tol(s_op)
        grid = np.array([1.0 + 5e-3j, 10j, 100j])
        with pytest.warns(UserWarning, match="skipped 1 grid points"):
            samples, _ = resolvent_diff_decay(s_op, t_op, grid)
        assert [lam for lam, _ in samples] == [10j, 100j]

    def test_csv_round_trips(self, cli_csv):
        # p = 0, scale 0.1 and no coupling make the CLI's perturbation R = 0.1 I
        s_op = alternating_diag(8)
        report = perturb_pair_report(s_op, 0.1 * np.eye(8))
        source = json.dumps(descriptor_of(s_op))
        flags = ("--subordinate-p", "0", "--scale", "0.1", "--coupling", "0", "--beta", "1")
        rows = [line.split(",") for line in cli_csv("perturb", source, *flags)[1:]]
        assert [(complex(float(re), float(im)), float(d)) for re, im, d in rows] == report.diff_samples


class TestSubordination:
    def test_equality_case(self):
        op = diag_operator([1, -2, 3])
        samples = list(np.eye(3)) + [np.array([1.0, 1.0, 1.0])]
        c, p = p_subordination_fit(op, op.entries, samples)
        assert (c, p) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_bounded_operator_is_zero_subordinate(self):
        op = diag_operator([1, 2, 3])  # ||S^{-1}|| = 1, attained at e1
        c, p = p_subordination_fit(op, np.eye(3), list(np.eye(3)))
        assert p == 0.0
        assert c == pytest.approx(1.0)

    def test_increasing_curve_without_kink_is_zero_subordinate(self):
        # c(p) = 2^p rises on the whole p grid with no elbow: the p = 0 end
        c, p = p_subordination_fit(diag_operator([0.5, 0.5]), np.eye(2), list(np.eye(2)))
        assert (c, p) == (1.0, 0.0)

    def test_sqrt_coupling_has_p_half(self):
        n = 128
        k = np.arange(1, n + 1, dtype=float)
        op = alternating_diag(n)
        r = np.diag(np.sqrt(k))
        c, p = p_subordination_fit(op, r, list(np.eye(n)))
        assert p == pytest.approx(0.5, abs=0.02)

    def test_impossible_subordination(self):
        op = diag_operator([0.0, 1.0])
        with pytest.raises(ValueError, match="impossible"):
            subordination_curve(op, np.eye(2), [np.array([1.0, 0.0])])

    def test_zero_sample_rejected(self):
        op = diag_operator([1.0, 2.0])
        with pytest.raises(ValueError, match="nonzero"):
            subordination_curve(op, np.eye(2), [np.zeros(2)])

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.05, 1.0))
    def test_scaling_never_increases_c(self, t):
        n = 32
        k = np.arange(1, n + 1, dtype=float)
        op = alternating_diag(n)
        r = np.diag(k**0.3)
        base = subordination_curve(op, r, list(np.eye(n)))[1]
        scaled = subordination_curve(op, t * r, list(np.eye(n)))[1]
        assert np.all(scaled <= base * (1 + 1e-12))


class TestProjectionDiff:
    def test_identical_operators(self):
        op = diag_operator([1, -1])
        delta = projection_diff_integral(op, diag_operator([1, -1]))
        assert spectral_norm(delta) <= 1e-8

    def test_same_projections_different_spectrum(self):
        delta = projection_diff_integral(diag_operator([1, -1]), diag_operator([2, -1]))
        assert spectral_norm(delta) <= 1e-8

    def test_rank_one_perturbation_matches_oracle(self):
        s_op = random_gap_operator(8, seed=12)
        rng = np.random.default_rng(12)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        r = 0.05 * np.outer(u, u.conj()) / np.linalg.norm(u) ** 2
        t_op = dense_operator(s_op.entries + r)
        assert spectrum(t_op).min_abs_real > 0.1
        delta = projection_diff_integral(s_op, t_op)
        expect = oracle_projection(s_op).p_plus - oracle_projection(t_op).p_plus
        assert spectral_norm(delta - expect) <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(OperatorError):
            projection_diff_integral(diag_operator([1, -1]), diag_operator([1, -1, 2]))

    def test_no_common_strip(self):
        with pytest.raises(NearSpectrumError):
            projection_diff_integral(diag_operator([1, -1]), diag_operator([1j, 1.0]))


class TestCorollaryCheck:
    def test_pass_case(self):
        v = corollary_check(1.0, 0.5)
        assert v.passed and v.predicted_exponent == pytest.approx(1.5)

    def test_fail_case(self):
        v = corollary_check(0.6, 0.3)
        assert not v.passed  # 0.3 >= 2*0.6 - 1 = 0.2

    def test_pass_case_tight(self):
        v = corollary_check(0.75, 0.4)
        assert v.passed and v.predicted_exponent == pytest.approx(1.1)

    def test_beta_at_half_fails(self):
        assert not corollary_check(0.5, 0.0).passed

    def test_range_validation(self):
        with pytest.raises(ValueError):
            corollary_check(1.5, 0.5)
        with pytest.raises(ValueError):
            corollary_check(0.8, -0.1)


class TestHamiltonian:
    def test_decoupled(self):
        op = hamiltonian_assemble(np.diag([1.0, 2.0]), np.zeros((2, 1)), np.zeros((1, 2)))
        assert np.allclose(op.entries, np.diag([1, 2, -1, -2]), atol=0)
        result = split(op)
        assert result.max_residual() <= 1e-8

    def test_coupled_4x4(self):
        op = hamiltonian_assemble(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert spectrum(op).min_abs_real > 0
        result = split(op)
        assert result.max_residual() <= 1e-6
        assert spectral_norm(result.p_plus - oracle_projection(op).p_plus) <= 1e-6

    def test_jordan_block_stress(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        op = hamiltonian_assemble(a, 0.1 * np.ones((2, 1)), 0.1 * np.ones((1, 2)))
        result = split(op)
        assert result.max_residual() <= 1e-6
        assert spectral_norm(result.p_plus - oracle_projection(op).p_plus) <= 1e-6

    def test_pairing_symmetry(self):
        rng = np.random.default_rng(3)
        a = np.diag([1.0, 1.5, 2.5]) + 0.2 * rng.standard_normal((3, 3))
        op = hamiltonian_assemble(a, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)))
        ev = spectrum(op).eigenvalues
        assert multiset_match_distance(ev, -ev.conj()) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(OperatorError):
            hamiltonian_assemble(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    def test_axis_eigenvalue_rejected(self):
        with pytest.raises(NearSpectrumError):
            hamiltonian_assemble(np.diag([0.0, 1.0]), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(NearSpectrumError):
            hamiltonian_assemble(np.diag([-1.0, 1.0]), np.zeros((2, 1)), np.zeros((1, 2)))


class TestPairReport:
    def test_small_pair(self):
        n = 32
        k = np.arange(1, n + 1, dtype=float)
        s_op = alternating_diag(n)
        r = 0.5 * np.diag(k**0.4).astype(complex)
        r[0, 1] += 0.1
        r[1, 0] += 0.1
        report = perturb_pair_report(s_op, r, beta=1.0, fit_window=(5.0, 16.0))
        assert report.corollary_verdict == "pass"
        assert report.subordination[1] == pytest.approx(0.4, abs=0.05)
        assert report.predicted_exponent == pytest.approx(2.0 - report.subordination[1])
        assert report.delta_residual <= 1e-6
        payload = report.to_json_dict()
        assert payload["corollary_verdict"] == "pass"
        assert payload["n_diff_samples"] == len(report.diff_samples)

    def test_without_beta(self):
        s_op = alternating_diag(8)
        report = perturb_pair_report(s_op, 0.1 * np.eye(8), fit_window=(2.0, 50.0))
        assert report.corollary_verdict == "not-applicable"
        payload = report.to_json_dict()
        assert math.isnan(payload["predicted_exponent"])  # the CLI writes it as null

    def test_beta_refused_before_the_difference_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the difference sweep ran before the beta check")

        monkeypatch.setattr("specsplit.perturbation.resolvent_diff_decay", sweep)
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\], got 2.0"):
            perturb_pair_report(alternating_diag(4), 0.1 * np.eye(4), beta=2.0)

    def test_zero_perturbation_sentinel_serializes(self, capsys):
        s_op = alternating_diag(6)
        report = perturb_pair_report(s_op, np.zeros((6, 6)), fit_window=(2.0, 50.0))
        assert report.fitted_diff_exponent == math.inf
        assert report.to_json_dict()["fitted_diff_exponent"] == math.inf
        # the CLI writes the sentinel as the string "inf", which strict JSON carries
        assert main(["perturb", "dichotomy-2.3?N=6", "--scale", "0", "--coupling", "0"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert payload["fitted_diff_exponent"] == "inf"
