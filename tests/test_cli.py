import json
import math
import re
import warnings

import numpy as np
import pytest

from specsplit.cli import _json_text, main


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """``json.loads`` that refuses NaN and the infinities, as a strict parser does."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith("{"):  # every JSON payload on stdout parses strictly
        strict_loads(captured.out)
    return code, captured.out, captured.err


AXIS_EIGENVALUE_DESCRIPTOR = json.dumps(
    {"kind": "dense", "entries": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]}
)


class TestSplitCommand:
    def test_corpus_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=4")
        assert code == 0
        payload = strict_loads(out)
        assert payload["passed"] is True
        assert payload["rank_plus"] == 4
        assert payload["residuals"]["a_sum"] <= 1e-6

    def test_axis_eigenvalue_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "split", AXIS_EIGENVALUE_DESCRIPTOR)
        assert code == 2
        assert "spectral" in err

    def test_random_seed_operator(self, capsys):
        code, out, _ = run_cli(capsys, "split", "random?seed=7&dim=8")
        assert code == 0
        assert strict_loads(out)["passed"] is True

    def test_conditioning_failure_exits_3(self, capsys):
        # P = S^2 A multiplies the roundoff of A by ||S||^2 ~ 3e23 on this
        # family's second block (||S|| ~ 5.5e11), so the residuals of P miss
        # pass_tol
        code, _, err = run_cli(capsys, "split", "mcintosh-yagi?N=2")
        assert code == 3
        assert "non-convergence" in err

    @pytest.mark.parametrize("argv, cause", [
        # no dyadic height from 10h reaches 2 ||S|| within 256 doublings
        (("constant-diag?N=2&values=1e-300,1",),
         "the 256 dyadic heights from 10h end at 4.632e-223, below 2 max(||S||, |p|) = 2.000e+00 "
         "(h = 5.000e-301, ||S|| = 1.000e+00)"),
        (("dichotomy-2.3?N=2", "--h", "1e-300"),
         "the 256 dyadic heights from 10h end at 9.263e-223, below 2 max(||S||, |p|) = 1.694e+01 "
         "(h = 1.000e-300, ||S|| = 8.472e+00)"),
        # ||S|| itself is in range, its 24th power is not
        (("constant-diag?N=2&values=1e300,-1",),
         "||S|| = 1.000e+300, whose 24th power leaves the float range"),
    ])
    def test_truncation_refusal_names_its_cause(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, "split", *argv)
        assert code == 3 and out == ""
        assert err == f"numerical non-convergence: no truncation height meets tol=1.00e-08: {cause}\n"

    def test_text_format_refused(self, capsys):
        # split has no text rendering, so it writes JSON only
        code, out, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--format", "text")
        assert (code, out) == (1, "")
        assert "invalid choice" in err

    def test_rank_refusal_exits_3(self, capsys, zero_a_integrals):
        # round(Re tr P+-) must equal the half-plane eigenvalue counts
        code, out, err = run_cli(capsys, "split", "dichotomy-2.3?N=2")
        assert code == 3 and out == ""
        assert err == (
            "numerical non-convergence: projection traces (0, 0) inconsistent "
            "with half-plane eigenvalue counts (2, 2)\n"
        )

    def test_failed_pass_names_the_worst_residual(self, capsys):
        code, out, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--pass-tol", "1e-20")
        assert code == 3
        payload = strict_loads(out)
        assert payload["passed"] is False
        worst = max(payload["residuals"], key=payload["residuals"].get)
        assert err.count("\n") == 1
        assert err.startswith(f"numerical non-convergence: split residual {worst} = ")
        assert "pass_tol 1e-20" in err

    def test_empty_half_plane_margin_is_the_string_inf(self, capsys):
        # no eigenvalue in the left half-plane: its margin is +inf, which
        # strict JSON cannot carry as a number
        code, out, _ = run_cli(capsys, "split", "constant-diag?N=2&values=1,2")
        assert code == 0
        assert "Infinity" not in out
        payload = strict_loads(out)
        assert payload["spectrum_margin_minus"] == "inf"
        assert payload["spectrum_margin_plus"] == 1.0

    def test_contour_flags(self, capsys):
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--h", "0.3")
        assert code == 0
        assert strict_loads(out)["contour"]["h"] == 0.3

    @pytest.mark.parametrize("flag, value", [("--tol", "inf")])
    def test_non_finite_contour_flag_exits_1(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", flag, value)
        assert code == 1
        assert err.startswith("error:")
        assert "must be finite" in err

    def test_loose_tol_keeps_the_r_minus_pole(self, capsys):
        # z = -2h lies h left of the line Re lambda = -h whatever the tolerance
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--tol", "1")
        assert code == 0
        assert strict_loads(out)["passed"] is True

    def test_derived_height_at_a_loose_tol(self, capsys):
        # the tail of A is held to tol / ||S||^2, so P = S^2 A keeps its ranks
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--tol", "1e-3")
        assert code == 0
        payload = strict_loads(out)
        assert payload["passed"] is True
        assert set(payload["contour"]) == {"h", "tol"}
        assert payload["t_eff_plus"] >= 10 * payload["contour"]["h"]

    def test_unreachable_tol_exits_3(self, capsys):
        # the remainder of the Neumann polynomial falls like T^-26, so a
        # height meets 1e-300, and the quadrature of the near field cannot
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--tol", "1e-300")
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("numerical non-convergence: ")
        assert "did not reach tol=1.00e-300" in err

    def test_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"kind": "family", "family": "constant-diag", "N": 1}))
        code, out, _ = run_cli(capsys, "split", str(path))
        assert code == 0

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "split", "constant-diag?N=1", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert strict_loads(out_path.read_text())["passed"] is True

    def test_missing_output_directory(self, capsys, tmp_path):
        target = tmp_path / "nope" / "result.json"
        code, _, err = run_cli(capsys, "split", "constant-diag?N=1", "--out", str(target))
        assert code == 1


class TestSweepAndFit:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bound-4.6?N=10", "--grid-hi", "100", "--grid-per-decade", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re_lambda,im_lambda,resolvent_norm"
        blank = lines.index("")
        summary = strict_loads("\n".join(lines[blank:]))
        assert summary["sup_norm"] <= 3.0 + 1e-9

    def test_fit_exponent_window_defaults_to_truncation(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "almost-bisect-5.5?p=0.5&N=50")
        assert code == 0
        beta = strict_loads(out)["fitted_beta"]
        assert 0.45 <= beta <= 0.55

    def test_untagged_operator_fits_the_full_window(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "random?seed=3&dim=6")
        assert code == 0
        assert strict_loads(out)["fit_window"] == [10.0, 10000.0]

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "constant-diag?N=1", "--grid-lo", "10", "--grid-hi", "1")
        assert code == 1

    def test_unfittable_window_gives_null_not_nan(self, capsys):
        # no samples inside the fit window: strict JSON must carry null
        code, out, _ = run_cli(
            capsys, "fit", "constant-diag?N=1", "--grid-hi", "5",
            "--grid-per-decade", "4", "--fit-lo", "10", "--fit-hi", "100",
        )
        assert code == 0
        assert "NaN" not in out
        assert strict_loads(out)["fitted_beta"] is None

    def test_one_radius_in_the_window_gives_null(self, capsys):
        # one point per decade leaves only +-10i in the window (10, 25): two
        # samples at one radius fix no slope
        code, out, _ = run_cli(capsys, "fit", "almost-bisect-5.5?p=0.5&N=50", "--grid-per-decade", "1")
        assert code == 0
        payload = strict_loads(out)
        assert payload["fitted_beta"] is None
        assert payload["fitted_M"] is None and payload["fit_residual"] is None

    def test_inverted_fit_window_exits_1(self, capsys):
        # the default window top of this family is N/2 = 25
        code, _, err = run_cli(capsys, "fit", "almost-bisect-5.5?p=0.5&N=50", "--fit-lo", "30")
        assert code == 1
        assert err.startswith("error:")
        assert "fit window" in err

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "constant-diag?N=1", "--format", "json", "--grid-hi", "10",
            "--grid-per-decade", "4",
        )
        assert code == 0
        assert "sup_norm" in strict_loads(out)

    def test_sweep_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bound-4.6?N=10", "--format", "text", "--grid-hi", "100",
            "--grid-per-decade", "8",
        )
        assert code == 0
        pattern = r"sweep of bound-4\.6\?N=10: 66 samples, sup (\S+), beta \S+, M \S+\n"
        match = re.fullmatch(pattern, out)
        assert match and float(match[1]) <= 3.0 + 1e-9

    def test_fit_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "almost-bisect-5.5?p=0.5&N=50", "--format", "text")
        assert code == 0
        match = re.fullmatch(r"beta (\S+)  M \S+  residual \S+\n", out)
        assert match and 0.45 <= float(match[1]) <= 0.55


class TestDescribe:
    def test_scalar_family_values(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "constant-diag?N=2&values=2")
        assert code == 0
        assert strict_loads(out)["dim"] == 2

    def test_null_family_parameter_exits_1(self, capsys):
        desc = {"kind": "family", "family": "almost-bisect-5.5", "N": 2, "params": {"p": None}}
        code, _, err = run_cli(capsys, "describe", json.dumps(desc))
        assert code == 1
        assert err.startswith("error:")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "dichotomy-2.3?N=2")
        assert code == 0
        payload = strict_loads(out)
        assert payload["dim"] == 4
        assert payload["spectral_gap"] == pytest.approx(1.0)

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "constant-diag?N=1", "--format", "text")
        assert code == 0
        assert "gap" in out

    def test_mcintosh_yagi_order_above_cap_exits_1(self, capsys):
        # M near 1 sends the analytic block order to inf
        code, _, err = run_cli(capsys, "describe", "mcintosh-yagi?Mconst=1.0001&N=1")
        assert code == 1
        assert err.startswith("error:")
        assert "desk-scale exceeded" in err

    def test_mcintosh_yagi_entries_beyond_float_range_exit_1(self, capsys):
        # order 1566 is under the cap, but 2^n overflows from n = 1024
        code, out, err = run_cli(capsys, "describe", "mcintosh-yagi?N=1&Mconst=3")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: mcintosh-yagi block m=1 needs order n=1566, ")
        assert "float range" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("describe", "dichotomy-2.3?N=2&N=3"), "N"),
            (("describe", "random?seed=1&dim=2&dim=3"), "dim"),
            (("reproduce", "unbproj?N=2&N=3"), "N"),
        ],
    )
    def test_repeated_shorthand_key_exits_1(self, capsys, argv, key):
        # the last value used to win silently
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: parameter '{key}' given more than once\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("describe", "constant-diag?N=1&values=abc"), "parameter values must be numeric, got 'abc'"),
            (("describe", "constant-diag?N=1&values=1,abc"), "parameter values must be numeric, got [1, 'abc']"),
            (("describe", "almost-bisect-5.5?N=2&p=abc"), "parameter p must be numeric, got 'abc'"),
            (("describe", "mcintosh-yagi?N=1&Mconst=abc"), "parameter Mconst must be numeric, got 'abc'"),
            (
                ("describe", '{"kind": "family", "family": "almost-bisect-5.5", "N": 2, "params": {"p": null}}'),
                "parameter p must be numeric, got None",
            ),
            (("reproduce", "almbisect?p=abc"), "parameter p must be numeric, got 'abc'"),
            (("reproduce", "mcintosh-yagi?Mconst=abc"), "parameter Mconst must be numeric, got 'abc'"),
            (
                # null converts to nan, which the operator refused without the name
                ("describe", '{"kind": "family", "family": "constant-diag", "N": 2, "params": {"values": null}}'),
                "parameter values must be finite numbers, got None",
            ),
            (("describe", "constant-diag?N=1&values=1,nan"), "parameter values must be finite numbers, got [1, nan]"),
        ],
    )
    def test_non_numeric_parameter_exits_1(self, capsys, argv, message):
        # the conversion's own message did not name the parameter
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_negative_random_seed_exits_1(self, capsys):
        # numpy's own refusal did not name the parameter
        code, _, err = run_cli(capsys, "describe", "random?seed=-1&dim=2")
        assert code == 1
        assert err.startswith("error:") and "seed" in err


class TestReproduce:
    def test_unbproj(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "unbproj", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["all_passed"] is True

    def test_scalar_lambda_set(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "unbproj?lambda1=2", "--format", "json")
        assert code == 0
        assert strict_loads(out)["params"]["lambda1"] == [2]

    @pytest.mark.parametrize("case", ["unbproj?N=1", "unbproj?N=2"])
    def test_default_lambda_set_below_three_blocks(self, capsys, case):
        # the default choice is the odd blocks, a subset of 1..N for every N
        code, out, _ = run_cli(capsys, "reproduce", case, "--format", "json")
        assert code == 0
        assert strict_loads(out)["params"]["lambda1"] == [1]

    def test_failed_facts_named_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "unbproj?N=2", "--tol", "1e-30",
                                 "--format", "json")
        assert code == 3
        failed = [f["name"] for f in strict_loads(out)["facts"] if not f["passed"]]
        assert failed
        expect = f"reproduce unbproj: failed facts {', '.join(failed)}"
        assert err == f"numerical non-convergence: {expect}\n"

    @pytest.mark.parametrize("case", ["almbisect?N=10", "almbisect?N=20"])
    def test_beta_above_the_block_scale_is_skipped(self, capsys, case):
        code, out, _ = run_cli(capsys, "reproduce", case, "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["incomplete"] is True and payload["all_passed"] is True
        fact = next(f for f in payload["facts"] if f["name"] == "fitted_beta")
        assert fact["skipped"] is True and fact["detail"].startswith("fit window (10, 20)")

    def test_fit_from_one_radius_fails_with_null_measured(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "almbisect?N=50", "--grid-per-decade", "1",
                                 "--format", "json")
        assert code == 3
        fact = next(f for f in strict_loads(out)["facts"] if f["name"] == "fitted_beta")
        assert fact["passed"] is False and fact["measured"] is None
        assert err == "numerical non-convergence: reproduce almbisect: failed facts fitted_beta\n"

    def test_norm_above_the_quadrature_budget_skips_the_quadrature_facts(self, capsys):
        # ||S|| = 1.28e4 is above the norm cap while dim 160 is within max-quad-dim
        code, out, _ = run_cli(capsys, "reproduce", "unbproj?N=80")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("  [SKIP] ") for line in lines) == 5
        assert sum("operator norm 1.28e+04 above quadrature budget" in line for line in lines) == 5
        assert lines[-1] == "  => all facts pass (incomplete: budget skipped facts)"

    def test_no_blocks_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "unbproj?N=0")
        assert (code, out, err) == (1, "", "error: need at least one block\n")

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "no-such-case")
        assert code == 1

    @pytest.mark.parametrize("case", ["unbproj?n=5", "unbproj?foo=1"])
    def test_unknown_parameter_exits_1(self, capsys, case):
        code, out, err = run_cli(capsys, "reproduce", case)
        assert code == 1
        assert out == ""
        assert "does not accept parameters" in err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("unbproj?N=2.5", "N must be a positive integer, got 2.5"),
            ("almbisect?N=20.9", "N must be a positive integer, got 20.9"),
            ("mcintosh-yagi?m_max=1.7", "m_max must be a positive integer, got 1.7"),
            ("unbproj?N=3&lambda1=1.9", "lambda1 must hold integers in 1..3, got 1.9"),
            ("unbproj?lambda1=", "lambda1 must hold integers in 1..3, got ''"),
        ],
    )
    def test_non_integer_size_exits_1(self, capsys, case, message):
        # no truncation: a size that is not an integer is refused, not run
        assert run_cli(capsys, "reproduce", case) == (1, "", f"error: {message}\n")

    def test_mcintosh_yagi_order_above_cap_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "mcintosh-yagi?Mconst=1.0001&m_max=1")
        assert code == 1
        assert err.startswith("error:")
        assert "desk-scale exceeded" in err

    def test_mcintosh_yagi_entries_beyond_float_range_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "mcintosh-yagi?Mconst=3&m_max=1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: mcintosh-yagi block m=1 needs order n=1566, ")

    def test_text_report(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "unbproj?N=2")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "case unbproj params={'N': 2, 'lambda1': [1]}"
        assert len(lines) == 10 and all(line.startswith("  [PASS] ") for line in lines[1:-1])
        assert lines[-1] == "  => all facts pass"

    def test_text_report_of_budget_skipped_facts(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "unbproj?N=2", "--max-quad-dim", "2")
        assert code == 0
        lines = out.splitlines()
        assert "  [SKIP] quadrature_a_plus_blocks (stated): per-block A_n^+ to 1e-6" in lines
        assert "         dim 4 above quadrature budget 2" in lines
        assert lines[-1] == "  => all facts pass (incomplete: budget skipped facts)"

    def test_text_report_of_failed_facts(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "unbproj?N=2", "--tol", "1e-300")
        assert code == 3
        lines = out.splitlines()
        assert any(line.startswith("  [FAIL] quadrature_a_plus_blocks ") for line in lines)
        assert lines[-1] == "  => FAILURES present"
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "case, status, one_minus_p", [("almbisect", "PASS", "0.5"), ("almbisect?p=0.95", "FAIL", "0.05")]
    )
    def test_fitted_beta_text(self, capsys, case, status, one_minus_p):
        # 1 - p is written with :g, not as the float 0.050000000000000044; a
        # failed fact prints its detail too
        _, out, _ = run_cli(capsys, "reproduce", case, "--format", "text")
        lines = out.splitlines()
        prefix = f"  [{status}] fitted_beta (stated): axis decay exponent 1-p = {one_minus_p} measured="
        assert lines[1].startswith(prefix)
        assert (lines[2] == f"         beta =~ {one_minus_p}") == (status == "FAIL")

    def test_param_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "reproduce", "mcintosh-yagi?m_max=1", "--format", "json"
        )
        assert code == 0
        payload = strict_loads(out)
        assert payload["params"]["m_max"] == 1
        assert payload["all_passed"] is True


class TestPerturb:
    def test_alternating_diag_family(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        diag = [1, -2, 3, -4, 5, -6]
        entries = [
            [[float(v) if i == j else 0.0, 0.0] for j in range(6)]
            for i, v in enumerate(diag)
        ]
        path.write_text(json.dumps({"kind": "dense", "entries": entries}))
        code, out, _ = run_cli(capsys, "perturb", str(path), "--beta", "1.0")
        assert code == 0
        payload = strict_loads(out)
        assert payload["corollary_verdict"] in {"pass", "fail"}
        assert payload["delta_residual"] <= 1e-6

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "dichotomy-2.3?N=6", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re_lambda,im_lambda,diff_norm"
        blank = lines.index("")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:blank]]
        assert rows and all(len(row) == 3 for row in rows)
        assert strict_loads("\n".join(lines[blank:]))["n_diff_samples"] == len(rows)

    def test_beta_fitted_without_the_flag(self, capsys):
        code, out, _ = run_cli(capsys, "perturb", "almost-bisect-5.5?p=0.5&N=50")
        assert code == 0
        payload = strict_loads(out)
        assert 0.45 <= payload["beta"] < 1.0
        assert payload["corollary_verdict"] in {"pass", "fail"}

    def test_beta_is_fitted_in_the_fit_window(self, capsys):
        # the block-scale window of ``fit``, (10, N/2), where the truncation
        # follows the family's decay law: true beta = 1 - p = 0.5
        code, out, _ = run_cli(capsys, "perturb", "almost-bisect-5.5?p=0.5&N=50")
        assert code == 0
        assert 0.45 <= strict_loads(out)["beta"] <= 0.55

    def test_beta_equals_the_fitted_beta(self, capsys):
        # perturb fits beta on the grid and in the window of ``fit``
        source = "almost-bisect-5.5?p=0.5&N=50"
        perturb = strict_loads(run_cli(capsys, "perturb", source)[1])
        fit = strict_loads(run_cli(capsys, "fit", source)[1])
        assert perturb["beta"] == fit["fitted_beta"]

    def test_fitted_beta_out_of_range_is_reported_as_null(self, capsys):
        # the fit in (10, 20) reads beta = -1.30 here; no --beta was given, so
        # the exponent arithmetic is not applicable rather than a usage error
        code, out, _ = run_cli(capsys, "perturb", "constant-diag?N=1&values=0.5+18j,-1")
        assert code == 0
        payload = strict_loads(out)
        assert payload["beta"] is None
        assert payload["corollary_verdict"] == "not-applicable"

    def test_explicit_beta_out_of_range_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "perturb", "dichotomy-2.3?N=2", "--beta", "2")
        assert (code, out) == (1, "")
        assert err == "error: beta must lie in (0, 1], got 2.0\n"

    def test_text_format_refused(self, capsys):
        # perturb writes JSON or CSV only
        code, out, err = run_cli(capsys, "perturb", "dichotomy-2.3?N=2", "--format", "text")
        assert code == 1
        assert out == ""
        assert "invalid choice" in err


class TestExtremeScales:
    """Runs at the ends of the float range keep the exit-code contract: their
    code, one stderr line and no warning."""

    @pytest.mark.parametrize("argv, code, message", [
        # |c| ||S||^24 underflows to 0, and its floor keeps the log finite
        (("split", "constant-diag?N=2&values=1e-14,-1e-14"), 3,
         "numerical non-convergence: quadrature on Re lambda = 5e-15 did not reach tol=1.00e-08"),
        (("perturb", "constant-diag?N=2&values=1e-14,-1e-14"), 3,
         "numerical non-convergence: quadrature on Re lambda = 5e-15 did not reach tol=1.00e-08"),
        # ||Sx|| = 1e-300 is not 0 on a scaled column, so the fit passes and
        # the line is refused a height
        (("perturb", "constant-diag?N=1&values=1e-300,-1e-300"), 3,
         "numerical non-convergence: no truncation height meets tol=1.00e-08: the 256 dyadic heights "
         "from 10h end at 4.632e-223"),
        # squares of ||Rx|| near 1e320 or 1e600 no longer overflow in the fit
        (("perturb", "dichotomy-2.3?N=2", "--scale", "1e160"), 2,
         "spectral precondition failed: all grid points are near the spectrum"),
        (("perturb", "dichotomy-2.3?N=2", "--coupling", "1e300"), 3,
         "numerical non-convergence: no truncation height meets tol=1.00e-08: ||S|| = 1.000e+300, "
         "whose 24th power leaves the float range"),
        # S has the eigenvalue 0: refused before the fit, as the zero gap
        (("perturb", "constant-diag?N=1&values=0,1"), 2,
         "spectral precondition failed: spectral gap to the imaginary axis is zero"),
        (("perturb", "dichotomy-2.3?N=2", "--scale", "1e-320"), 0, ""),
    ], ids=["split-tiny-norm", "perturb-tiny-norm", "perturb-1e-300", "scale-1e160", "coupling-1e300",
            "zero-gap", "scale-1e-320"])
    def test_exit_code_one_line_no_warning(self, capsys, argv, code, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, _, err = run_cli(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert got == code
        assert err.startswith(message) and err.count("\n") == (code != 0)


class TestUsageAndDeterminism:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "split", "constant-diag?N=1", "--bogus")
        assert code == 1

    def test_unknown_source(self, capsys):
        code, _, err = run_cli(capsys, "split", "not-a-family?N=2")
        assert code == 1
        assert "known families" in err

    def test_family_requires_N(self, capsys):
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3")
        assert code == 1

    @pytest.mark.parametrize("value", ["2.5", "0", "abc", "2,3"])
    def test_non_integer_N_exits_1(self, capsys, value):
        # the shorthand goes through the descriptor's N check; no truncation to 2
        code, out, err = run_cli(capsys, "describe", f"dichotomy-2.3?N={value}")
        assert (code, out) == (1, "")
        assert err.startswith("error: 'N' must be a positive integer")

    @pytest.mark.parametrize("query", ["dim=3.9", "seed=1.5", "dim=4&seed=x"])
    def test_non_integer_random_parameter_exits_1(self, capsys, query):
        code, out, err = run_cli(capsys, "describe", f"random?{query}")
        assert (code, out) == (1, "")
        assert "integer dim and seed" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("dichotomy-2.3?N", "error: malformed parameter 'N' (expected key=value)\n"),
            ("random?dim=4&x=1", "error: random source does not accept ['x']\n"),
        ],
    )
    def test_malformed_shorthand_exits_1(self, capsys, source, message):
        code, out, err = run_cli(capsys, "describe", source)
        assert (code, out, err) == (1, "", message)

    def test_empty_shorthand_item_is_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "dichotomy-2.3?N=2&")
        assert code == 0
        assert out == run_cli(capsys, "describe", "dichotomy-2.3?N=2")[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("describe", "dichotomy-2.3?N=2"),
            ("reproduce", "unbproj?N=2", "--format", "text"),
            ("sweep", "constant-diag?N=1", "--grid-hi", "10", "--grid-per-decade", "4"),
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_text() == out

    @pytest.mark.parametrize(
        "argv, key, written",
        [
            (("split", "constant-diag?N=2&values=1,2"), "spectrum_margin_minus", "inf"),
            (("split", "dichotomy-2.3?N=2", "--pass-tol", "inf"), "pass_tol", "inf"),
            (("fit", "bound-4.6?N=10", "--fit-hi", "inf"), "fit_window", [10.0, "inf"]),
            (("fit", "almost-bisect-5.5?p=0.5&N=50", "--grid-per-decade", "1"), "fitted_beta", None),
            (("perturb", "dichotomy-2.3?N=6", "--scale", "0", "--coupling", "0"), "fitted_diff_exponent", "inf"),
        ],
    )
    def test_non_finite_values_parse_as_strict_json(self, capsys, argv, key, written):
        # echoed flags too: one encoder writes every payload
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert strict_loads(out)[key] == written

    @pytest.mark.parametrize(
        "value, written",
        [(math.nan, None), (math.inf, "inf"), (-math.inf, "-inf"), (np.float64(np.nan), None)],
        ids=["nan", "inf", "-inf", "numpy-nan"],
    )
    def test_json_text_is_strict_at_every_depth(self, value, written):
        obj = {"a": value, "b": [1.0, value], "c": {"d": (value, "x")}}
        expected = {"a": written, "b": [1.0, written], "c": {"d": [written, "x"]}}
        assert strict_loads(_json_text(obj)) == expected

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "split", "dichotomy-2.3?N=3")
        _, out2, _ = run_cli(capsys, "split", "dichotomy-2.3?N=3")
        assert out1 == out2
        _, csv1, _ = run_cli(capsys, "sweep", "constant-diag?N=1", "--grid-hi", "10", "--grid-per-decade", "4")
        _, csv2, _ = run_cli(capsys, "sweep", "constant-diag?N=1", "--grid-hi", "10", "--grid-per-decade", "4")
        assert csv1 == csv2
