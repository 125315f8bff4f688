import json

import pytest

from specsplit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AXIS_EIGENVALUE_DESCRIPTOR = json.dumps(
    {"kind": "dense", "entries": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]}
)


class TestSplitCommand:
    def test_corpus_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=4")
        assert code == 0
        payload = json.loads(out)
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
        assert json.loads(out)["passed"] is True

    def test_conditioning_failure_exits_3(self, capsys):
        # the P = S^2 A route degrades beyond float range for this family's
        # second block (||S|| ~ 5e11), surfacing as a splitting mismatch
        code, _, err = run_cli(capsys, "split", "mcintosh-yagi?N=2")
        assert code == 3
        assert "non-convergence" in err

    def test_contour_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "split", "dichotomy-2.3?N=2", "--h", "0.3", "--nodes", "8"
        )
        assert code == 0
        assert json.loads(out)["contour"]["h"] == 0.3

    @pytest.mark.parametrize(
        "flag, value", [("--truncation-T", "inf"), ("--truncation-T", "nan"), ("--tol", "inf")]
    )
    def test_non_finite_contour_flag_exits_1(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", flag, value)
        assert code == 1
        assert err.startswith("error:")
        assert "must be finite" in err

    def test_one_node_per_panel_exits_1(self, capsys):
        # the error estimate compares q nodes with q/2, so q = 1 is refused
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--nodes", "1")
        assert code == 1
        assert "nodes_per_unit" in err

    def test_loose_tol_keeps_the_r_minus_pole(self, capsys):
        # z = -2h lies h left of the line Re lambda = -h whatever the tolerance
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--tol", "1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_derived_height_at_a_loose_tol(self, capsys):
        # the tail of A is held to tol / ||S||^2, so P = S^2 A keeps its ranks
        code, out, _ = run_cli(capsys, "split", "dichotomy-2.3?N=2", "--tol", "1e-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["contour"]["truncation_T"] is None
        assert payload["t_eff_plus"] >= 10 * payload["contour"]["h"]

    def test_truncation_below_twice_the_norm_exits_3(self, capsys):
        # ||S|| ~ 200: below 2 ||S|| the tail has no bound
        code, _, err = run_cli(capsys, "split", "dichotomy-2.3?N=10", "--truncation-T", "100")
        assert code == 3
        assert "increase T" in err

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
        assert json.loads(out_path.read_text())["passed"] is True

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
        summary = json.loads("\n".join(lines[blank:]))
        assert summary["sup_norm"] <= 3.0 + 1e-9

    def test_fit_exponent_window_defaults_to_truncation(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "almost-bisect-5.5?p=0.5&N=50")
        assert code == 0
        beta = json.loads(out)["fitted_beta"]
        assert 0.45 <= beta <= 0.55

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
        assert json.loads(out)["fitted_beta"] is None

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "constant-diag?N=1", "--format", "json", "--grid-hi", "10",
            "--grid-per-decade", "4",
        )
        assert code == 0
        assert "sup_norm" in json.loads(out)


class TestDescribe:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "dichotomy-2.3?N=2")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        assert payload["spectral_gap"] == pytest.approx(1.0)

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "constant-diag?N=1", "--format", "text")
        assert code == 0
        assert "gap" in out


class TestReproduce:
    def test_unbproj(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "unbproj", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "no-such-case")
        assert code == 1

    def test_param_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "reproduce", "mcintosh-yagi?m_max=1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
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
        payload = json.loads(out)
        assert payload["corollary_verdict"] in {"pass", "fail"}
        assert payload["delta_residual"] <= 1e-6


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

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "split", "dichotomy-2.3?N=3")
        _, out2, _ = run_cli(capsys, "split", "dichotomy-2.3?N=3")
        assert out1 == out2
        _, csv1, _ = run_cli(capsys, "sweep", "constant-diag?N=1", "--grid-hi", "10", "--grid-per-decade", "4")
        _, csv2, _ = run_cli(capsys, "sweep", "constant-diag?N=1", "--grid-hi", "10", "--grid-per-decade", "4")
        assert csv1 == csv2
