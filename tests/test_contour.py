import dataclasses
import json

import numpy as np
import pytest

import specsplit.contour as contour_module
from specsplit import (
    ContourSpec,
    NearSpectrumError,
    Operator,
    QuadratureError,
    TruncationError,
    build_block_operator,
    choose_h,
    contour_shift_check,
    default_contour,
    dense_operator,
    diag_operator,
    integrate_A,
    integrate_B,
    oracle_projection,
    pv_axis_integral,
    r_minus,
    random_gap_operator,
    resolvent,
    spectral_norm,
    spectrum,
    split,
)
from specsplit.contour import _log_log_fit, _side_integrals, line_nodes
from specsplit.operators import _spectrum_distance, operator_norm
from specsplit.perturbation import projection_diff_integral


def block23(n):
    return np.array([[n, 2.0 * n * n], [0.0, -n]], dtype=complex)


def a_plus_23(n):
    return np.array([[n**-2.0, 1.0 / n], [0, 0]], dtype=complex)


def a_minus_23(n):
    return np.array([[0, -1.0 / n], [0, n**-2.0]], dtype=complex)


class TestContourSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(h=-1.0)
        with pytest.raises(ValueError):
            ContourSpec(h=0.5, truncation_T=4.0)  # below 10*h
        with pytest.raises(ValueError):
            ContourSpec(h=0.5, nodes_per_unit=0)
        with pytest.raises(ValueError):
            ContourSpec(h=0.5, nodes_per_unit=1)  # no half order to compare with
        with pytest.raises(ValueError):
            ContourSpec(h=0.5, tol=0.0)

    @pytest.mark.parametrize("field", ["h", "truncation_T", "tol"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ContourSpec(**{"h": 0.5, field: value})

    def test_json_round_trip(self):
        spec = ContourSpec(h=0.25, truncation_T=1e6, nodes_per_unit=8)
        again = ContourSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_json_round_trip_derived_height(self):
        spec = ContourSpec(h=0.25)
        assert spec.truncation_T is None
        assert ContourSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec

    def test_json_rejects_unknown(self):
        with pytest.raises(ValueError):
            ContourSpec.from_json_dict({"h": 0.5, "shape": "circle"})

    def test_default_contour_uses_gap(self):
        op = diag_operator([2, -2])
        assert default_contour(op).h == pytest.approx(1.0)


class TestIntegrateA:
    def test_diag_plus(self):
        op = diag_operator([1, -1])
        quad = integrate_A(op, "+", default_contour(op))
        assert spectral_norm(quad.value - np.diag([1.0, 0.0])) <= 1e-9
        assert quad.est_error <= 1e-7
        summary = quad.summary()
        assert set(summary) == {"tail_bound", "node_count", "est_error", "t_eff", "flags"}
        assert summary["tail_bound"] >= 0

    def test_block_n1_both_sides(self):
        op = dense_operator(block23(1))
        spec = default_contour(op)
        ap = integrate_A(op, "+", spec).value
        am = integrate_A(op, "-", spec).value
        assert np.abs(ap - a_plus_23(1)).max() <= 1e-9
        assert np.abs(am - a_minus_23(1)).max() <= 1e-9

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sum_is_inverse_square(self, seed):
        op = random_gap_operator(7, seed=seed)
        spec = default_contour(op)
        qp = integrate_A(op, "+", spec)
        qm = integrate_A(op, "-", spec)
        s_inv2 = np.linalg.solve(op.entries @ op.entries, np.eye(7))
        resid = spectral_norm(qp.value + qm.value - s_inv2)
        assert resid <= 10 * (qp.est_error + qm.est_error) + 1e-12

    def test_matches_oracle_projection(self):
        op = random_gap_operator(6, seed=9)
        quad = integrate_A(op, "+", default_contour(op))
        p_quad = op.entries @ op.entries @ quad.value
        assert spectral_norm(p_quad - oracle_projection(op).p_plus) <= 1e-6

    def test_h_too_close_to_gap(self):
        op = diag_operator([1, -1])
        with pytest.raises(NearSpectrumError):
            integrate_A(op, "+", ContourSpec(h=0.96))

    def test_tail_bound_halves_when_T_doubles(self):
        op = diag_operator([1, -1])
        spec1 = default_contour(op, truncation_T=1e6, tol=1e-4)
        spec2 = dataclasses.replace(spec1, truncation_T=2e6)
        t1 = integrate_A(op, "+", spec1).tail_bound
        t2 = integrate_A(op, "+", spec2).tail_bound
        assert t2 <= 0.51 * t1

    def test_increase_T_error(self):
        op = diag_operator([1, -1])
        spec = ContourSpec(h=0.5, truncation_T=5.0, tol=1e-8)
        with pytest.raises(TruncationError, match="increase T"):
            integrate_A(op, "+", spec)

    def test_node_escalation(self):
        op = dense_operator(block23(1))
        coarse = dataclasses.replace(default_contour(op), nodes_per_unit=2)
        quad = integrate_A(op, "+", coarse)
        assert quad.node_count > 0
        assert np.abs(quad.value - a_plus_23(1)).max() <= 1e-7

    def test_bad_side(self):
        op = diag_operator([1, -1])
        with pytest.raises(ValueError):
            integrate_A(op, "up", default_contour(op))


class TestIntegrateB:
    def test_diag_plus(self):
        op = diag_operator([1, -1])
        quad = integrate_B(op, "+", default_contour(op))
        assert spectral_norm(quad.value - np.diag([1.0, 0.0])) <= 1e-8

    def test_relation_to_A(self):
        # B_side = S A_side: the 1/lambda integral is S times the 1/lambda^2 one
        op = dense_operator(block23(1))
        spec = default_contour(op)
        for side in "+-":
            a = integrate_A(op, side, spec)
            b = integrate_B(op, side, spec)
            resid = spectral_norm(op.entries @ a.value - b.value)
            assert resid <= 10 * (a.est_error + b.est_error) + 1e-10

    def test_block_closed_form(self):
        # per-block B_+ = S^{-1} P_+ for the slow-decay family
        n, p = 1, 0.5
        block = np.array([[n, 2.0 * n ** (1 + p)], [0, -n]], dtype=complex)
        op = dense_operator(block)
        quad = integrate_B(op, "+", default_contour(op))
        expect = np.linalg.solve(block, oracle_projection(op).p_plus)
        assert spectral_norm(quad.value - expect) <= 1e-7

    def test_slow_decay_warning_then_truncation_error(self):
        # tiny truncation: T = 10 lies far below 2 ||S||, where the tail of
        # the slowly decaying integrand has no bound, so it is refused
        op = build_block_operator("almost-bisect-5.5", 40, {"p": 0.95})
        spec = ContourSpec(h=0.45, truncation_T=10.0)
        with pytest.raises(TruncationError):
            integrate_B(op, "+", spec)


PV_OPERATORS = {
    "dichotomy-2.3?N=10": lambda: build_block_operator("dichotomy-2.3", 10),
    "constant-diag?N=32": lambda: build_block_operator("constant-diag", 32),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "random(32, 7)": lambda: random_gap_operator(32, 7),
    "random(64, 7)": lambda: random_gap_operator(64, 7),
}


class TestPrincipalValue:
    def test_diag(self):
        op = diag_operator([1, -1])
        quad = pv_axis_integral(op, default_contour(op))
        assert spectral_norm(quad.value - np.diag([1.0, -1.0])) <= 1e-8
        assert "pv-nonconvergent" not in quad.flags

    def test_block_n1(self):
        op = dense_operator(block23(1))
        quad = pv_axis_integral(op, default_contour(op))
        expect = 2 * np.array([[1.0, 1.0], [0, 0]]) - np.eye(2)
        assert spectral_norm(quad.value - expect) <= 1e-8

    def test_almost_bisect_block(self):
        n, p = 2, 0.5
        block = np.array([[n, 2.0 * n ** (1 + p)], [0, -n]], dtype=complex)
        op = dense_operator(block)
        quad = pv_axis_integral(op, default_contour(op))
        expect = 2 * np.array([[1.0, np.sqrt(2)], [0, 0]]) - np.eye(2)
        assert spectral_norm(quad.value - expect) <= 1e-8

    def test_matches_projection_combination(self):
        op = random_gap_operator(8, seed=21)
        quad = pv_axis_integral(op, default_contour(op))
        expect = 2 * oracle_projection(op).p_plus - np.eye(8)
        assert spectral_norm(quad.value - expect) <= max(1e-6, 10 * quad.est_error)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("name", sorted(PV_OPERATORS))
    def test_error_estimate_covers_the_residual(self, name, tol):
        # the derived height keeps only the tail that the Richardson value
        # leaves, R S^2 / lambda^2, so est_error must still cover the residual
        op = PV_OPERATORS[name]()
        quad = pv_axis_integral(op, default_contour(op, tol=tol))
        expect = 2 * oracle_projection(op).p_plus - np.eye(op.dim)
        assert spectral_norm(quad.value - expect) <= quad.est_error

    def test_node_budget(self):
        # ||S|| = 711: a height held to the uncancelled c/T tail took 2016 nodes
        op = build_block_operator("almost-bisect-5.5", 50, {"p": 0.5})
        quad = pv_axis_integral(op, default_contour(op, tol=1e-8))
        assert quad.node_count <= 1400
        expect = 2 * oracle_projection(op).p_plus - np.eye(op.dim)
        assert spectral_norm(quad.value - expect) <= quad.est_error


class TestRMinus:
    def test_identity_diag(self):
        op = diag_operator([1, -1])
        spec = default_contour(op)
        a_m = integrate_A(op, "-", spec).value
        z = -2.0
        val = r_minus(op, z, spec)
        resid = spectral_norm(
            (op.entries - z * np.eye(2)) @ val - np.eye(2) + z**2 * a_m
        )
        assert resid <= 1e-8

    def test_identity_block(self):
        op = dense_operator(block23(1))
        spec = default_contour(op)
        a_m = integrate_A(op, "-", spec).value
        z = -3.0
        val = r_minus(op, z, spec)
        resid = spectral_norm(
            (op.entries - z * np.eye(2)) @ val - np.eye(2) + z**2 * a_m
        )
        assert resid <= 1e-6

    def test_acts_as_resolvent_on_plus_subspace(self):
        # on range(P_+) = ker(A_-) the operator R_-(z) inverts S - z
        op = diag_operator([1, -1])
        spec = default_contour(op)
        a_m = integrate_A(op, "-", spec).value
        z = -2.0
        val = r_minus(op, z, spec)
        e1 = np.array([1.0, 0.0])
        assert np.allclose(val @ e1, resolvent(op, z) @ e1, atol=1e-8)

    def test_pole_near_contour(self):
        op = diag_operator([1, -1])
        spec = default_contour(op)  # h = 0.5
        with pytest.raises(NearSpectrumError):
            r_minus(op, -0.5, spec)

    def test_wrong_halfplane(self):
        op = diag_operator([1, -1])
        spec = default_contour(op)
        with pytest.raises(NearSpectrumError):
            r_minus(op, 2.0, spec)


class TestContourShift:
    def test_dichotomy_family(self):
        op = build_block_operator("dichotomy-2.3", 3)
        assert contour_shift_check(op, 0.3, 0.7, "+") <= 1e-6

    def test_diag(self):
        op = diag_operator([1, -1])
        assert contour_shift_check(op, 0.1, 0.9, "+") <= 1e-8

    def test_mcintosh_yagi_block(self):
        op = build_block_operator("mcintosh-yagi", 1, {"Mconst": 10.0})
        assert contour_shift_check(op, 0.25, 0.5, "+") <= 1e-5


# ---------------------------------------------------------------------------
# the quadrature driver: shared lines, per-panel orders, the order cap
# ---------------------------------------------------------------------------


SHARED_LINE_OPERATORS = {
    "random(64, 7)": lambda: random_gap_operator(64, 7),
    "dichotomy-2.3?N=10": lambda: build_block_operator("dichotomy-2.3", 10),
}


@pytest.mark.parametrize("name", sorted(SHARED_LINE_OPERATORS))
def test_shared_line_matches_standalone_integrals(name):
    op = SHARED_LINE_OPERATORS[name]()
    spec = default_contour(op)
    z = -2.0 * spec.h
    shared = _side_integrals(op, "-", spec, ("A", "R"), z)
    alone = integrate_A(op, "-", spec)
    assert spectral_norm(shared["A"].value - alone.value) <= (
        shared["A"].est_error + alone.est_error
    )
    # r_minus meets its quadrature tolerance and its tail budget
    # tol * max(1, |z|^2), on the shared line and alone
    r_error = spec.tol + spec.tol * max(1.0, abs(z) ** 2)
    assert spectral_norm(shared["R"] - r_minus(op, z, spec)) <= 2.0 * r_error


def test_split_node_budget(monkeypatch):
    solved = []

    def counting_line_nodes(*args, **kwargs):
        out = line_nodes(*args, **kwargs)
        solved.append(out[0].size)
        return out

    monkeypatch.setattr(contour_module, "line_nodes", counting_line_nodes)
    split(random_gap_operator(64, 7))
    # two lines, each evaluated once for all of its integrals, and refined
    # only where a panel misses its share of the tolerance
    assert 0 < sum(solved) <= 8000


def test_derived_height_node_budget(monkeypatch):
    solved = []

    def counting_line_nodes(*args, **kwargs):
        out = line_nodes(*args, **kwargs)
        solved.append(out[0].size)
        return out

    monkeypatch.setattr(contour_module, "line_nodes", counting_line_nodes)
    op = random_gap_operator(64, 7)
    result = split(op)
    # each line stops at the first dyadic height where its tails meet their
    # targets (4352 solves at a fixed T = 1e10)
    assert 0 < sum(solved) <= 2600
    assert spectral_norm(result.p_plus - oracle_projection(op).p_plus) <= 1e-12


@pytest.mark.parametrize(
    "op",
    [
        random_gap_operator(16, 7),
        random_gap_operator(32, 7),
        random_gap_operator(48, 7),
        build_block_operator("mcintosh-yagi", 1),
    ],
    ids=["random(16, 7)", "random(32, 7)", "random(48, 7)", "mcintosh-yagi?N=1"],
)
def test_derived_height_agrees_with_the_oracle(op):
    # a tail of A held only to tol would leave P = S^2 A above the rank
    # cutoff on mcintosh-yagi (ranks 9, 9 against 8, 8)
    result = split(op)
    assert result.t_eff_plus > 0 and result.t_eff_minus > 0
    assert spectral_norm(result.p_plus - oracle_projection(op).p_plus) <= 1e-12


def test_tolerance_below_rounding_hits_order_cap():
    op = dense_operator(block23(1))
    spec = dataclasses.replace(default_contour(op), tol=1e-20)
    with pytest.raises(QuadratureError, match="1024 nodes per panel"):
        integrate_A(op, "+", spec)


@pytest.mark.parametrize(
    "op, with_b",
    [
        (random_gap_operator(16, 7), False),
        (build_block_operator("dichotomy-2.3", 10), True),
    ],
    ids=["random(16, 7)", "dichotomy-2.3?N=10 with_b"],
)
def test_split_payload_cold_copy_is_byte_identical(op, with_b):
    def payload(result):
        arrays = [result.p_plus, result.p_minus, result.a_plus, result.a_minus]
        if with_b:
            arrays += [result.b_plus, result.b_minus]
        return json.dumps(result.to_json_dict()), [a.tobytes() for a in arrays]

    split(op, with_b=with_b)  # fills the operator's caches
    warm = payload(split(op, with_b=with_b))
    cold = payload(split(Operator(entries=op.entries, family_tag=op.family_tag), with_b=with_b))
    assert warm == cold


# ---------------------------------------------------------------------------
# the tail rule: Neumann bounds, a fitted stand-in below T = 2 ||S||
# ---------------------------------------------------------------------------


TAIL_OPERATORS = {
    "random(8, 3)": lambda: random_gap_operator(8, 3),
    "dichotomy-2.3?N=3": lambda: build_block_operator("dichotomy-2.3", 3),
}


@pytest.mark.parametrize("t_over_norm", [10.0, 100.0])
@pytest.mark.parametrize("name", sorted(TAIL_OPERATORS))
def test_error_estimate_covers_the_true_error(name, t_over_norm):
    # at a short truncation the tail dominates, so est_error stands or falls
    # with the Neumann bound
    op = TAIL_OPERATORS[name]()
    spec = default_contour(op, truncation_T=t_over_norm * operator_norm(op), tol=1e-2)
    p_plus = oracle_projection(op).p_plus
    s = op.entries
    for quad, expect in (
        (integrate_A(op, "+", spec), np.linalg.solve(s @ s, p_plus)),
        (integrate_B(op, "+", spec), np.linalg.solve(s, p_plus)),
        (pv_axis_integral(op, spec), 2.0 * p_plus - np.eye(op.dim)),
    ):
        assert "tail-heuristic" not in quad.flags
        assert spectral_norm(quad.value - expect) <= quad.est_error


def test_fitted_tail_only_below_twice_the_norm():
    op = build_block_operator("dichotomy-2.3", 10)  # ||S|| ~ 200
    with pytest.raises(TruncationError, match="increase T"):
        integrate_A(op, "+", default_contour(op, truncation_T=100.0, tol=1e-2))
    long = integrate_A(op, "+", default_contour(op, truncation_T=1e4, tol=1e-2))
    assert "tail-heuristic" not in long.flags


def test_pair_tail_bound_covers_the_truncation_error():
    # R_S - R_T = R_S (T - S) R_T: the Neumann bound of both resolvents and
    # |T - S| bound the omitted tail of the projection-difference integral
    s_op = build_block_operator("dichotomy-2.3", 3)
    rng = np.random.default_rng(0)
    r = 0.1 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    t_op = Operator(entries=s_op.entries + r)
    expect = oracle_projection(s_op).p_plus - oracle_projection(t_op).p_plus
    h = 0.5 * min(spectrum(s_op).min_abs_real, spectrum(t_op).min_abs_real)
    top = max(operator_norm(s_op), operator_norm(t_op))
    for t_over_norm in (10.0, 100.0):
        spec = ContourSpec(h=h, truncation_T=t_over_norm * top, tol=1e-2)
        _, t_eff = contour_module._line_panels(h, spec.truncation_T)
        tail = contour_module._neumann_tail((s_op, t_op), t_eff, 1.0, 0)
        assert spectral_norm(projection_diff_integral(s_op, t_op, spec) - expect) <= tail
    # below T = 2 max ||.|| the tail has no bound, so the integral is refused
    spec = ContourSpec(h=h, truncation_T=10.0, tol=1e-1)
    with pytest.raises(TruncationError, match="increase T"):
        projection_diff_integral(s_op, t_op, spec)


def test_dense_dim_160_splits():
    # the fitted envelopes of the line's near field rejected this operator
    # with "tail bound 6.58e-08 exceeds tol"
    op = random_gap_operator(160, 7)
    result = split(op)
    assert result.passes(1e-6)
    assert spectral_norm(result.p_plus - oracle_projection(op).p_plus) <= 1e-6


# ---------------------------------------------------------------------------
# spectral clearance: one strip check per line, distances to the spectrum
# ---------------------------------------------------------------------------


def test_nodes_keep_the_strip_margin(monkeypatch):
    # h <= 0.95 * gap is the only check in front of the solves: every node on
    # Re lambda = +-h then stays at least 0.05 * gap from the spectrum
    solved = []

    def recording_line_nodes(*args, **kwargs):
        out = line_nodes(*args, **kwargs)
        solved.append(out[0])
        return out

    monkeypatch.setattr(contour_module, "line_nodes", recording_line_nodes)
    op = random_gap_operator(16, 7)
    gap = spectrum(op).min_abs_real
    h = 0.95 * gap
    split(op, ContourSpec(h=h))
    t = np.concatenate(solved)
    lams = np.concatenate([h + 1j * t, -h + 1j * t])
    dist, _ = _spectrum_distance((op,), lams)
    assert dist.min() >= 0.05 * gap * (1.0 - 1e-12)


def test_spectrum_distance_matches_brute_force_on_a_pair():
    s_op, t_op = random_gap_operator(6, 1), random_gap_operator(5, 2)
    rng = np.random.default_rng(3)
    lams = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
    ev = np.concatenate([spectrum(s_op).eigenvalues, spectrum(t_op).eigenvalues])
    brute = np.abs(lams[:, None] - ev[None, :])
    dist, nearest = _spectrum_distance((s_op, t_op), lams)
    assert np.array_equal(dist, brute.min(axis=1))
    assert np.array_equal(nearest, ev[brute.argmin(axis=1)])


def test_log_log_fit_recovers_power_law():
    abs_lams = np.logspace(0, 4, 30)
    beta, m = 0.75, 3.0
    norms = m * abs_lams**-beta
    fit_beta, log_m, log_m_env, resid = _log_log_fit(abs_lams, norms)
    assert fit_beta == pytest.approx(beta, rel=1e-12)
    assert np.exp(log_m) == pytest.approx(m, rel=1e-12)
    assert resid <= 1e-12
    # the envelope lies on or above every sample
    assert np.all(np.exp(log_m_env) * abs_lams**-fit_beta >= norms * (1.0 - 1e-12))
    # with noise the envelope still covers every sample
    noisy = norms * np.exp(np.random.default_rng(0).normal(0.0, 0.1, abs_lams.size))
    fit_beta, _, log_m_env, _ = _log_log_fit(abs_lams, noisy)
    assert np.all(log_m_env - fit_beta * np.log(abs_lams) >= np.log(noisy) - 1e-12)


ZERO_GAP = diag_operator([1j, -1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: default_contour(ZERO_GAP),
        lambda: choose_h(ZERO_GAP, 0.5),
        lambda: split(ZERO_GAP, ContourSpec(h=0.5)),
        lambda: pv_axis_integral(ZERO_GAP, ContourSpec(h=0.5)),
        lambda: projection_diff_integral(diag_operator([1.0, -1.0]), ZERO_GAP),
        lambda: projection_diff_integral(
            diag_operator([1.0, -1.0]), ZERO_GAP, ContourSpec(h=0.5)
        ),
    ],
    ids=[
        "default_contour",
        "choose_h",
        "split",
        "pv_axis_integral",
        "projection_diff_integral",
        "projection_diff_integral with spec",
    ],
)
def test_zero_gap_refused(call):
    with pytest.raises(NearSpectrumError, match="gap to the imaginary axis is zero"):
        call()
