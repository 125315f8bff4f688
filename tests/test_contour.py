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
from specsplit.analysis import _log_log_fit
from specsplit.contour import (
    _ESTIMATE_RATIO,
    _GAUSS_WEIGHTS,
    _NEUMANN_TERMS,
    _NODES,
    _WEIGHTS,
    _line_panels,
    _neumann_tail,
    _side_integrals,
    _weight,
    line_nodes,
)
from specsplit.operators import _Kernel, _spectrum_distance, _stack_norms, operator_norm
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
            ContourSpec(h=0.5, tol=0.0)

    @pytest.mark.parametrize("field", ["h", "tol"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ContourSpec(**{"h": 0.5, field: value})

    def test_default_contour_uses_gap(self):
        op = diag_operator([2, -2])
        assert default_contour(op).h == pytest.approx(1.0)

    def test_default_contour_of_a_pair_takes_the_smaller_gap(self):
        s_op = build_block_operator("dichotomy-2.3", 4)
        t_op = diag_operator([0.6, -3.0, 2.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        gap = min(spectrum(s_op).min_abs_real, spectrum(t_op).min_abs_real)
        assert default_contour(s_op, t_op).h == 0.5 * gap == 0.3
        assert default_contour(s_op, t_op, tol=1e-6).tol == 1e-6


class TestIntegrateA:
    def test_diag_plus(self):
        op = diag_operator([1, -1])
        quad = integrate_A(op, "+", default_contour(op))
        assert spectral_norm(quad.value - np.diag([1.0, 0.0])) <= 1e-9
        assert quad.est_error <= 1e-7
        summary = quad.summary()
        assert set(summary) == {"tail_bound", "node_count", "est_error", "t_eff"}
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
        t1, t2 = _neumann_tail(operator_norm(op), np.array([1e6, 2e6]), 1.0, 2)
        assert t2 <= 0.51 * t1

    def test_node_escalation(self, monkeypatch):
        passes = []

        def recording_line_nodes(*args, **kwargs):
            passes.append(args[3])
            return line_nodes(*args, **kwargs)

        monkeypatch.setattr(contour_module, "line_nodes", recording_line_nodes)
        op = random_gap_operator(8, 3)
        quad = integrate_A(op, "+", default_contour(op))
        assert len(passes) > 1
        p_plus = op.entries @ op.entries @ quad.value
        assert spectral_norm(p_plus - oracle_projection(op).p_plus) <= 1e-12

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
        # the derived height keeps only the remainder R (S/lambda)^K of the
        # exactly integrated Neumann polynomial, so est_error must still cover
        # the residual
        op = PV_OPERATORS[name]()
        quad = pv_axis_integral(op, default_contour(op, tol=tol))
        expect = 2 * oracle_projection(op).p_plus - np.eye(op.dim)
        assert spectral_norm(quad.value - expect) <= quad.est_error

    def test_node_budget(self):
        # ||S|| = 711: a height held to the uncancelled c/T tail took 2016
        # nodes, and one held to the R S^2 / lambda^2 tail 690
        op = build_block_operator("almost-bisect-5.5", 50, {"p": 0.5})
        quad = pv_axis_integral(op, default_contour(op, tol=1e-8))
        assert quad.node_count <= 400
        expect = 2 * oracle_projection(op).p_plus - np.eye(op.dim)
        assert spectral_norm(quad.value - expect) <= quad.est_error


    @pytest.mark.parametrize("name", sorted(PV_OPERATORS))
    def test_tail_bound_is_the_neumann_bound_at_t_eff(self, name):
        # beyond T only the remainder 2 R (S/lambda)^K of the Neumann
        # polynomial is left, on both halves of the axis
        op = PV_OPERATORS[name]()
        quad = pv_axis_integral(op, default_contour(op))
        k = _NEUMANN_TERMS
        tail = _neumann_tail(operator_norm(op), quad.t_eff, 2.0 * operator_norm(op) ** k, k)
        assert quad.tail_bound == pytest.approx(float(tail), rel=1e-12)


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


def haar_rotated(op):
    """U S U^H for a Haar-random unitary U: a complex operator with the
    spectrum of ``op``, and U."""
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(rng.standard_normal((op.dim,) * 2) + 1j * rng.standard_normal((op.dim,) * 2))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return Operator(entries=u @ op.entries @ u.conj().T), u


REAL_OPERATORS = {
    "almost-bisect N=50": lambda: build_block_operator("almost-bisect-5.5", 50, {"p": 0.5}),
    "dichotomy-2.3?N=10": lambda: build_block_operator("dichotomy-2.3", 10),
}
REAL_WEIGHT_INTEGRALS = {
    "integrate_A": lambda op, spec: integrate_A(op, "+", spec),
    "r_minus": lambda op, spec: _side_integrals(op, "-", spec, ("R",), -2.0 * spec.h)["R"],
    "pv_axis_integral": pv_axis_integral,
}


@pytest.mark.parametrize("integral", sorted(REAL_WEIGHT_INTEGRALS))
@pytest.mark.parametrize("name", sorted(REAL_OPERATORS))
def test_real_operator_solves_half_the_line(name, integral):
    # the half line theta >= 0 of a real operator against the whole line of
    # its complex rotation, which is not folded
    op = REAL_OPERATORS[name]()
    rotated, u = haar_rotated(op)
    spec = default_contour(op)
    half, whole = (REAL_WEIGHT_INTEGRALS[integral](o, spec) for o in (op, rotated))
    assert 2 * half.node_count == whole.node_count
    assert spectral_norm(u.conj().T @ whole.value @ u - half.value) <= half.est_error + whole.est_error


@pytest.mark.parametrize("name", sorted(REAL_OPERATORS))
def test_complex_pole_keeps_the_whole_line(name):
    op = REAL_OPERATORS[name]()
    spec = default_contour(op)
    z = -2.0 * spec.h + 0.5j
    line = _side_integrals(op, "-", spec, ("A", "R"), z)
    rotated = _side_integrals(haar_rotated(op)[0], "-", spec, ("A", "R"), z)
    assert line["R"].node_count == rotated["R"].node_count
    resid = spectral_norm((op.entries - z * np.eye(op.dim)) @ line["R"].value
                          - np.eye(op.dim) + z**2 * line["A"].value)
    assert resid <= spec.tol


class TestContourShift:
    # by Cauchy's theorem A_+ does not depend on the abscissa h while the
    # strip stays in the resolvent set

    @staticmethod
    def shift(op, h1, h2):
        a1, a2 = (integrate_A(op, "+", ContourSpec(h=h)).value for h in (h1, h2))
        return spectral_norm(a1 - a2)

    def test_dichotomy_family(self):
        op = build_block_operator("dichotomy-2.3", 3)
        assert self.shift(op, 0.3, 0.7) <= 1e-6

    def test_diag(self):
        op = diag_operator([1, -1])
        assert self.shift(op, 0.1, 0.9) <= 1e-8

    def test_mcintosh_yagi_block(self):
        op = build_block_operator("mcintosh-yagi", 1, {"Mconst": 10.0})
        assert self.shift(op, 0.25, 0.5) <= 1e-5


# ---------------------------------------------------------------------------
# the quadrature driver: the rule, shared lines, bisection, the bisection cap
# ---------------------------------------------------------------------------


def test_kronrod_rule_exactness():
    # the 15-point rule integrates x^d exactly for d <= 22 = 3*7 + 1 and the
    # embedded 7-point Gauss rule for d <= 13, on [-1, 1]; the weights alone
    # give d <= 14, so a mistyped abscissa fails the even degrees 16 to 22
    # (from about its 12th digit on, at this tolerance)
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(_WEIGHTS @ _NODES**d - exact) <= 1e-15
        if d <= 13:
            assert abs(_GAUSS_WEIGHTS @ _NODES**d - exact) <= 1e-15
    assert np.count_nonzero(_GAUSS_WEIGHTS) == 7


def test_weight_matches_the_closed_forms():
    # each integral is described once, as (c, k, poles); its weight follows
    lams = np.array([0.5 + 0.25j, -0.5 - 3.0j, 0.1 + 1e6j])
    z = -1.5 + 0j
    for (c, k, poles), closed in (
        ((-1.0, 2, ()), lambda lam: -1.0 / lam**2),  # A_-
        ((1.0, 1, ()), lambda lam: 1.0 / lam),  # B_+
        ((z**2, 2, (z,)), lambda lam: z**2 / (lam**2 * (lam - z))),  # R_-(z)
        ((2.0, 0, ()), lambda lam: np.full(lam.shape, 2.0)),  # the principal value
        ((1.0, 0, ()), lambda lam: np.ones(lam.shape)),  # a pair's difference
    ):
        np.testing.assert_allclose(_weight(c, k, poles)(lams), closed(lams), rtol=1e-15, atol=0)


@pytest.mark.parametrize("x0, t_eff", [(0.5, 10.0), (-0.25, 4.0), (0.0, 32.0), (-1.0, 2.0**20)])
def test_far_moments_match_the_closed_form(x0, t_eff):
    # the integral of lambda^{-n} over |t| > T, n = k + 1 + j for the weight
    # lambda^{-j}, is ((x0 + iT)^{1-n} - (x0 - iT)^{1-n}) / (i (n - 1))
    weights = [_weight(1.0, j, ()) for j in (1, 2, 3)]
    mu = contour_module._far_moments(weights, x0, t_eff)
    k = np.arange(_NEUMANN_TERMS)
    for j, row in zip((1, 2, 3), mu):
        n = k + 1 + j
        exact = ((x0 + 1j * t_eff) ** (1.0 - n) - (x0 - 1j * t_eff) ** (1.0 - n)) / (1j * (n - 1))
        got = 2.0 * np.pi * row / t_eff**k
        # relative to the integral of |lambda|^{-n}: the two terms of the
        # closed form cancel to zero on the axis at odd n, and nearly so
        # elsewhere, where it is itself exact only to that scale
        scale = 2.0 * np.abs(x0 + 1j * t_eff) ** (1.0 - n) / (n - 1)
        assert np.all(np.abs(got - exact) <= 1e-14 * scale)
    assert sorted({n for j in (1, 2, 3) for n in k + 1 + j}) == list(range(2, 28))


@pytest.mark.parametrize("x0", [1.0, -1.0])
def test_far_moments_of_r_minus_at_the_contract_edge(x0):
    # T = 10 |x0| = 2 |z| puts the nearest singularity of the u-integrand at
    # |u| = 5/3; the moments against a 40-digit reference
    import mpmath
    t_eff, z = 10.0, -5.0
    mu = contour_module._far_moments([_weight(z**2, 2, (z,))], x0, t_eff)[0]
    exact = []
    with mpmath.workdps(40):
        for k in range(_NEUMANN_TERMS):

            def integrand(u, k=k):
                lams = [mpmath.mpc(x0, sign * t_eff / u) for sign in (1, -1)]
                return sum(z**2 / (lam**2 * (lam - z)) * (t_eff / lam) ** (k + 1) for lam in lams) / u**2

            exact.append(complex(mpmath.quad(integrand, [0, 0.5, 1]) / (2 * mpmath.pi)))
    exact = np.array(exact)
    assert np.abs(mu - exact).max() <= 1e-15 * np.abs(exact).max()


def test_each_pass_solves_the_halves_of_open_panels(monkeypatch):
    passes = []

    def recording_line_nodes(*args, **kwargs):
        passes.append(args[3])
        return line_nodes(*args, **kwargs)

    monkeypatch.setattr(contour_module, "line_nodes", recording_line_nodes)
    op = random_gap_operator(64, 7)
    spec = default_contour(op)
    quad = integrate_A(op, "+", spec)
    assert len(passes) > 1
    edges, _ = _line_panels(spec.h, quad.t_eff)
    assert np.array_equal(passes[0][0], edges[:-1]) and np.array_equal(passes[0][1], edges[1:])
    kernel = _Kernel((op,))
    for (lo, hi), (next_lo, next_hi) in zip(passes, passes[1:]):
        # the open panels: Kronrod-minus-Gauss estimate above the panel's share
        t, w, _ = line_nodes(spec.h, quad.t_eff, 15, (lo, hi))
        lams = spec.h + 1j * t
        coefs = w / lams**2 / (2.0 * np.pi) * np.tile(_ESTIMATE_RATIO, lo.size)
        fro = _stack_norms(kernel.sums(lams, [coefs], 15), spectral=False)[0]
        is_open = fro > spec.tol * (hi - lo) / (edges[-1] - edges[0])
        # consecutive pairs are the two halves of one open panel of the last pass
        assert np.array_equal(next_lo[::2], lo[is_open]) and np.array_equal(next_hi[1::2], hi[is_open])
        assert np.array_equal(next_hi[::2], next_lo[1::2])
        assert np.array_equal(next_hi[::2], 0.5 * (lo + hi)[is_open])
    assert quad.node_count == 15 * sum(lo.size for lo, _ in passes)


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
    alone = {"A": integrate_A(op, "-", spec), "R": _side_integrals(op, "-", spec, ("R",), z)["R"]}
    for kind in ("A", "R"):
        assert spectral_norm(shared[kind].value - alone[kind].value) <= (
            shared[kind].est_error + alone[kind].est_error
        )


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
    assert 0 < sum(solved) <= 1300


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
    # targets (4352 solves at a fixed T = 1e10, 2520 at the height of the bare
    # Neumann tails, without the exact far field)
    assert 0 < sum(solved) <= 1300
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


HEIGHT_OPERATORS = {
    "diag(1, -1)": lambda: diag_operator([1.0, -1.0]),
    "dichotomy-2.3?N=10": lambda: build_block_operator("dichotomy-2.3", 10),
    "mcintosh-yagi?N=1": lambda: build_block_operator("mcintosh-yagi", 1),
    "random(16, 7)": lambda: random_gap_operator(16, 7),
    "random(64, 7)": lambda: random_gap_operator(64, 7),
}


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8])
@pytest.mark.parametrize("name", sorted(HEIGHT_OPERATORS))
def test_every_remainder_meets_tol_at_the_floor_height(name, tol):
    # every height is at least 2 max(||S||, |z|), z = -2h the pole of
    # R_-(z); there A's remainder is 2 / (26 pi 2^26 ||S||^2) = 3.65e-10 /
    # ||S||^2 and those of B and R_- are below 1e-9, so for ||S|| >= 1 one
    # target, tol, is met at the first height with a finite bound, as the
    # targets scaled for P = S^2 A and (S - z) R_-(z) were
    op = HEIGHT_OPERATORS[name]()
    spec = default_contour(op, tol=tol)
    floor = max(10.0 * spec.h, 2.0 * max(operator_norm(op), 2.0 * spec.h))
    height = spec.h
    while height < floor:
        height *= 2.0
    result = split(op, spec, with_b=True)
    assert result.t_eff_plus == result.t_eff_minus == height


def test_tolerance_below_rounding_hits_order_cap():
    op = dense_operator(block23(1))
    spec = dataclasses.replace(default_contour(op), tol=1e-20)
    with pytest.raises(QuadratureError, match="after 6 bisections"):
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
# the tail rule: Neumann bounds at a height derived from tol
# ---------------------------------------------------------------------------


TAIL_OPERATORS = {
    "random(8, 3)": lambda: random_gap_operator(8, 3),
    "dichotomy-2.3?N=3": lambda: build_block_operator("dichotomy-2.3", 3),
}


@pytest.mark.parametrize("tol", [1e-2, 1e-4])
@pytest.mark.parametrize("name", sorted(TAIL_OPERATORS))
def test_error_estimate_covers_the_true_error(name, tol):
    # at a loose tol the derived height is short and the tail dominates, so
    # est_error stands or falls with the Neumann bound
    op = TAIL_OPERATORS[name]()
    spec = default_contour(op, tol=tol)
    p_plus = oracle_projection(op).p_plus
    s = op.entries
    for quad, expect in (
        (integrate_A(op, "+", spec), np.linalg.solve(s @ s, p_plus)),
        (integrate_B(op, "+", spec), np.linalg.solve(s, p_plus)),
        (pv_axis_integral(op, spec), 2.0 * p_plus - np.eye(op.dim)),
    ):
        assert spectral_norm(quad.value - expect) <= quad.est_error


def test_pair_tail_bound_covers_the_truncation_error():
    # R_S - R_T = R_S (T - S) R_T: the Neumann bound of both resolvents and
    # |T - S| bound the omitted tail of the projection-difference integral,
    # which the derived height holds to tol
    s_op = build_block_operator("dichotomy-2.3", 3)
    rng = np.random.default_rng(0)
    r = 0.1 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    t_op = Operator(entries=s_op.entries + r)
    expect = oracle_projection(s_op).p_plus - oracle_projection(t_op).p_plus
    h = 0.5 * min(spectrum(s_op).min_abs_real, spectrum(t_op).min_abs_real)
    for tol in (1e-2, 1e-4):
        got = projection_diff_integral(s_op, t_op, ContourSpec(h=h, tol=tol))
        assert spectral_norm(got - expect) <= 2.0 * tol


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
    fit_beta, log_m, resid = _log_log_fit(abs_lams, norms)
    assert fit_beta == pytest.approx(beta, rel=1e-12)
    assert np.exp(log_m) == pytest.approx(m, rel=1e-12)
    assert resid <= 1e-12


@pytest.mark.parametrize("abs_lams", [[], [10.0], [10.0, 10.0], [20.0, 20.0, 20.0]])
def test_log_log_fit_needs_two_radii(abs_lams):
    # one radius fixes no slope: lstsq's minimum-norm answer is no fit
    abs_lams = np.array(abs_lams)
    assert np.isnan(_log_log_fit(abs_lams, np.full(abs_lams.shape, 0.5))).all()


GAP_ONE = diag_operator([1.0, -1.0])
TOO_WIDE = ContourSpec(h=0.96)


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_A(GAP_ONE, "+", TOO_WIDE),
        lambda: r_minus(GAP_ONE, -3.0, TOO_WIDE),
        lambda: split(GAP_ONE, TOO_WIDE),
        lambda: projection_diff_integral(GAP_ONE, diag_operator([2.0, -1.0]), TOO_WIDE),
    ],
    ids=["integrate_A", "r_minus", "split", "projection_diff_integral"],
)
def test_line_beyond_the_strip_refused(call):
    # every line is checked by the quadrature driver before any node is solved
    with pytest.raises(NearSpectrumError, match="exceeds 0.95"):
        call()


def test_projection_diff_integral_defaults_to_default_contour():
    s_op = build_block_operator("almost-bisect-5.5", 4, {"p": 0.5})
    rng = np.random.default_rng(5)
    t_op = dense_operator(s_op.entries + 0.05 * rng.standard_normal((s_op.dim, s_op.dim)))
    spec = default_contour(s_op, t_op)
    assert spec.h < 0.5 * spectrum(s_op).min_abs_real  # the pair's gap is T's
    assert np.array_equal(
        projection_diff_integral(s_op, t_op), projection_diff_integral(s_op, t_op, spec)
    )


ZERO_GAP = diag_operator([1j, -1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: default_contour(ZERO_GAP),
        lambda: split(ZERO_GAP, ContourSpec(h=0.5)),
        lambda: pv_axis_integral(ZERO_GAP, ContourSpec(h=0.5)),
        lambda: projection_diff_integral(diag_operator([1.0, -1.0]), ZERO_GAP),
        lambda: projection_diff_integral(
            diag_operator([1.0, -1.0]), ZERO_GAP, ContourSpec(h=0.5)
        ),
        lambda: oracle_projection(ZERO_GAP),
    ],
    ids=[
        "default_contour",
        "split",
        "pv_axis_integral",
        "projection_diff_integral",
        "projection_diff_integral with spec",
        "oracle_projection",
    ],
)
def test_zero_gap_refused(call):
    with pytest.raises(NearSpectrumError, match="gap to the imaginary axis is zero"):
        call()


def test_far_field_overflow_named():
    # ||S||^24 = 1e312 leaves the float range, so no height has a finite
    # remainder bound; the refusal names the norm and the power
    op = diag_operator([1e13, -1.0])
    message = r"\|\|S\|\| = 1\.000e\+13, whose 24th power leaves the float range"
    with pytest.raises(TruncationError, match=message):
        integrate_A(op, "+", default_contour(op))
