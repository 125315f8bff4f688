"""Built-in operator families with their quantitative reproduction facts.

Each corpus case bundles a deterministically generated operator with a list
of checkable facts: closed-form block values the quadrature must reproduce,
supremum and decay bounds of the resolvent on the imaginary axis, the bounds
off the axis that these imply (the restricted resolvents on the opposite
half-planes, the parabola-shaped region in the resolvent set), Sylvester
identities of the Toeplitz-coupled dyadic family, and growth statements for
the projection norms.  ``run_case`` executes the checkers under a budget
(tolerances plus size caps) and collects a pass/fail report per fact.

Each fact carries a provenance label: ``trivial`` facts are immediate from
the construction, ``derived`` ones were computed here with an independent
method (enumeration, direct linear algebra), and ``stated`` ones are the
documented headline claims of the family being reproduced.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .analysis import (
    SplitResult,
    _fit_window,
    axis_grid,
    opposite_halfplane_grid,
    pair_identity_residuals,
    projection_pair_residuals,
    resolvent_sweep,
    split,
)
from .contour import default_contour, integrate_A
from .errors import OperatorError
from .operators import (
    _MACHINE_EPS,
    Operator,
    build_block_operator,
    dense_operator,
    eigenvalues_of,
    mcintosh_yagi_parts,
    mcintosh_yagi_pick_n,
    operator_norm,
    oracle_projection,
    resolvent_norms,
    spectral_norm,
)

__all__ = [
    "Budget",
    "Fact",
    "FactResult",
    "CorpusCase",
    "CaseReport",
    "corpus_unbproj",
    "corpus_almbisect",
    "corpus_mcintosh_yagi",
    "sylvester_diag_solve",
    "run_case",
    "case_names",
    "make_case",
    "dichotomy_block_forms",
    "almost_bisect_block_projections",
    "mixed_choice_pair",
]

_ORACLE_TOL = 1e-8
_BETA_TOL = 0.05
# Quadrature-based facts are skipped above this operator norm (and above
# ``Budget.max_quad_dim``): multiplying the integral by S^2 amplifies float
# error by ||S||^2, so P-level checks at ||S||^2 * eps above the identity
# tolerance are mathematically out of reach in double precision, not merely
# slow.
_MAX_QUAD_NORM = 1e4


@dataclass(frozen=True)
class Budget:
    """Tolerance and size limits for a corpus run."""

    identity_tol: float = 1e-6
    max_quad_dim: int = 200
    per_decade: int = 64

    def __post_init__(self):
        if not self.identity_tol > 0:
            raise ValueError(f"identity tolerance must be > 0, got {self.identity_tol}")
        if not self.max_quad_dim >= 0:
            raise ValueError(f"quadrature dimension budget must be >= 0, got {self.max_quad_dim}")
        axis_grid(per_decade=self.per_decade)  # the grid of every sweep fact: per_decade >= 1


class BudgetExceeded(Exception):
    """Internal signal: a fact was skipped because the budget excludes it."""


@dataclass(frozen=True)
class FactResult:
    name: str
    provenance: str
    passed: bool
    skipped: bool
    measured: float | None
    expected: str
    detail: str = ""

    to_json_dict = asdict


@dataclass(frozen=True)
class Fact:
    name: str
    provenance: str
    expected: str
    checker: Callable[[Budget], tuple[bool, float | None, str]]

    def run(self, budget: Budget) -> FactResult:
        try:
            passed, measured, detail = self.checker(budget)
            skipped = False
        except BudgetExceeded as exc:
            passed, measured, detail, skipped = True, None, str(exc), True
        return FactResult(
            name=self.name,
            provenance=self.provenance,
            passed=bool(passed),
            skipped=skipped,
            measured=None if measured is None else float(measured),
            expected=self.expected,
            detail=detail,
        )


@dataclass(frozen=True)
class CorpusCase:
    name: str
    params: dict
    operator: Operator
    facts: tuple[Fact, ...]


@dataclass(frozen=True)
class CaseReport:
    case: str
    params: dict
    facts: tuple[FactResult, ...]
    all_passed: bool
    incomplete: bool

    to_json_dict = asdict


def run_case(case: CorpusCase, budget: Budget | None = None) -> CaseReport:
    """Execute every fact checker of a case under the budget."""
    budget = budget or Budget()
    results = tuple(fact.run(budget) for fact in case.facts)
    return CaseReport(
        case=case.name,
        params=dict(case.params),
        facts=results,
        all_passed=all(r.passed for r in results),
        incomplete=any(r.skipped for r in results),
    )


def _guard_quadrature(op: Operator, budget: Budget):
    if op.dim > budget.max_quad_dim:
        raise BudgetExceeded(
            f"dim {op.dim} above quadrature budget {budget.max_quad_dim}"
        )
    if operator_norm(op) > _MAX_QUAD_NORM:
        raise BudgetExceeded(
            f"operator norm {operator_norm(op):.3g} above quadrature budget "
            f"{_MAX_QUAD_NORM:.3g} (||S||^2 * eps exceeds the tolerance)"
        )


# ---------------------------------------------------------------------------
# resolvent bounds off the axis
# ---------------------------------------------------------------------------


def _restricted_max(result: SplitResult, side: str, beta: float) -> float:
    """The largest |lambda|^beta ||(S|G_side - lambda)^{-1}|| over
    ``opposite_halfplane_grid(side)``, the closed half-plane on which the
    restriction of a dichotomous S has a bounded resolvent."""
    restricted = result.restricted_plus if side == "+" else result.restricted_minus
    grid = opposite_halfplane_grid(side)
    return float((np.abs(grid) ** beta * resolvent_norms(Operator(entries=restricted), grid)).max())


def _parabola_ratio(op: Operator, beta: float, m: float) -> tuple[int, float]:
    """The parabola region |Re lambda| <= alpha |Im lambda|^beta, alpha =
    1/(2M), that the axis bound ||R(it)|| <= M/|t|^beta keeps in the
    resolvent set: a Neumann series about i Im lambda gives ||R(lambda)|| <=
    M/((1 - alpha M)|Im lambda|^beta) = 2M/|Im lambda|^beta there.  Returns
    the number of eigenvalues in the region and the largest ratio of
    ||R(lambda)|| to that bound over 200 points half way to its edge: 50
    heights |Im lambda| from 1e-1 to 1e3 in each quadrant, so that a real
    operator solves each conjugate pair once."""
    alpha = 0.5 / m
    im = np.logspace(-1.0, 3.0, 50)
    z = 0.5 * alpha * im**beta + 1j * im
    grid = np.concatenate([z, -z, z.conj(), -z.conj()])
    ev = eigenvalues_of(op)
    inside = int(np.sum(np.abs(ev.real) <= alpha * np.abs(ev.imag) ** beta))
    bound = 2.0 * m / np.abs(grid.imag) ** beta
    return inside, float((resolvent_norms(op, grid) / bound).max())


# ---------------------------------------------------------------------------
# closed forms for the 2x2 block families
# ---------------------------------------------------------------------------


def dichotomy_block_forms(n: int) -> dict:
    """Closed forms for the n-th block of the unbounded-projection family."""
    n = float(n)
    return {
        "S": np.array([[n, 2 * n * n], [0, -n]], dtype=complex),
        "S_inv": np.array([[1 / n, 2], [0, -1 / n]], dtype=complex),
        "A_plus": np.array([[n**-2, 1 / n], [0, 0]], dtype=complex),
        "A_minus": np.array([[0, -1 / n], [0, n**-2]], dtype=complex),
        "P_plus": np.array([[1, n], [0, 0]], dtype=complex),
        "P_minus": np.array([[0, -n], [0, 1]], dtype=complex),
    }


def almost_bisect_block_projections(n: int, p: float) -> dict:
    """Half-plane projections of the n-th block of the slow-decay family."""
    w = float(n) ** p
    return {
        "P_plus": np.array([[1, w], [0, 0]], dtype=complex),
        "P_minus": np.array([[0, -w], [0, 1]], dtype=complex),
    }


def _per_block_error(op: Operator, full: np.ndarray, block_form) -> float:
    worst = 0.0
    for idx, sl in enumerate(op.family_tag.block_slices(), start=1):
        worst = max(worst, float(np.abs(full[sl, sl] - block_form(idx)).max()))
    return worst


def mixed_choice_pair(n_blocks: int, lambda_set) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pair (A_1, A_2) choosing the plus block integral for
    indices in ``lambda_set`` and the minus one elsewhere (complementary for
    A_2).  Every such mixed choice satisfies the closed-projection algebra."""
    chosen = set(int(k) for k in lambda_set)
    blocks_1, blocks_2 = [], []
    for n in range(1, n_blocks + 1):
        forms = dichotomy_block_forms(n)
        if n in chosen:
            blocks_1.append(forms["A_plus"])
            blocks_2.append(forms["A_minus"])
        else:
            blocks_1.append(forms["A_minus"])
            blocks_2.append(forms["A_plus"])
    return sla.block_diag(*blocks_1), sla.block_diag(*blocks_2)


# ---------------------------------------------------------------------------
# unbounded-projection family (the dichotomy blocks and their mixed choices)
# ---------------------------------------------------------------------------


def corpus_unbproj(n_blocks: int = 3, lambda_set=None) -> CorpusCase:
    """Dichotomy blocks S_n = [[n, 2n^2], [0, -n]] with a chosen sign pattern.

    ``lambda_set`` selects the blocks whose plus-side integral operator goes
    into A_1 (the complementary choice builds A_2), the odd block indices by
    default; every such mixed pair satisfies the closed-projection algebra
    even though only the all-plus choice gives the half-plane splitting.
    """
    if isinstance(n_blocks, numbers.Integral) and n_blocks < 1:
        raise OperatorError("need at least one block")
    op = build_block_operator("dichotomy-2.3", n_blocks)  # refuses a non-integer N
    if lambda_set is None:
        lambda_set = range(1, n_blocks + 1, 2)
    entries = lambda_set if isinstance(lambda_set, (list, tuple, range)) else [lambda_set]
    if not all(isinstance(k, numbers.Integral) and 1 <= k <= n_blocks for k in entries):
        raise OperatorError(f"lambda1 must hold integers in 1..{n_blocks}, got {lambda_set!r}")
    lambda_set = tuple(sorted(set(int(k) for k in entries)))
    params = {"N": n_blocks, "lambda1": list(lambda_set)}

    @functools.cache
    def quad_a(side):
        return integrate_A(op, side, default_contour(op)).value

    @functools.cache
    def splitting():
        return split(op)

    @functools.cache
    def sweep(per_decade):
        return resolvent_sweep(op, axis_grid(per_decade=per_decade))

    def check_quad_a(side):
        def checker(budget: Budget):
            _guard_quadrature(op, budget)
            key = "A_plus" if side == "+" else "A_minus"
            err = _per_block_error(op, quad_a(side), lambda n: dichotomy_block_forms(n)[key])
            return err <= budget.identity_tol, err, "max entry error vs closed form"
        return checker

    def check_quad_p(budget: Budget):
        _guard_quadrature(op, budget)
        s2 = op.entries @ op.entries
        worst = 0.0
        for side, key in (("+", "P_plus"), ("-", "P_minus")):
            worst = max(
                worst,
                _per_block_error(op, s2 @ quad_a(side), lambda n: dichotomy_block_forms(n)[key]),
            )
        return worst <= budget.identity_tol, worst, "P = S^2 A vs closed block pattern"

    def check_mixed(budget: Budget):
        a1, a2 = mixed_choice_pair(n_blocks, lambda_set)
        res = pair_identity_residuals(op, a1, a2)
        s2 = op.entries @ op.entries
        res.update(projection_pair_residuals(s2 @ a1, s2 @ a2))
        worst = max(res.values())
        return worst <= budget.identity_tol, worst, f"worst residual among {sorted(res)}"

    def check_sup(budget: Budget):
        report = sweep(budget.per_decade)
        return report.sup_norm <= 3.0 + 1e-9, report.sup_norm, "sup_axis <= 3"

    def check_restricted_halfplane(budget: Budget):
        _guard_quadrature(op, budget)
        worst = max(_restricted_max(splitting(), side, 0.0) for side in "+-")
        return worst <= 3.0 + 1e-9, worst, "max over both sides and their opposite half-plane grids"

    def check_restricted_sectorial(budget: Budget):
        _guard_quadrature(op, budget)
        report = sweep(budget.per_decade)
        m1 = float((np.abs(report.lambdas) * report.norms).max())
        worst = max(_restricted_max(splitting(), side, 1.0) for side in "+-")
        return worst <= m1, worst, f"max over both sides, against M_1 = {m1:.6g}"

    def check_growth(budget: Budget):
        pair = oracle_projection(op)
        measured = spectral_norm(pair.p_plus)
        floor = np.sqrt(1.0 + n_blocks**2)
        return measured >= floor - 1e-8, measured, f"||P_plus|| >= sqrt(1+N^2) = {floor:.6g}"

    facts = (
        Fact("quadrature_a_plus_blocks", "stated", "per-block A_n^+ to 1e-6", check_quad_a("+")),
        Fact("quadrature_a_minus_blocks", "stated", "per-block A_n^- to 1e-6", check_quad_a("-")),
        Fact("quadrature_projection_blocks", "stated", "per-block P_n^+- to 1e-6", check_quad_p),
        Fact("mixed_choice_pair_identities", "stated", "closed-projection algebra", check_mixed),
        Fact("axis_sup_bound", "stated", "sup over axis grid <= 3", check_sup),
        Fact(
            "restricted_halfplane_bound", "stated",
            "||(S|G_+- - lambda)^{-1}|| <= 3 on the closed opposite half-planes", check_restricted_halfplane,
        ),
        Fact(
            "restricted_sectorial_bound", "derived",
            "|lambda| ||(S|G_+- - lambda)^{-1}|| <= M_1 = max |t| ||R(it)|| on the axis grid",
            check_restricted_sectorial,
        ),
        Fact("projection_norm_growth", "derived", "||P_+|| grows like N", check_growth),
    )
    return CorpusCase(name="unbproj", params=params, operator=op, facts=facts)


# ---------------------------------------------------------------------------
# slow-decay family (almost bisectorial blocks)
# ---------------------------------------------------------------------------


def corpus_almbisect(n_blocks: int = 50, p: float = 0.5) -> CorpusCase:
    """Blocks [[n, 2n^(1+p)], [0, -n]]: axis decay exponent 1-p, projection
    norms sqrt(1 + n^(2p)) growing without bound."""
    p = float(p)
    op = build_block_operator("almost-bisect-5.5", n_blocks, {"p": p})  # refuses a non-integer N
    params = {"N": n_blocks, "p": p}

    @functools.cache
    def sweep(per_decade):
        return resolvent_sweep(op, axis_grid(per_decade=per_decade))

    def check_beta(budget: Budget):
        # the blocks follow the decay law only below the block scale N/2, so
        # a fit window that starts above it has nothing to measure
        lo, hi = _fit_window(op)
        if n_blocks / 2.0 <= lo:
            raise BudgetExceeded(
                f"fit window ({lo:g}, {hi:g}) lies above the block scale N/2 = {n_blocks / 2.0:g}"
            )
        report = sweep(budget.per_decade)
        err = abs(report.fitted_beta - (1.0 - p))
        return err <= _BETA_TOL, report.fitted_beta, f"beta =~ {1.0 - p}"

    def check_parabola(budget: Budget):
        report = sweep(budget.per_decade)
        m = float((np.abs(report.lambdas) ** (1.0 - p) * report.norms).max())
        inside, ratio = _parabola_ratio(op, 1.0 - p, m)
        return inside == 0 and ratio <= 1.0, ratio, (
            f"{inside} eigenvalues inside; largest ||R(lambda)|| over its bound, M = {m:.6g}"
        )

    def oracle(n):
        return oracle_projection(
            dense_operator(np.array([[n, 2.0 * n ** (1.0 + p)], [0.0, -n]], dtype=complex))
        )

    @functools.cache
    def sampled_blocks():
        picks = sorted(set(range(1, min(n_blocks, 8) + 1)) | {n_blocks})
        return [(n, oracle(n)) for n in picks]

    @functools.cache
    def block100():
        return spectral_norm(oracle(100).p_plus)

    def check_pattern(budget: Budget):
        worst = 0.0
        for n, pair in sampled_blocks():
            expect = almost_bisect_block_projections(n, p)
            worst = max(worst, float(np.abs(pair.p_plus - expect["P_plus"]).max()))
            worst = max(worst, float(np.abs(pair.p_minus - expect["P_minus"]).max()))
        return worst <= _ORACLE_TOL, worst, "P_n^+- = [[1,n^p],[0,0]] pattern"

    def check_norms(budget: Budget):
        worst = 0.0
        for n, pair in sampled_blocks():
            expect = np.sqrt(1.0 + float(n) ** (2.0 * p))
            worst = max(worst, abs(spectral_norm(pair.p_plus) - expect))
        return worst <= _ORACLE_TOL, worst, "||P_n^+|| = sqrt(1+n^(2p))"

    def check_block100(budget: Budget):
        measured = block100()
        expect = np.sqrt(1.0 + 100.0 ** (2.0 * p))
        return abs(measured - expect) <= _ORACLE_TOL, measured, (
            f"||P_100^+|| = {expect:.6g}"
        )

    facts = [
        Fact("fitted_beta", "stated", f"axis decay exponent 1-p = {1.0 - p}", check_beta),
        Fact(
            "parabola_region", "stated",
            f"|Re lambda| <= |Im lambda|^{1.0 - p:g}/(2M) in the resolvent set, ||R|| <= 2M/|Im lambda|^{1.0 - p:g}",
            check_parabola,
        ),
        Fact("block_projection_pattern", "stated", "projection entries n^p", check_pattern),
        Fact("block_projection_norms", "stated", "norms sqrt(1+n^(2p))", check_norms),
        Fact("projection_norm_block100", "derived", "formula at block 100", check_block100),
    ]
    if np.sqrt(1.0 + 100.0 ** (2.0 * p)) > 10.0:
        facts.append(
            Fact(
                "projection_norm_exceeds_10",
                "derived",
                "||P_100^+|| > 10 (unbounded trend)",
                lambda budget: (block100() > 10.0, block100(), "growth witness"),
            )
        )
    return CorpusCase(name="almbisect", params=params, operator=op, facts=tuple(facts))


# ---------------------------------------------------------------------------
# Toeplitz-coupled dyadic family
# ---------------------------------------------------------------------------


def sylvester_diag_solve(d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve D Z + Z D = RHS for diagonal D entrywise: Z_ij = RHS_ij/(d_i+d_j)."""
    d = np.asarray(d, dtype=complex)
    if d.ndim == 2:
        if spectral_norm(d - np.diag(np.diag(d))) > 0.0:
            raise OperatorError("coefficient matrix must be diagonal")
        d = np.diag(d)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (d.size, d.size):
        raise OperatorError(f"RHS shape {rhs.shape} does not match diagonal size {d.size}")
    denom = d[:, None] + d[None, :]
    scale = np.abs(d)[:, None] + np.abs(d)[None, :]
    if np.any(np.abs(denom) <= 1e2 * _MACHINE_EPS * scale):
        raise OperatorError("vanishing denominator d_i + d_j in the Sylvester solve")
    return rhs / denom


def corpus_mcintosh_yagi(m_const: float = 10.0, m_max: int = 3) -> CorpusCase:
    """Dyadic diagonal blocks with a log-divergent Toeplitz coupling.

    Per block m: D = diag(2^0..2^n) with the smallest admissible n, coupling
    B, block [[D, BD], [0, -D]].  The spectral projection is [[I, Z], [0, 0]]
    where Z solves the diagonal Sylvester equation D Z + Z D = B D, and
    ||Z_m|| >= m even though the axis resolvent bound M/|lambda| holds
    uniformly: bounded axis decay without bounded projections.
    """
    m_const = float(m_const)
    op = build_block_operator("mcintosh-yagi", m_max, {"Mconst": m_const})  # refuses a non-integer m_max
    params = {"Mconst": m_const, "m_max": m_max}
    slices = op.family_tag.block_slices()

    @functools.cache
    def solved(m):
        """D, B D and the Z solving D Z + Z D = B D for block m."""
        _, d, b = mcintosh_yagi_parts(m_const, m)
        rhs = b @ d
        return d, rhs, sylvester_diag_solve(np.diag(d), rhs)

    def check_n(m):
        def checker(budget: Budget):
            n = mcintosh_yagi_pick_n(m_const, m)
            c = (m_const - 1.0) / (np.pi * np.sqrt(18.0))
            ok = c * np.log(n / 2.0 + 1.0) >= m
            minimal = n == 1 or c * np.log((n - 1) / 2.0 + 1.0) < m
            return ok and minimal, float(n), "smallest admissible block order"
        return checker

    def check_sylvester(m):
        def checker(budget: Budget):
            d, rhs, z = solved(m)
            resid = np.linalg.norm(d @ z + z @ d - rhs, "fro") / np.linalg.norm(rhs, "fro")
            return resid < 1e-10, resid, "relative Sylvester residual"
        return checker

    def check_z_norm(m):
        def checker(budget: Budget):
            nz = spectral_norm(solved(m)[2])
            return nz >= m, nz, f"||Z_{m}|| >= {m}"
        return checker

    def check_idempotent(m):
        def checker(budget: Budget):
            z = solved(m)[2]
            k = z.shape[0]
            proj = np.zeros((2 * k, 2 * k), dtype=complex)
            proj[:k, :k] = np.eye(k)
            proj[:k, k:] = z
            resid = spectral_norm(proj @ proj - proj)
            return resid < 1e-8, resid, "P = [[I, Z], [0, 0]] idempotent"
        return checker

    def check_axis_bound(m):
        def checker(budget: Budget):
            sl = slices[m - 1]
            block = dense_operator(op.entries[sl, sl])
            t = np.logspace(-2, 4, 32)
            lams = np.concatenate([-1j * t[::-1], 1j * t])
            norms = resolvent_norms(block, lams)
            ratio = float((norms * np.abs(lams) / m_const).max())
            return ratio <= 1.0 + 1e-9, ratio, "||(A_m - lambda)^{-1}|| <= M/|lambda|"
        return checker

    facts = []
    for m in range(1, m_max + 1):
        facts.extend(
            [
                Fact(f"n_choice_m{m}", "derived", "minimal block order", check_n(m)),
                Fact(f"sylvester_residual_m{m}", "stated", "relative residual < 1e-10", check_sylvester(m)),
                Fact(f"z_norm_m{m}", "stated", f"||Z_{m}|| >= {m}", check_z_norm(m)),
                Fact(f"projection_idempotent_m{m}", "trivial", "block projection idempotent", check_idempotent(m)),
                Fact(f"axis_resolvent_bound_m{m}", "stated", "M/|lambda| on the axis grid", check_axis_bound(m)),
            ]
        )
    return CorpusCase(name="mcintosh-yagi", params=params, operator=op, facts=tuple(facts))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# each case's builder, and the builder keyword of every CLI parameter name
_CASE_BUILDERS = {
    "unbproj": (corpus_unbproj, {"N": "n_blocks", "lambda1": "lambda_set"}),
    "almbisect": (corpus_almbisect, {"N": "n_blocks", "p": "p"}),
    "mcintosh-yagi": (corpus_mcintosh_yagi, {"Mconst": "m_const", "m_max": "m_max"}),
}


def case_names() -> tuple[str, ...]:
    return tuple(sorted(_CASE_BUILDERS))


def make_case(name: str, **params) -> CorpusCase:
    """Build a registered corpus case, with its CLI parameter names
    (``N``, ``lambda1``, ``p``, ``Mconst``, ``m_max``) overriding the
    builder's defaults."""
    if name not in _CASE_BUILDERS:
        raise OperatorError(f"unknown corpus case '{name}'; known: {', '.join(case_names())}")
    builder, keywords = _CASE_BUILDERS[name]
    unknown = sorted(set(params) - set(keywords))
    if unknown:
        raise OperatorError(f"case '{name}' does not accept parameters {unknown}")
    return builder(**{keywords[k]: v for k, v in params.items()})
