"""Input refusals that the other tests do not reach: each bad input is
refused with its own message, before any work is done on it."""

import numpy as np
import pytest

from specsplit import (
    ContourSpec,
    NearSpectrumError,
    Operator,
    OperatorError,
    build_block_operator,
    diag_operator,
    domain_counterexample,
    hamiltonian_assemble,
    operator_from_descriptor,
    parabola_probe,
    perturb_pair_report,
    random_gap_operator,
    resolvent_diff_decay,
    resolvent_sweep,
    sectoriality_report,
    split,
)
from specsplit.contour import _side_integrals, line_nodes
from specsplit.operators import FamilyTag, mcintosh_yagi_parts

GAP_ONE = diag_operator([1.0, -1.0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        # the operator itself
        (lambda: Operator(entries=np.zeros((0, 0))), OperatorError, "positive dimension"),
        (lambda: Operator(entries=[[np.nan]]), OperatorError, "must be finite"),
        (
            lambda: Operator(entries=np.eye(3), family_tag=FamilyTag("constant-diag", {}, 1, (2,))),
            OperatorError,
            "do not sum to operator dimension",
        ),
        # a grid with no point clear of the spectrum
        (lambda: resolvent_sweep(GAP_ONE, [1.0, -1.0]), NearSpectrumError, "all grid points are near"),
        # the families
        (lambda: build_block_operator("almost-bisect-5.5", 2), OperatorError, "requires parameter p"),
        (
            lambda: build_block_operator("constant-diag", 1, {"values": []}),
            OperatorError,
            "at least one diagonal value",
        ),
        (lambda: mcintosh_yagi_parts(3.0, 0), OperatorError, "block index m must be >= 1"),
        (lambda: build_block_operator("dichotomy-2.3", 2.0), OperatorError, "N must be a positive integer"),
        (lambda: random_gap_operator(1, 0), OperatorError, "needs dim >= 2"),
        # the JSON descriptors
        (
            lambda: operator_from_descriptor({"kind": "dense", "entries": [[["a", 0]]]}),
            OperatorError,
            "malformed dense entries",
        ),
        (lambda: operator_from_descriptor([1]), OperatorError, "must be a JSON object"),
        (
            lambda: operator_from_descriptor({"kind": "family", "family": "constant-diag", "N": 1, "params": [1]}),
            OperatorError,
            "'params' must be an object",
        ),
        # the grids of the resolvent checks
        (lambda: sectoriality_report(split(GAP_ONE), 1.0, [1.0], 1.0), ValueError, "closed left half-plane"),
        (lambda: sectoriality_report(split(GAP_ONE), 1.0, [0.0, -1.0], 1.0), ValueError, "must avoid 0"),
        (lambda: parabola_probe(GAP_ONE, 0.5, 0.5, 1.0, []), ValueError, "parabola grid is empty"),
        (lambda: resolvent_diff_decay(GAP_ONE, GAP_ONE, []), ValueError, "grid is empty"),
        (
            lambda: resolvent_diff_decay(GAP_ONE, diag_operator([2.0, -1.0]), [1j, 20j], (100, 10)),
            ValueError,
            "fit window needs 0 < lo < hi",
        ),
        # the quadrature lines
        (lambda: line_nodes(1.0, 8.0, 7), ValueError, "carries the 15 Kronrod nodes, got q=7"),
        (
            lambda: _side_integrals(GAP_ONE, "+", ContourSpec(h=0.5), ("R",), -2.0),
            ValueError,
            "no integral 'R' on side '\\+'",
        ),
        # the perturbation studies
        (lambda: domain_counterexample(GAP_ONE, [1.0, 0.0]), OperatorError, "real and positive"),
        (
            lambda: domain_counterexample(diag_operator([1.0, 2.0]), [0.0, 0.0]),
            OperatorError,
            "w must be a nonzero vector",
        ),
        (
            lambda: domain_counterexample(diag_operator([1.0, 2.0]), [1.0]),
            OperatorError,
            "w must be a nonzero vector of matching dimension",
        ),
        (lambda: hamiltonian_assemble(np.ones((2, 3)), np.ones(2), np.ones(2)), OperatorError, "A must be square"),
        (
            lambda: hamiltonian_assemble(np.eye(2), np.ones((2, 1)), np.ones((1, 3))),
            OperatorError,
            "C must have 2 columns",
        ),
        (lambda: perturb_pair_report(GAP_ONE, np.zeros((3, 3))), OperatorError, "R must have the same shape"),
    ],
)
def test_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
