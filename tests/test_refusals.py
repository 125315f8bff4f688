"""Input refusals that the other tests do not reach: each bad input is
refused with its own message, before any work is done on it, and at the
command line as exit 1 with one ``error:`` line."""

import numpy as np
import pytest

from specsplit import (
    Budget,
    ContourSpec,
    NearSpectrumError,
    Operator,
    OperatorError,
    axis_grid,
    build_block_operator,
    diag_operator,
    hamiltonian_assemble,
    operator_from_descriptor,
    perturb_pair_report,
    random_gap_operator,
    resolvent_diff_decay,
    resolvent_sweep,
    split,
)
from specsplit.cli import main
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
        # the grids of the resolvent sweeps
        (lambda: resolvent_diff_decay(GAP_ONE, GAP_ONE, []), ValueError, "grid is empty"),
        (
            lambda: resolvent_diff_decay(GAP_ONE, diag_operator([2.0, -1.0]), [1j, 20j], (100, 10)),
            ValueError,
            "fit window needs 0 < lo < hi",
        ),
        # the axis grid: a finite ratio hi/lo and at least one point per decade
        (lambda: axis_grid(1.0, np.inf), ValueError, "finite hi/lo and per_decade >= 1, got inf/1.0, 64"),
        (lambda: axis_grid(1e-300, 1e300), ValueError, "finite hi/lo and per_decade >= 1, got 1e\\+300/1e-300"),
        (lambda: axis_grid(np.nan, 10.0), ValueError, "need 0 < lo < hi"),
        (lambda: axis_grid(1.0, 10.0, 0), ValueError, "finite hi/lo and per_decade >= 1, got 10.0/1.0, 0"),
        # the pass tolerances: a tolerance that is not > 0 is a usage error, not a failed check
        (lambda: split(GAP_ONE).passes(-1.0), ValueError, "pass tolerance must be > 0, got -1.0"),
        (lambda: split(GAP_ONE).passes(np.nan), ValueError, "pass tolerance must be > 0, got nan"),
        (lambda: Budget(identity_tol=np.nan), ValueError, "identity tolerance must be > 0, got nan"),
        (lambda: Budget(identity_tol=0.0), ValueError, "identity tolerance must be > 0, got 0.0"),
        (lambda: Budget(max_quad_dim=-5), ValueError, "quadrature dimension budget must be >= 0, got -5"),
        (lambda: Budget(per_decade=0), ValueError, "finite hi/lo and per_decade >= 1, got 10000.0/0.01, 0"),
        # the quadrature lines
        (lambda: line_nodes(1.0, 8.0, 7), ValueError, "carries the 15 Kronrod nodes, got q=7"),
        (
            lambda: _side_integrals(GAP_ONE, "+", ContourSpec(h=0.5), ("R",), -2.0),
            ValueError,
            "no integral 'R' on side '\\+'",
        ),
        # the perturbation studies
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


GRID = "axis grid needs a finite hi/lo and per_decade >= 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "bound-4.6?N=10", "--grid-hi", "inf"), f"{GRID}, got inf/0.01, 64"),
        (("sweep", "bound-4.6?N=10", "--grid-per-decade", "0"), f"{GRID}, got 10000.0/0.01, 0"),
        (("reproduce", "almbisect", "--grid-per-decade", "0"), f"{GRID}, got 10000.0/0.01, 0"),
        (("split", "dichotomy-2.3?N=2", "--pass-tol", "-1"), "pass tolerance must be > 0, got -1.0"),
        (("split", "dichotomy-2.3?N=2", "--pass-tol", "nan"), "pass tolerance must be > 0, got nan"),
        (("reproduce", "unbproj?N=2", "--tol", "nan"), "identity tolerance must be > 0, got nan"),
        (("reproduce", "unbproj?N=2", "--max-quad-dim", "-5"), "quadrature dimension budget must be >= 0, got -5"),
        # the perturbation flags are checked before they are multiplied into a matrix
        (("perturb", "dichotomy-2.3?N=6", "--scale", "inf"), "--scale must be finite, got inf"),
        (("perturb", "dichotomy-2.3?N=6", "--coupling", "nan"), "--coupling must be finite, got nan"),
        (("perturb", "dichotomy-2.3?N=6", "--subordinate-p=-inf"), "--subordinate-p must be finite, got -inf"),
        # finite flags whose product leaves the float range: the operator refuses it, without a warning
        (("perturb", "dichotomy-2.3?N=6", "--scale", "1e300", "--subordinate-p", "100"), "operator entries must be finite"),
    ],
)
def test_refused_at_the_command_line(capsys, argv, message):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_pass_tol_is_refused_before_the_split(capsys, monkeypatch):
    def no_split(*args, **kwargs):
        raise AssertionError("split ran before its pass tolerance was checked")

    monkeypatch.setattr("specsplit.cli.split", no_split)
    assert main(["split", "random?seed=7&dim=256", "--pass-tol", "-1"]) == 1
    assert capsys.readouterr().err == "error: pass tolerance must be > 0, got -1.0\n"
