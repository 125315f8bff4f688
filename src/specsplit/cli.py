"""Command-line front end.

Subcommands mirror the library pipeline: ``describe`` an operator, ``split``
it and report the identity residuals, ``sweep``/``fit`` resolvent norms on
the imaginary axis, ``perturb`` it with a subordinate perturbation, and
``reproduce`` one of the built-in corpus cases.

Operator sources accept three forms: a path to a JSON descriptor file, an
inline JSON descriptor (first character ``{``), or a shorthand
``name?key=value&key=value`` for the built-in families, e.g.
``dichotomy-2.3?N=4`` or ``random?seed=7&dim=8``.

Exit codes: 0 success, 1 usage or I/O problems, 2 spectral preconditions
violated, 3 numerical non-convergence.  Output is deterministic: repeated
runs with the same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import axis_grid, resolvent_sweep, split
from .contour import ContourSpec, default_contour
from .corpus import Budget, case_names, make_case, run_case
from .errors import (
    NearSpectrumError,
    OperatorError,
    QuadratureError,
    SplittingMismatchError,
)
from .operators import (
    Operator,
    build_block_operator,
    descriptor_of,
    family_names,
    operator_from_descriptor,
    operator_norm,
    random_gap_operator,
    spectrum,
)
from .perturbation import perturb_pair_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SPECTRAL = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, per the contract
        raise UsageError(message)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_output(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise UsageError(f"output directory does not exist: {directory}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# operator sources
# ---------------------------------------------------------------------------


def _parse_value(text: str):
    if "," in text:
        return [_parse_value(t) for t in text.split(",") if t != ""]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_shorthand(source: str):
    name, _, query = source.partition("?")
    params = {}
    if query:
        for item in query.split("&"):
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise UsageError(f"malformed parameter '{item}' (expected key=value)")
            params[key] = _parse_value(value)
    return name, params


def resolve_operator(source: str) -> Operator:
    """Operator from an inline descriptor, a descriptor file, or shorthand."""
    source = source.strip()
    if source.startswith("{"):
        return operator_from_descriptor(json.loads(source))
    if source.endswith(".json") or os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return operator_from_descriptor(json.load(fh))
    name, params = _parse_shorthand(source)
    if name == "random":
        dim = int(params.pop("dim", 8))
        seed = int(params.pop("seed", 0))
        if params:
            raise UsageError(f"random source does not accept {sorted(params)}")
        return random_gap_operator(dim, seed)
    if name in family_names():
        n = params.pop("N", None)
        if n is None:
            raise UsageError(f"family source '{name}' needs N, e.g. {name}?N=4")
        return build_block_operator(name, int(n), params)
    raise UsageError(
        f"cannot resolve operator source '{source}'; known families: "
        + ", ".join(family_names())
        + ", random"
    )


def _contour_from_args(op: Operator, args) -> ContourSpec:
    overrides = {}
    if args.truncation_T is not None:
        overrides["truncation_T"] = args.truncation_T
    if args.nodes is not None:
        overrides["nodes_per_unit"] = args.nodes
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.h is not None:
        return ContourSpec(h=args.h, **overrides)
    return default_contour(op, **overrides)


def _operator_summary(source: str, op: Operator) -> dict:
    if op.family_tag is not None:
        return descriptor_of(op)
    return {"kind": "dense", "dim": op.dim, "source": source}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_describe(args) -> int:
    op = resolve_operator(args.operator)
    spec = spectrum(op)
    payload = {
        "version": __version__,
        "operator": _operator_summary(args.operator, op),
        "dim": op.dim,
        "norm": operator_norm(op),
        "spectral_gap": spec.min_abs_real,
        "eigenvalues": [[z.real, z.imag] for z in spec.eigenvalues],
    }
    if args.format == "text":
        lines = [
            f"operator: {payload['operator']}",
            f"dim: {op.dim}  norm: {payload['norm']:.6g}  gap: {payload['spectral_gap']:.6g}",
            "eigenvalues: " + ", ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in spec.eigenvalues),
        ]
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(_json_text(payload), args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    op = resolve_operator(args.operator)
    spec = _contour_from_args(op, args)
    result = split(op, spec)
    passed = result.passes(args.pass_tol)
    payload = {
        "version": __version__,
        "operator": _operator_summary(args.operator, op),
        "contour": spec.to_json_dict(),
        "pass_tol": args.pass_tol,
        "passed": passed,
        **result.to_json_dict(),
    }
    _write_output(_json_text(payload), args.out)
    return EXIT_OK if passed else EXIT_NUMERIC


def _default_fit_hi(op: Operator) -> float:
    # A truncated block family obeys its decay law only below the largest
    # block scale; an untagged operator gets the full asymptotic window.
    if op.family_tag is not None:
        return min(1e4, max(20.0, op.family_tag.n_blocks / 2.0))
    return 1e4


def _sweep_report(args):
    op = resolve_operator(args.operator)
    grid = axis_grid(args.grid_lo, args.grid_hi, args.grid_per_decade)
    fit_hi = args.fit_hi if args.fit_hi is not None else _default_fit_hi(op)
    window = (args.fit_lo, fit_hi)
    return op, resolvent_sweep(op, grid, fit_window=window)


def cmd_sweep(args) -> int:
    op, report = _sweep_report(args)
    summary = {
        "version": __version__,
        "operator": _operator_summary(args.operator, op),
        **report.to_json_dict(),
    }
    if args.format == "csv":
        text = report.to_csv() + "\n" + _json_text(summary)
    elif args.format == "text":
        text = (
            f"sweep of {args.operator}: {report.lambdas.size} samples, "
            f"sup {report.sup_norm:.6g}, beta {report.fitted_beta:.4f}, "
            f"M {report.fitted_m:.4f}\n"
        )
    else:
        text = _json_text(summary)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_fit(args) -> int:
    op, report = _sweep_report(args)
    summary = report.to_json_dict()
    payload = {
        "version": __version__,
        "operator": _operator_summary(args.operator, op),
        "fitted_beta": summary["fitted_beta"],
        "fitted_M": summary["fitted_M"],
        "fit_residual": summary["fit_residual"],
        "fit_window": summary["fit_window"],
        "sup_norm": summary["sup_norm"],
    }
    if args.format == "text":
        _write_output(
            f"beta {report.fitted_beta:.4f}  M {report.fitted_m:.4f}  "
            f"residual {report.fit_residual:.3g}\n",
            args.out,
        )
    else:
        _write_output(_json_text(payload), args.out)
    return EXIT_OK


def _perturbation_matrix(op: Operator, args) -> np.ndarray:
    # Scaled powers of the diagonal magnitudes give a perturbation of
    # prescribed subordination order; the off-diagonal coupling makes the
    # projections actually move.
    mags = np.abs(np.diag(op.entries))
    mags = np.where(mags > 0, mags, 1.0)
    r = args.scale * np.diag(mags**args.subordinate_p).astype(complex)
    if op.dim >= 2 and args.coupling != 0.0:
        r[0, 1] += args.coupling
        r[1, 0] += args.coupling
    return r


def cmd_perturb(args) -> int:
    op = resolve_operator(args.operator)
    r = _perturbation_matrix(op, args)
    beta = args.beta
    if beta is None:
        grid = axis_grid(1e-1, 1e4, 32)
        window = (10.0, max(20.0, op.dim / 2.0))
        fit = resolvent_sweep(op, grid, fit_window=window)
        beta = min(1.0, fit.fitted_beta) if np.isfinite(fit.fitted_beta) else None
    window = (10.0, max(20.0, op.dim / 2.0))
    report = perturb_pair_report(op, r, beta=beta, fit_window=window)
    payload = {
        "version": __version__,
        "operator": _operator_summary(args.operator, op),
        "perturbation": {
            "subordinate_p": args.subordinate_p,
            "scale": args.scale,
            "coupling": args.coupling,
        },
        "beta": beta,
        **report.to_json_dict(),
    }
    if args.format == "csv":
        text = report.diff_samples_csv() + "\n" + _json_text(payload)
    else:
        text = _json_text(payload)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    name, params = _parse_shorthand(args.case)
    case = make_case(name, **params)
    budget = Budget(
        identity_tol=args.tol if args.tol is not None else 1e-6,
        max_quad_dim=args.max_quad_dim,
        per_decade=args.grid_per_decade,
    )
    report = run_case(case, budget)
    if args.format == "text":
        _write_output(report.to_text() + "\n", args.out)
    else:
        payload = {"version": __version__, **report.to_json_dict()}
        _write_output(_json_text(payload), args.out)
    return EXIT_OK if report.all_passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_output_args(p, default_format="json", choices=("json", "text")):
    p.add_argument("--format", choices=choices, default=default_format)
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_contour_args(p):
    p.add_argument("--h", type=float, default=None, help="contour abscissa (default 0.5*gap)")
    p.add_argument("--truncation-T", dest="truncation_T", type=float, default=None,
                   help="integration height T (default: derived from --tol)")
    p.add_argument("--nodes", type=int, default=None, help="Gauss nodes per panel")
    p.add_argument("--tol", type=float, default=None, help="tolerance budget")


def _add_grid_args(p):
    p.add_argument("--grid-lo", type=float, default=1e-2)
    p.add_argument("--grid-hi", type=float, default=1e4)
    p.add_argument("--grid-per-decade", type=int, default=64)
    p.add_argument("--fit-lo", type=float, default=10.0)
    p.add_argument(
        "--fit-hi",
        type=float,
        default=None,
        help="fit window top (default: N/2 block scale for families, else 1e4)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specsplit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"specsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="operator summary: dimension, norm, spectrum")
    p.add_argument("operator")
    _add_output_args(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("split", help="half-plane splitting with identity residuals")
    p.add_argument("operator")
    _add_contour_args(p)
    p.add_argument("--pass-tol", type=float, default=1e-6, help="residual pass threshold")
    _add_output_args(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sweep", help="resolvent norms on an axis grid (CSV or JSON)")
    p.add_argument("operator")
    _add_grid_args(p)
    _add_output_args(p, default_format="csv", choices=("csv", "json", "text"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="decay-law fit of axis resolvent norms")
    p.add_argument("operator")
    _add_grid_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("perturb", help="subordinate-perturbation diagnosis")
    p.add_argument("operator")
    p.add_argument("--subordinate-p", dest="subordinate_p", type=float, default=0.4)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--coupling", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=None, help="axis decay exponent of S")
    _add_output_args(p, choices=("json", "csv", "text"))
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("reproduce", help="run a corpus case: " + ", ".join(case_names()))
    p.add_argument("case")
    p.add_argument("--tol", type=float, default=None, help="identity tolerance")
    p.add_argument("--max-quad-dim", dest="max_quad_dim", type=int, default=200)
    p.add_argument("--grid-per-decade", dest="grid_per_decade", type=int, default=64)
    _add_output_args(p, default_format="text")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OperatorError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NearSpectrumError as exc:
        print(f"spectral precondition failed: {exc}", file=sys.stderr)
        return EXIT_SPECTRAL
    except (QuadratureError, SplittingMismatchError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
