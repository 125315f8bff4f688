"""Command-line front end.

Subcommands mirror the library pipeline: ``describe`` an operator, ``split``
it and report the identity residuals, ``sweep``/``fit`` resolvent norms on
the imaginary axis, ``perturb`` it with a subordinate perturbation, and
``reproduce`` one of the built-in corpus cases.

Operator sources accept three forms: a path to a JSON descriptor file, an
inline JSON descriptor (first character ``{``), or a shorthand
``name?key=value&key=value`` for the built-in families, e.g.
``dichotomy-2.3?N=4`` or ``random?seed=7&dim=8``.

The front end decides nothing the library owns: ``sweep``, ``fit`` and
``perturb`` sample on ``axis_grid``'s default grid and fit in
``analysis._fit_window``, and ``reproduce`` defaults to ``corpus.Budget``.
The library returns numbers; ``_emit``, the one writer, turns a payload
into strict JSON (``_json_text``), its text rendering or its CSV rows.

Exit codes: 0 success, 1 usage or I/O problems, 2 spectral preconditions
violated, 3 numerical non-convergence.  Output is deterministic: repeated
runs with the same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import _fit_window, axis_grid, resolvent_sweep, split
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


def _strict(obj):
    """``obj`` with NaN as None and +-inf as "inf"/"-inf", in nested dicts, lists and tuples."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _json_text(obj) -> str:
    return json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _samples_csv(column: str, lams, values) -> str:
    """CSV of the samples ``values`` at ``lams`` under the header
    ``re_lambda,im_lambda,<column>``, every number in its round-trip repr."""
    rows = (f"{float(z.real)!r},{float(z.imag)!r},{float(v)!r}\n" for z, v in zip(lams, values))
    return f"re_lambda,im_lambda,{column}\n" + "".join(rows)


def _non_convergence(message: str) -> int:
    print(f"numerical non-convergence: {message}", file=sys.stderr)
    return EXIT_NUMERIC


def _emit(args, payload: dict, text: str | None = None, csv: str | None = None) -> int:
    """Write ``payload``, stamped with the version, in the ``--format`` asked
    for: its JSON, the ``text`` rendering, or the ``csv`` samples followed by
    the JSON.  The bytes go to ``--out`` or stdout, and the exit code is 0."""
    body = _json_text({"version": __version__, **payload})
    body = {"text": text, "csv": csv and f"{csv}\n{body}"}.get(args.format) or body
    if args.out is None or args.out == "-":
        sys.stdout.write(body)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:  # a missing directory raises OSError: exit 1
            fh.write(body)
    return EXIT_OK


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
            if key in params:
                raise UsageError(f"parameter '{key}' given more than once")
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
        dim, seed = params.pop("dim", 8), params.pop("seed", 0)
        if params:
            raise UsageError(f"random source does not accept {sorted(params)}")
        if not isinstance(dim, int) or not isinstance(seed, int) or seed < 0:
            raise UsageError(f"random source needs integer dim and seed >= 0, got {dim!r}, {seed!r}")
        return random_gap_operator(dim, seed)
    if name in family_names():
        n = params.pop("N", None)
        if n is None:
            raise UsageError(f"family source '{name}' needs N, e.g. {name}?N=4")
        desc = {"kind": "family", "family": name, "params": params, "N": n}
        return operator_from_descriptor(desc)  # refuses a non-integer N
    raise UsageError(
        f"cannot resolve operator source '{source}'; known families: "
        + ", ".join(family_names())
        + ", random"
    )


def _contour_from_args(op: Operator, args) -> ContourSpec:
    overrides = {} if args.tol is None else {"tol": args.tol}
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
        "operator": _operator_summary(args.operator, op),
        "dim": op.dim,
        "norm": operator_norm(op),
        "spectral_gap": spec.min_abs_real,
        "eigenvalues": [[z.real, z.imag] for z in spec.eigenvalues],
    }
    lines = [
        f"operator: {payload['operator']}",
        f"dim: {op.dim}  norm: {payload['norm']:.6g}  gap: {payload['spectral_gap']:.6g}",
        "eigenvalues: " + ", ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in spec.eigenvalues),
    ]
    return _emit(args, payload, text="\n".join(lines) + "\n")


def cmd_split(args) -> int:
    if not args.pass_tol > 0:  # refused before the split, which can take seconds
        raise UsageError(f"pass tolerance must be > 0, got {args.pass_tol}")
    op = resolve_operator(args.operator)
    spec = _contour_from_args(op, args)
    result = split(op, spec)
    passed = result.passes(args.pass_tol)
    payload = {
        "operator": _operator_summary(args.operator, op),
        "contour": spec.to_json_dict(),
        "pass_tol": args.pass_tol,
        "passed": passed,
        **result.to_json_dict(),
    }
    _emit(args, payload)
    if passed:
        return EXIT_OK
    worst = max(sorted(result.residuals), key=result.residuals.get)  # a tie names the first in the JSON
    return _non_convergence(
        f"split residual {worst} = {result.residuals[worst]:.3e} against pass_tol "
        f"{args.pass_tol:.3g} (spectrum margins {result.spectrum_margin_plus:.3g}, "
        f"{result.spectrum_margin_minus:.3g})"
    )


def _sweep_report(args):
    op = resolve_operator(args.operator)
    grid = axis_grid(args.grid_lo, args.grid_hi, args.grid_per_decade)
    window = tuple(d if v is None else v for d, v in zip(_fit_window(op), (args.fit_lo, args.fit_hi)))
    return op, resolvent_sweep(op, grid, fit_window=window)


def cmd_sweep(args) -> int:
    op, report = _sweep_report(args)
    payload = {"operator": _operator_summary(args.operator, op), **report.to_json_dict()}
    text = (
        f"sweep of {args.operator}: {report.lambdas.size} samples, "
        f"sup {report.sup_norm:.6g}, beta {report.fitted_beta:.4f}, "
        f"M {report.fitted_m:.4f}\n"
    )
    csv = _samples_csv("resolvent_norm", report.lambdas, report.norms)
    return _emit(args, payload, text=text, csv=csv)


def cmd_fit(args) -> int:
    op, report = _sweep_report(args)
    summary = report.to_json_dict()
    fields = ("fitted_beta", "fitted_M", "fit_residual", "fit_window", "sup_norm")
    payload = {
        "operator": _operator_summary(args.operator, op),
        **{key: summary[key] for key in fields},
    }
    text = (
        f"beta {report.fitted_beta:.4f}  M {report.fitted_m:.4f}  "
        f"residual {report.fit_residual:.3g}\n"
    )
    return _emit(args, payload, text=text)


def _perturbation_matrix(op: Operator, args) -> np.ndarray:
    # Scaled powers of the diagonal magnitudes give a perturbation of
    # prescribed subordination order; the off-diagonal coupling makes the
    # projections actually move.  A product beyond the float range is left
    # to the operator's own refusal of entries that are not finite.
    for flag in ("subordinate_p", "scale", "coupling"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {getattr(args, flag)}")
    mags = np.abs(np.diag(op.entries))
    mags = np.where(mags > 0, mags, 1.0)
    with np.errstate(over="ignore"):
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
        fit = resolvent_sweep(op, axis_grid())
        beta = min(1.0, fit.fitted_beta) if fit.fitted_beta > 0 else None  # None for NaN too
    report = perturb_pair_report(op, r, beta=beta)
    payload = {
        "operator": _operator_summary(args.operator, op),
        "perturbation": {
            "subordinate_p": args.subordinate_p,
            "scale": args.scale,
            "coupling": args.coupling,
        },
        "beta": beta,
        **report.to_json_dict(),
    }
    return _emit(args, payload, csv=_samples_csv("diff_norm", *zip(*report.diff_samples)))


def _case_text(report) -> str:
    lines = [f"case {report.case} params={report.params}"]
    for f in report.facts:
        status = "SKIP" if f.skipped else ("PASS" if f.passed else "FAIL")
        measured = "" if f.measured is None else f" measured={f.measured:.6g}"
        lines.append(f"  [{status}] {f.name} ({f.provenance}): {f.expected}{measured}")
        if f.detail and status != "PASS":
            lines.append(f"         {f.detail}")
    verdict = "all facts pass" if report.all_passed else "FAILURES present"
    skipped = " (incomplete: budget skipped facts)" if report.incomplete else ""
    return "\n".join(lines) + f"\n  => {verdict}{skipped}\n"


def cmd_reproduce(args) -> int:
    name, params = _parse_shorthand(args.case)
    case = make_case(name, **params)
    budget = Budget(
        identity_tol=args.tol, max_quad_dim=args.max_quad_dim, per_decade=args.grid_per_decade
    )
    report = run_case(case, budget)
    _emit(args, report.to_json_dict(), text=_case_text(report))
    if report.all_passed:
        return EXIT_OK
    failed = ", ".join(f.name for f in report.facts if not f.passed)
    return _non_convergence(f"reproduce {report.case}: failed facts {failed}")


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_output_args(p, default_format="json", choices=("json", "text")):
    p.add_argument("--format", choices=choices, default=default_format)
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_contour_args(p):
    p.add_argument("--h", type=float, default=None, help="contour abscissa (default 0.5*gap)")
    p.add_argument("--tol", type=float, default=None, help="tolerance budget")


def _add_grid_args(p):
    p.add_argument("--grid-lo", type=float, default=1e-2)
    p.add_argument("--grid-hi", type=float, default=1e4)
    p.add_argument("--grid-per-decade", type=int, default=64)
    p.add_argument("--fit-lo", type=float, default=None, help="fit window bottom (default 10)")
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
    _add_output_args(p, choices=("json",))
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
    _add_output_args(p, choices=("json", "csv"))
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("reproduce", help="run a corpus case: " + ", ".join(case_names()))
    p.add_argument("case")
    p.add_argument("--tol", type=float, default=Budget.identity_tol, help="identity tolerance")
    p.add_argument("--max-quad-dim", dest="max_quad_dim", type=int, default=Budget.max_quad_dim)
    p.add_argument("--grid-per-decade", dest="grid_per_decade", type=int, default=Budget.per_decade)
    _add_output_args(p, default_format="text")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OperatorError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NearSpectrumError as exc:
        print(f"spectral precondition failed: {exc}", file=sys.stderr)
        return EXIT_SPECTRAL
    except (QuadratureError, SplittingMismatchError) as exc:
        return _non_convergence(str(exc))


if __name__ == "__main__":
    sys.exit(main())
