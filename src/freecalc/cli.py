"""Command-line front end: evaluation jobs, sampling runs, experiments, validation.

Exit codes: 0 success, 1 input or usage error, 2 a check/certificate failed.
Reports are canonical JSON (sorted keys), so identical inputs and seeds yield
byte-identical output regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import CheckFailure, FreecalcError, SeriesCapError, ValidationError
from .experiments import EXPERIMENT_NAMES, run_custom, run_experiment
from .freepoly import FreePoly, PolyMatrix
from .funcalc import CalcParams, sharp
from .matrix_core import MatrixTuple
from .realization import eval_colligation
from .serialize import (
    decode_any,
    decode_colligation,
    decode_job,
    decode_matrix,
    decode_polymatrix,
    decode_tuple,
    detect_kind,
    dumps_canonical,
    encode,
    load_path,
    read_json,
)
from .spectral import (
    SampleConfig,
    SpectralReport,
    k_spectral_check,
    sup_norm_estimate,
)
from .version import VERSION


def _default_seed() -> int:
    raw = os.environ.get("FREECALC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"FREECALC_SEED must be an integer, got {raw!r}", "$FREECALC_SEED"
        )


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}", "--out") from exc
    else:
        sys.stdout.write(text)


def _load_as(path: str, decoder, expected: str):
    raw = read_json(path)
    try:
        return decoder(raw, "$")
    except ValidationError as exc:
        raise ValidationError(f"{path}: not a valid {expected}: {exc}", "$")


def _load_poly_or_matrix(path: str) -> PolyMatrix:
    obj = load_path(path)
    if not isinstance(obj, (FreePoly, PolyMatrix)):
        raise ValidationError(
            f"{path}: expected a polynomial or polynomial matrix, got {type(obj).__name__}"
        )
    return PolyMatrix.from_poly(obj)


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"--levels expects comma-separated integers, got {text!r}")


def _sample_config(args) -> SampleConfig:
    kwargs = {"seed": args.seed}
    if args.levels is not None:
        kwargs["levels"] = _parse_levels(args.levels)
    if args.trials is not None:
        kwargs["trials_per_level"] = args.trials
    if getattr(args, "ascent", None) is not None:
        kwargs["ascent_steps"] = args.ascent
    if getattr(args, "margin", None) is not None:
        kwargs["margin"] = args.margin
    return SampleConfig(**kwargs)


def _spectral_csv(rep: SpectralReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "trials", "estimate", "witness_id"])
    for row in rep.per_level:
        witness = "" if row.best_trial is None else f"L{row.level}T{row.best_trial}"
        est = "" if row.best_value is None else repr(row.best_value)
        writer.writerow([row.level, row.trials, est, witness])
    return buf.getvalue()


# --- subcommands -------------------------------------------------------------


def cmd_eval(args) -> int:
    F = _load_as(args.colligation, decode_colligation, "colligation")
    point = _load_as(args.point, decode_matrix, "matrix")
    value = eval_colligation(F, point)
    _emit(dumps_canonical(encode(value)), args.out)
    return 0


def cmd_calc(args) -> int:
    job = _load_as(args.job, decode_job, "evaluation job")
    params: CalcParams = job["params"]
    if args.tol is not None:
        params = CalcParams(s=params.s, tol=args.tol, max_terms=params.max_terms)
    try:
        rep = sharp(job["F"], job["delta"], job["T"], params)
    except SeriesCapError as exc:
        if exc.report is not None:
            _emit(dumps_canonical(encode(exc.report)), args.out)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(dumps_canonical(encode(rep)), args.out)
    return 0 if rep.ok else 2


def cmd_supnorm(args) -> int:
    objective = _load_poly_or_matrix(args.poly)
    delta = _load_poly_or_matrix(args.delta)
    cfg = _sample_config(args)
    rep = sup_norm_estimate(objective, delta, cfg, jobs=args.jobs)
    if args.format == "csv":
        _emit(_spectral_csv(rep), args.out)
    else:
        _emit(dumps_canonical(encode(rep)), args.out)
    return 0


def cmd_spectral_check(args) -> int:
    delta = _load_poly_or_matrix(args.delta)
    T = _load_as(args.tuple, decode_tuple, "matrix tuple")
    raw = read_json(args.family)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(
            f"{args.family}: a family file is a nonempty JSON array of polynomials"
        )
    family = []
    for idx, item in enumerate(raw):
        member = decode_any(item, f"$[{idx}]")
        if not isinstance(member, (FreePoly, PolyMatrix)):
            raise ValidationError(
                f"family member is a {type(member).__name__}, expected a polynomial",
                f"$[{idx}]",
            )
        family.append(PolyMatrix.from_poly(member))
    cfg = _sample_config(args)
    rep = k_spectral_check(delta, T, args.k, family, cfg, jobs=args.jobs)
    _emit(dumps_canonical(encode(rep)), args.out)
    return 0 if rep.ok else 2


def _parse_param(text: str):
    if "=" not in text:
        raise ValidationError(f"--param expects key=value, got {text!r}")
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    if isinstance(value, list):
        value = tuple(value)
    return key, value


def cmd_experiment(args) -> int:
    options = dict(_parse_param(p) for p in args.param or [])
    if args.name == "custom":
        path = options.pop("job", None) or args.job
        if not path:
            raise ValidationError(
                "the custom experiment needs a job file: --job PATH or -p job=PATH"
            )
        job = _load_as(path, decode_job, "evaluation job")
        if options:
            raise ValidationError(
                f"unknown custom-experiment option(s): {sorted(options)}"
            )
        report = run_custom(job, seed=args.seed, source=os.path.basename(path))
    else:
        if args.name == "commutator" and isinstance(options.get("T"), str):
            options["T"] = _load_as(options["T"], decode_tuple, "matrix tuple")
        if args.name == "lens" and isinstance(options.get("g"), str):
            g = load_path(options["g"])
            if not isinstance(g, FreePoly):
                raise ValidationError(
                    f"{options['g']}: the lens polynomial file must hold a "
                    "free polynomial"
                )
            options["g"] = g
        if args.name == "gap":
            options.setdefault("jobs", args.jobs)
        report = run_experiment(args.name, args.seed, options)
    _emit(dumps_canonical(report), args.out)
    return 0 if report["ok"] else 2


def cmd_validate(args) -> int:
    raw = read_json(args.path)
    kind = detect_kind(raw)
    decode_any(raw)
    _emit(dumps_canonical({"ok": True, "kind": kind, "path": args.path}), args.out)
    return 0


# --- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, the input-error code.

    argparse's own code for them, 2, is this tool's "a check failed".
    Subparsers inherit the class, so their errors exit 1 too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freecalc",
        description="Free functional calculus: models, domains, and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    def seeded(p, sampling: bool = False):
        common(p)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $FREECALC_SEED or 0)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker threads; results are identical to serial")
        if sampling:
            p.add_argument("--levels", help="comma-separated matrix sizes, e.g. 1,2,3")
            p.add_argument("--trials", type=int, help="trials per level")
            p.add_argument("--ascent", type=int, help="hill-climb steps per sample")
            p.add_argument("--margin", type=float, help="domain membership margin")

    p_eval = sub.add_parser("eval", help="evaluate a colligation at a block point")
    p_eval.add_argument("--colligation", required=True, help="colligation JSON file")
    p_eval.add_argument("--point", required=True, help="matrix JSON file (the block point)")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_calc = sub.add_parser("calc", help="run the sharp evaluation for a job file")
    p_calc.add_argument("--job", required=True, help="job JSON: F, delta, T, params")
    p_calc.add_argument("--tol", type=float, help="override the job's tolerance")
    common(p_calc)
    p_calc.set_defaults(func=cmd_calc)

    p_sup = sub.add_parser("supnorm", help="sampled supremum of a polynomial over a domain")
    p_sup.add_argument("--poly", required=True, help="objective polynomial JSON file")
    p_sup.add_argument("--delta", required=True, help="defining polynomial matrix JSON file")
    p_sup.add_argument("--format", choices=("json", "csv"), default="json")
    seeded(p_sup, sampling=True)
    p_sup.set_defaults(func=cmd_supnorm)

    p_spec = sub.add_parser("spectral-check",
                            help="test ||P(T)|| <= K sup ||P(x)|| over a family")
    p_spec.add_argument("--delta", required=True)
    p_spec.add_argument("--tuple", required=True, help="matrix tuple JSON file (T)")
    p_spec.add_argument("--family", required=True,
                        help="JSON array of polynomials / polynomial matrices")
    p_spec.add_argument("--k", type=float, default=1.0, help="the spectral constant K")
    seeded(p_spec, sampling=True)
    p_spec.set_defaults(func=cmd_spectral_check)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                       help="experiment option, JSON-valued (repeatable)")
    p_exp.add_argument("--job", help="job file for the custom experiment")
    seeded(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_val = sub.add_parser("validate", help="schema-check a JSON document")
    p_val.add_argument("path")
    p_val.add_argument("--out")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CheckFailure as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 2
    except SeriesCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FreecalcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
