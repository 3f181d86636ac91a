"""Command-line front end: estimation, grids, fitting, evaluation, design.

Thin adapter over the library modules.  All lengths on the command line and
in files are millimeters and all inductances are microhenries; conversion
to SI happens at this boundary and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

# One BLAS thread, fixed before the imports below load BLAS, so a result does not
# depend on the host's CPU count; a value already in the environment wins.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from .dataset import (
    BUILTIN_CORPORA,
    GridSpec,
    generate_grid,
    read_csv,
    read_geometry_csv,
    synth_labels,
    write_csv,
    write_geometry_csv,
)
from .estimator import (
    DEFAULT_COEFFICIENTS,
    MOHAN_COEFFICIENTS,
    SIMPLIFIED_COEFFICIENTS,
    CoefficientSet,
    inductance,
)
from .geometry import GeometryError, canonicalize, mean_side
from .optimizer import (
    InfeasibleProblemError,
    OptimizationProblem,
    brute_force_max,
    default_problem,
    maximize,
    oracle_steps,
)
from .regression import RankDeficiencyError, evaluate, repeated_fit
from .units import fits_a_float, h_to_uh, json_field, m_to_mm, mm_to_m

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

# Every --model is the one kernel with a coefficient set.  These two have
# fixed sets; full and square take --coeffs (square is full on D1 = D2).
_FIXED_COEFFICIENTS = {"simplified": SIMPLIFIED_COEFFICIENTS, "mohan": MOHAN_COEFFICIENTS}


class UsageError(Exception):
    """Bad flag combination or value, reported as a usage error."""


def _finite_float(text: str) -> float:
    """argparse type for a numeric flag; argparse names the flag on error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _checked(convert, test, wants: str):
    """argparse type: convert, then reject values failing test before any work runs."""
    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {wants}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_SEED = _checked(int, lambda v: v >= 0, ">= 0")
_COUNT = _checked(int, fits_a_float, "in the float range")
_POSITIVE_INT = _checked(_COUNT, lambda v: v >= 1, ">= 1")
_NONNEGATIVE = _checked(_finite_float, lambda v: v >= 0.0, ">= 0")
_POSITIVE = _checked(_finite_float, lambda v: v > 0.0, "> 0")
_FRACTION = _checked(_finite_float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


class _Stager:
    """The output files of one command, which main alone puts in place.

    Called with a target, the stager returns a temporary beside it to write
    instead.  The target is checked as open(target, "w") checks it: a symlink
    is followed, and one that exists must be a writable regular file, whose
    mode the temporary takes (a new one gets 0o666 less the umask).  commit
    renames the temporaries over their targets in order, so the later of a
    repeated target wins, and an error names its target as given; discard
    removes every temporary still on disk that it can, and never raises:
    one it cannot remove stays behind.

    Only a command that fails before commit changes no target.  The renames
    are not one atomic step: if one raises, or the process dies between two,
    the targets renamed before it are replaced and the rest are not.  A
    rename puts a new inode in place, so an existing target's owner is not
    kept, and its other hard links keep the old content.
    """

    def __init__(self):
        self.staged = []  # (temporary, resolved target, target as given)

    def __call__(self, target: str) -> str:
        path = os.path.realpath(target)
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ValueError(f"not a regular file: {target!r}")
        # Named apart from the target, so a target of the longest name can be staged too.
        temporary = os.path.join(
            os.path.dirname(path), f".planarwind.{os.getpid()}.{len(self.staged)}.tmp"
        )
        existing = os.path.exists(path)
        try:
            if existing:
                os.close(os.open(path, os.O_WRONLY))
            os.close(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except OSError as exc:
            # Name the target as given, not the temporary or the resolved path.
            raise OSError(exc.errno, exc.strerror, target) from None
        self.staged.append((temporary, path, target))
        if existing:
            os.chmod(temporary, os.stat(path).st_mode & 0o7777)
        return temporary

    def write(self, target: str, text: str) -> None:
        with open(self(target), "w") as handle:
            handle.write(text)

    def commit(self) -> None:
        for temporary, path, target in self.staged:
            try:
                os.replace(temporary, path)
            except OSError as exc:
                # Named as staging names it: the target as given.
                raise OSError(exc.errno, exc.strerror, target) from None

    def discard(self) -> None:
        for temporary, _, _ in self.staged:
            # Raised in main's finally, an error would escape main after its error line.
            with contextlib.suppress(OSError):
                os.unlink(temporary)


def _json_text(mapping) -> str:
    return json.dumps(mapping, indent=2) + "\n"


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key is a ValueError, not a silent overwrite."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ValueError(f"JSON object repeats key {key!r}")
        document[key] = value
    return document


def _load_json(path):
    with open(path) as handle:
        return json_field(path, json.load(handle, object_pairs_hook=_unique_keys), "object")


def _load_coefficients(spec: str) -> CoefficientSet:
    if spec == "default":
        return DEFAULT_COEFFICIENTS
    return CoefficientSet.from_mapping(_load_json(spec))


def _load_grid_specs(spec: str) -> list[GridSpec]:
    if spec in BUILTIN_CORPORA:
        return [make() for make in BUILTIN_CORPORA[spec]]
    return [GridSpec.from_mapping(_load_json(spec))]


def _cmd_estimate(args, stage) -> str:
    model = args.model
    if args.coeffs is not None and model in _FIXED_COEFFICIENTS:
        raise UsageError(f"--coeffs applies to the full and square models, not {model}")
    if args.NL >= 2 and args.O is None:
        raise UsageError(f"--O is required for --NL {args.NL}")
    if args.NL == 1 and args.O is not None:
        raise UsageError("--O applies to --NL 2 or more, not --NL 1")
    if model == "square" and args.D1 != args.D2:
        raise UsageError("the square model needs --D1 equal to --D2")
    if model == "mohan":
        if args.NL != 1:
            raise UsageError("the mohan model is single-layer, use --NL 1")
        if args.D1 != args.D2:
            raise UsageError("the mohan model is square, use --D1 equal to --D2")
    if args.coeffs:
        coefficients = _load_coefficients(args.coeffs)
    else:
        coefficients = _FIXED_COEFFICIENTS.get(model, DEFAULT_COEFFICIENTS)
    gap = mm_to_m(args.O) if args.O is not None else None
    geometry = canonicalize(
        mm_to_m(args.D1), mm_to_m(args.D2), mm_to_m(args.w), mm_to_m(args.s),
        args.NT, args.NL, gap,
    )
    fields = {
        "model": model,
        "L_uH": h_to_uh(inductance(geometry, coefficients)),
        "d1_mm": m_to_mm(geometry.d1),
        "d2_mm": m_to_mm(geometry.d2),
        "Dbar1_mm": m_to_mm(mean_side(geometry.D1, geometry.d1)),
        "Dbar2_mm": m_to_mm(mean_side(geometry.D2, geometry.d2)),
    }
    if args.format == "json":
        text = _json_text(fields)
    elif args.format == "csv":
        text = ",".join(fields) + "\n" + ",".join(str(v) for v in fields.values()) + "\n"
    else:
        lines = [f"L_uH = {fields['L_uH']:.2f}"]
        lines += [
            f"{name} = {fields[name]:.4f}"
            for name in ("d1_mm", "d2_mm", "Dbar1_mm", "Dbar2_mm")
        ]
        text = "\n".join(lines) + "\n"
    if args.output:
        stage.write(args.output, text)
        return ""
    return text


def _write_labeled(geometries, args, stage) -> str:
    """Label geometries with the --coeffs set, at --noise and --seed, and stage them."""
    coefficients = _load_coefficients(args.coeffs)
    samples = synth_labels(geometries, coefficients, args.noise, args.seed)
    write_csv(samples, stage(args.out))
    return f"wrote {len(samples)} labeled windings to {args.out}\n"


def _cmd_grid(args, stage) -> str:
    if args.coeffs is None and (args.noise != 0.0 or args.seed != 0):
        raise UsageError("--noise and --seed need --labels")
    geometries = []
    for spec in _load_grid_specs(args.spec):
        geometries.extend(generate_grid(spec))
    if args.coeffs is not None:
        return _write_labeled(geometries, args, stage)
    write_geometry_csv(geometries, stage(args.out))
    return f"wrote {len(geometries)} windings to {args.out}\n"


def _cmd_synth(args, stage) -> str:
    return _write_labeled(read_geometry_csv(args.input), args, stage)


def _cmd_fit(args, stage) -> str:
    samples = read_csv(args.input)
    results, dispersion = repeated_fit(
        samples,
        fraction=args.fraction,
        base_seed=args.seed,
        repeats=args.repeats,
        threshold_pct=args.threshold,
        bin_width_pct=args.bin_width,
    )
    coefficients, report = results[0]
    stage.write(args.out, _json_text(coefficients.to_mapping()))
    if args.report:
        mapping = report.to_mapping()
        if args.repeats > 1:
            mapping["dispersion"] = dispersion.to_mapping()
        stage.write(args.report, _json_text(mapping))
    return (
        f"fit {report.n_train} samples (seed {args.seed}), "
        f"MAE {report.mae_pct:.4f}% on {report.n_eval} held out\n"
    )


def _cmd_eval(args, stage) -> str:
    samples = read_csv(args.input)
    coefficients = _load_coefficients(args.coeffs)
    report = evaluate(samples, coefficients, args.threshold, args.bin_width)
    stage.write(args.report, _json_text(report.to_mapping()))
    if args.hist:
        stage.write(args.hist, "bin_center_pct,count\n" + "".join(
            f"{(lo + hi) / 2.0},{count}\n" for lo, hi, count in report.histogram
        ))
    return (
        f"evaluated {report.n_eval} samples: mean {report.mean_error_pct:.4f}%, "
        f"std {report.std_error_pct:.4f}%, MAE {report.mae_pct:.4f}%\n"
    )


def _parse_resolution(text: str) -> dict:
    """--resolution text as {key: step in m}; optimizer.oracle_steps checks it."""
    steps = {}
    for item in text.split(","):
        key, _, value = (part.strip() for part in item.partition("="))
        if key in steps:
            raise UsageError(f"--resolution repeats {key!r}")
        try:
            steps[key] = mm_to_m(float(value))
        except ValueError:
            raise UsageError(f"bad --resolution value in {item!r}") from None
    return steps


def _cmd_optimize(args, stage) -> str:
    if args.resolution is not None and not args.oracle:
        raise UsageError("--resolution needs --oracle")
    resolution = _parse_resolution(args.resolution) if args.resolution is not None else None
    if args.problem == "default":
        problem = default_problem()
    else:
        problem = OptimizationProblem.from_mapping(_load_json(args.problem))
    if args.oracle:
        try:
            steps = oracle_steps(problem, resolution)
        except ValueError as exc:
            raise UsageError(f"bad --resolution (steps in mm): {exc}") from None
    result = maximize(problem, restarts=args.restarts, seed=args.seed)
    mapping = result.to_mapping()
    if result.feasible_found:
        best = mapping["best"]
        lines = [
            f"best L = {mapping['L_best_uH']:.2f} uH at "
            f"D1 = {best['D1_mm']:.4f} mm, D2 = {best['D2_mm']:.4f} mm, "
            f"w = {best['w_mm']:.4f} mm, s = {best['s_mm']:.4f} mm, "
            f"N_T = {best['N_T']} ({result.restarts_run} restarts)"
        ]
    else:
        lines = [f"no feasible point found in {result.restarts_run} restarts"]
    if args.oracle and result.feasible_found:
        oracle = brute_force_max(problem, steps)
        oracle_mapping = oracle.to_mapping()
        del oracle_mapping["restarts"]
        del oracle_mapping["restarts_run"]
        mapping["oracle"] = oracle_mapping
        agreement = (result.L_best - oracle.L_best) / oracle.L_best * 100.0
        mapping["oracle_agreement_pct"] = agreement
        lines.append(
            f"oracle L = {oracle_mapping['L_best_uH']:.2f} uH, "
            f"optimizer ahead by {agreement:.4f}%"
        )
    elif args.oracle:
        lines.append("skipping the oracle, nothing to compare against")
    stage.write(args.out, _json_text(mapping))
    return "\n".join(lines) + "\n"


def _add_label_flags(command) -> None:
    command.add_argument("--noise", type=_NONNEGATIVE, default=0.0,
                         help="log10 noise sigma for labels (default 0)")
    command.add_argument("--seed", type=_SEED, default=0, help="noise seed (default 0)")


def _add_report_flags(command) -> None:
    command.add_argument("--threshold", type=_NONNEGATIVE, default=5.0,
                         help="exceedance threshold, percent (default 5)")
    command.add_argument("--bin-width", type=_POSITIVE, default=0.5,
                         help="histogram bin width, percent (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarwind",
        description="Inductance estimation, model fitting and design "
                    "optimization for multilayer rectangular planar windings. "
                    "Lengths are mm, inductances uH.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="estimate one winding's inductance")
    est.add_argument("--D1", type=_finite_float, required=True, metavar="MM", help="outer side 1")
    est.add_argument("--D2", type=_finite_float, required=True, metavar="MM", help="outer side 2")
    est.add_argument("--w", type=_finite_float, required=True, metavar="MM", help="trace width")
    est.add_argument("--s", type=_finite_float, required=True, metavar="MM", help="turn spacing")
    est.add_argument("--NT", type=_POSITIVE_INT, required=True, help="turns per layer")
    est.add_argument("--NL", type=_POSITIVE_INT, required=True, help="number of layers")
    est.add_argument("--O", type=_finite_float, default=None, metavar="MM",
                     help="layer gap, required for --NL >= 2")
    est.add_argument("--model", choices=["full", "simplified", "square", "mohan"],
                     default="full", help="which estimate to print (default full)")
    est.add_argument("--coeffs", default=None, metavar="FILE",
                     help="coefficient JSON for the full/square models, or 'default'")
    est.add_argument("--format", choices=["text", "json", "csv"], default="text")
    est.add_argument("--output", default=None, metavar="FILE",
                     help="write instead of printing")
    est.set_defaults(func=_cmd_estimate)

    grid = commands.add_parser("grid", help="generate a winding grid as CSV")
    grid.add_argument("--spec", required=True, metavar="FILE",
                      help="grid spec JSON, or one of the built-in corpora A, B, C, AB")
    grid.add_argument("--out", required=True, metavar="FILE", help="output CSV")
    grid.add_argument("--labels", dest="coeffs", default=None, metavar="FILE",
                      help="label with this coefficient JSON (or 'default')")
    _add_label_flags(grid)
    grid.set_defaults(func=_cmd_grid)

    synth = commands.add_parser("synth", help="label geometries with model inductance")
    synth.add_argument("--in", dest="input", required=True, metavar="FILE",
                       help="geometry CSV")
    synth.add_argument("--coeffs", required=True, metavar="FILE",
                       help="coefficient JSON (or 'default')")
    _add_label_flags(synth)
    synth.add_argument("--out", required=True, metavar="FILE", help="output CSV")
    synth.set_defaults(func=_cmd_synth)

    fit = commands.add_parser("fit", help="fit model coefficients to labeled samples")
    fit.add_argument("--in", dest="input", required=True, metavar="FILE",
                     help="labeled sample CSV")
    fit.add_argument("--fraction", type=_FRACTION, default=0.8,
                     help="training fraction (default 0.8)")
    fit.add_argument("--seed", type=_SEED, default=0, help="split seed (default 0)")
    fit.add_argument("--repeats", type=_POSITIVE_INT, default=1,
                     help="fits with derived seeds; coefficients come from the first")
    fit.add_argument("--out", required=True, metavar="FILE", help="coefficient JSON")
    fit.add_argument("--report", default=None, metavar="FILE", help="report JSON")
    _add_report_flags(fit)
    fit.set_defaults(func=_cmd_fit)

    ev = commands.add_parser("eval", help="evaluate coefficients on labeled samples")
    ev.add_argument("--in", dest="input", required=True, metavar="FILE",
                    help="labeled sample CSV")
    ev.add_argument("--coeffs", required=True, metavar="FILE",
                    help="coefficient JSON (or 'default')")
    _add_report_flags(ev)
    ev.add_argument("--report", required=True, metavar="FILE", help="report JSON")
    ev.add_argument("--hist", default=None, metavar="FILE",
                    help="also write the histogram as CSV")
    ev.set_defaults(func=_cmd_eval)

    opt = commands.add_parser("optimize", help="maximize inductance under bounds")
    opt.add_argument("--problem", required=True, metavar="FILE",
                     help="problem JSON, or 'default' for the reference task")
    opt.add_argument("--restarts", type=_POSITIVE_INT, default=100,
                     help="local searches per turn count (default 100)")
    opt.add_argument("--seed", type=_SEED, default=0, help="start-point seed (default 0)")
    opt.add_argument("--out", required=True, metavar="FILE", help="result JSON")
    opt.add_argument("--oracle", action="store_true",
                     help="also run the exhaustive grid oracle and compare")
    opt.add_argument("--resolution", default=None, metavar="D1=0.5,D2=0.5,w=0.1,s=0.1",
                     help="oracle grid steps in mm")
    opt.set_defaults(func=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    """Run one command: put its staged files in place, then print its text, or neither."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    stage = _Stager()
    try:
        text = args.func(args, stage)
        stage.commit()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RankDeficiencyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: a model value is outside the float range: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GeometryError, InfeasibleProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc.msg} at line {exc.lineno}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        stage.discard()
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
