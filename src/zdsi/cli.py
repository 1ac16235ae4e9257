"""Command-line interface: problem-file ingestion, dispatch, CSV/JSON emission.

Every command is a thin adapter over the library; outputs are byte-identical
to direct calls with the same inputs and seed.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .errors import ParseError, ValidationError, ZdsiError
from .multiterminal import (
    MTRegion,
    build_region,
    enumerate_mt_points,
    export_region_csv,
    export_witness_csv,
    is_achievable,
)
from .probability import (
    Alphabet,
    DistortionMatrix,
    JointPMF,
    TriplePMF,
    distortion_matrix,
    entropy_bits,
    format_rational,
    hamming,
    marginal_source,
    parse_rational,
    triple_pmf,
    validate,
)
from .quantizers import (
    causal_rd_curve,
    encoder_si_rd_curve,
    export_curve_csv,
    lower_convex_envelope,
    rd_points,
)
from .ri_codes import export_protocol, solve_ri
from .sequential import (
    SCHEME_CSV_HEADER,
    rd_function,
    simulate_prefix_uniqueness,
    simulate_scheme,
    threshold_alpha,
)
from .streaming import build_plan, export_trace_csv, run_simulation


@dataclass(frozen=True)
class ProblemSpec:
    """Problem-file contents: alphabets, joint pmf, distortion matrices."""

    pmf: JointPMF
    distortion: DistortionMatrix
    distortion_y: DistortionMatrix | None = None
    triple: TriplePMF | None = None  # (S, X, Y) when an encoder-SI alphabet is given


def _rational(value, where: str) -> Fraction:
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r} ({exc})") from None


def _matrix(rows, nr: int, nc: int, where: str):
    if not isinstance(rows, list) or len(rows) != nr:
        raise ParseError(f"{where}: expected {nr} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != nc:
            raise ParseError(f"{where}[{i}]: expected {nc} entries")
        out.append(tuple(_rational(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(out)


def _alphabet(doc, key: str, required: bool = True) -> Alphabet | None:
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}")
        return None
    symbols = doc[key]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ParseError(f"{key}: expected a list of strings")
    try:
        return Alphabet(key, tuple(symbols))
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from None


def load_problem(path: str) -> ProblemSpec:
    """Parse and validate a JSON problem file.

    Rationals are "num/den" strings; errors name the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")

    source = _alphabet(doc, "source_alphabet")
    si = _alphabet(doc, "si_alphabet")
    enc_si = _alphabet(doc, "encoder_si_alphabet", required=False)
    reproduction = _alphabet(doc, "reproduction_alphabet", required=False) or source

    triple = None
    if enc_si is not None:
        cube = doc.get("pmf_sxy")
        if cube is None:
            raise ParseError("encoder_si_alphabet given but pmf_sxy missing")
        if not isinstance(cube, list) or len(cube) != len(enc_si):
            raise ParseError(f"pmf_sxy: expected {len(enc_si)} planes")
        planes = tuple(
            _matrix(plane, len(source), len(si), f"pmf_sxy[{s}]")
            for s, plane in enumerate(cube)
        )
        try:
            triple = triple_pmf((enc_si, source, si), planes)
        except ZdsiError as exc:
            raise ValidationError(f"pmf_sxy: {exc}") from None
        pmf_rows = tuple(
            tuple(
                sum((planes[s][x][y] for s in range(len(enc_si))), Fraction(0))
                for y in range(len(si))
            )
            for x in range(len(source))
        )
        pmf = JointPMF(source, si, pmf_rows)
    else:
        if "pmf" not in doc:
            raise ParseError("missing field 'pmf'")
        pmf = JointPMF(source, si, _matrix(doc["pmf"], len(source), len(si), "pmf"))
    try:
        validate(pmf)
    except ZdsiError as exc:
        raise ValidationError(f"pmf: {exc}") from None

    if "distortion" in doc:
        d = distortion_matrix(
            source,
            reproduction,
            _matrix(doc["distortion"], len(source), len(reproduction), "distortion"),
        )
    else:
        d = hamming(source)
    d_y = None
    if "distortion_y" in doc:
        d_y = distortion_matrix(
            si, si, _matrix(doc["distortion_y"], len(si), len(si), "distortion_y")
        )
    return ProblemSpec(pmf=pmf, distortion=d, distortion_y=d_y, triple=triple)


def _load_single_user(args) -> tuple[JointPMF, DistortionMatrix]:
    if args.file:
        spec = load_problem(args.file)
        return spec.pmf, spec.distortion
    if args.example in ("pentagon",):
        return fixtures.pentagon()
    if args.example == "c6":
        return fixtures.c6()
    if args.example == "fully-connected":
        if args.M is None or args.p is None:
            raise ValidationError("fully-connected needs --M and --p")
        return fixtures.fully_connected_example(args.M, Fraction(args.p))
    if args.example == "split-cell":
        if args.p is None:
            raise ValidationError("split-cell needs --p")
        return fixtures.split_cell_channel(Fraction(args.p))
    if args.example == "mt-binary":
        pmf, dx, _ = fixtures.mt_binary()
        return pmf, dx
    raise ValidationError("provide --file or --example")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(args, value) -> str:
    if args.format == "float":
        return repr(float(value))
    return format_rational(Fraction(value))


def _cmd_solve_ri(args) -> int:
    pmf, _ = _load_single_user(args)
    protocol, value = solve_ri(pmf)
    table = export_protocol(pmf.source, marginal_source(pmf), protocol)
    _emit(args, f"L_Y = {_fmt(args, value)}\n{table}")
    return 0


def _cmd_rd_curve(args) -> int:
    pmf, d = _load_single_user(args)
    cloud = rd_points(pmf, d)
    curve = lower_convex_envelope(cloud)
    _emit(args, export_curve_csv(curve, exact=args.format != "float"))
    return 0


def _cmd_causal_curve(args) -> int:
    pmf, d = _load_single_user(args)
    curve = causal_rd_curve(pmf, d)
    _emit(args, export_curve_csv(curve, exact=False))
    return 0


def _cmd_encoder_si_curve(args) -> int:
    if not args.file:
        raise ValidationError("encoder-si-curve needs --file with pmf_sxy")
    spec = load_problem(args.file)
    if spec.triple is None:
        raise ValidationError("problem file has no encoder_si_alphabet/pmf_sxy")
    curve = encoder_si_rd_curve(spec.triple, spec.distortion)
    _emit(args, export_curve_csv(curve, exact=args.format != "float"))
    return 0


def _cmd_mt_region(args) -> int:
    if args.file:
        spec = load_problem(args.file)
        pmf, dx = spec.pmf, spec.distortion
        dy = spec.distortion_y or hamming(pmf.si)
    else:
        if args.example != "mt-binary":
            raise ValidationError("mt-region needs --file or --example mt-binary")
        pmf, dx, dy = fixtures.mt_binary()
    region = build_region(pmf, dx, dy)
    lines = [export_region_csv(region)]
    if args.simultaneous:
        sim = MTRegion(tuple(enumerate_mt_points(pmf, dx, dy, "SIM")))
        lines.append(export_region_csv(sim).split("\n", 1)[1])
    if args.query:
        parts = args.query.split(",")
        if len(parts) != 4:
            raise ValidationError("--query needs Rx,Ry,Dx,Dy")
        target = tuple(_rational(v, "--query") for v in parts)
        result = is_achievable(region, target)
        lines.append(f"achievable: {'yes' if result.achievable else 'no'}")
        if result.witness:
            lines.append(export_witness_csv(result.witness))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_simulate_stream(args) -> int:
    pmf, d = _load_single_user(args)
    cloud = rd_points(pmf, d)
    curve = lower_convex_envelope(cloud)
    target = Fraction(args.D) if args.D is not None else curve.vertices[0][0]
    plan = build_plan(curve, cloud, target)
    report = run_simulation(pmf, plan, args.n, args.seed, trace=bool(args.trace))
    lines = [
        "n,total_bits,rate,distortion,sync_errors",
        report.csv_row(),
        f"plan_rate={_fmt(args, plan.rate)} plan_distortion={_fmt(args, plan.distortion)}"
        f" lambda={_fmt(args, plan.lambda_weight)}",
    ]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(export_trace_csv(pmf, plan, report) + "\n")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_simulate_seq(args) -> int:
    pmf, d = _load_single_user(args)
    p_x = marginal_source(pmf)
    target = Fraction(args.D) if args.D is not None else Fraction(1, 8)
    rdf = rd_function(p_x, d)
    rate_d, prior = rdf.rate_and_prior(float(target))
    if args.alpha is not None:
        alpha = args.alpha
    else:
        h = entropy_bits([q for q in prior if q > 0])
        alpha = min(1.0, threshold_alpha(rate_d + args.epsilon, h) + 0.1) if h > 0 else 1.0
    report = simulate_scheme(
        p_x,
        d,
        target,
        n=args.n,
        epsilon=args.epsilon,
        alpha=alpha,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        delta=args.delta,
    )
    _emit(args, SCHEME_CSV_HEADER + "\n" + report.csv_row())
    return 0


def _cmd_examples(args) -> int:
    lines = [f"{name}: {desc}" for name, desc in fixtures.EXAMPLES.items()]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_pc_bound(args) -> int:
    est = simulate_prefix_uniqueness(
        [0.5, 0.5], args.n, args.R, args.alpha or 0.5, args.trials, args.seed
    )
    _emit(args, f"estimate={est.estimate!r} half_width={est.half_width!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdsi",
        description="Zero-delay rate-distortion tradeoffs with decoder side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, distortion_target=False):
        p.add_argument("--file", help="JSON problem file")
        p.add_argument("--example", choices=sorted(fixtures.EXAMPLES))
        p.add_argument("--M", type=int, help="alphabet size for fully-connected")
        p.add_argument("--p", help="channel parameter (rational, e.g. 3/10)")
        p.add_argument("--format", choices=("exact", "float"), default="exact")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if distortion_target:
            p.add_argument("--D", help="target distortion (rational)")

    p = sub.add_parser("solve-ri", help="optimal RI protocol and L_Y")
    common(p)
    p.set_defaults(func=_cmd_solve_ri)

    p = sub.add_parser("rd-curve", help="zero-delay envelope CSV")
    common(p)
    p.set_defaults(func=_cmd_rd_curve)

    p = sub.add_parser("causal-curve", help="causal envelope CSV (float rates)")
    common(p)
    p.set_defaults(func=_cmd_causal_curve)

    p = sub.add_parser("encoder-si-curve", help="encoder-side-information envelope CSV")
    common(p)
    p.set_defaults(func=_cmd_encoder_si_curve)

    p = sub.add_parser("mt-region", help="multiterminal region CSV and queries")
    common(p)
    p.add_argument("--query", help="Rx,Ry,Dx,Dy membership query (rationals)")
    p.add_argument("--simultaneous", action="store_true",
                   help="also list the simpler simultaneous-decoding points")
    p.set_defaults(func=_cmd_mt_region)

    p = sub.add_parser("simulate-stream", help="bit-exact streaming codec run")
    common(p, distortion_target=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write per-symbol trace CSV to this path")
    p.set_defaults(func=_cmd_simulate_stream)

    p = sub.add_parser("simulate-seq", help="sequential prefix-identification scheme")
    common(p, distortion_target=True)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--alpha", type=float, help="prefix fraction (default threshold+0.1)")
    p.add_argument("--epsilon", type=float, default=0.15)
    p.add_argument("--mode", choices=("fixed", "variable"), default="fixed")
    p.add_argument("--delta", type=float, default=0.02)
    p.set_defaults(func=_cmd_simulate_seq)

    p = sub.add_parser("pc-estimate", help="Monte Carlo prefix-uniqueness probability")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--R", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pc_bound)

    p = sub.add_parser("examples", help="list built-in example problems")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_examples)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZdsiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
