"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure; ``decide
--exit-code`` additionally uses 3 for a NO answer.  Counts are printed as
exact decimal integers, never in scientific notation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from . import __version__
from .cnf_encode import encode_direct, write_dimacs
from .exact_count import check_decision_divisor, count_backtrack, decide_from_count
from .experiments import (COMPARISON_HEADER, SweepConfig, accuracy_header, accuracy_table,
                          critical_value, crossing_point, emit_csv, emit_svg_plot,
                          estimator_comparison, sweep_header, sweep_manifest,
                          sweep_tightness, write_manifest)
from .rb_model import RbParams, derive_sizes, generate, read_instance, write_instance
from .theory import ae_count, critical_density, critical_tightness, theorem_applicability


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(f"{self.prog}: error: {message}")


@contextlib.contextmanager
def _open(path: str, mode: str):
    """Open a text file in mode "r" or "w"; "-" is stdin or stdout."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as fp:
            yield fp


def _add_params(sub: argparse.ArgumentParser, required: bool = True) -> None:
    # sweep passes required=False: it requires the fixed one of -r/-p itself
    # and refuses the swept one, which --start sets
    sub.add_argument("-k", type=int, required=True, help="constraint arity")
    sub.add_argument("-n", type=int, required=True, help="variable count")
    sub.add_argument("-a", "--alpha", type=float, required=True,
                     help="domain growth exponent (d = n^alpha)")
    sub.add_argument("-r", type=float, required=required,
                     help="constraint density (m = r*n*ln n)")
    sub.add_argument("-p", type=float, required=required,
                     help="constraint tightness in (0, 1)")


def _params(args, **override) -> RbParams:
    fields = {"k": args.k, "n": args.n, "alpha": args.alpha, "r": args.r, "p": args.p,
              "seed": getattr(args, "seed", 0)}
    return RbParams(**(fields | override))


def _decimal(count: int) -> str:
    """Exact decimal digits at any size: str() of an int past 4300 digits needs
    the process-wide limit lifted, so it is lifted for this one call only."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # a Python without the limit
        return str(count)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(limit)


def _batch_args(sub: argparse.ArgumentParser, instances: int) -> None:
    """The options of a seeded batch of instances per point: sweep and the tables."""
    sub.add_argument("--instances", type=int, default=instances,
                     help="instances per point")
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed of the instances")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per 4 instances of a point and "
                          "one per CPU; results are identical for any value")
    sub.add_argument("-o", "--output", default="-", help="CSV path, - for stdout")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    instance = generate(_params(args))
    with _open(args.output, "w") as fp:
        write_instance(instance, fp)
    return 0


def cmd_count(args) -> int:
    with _open(args.instance, "r") as fp:
        instance = read_instance(fp)
    result = count_backtrack(instance)
    print(_decimal(result.count))
    print(f"nodes {result.nodes_visited}")
    print("method backtrack")
    print(f"memo_states {result.memo_states}")
    return 0


def cmd_decide(args) -> int:
    check_decision_divisor(args.divisor)
    with _open(args.instance, "r") as fp:
        instance = read_instance(fp)
    result = count_backtrack(instance)
    answer = decide_from_count(result.count, instance.d, instance.n, args.divisor)
    print("YES" if answer else "NO")
    print(f"count {_decimal(result.count)}")
    print(f"threshold d^(n/{args.divisor}) with d={instance.d} n={instance.n}")
    if args.exit_code and not answer:
        return 3
    return 0


def cmd_estimate(args) -> int:
    params = _params(args)
    sizes = derive_sizes(params)
    est = ae_count(params, args.delta, args.divisor)
    report = theorem_applicability(params)
    print(f"d {sizes.d}")
    print(f"m {sizes.m}")
    print(f"t_nogoods {sizes.t_nogoods}")
    print(f"p_eff {sizes.p_eff!r}")
    print(f"expected {est.expected!r}")
    print(f"log_expected {est.log_expected!r}")
    print(f"delta {est.delta!r}")
    print(f"interval_low {est.interval_low!r}")
    print(f"interval_high {est.interval_high!r}")
    print(f"log_interval_low {est.log_interval_low!r}")
    print(f"log_interval_high {est.log_interval_high!r}")
    print(f"critical_tightness {critical_tightness(params.alpha, params.r, args.divisor)!r}")
    print(f"critical_density {critical_density(params.alpha, sizes.p_eff, args.divisor)!r}")
    print(f"prediction {est.predicted}")
    print(f"alpha_above_inverse_arity {report.alpha_above_inverse_arity}")
    print(f"domain_growth_ok {report.domain_growth_ok}")
    print(f"arity_vs_tightness_ok {report.arity_vs_tightness_ok}")
    print(f"tightness_threshold_ok {report.tightness_threshold_ok}")
    print(f"density_threshold_ok {report.density_threshold_ok}")
    print(f"interval_estimate_ok {report.interval_estimate_ok}")
    return 0


def cmd_encode(args) -> int:
    with _open(args.instance, "r") as fp:
        instance = read_instance(fp)
    cnf = encode_direct(instance)
    comments = [f"rbcount {__version__} direct encoding",
                f"source: n={instance.n} d={instance.d} "
                f"constraints={len(instance.constraints)}"]
    with _open(args.output, "w") as fp:
        write_dimacs(cnf, fp, comments=comments)
    return 0


def cmd_sweep(args) -> int:
    fixed = "r" if args.vary == "p" else "p"
    if getattr(args, fixed) is None:
        raise UsageError(f"rbcount sweep: error: --vary {args.vary} requires -{fixed}")
    if getattr(args, args.vary) is not None:
        raise UsageError(f"rbcount sweep: error: -{args.vary} cannot be given with "
                         f"--vary {args.vary}; the grid starts at --start")
    config = SweepConfig(
        _params(args, **{args.vary: args.start}), args.stop, args.step,
        vary=args.vary, divisor=args.divisor, instances_per_point=args.instances, jobs=args.jobs)

    def progress(row):
        print(f"{config.vary}={row.value:.4f} p_eff={row.p_eff:.4f} "
              f"yes={row.yes_fraction:.2f} wall_ms={row.wall_ms:.0f}",
              file=sys.stderr)

    rows = sweep_tightness(config, progress=progress)
    with _open(args.output, "w") as fp:
        emit_csv(sweep_header(config.vary), rows, fp)
    cross = crossing_point(rows)
    if cross is not None:
        print(f"crossing {cross!r}", file=sys.stderr)
    if args.svg is not None:
        base = config.base
        title = f"k={base.k} n={base.n} alpha={base.alpha} {fixed}={getattr(base, fixed)}"
        with _open(args.svg, "w") as fp:
            emit_svg_plot(rows, fp, marker=critical_value(config), title=title)
    if args.manifest is not None:
        with _open(args.manifest, "w") as fp:
            write_manifest(sweep_manifest(config), fp)
    return 0


def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"rbcount accuracy: error: bad delta list {text!r}") from None
    if not deltas:
        raise UsageError("rbcount accuracy: error: empty delta list")
    try:
        accuracy_header(deltas)  # refuses a repeat before anything is counted
    except ValueError as exc:
        raise UsageError(f"rbcount accuracy: error: {exc}") from None
    return deltas


def cmd_accuracy(args) -> int:
    deltas = _parse_deltas(args.deltas)
    row = accuracy_table(_params(args), deltas, instances=args.instances, jobs=args.jobs)
    with _open(args.output, "w") as fp:
        emit_csv(accuracy_header(deltas), [row], fp)
    return 0


def cmd_compare(args) -> int:
    row = estimator_comparison(_params(args), instances=args.instances, jobs=args.jobs)
    with _open(args.output, "w") as fp:
        emit_csv(COMPARISON_HEADER, [row], fp)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rbcount parser, built once per process: parse_args keeps no state
    in it between calls."""
    parser = _Parser(prog="rbcount",
                     description="Generate, count, decide, estimate, encode and "
                                 "sweep random CSP instances with sharp count "
                                 "thresholds.")
    parser.add_argument("--version", action="version", version=f"rbcount {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("gen", help="generate an instance")
    _add_params(sub)
    sub.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    sub.add_argument("-o", "--output", default="-", help="output path, - for stdout")
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("count", help="count solutions exactly")
    sub.add_argument("instance", help="instance path, - for stdin")
    sub.set_defaults(func=cmd_count)

    sub = subs.add_parser("decide", help="test count >= d^(n/divisor)")
    sub.add_argument("instance", help="instance path, - for stdin")
    sub.add_argument("--divisor", type=int, default=2, help="threshold divisor")
    sub.add_argument("--exit-code", action="store_true",
                     help="exit 0 for YES, 3 for NO")
    sub.set_defaults(func=cmd_decide)

    sub = subs.add_parser("estimate", help="closed-form count estimate")
    _add_params(sub)
    sub.add_argument("--delta", type=float, default=0.9,
                     help="relative interval half-width in (0, 1]")
    sub.add_argument("--divisor", type=int, default=2, help="threshold divisor")
    sub.set_defaults(func=cmd_estimate)

    sub = subs.add_parser("encode", help="emit a DIMACS CNF encoding")
    sub.add_argument("instance", help="instance path, - for stdin")
    sub.add_argument("-o", "--output", default="-", help="output path, - for stdout")
    sub.set_defaults(func=cmd_encode)

    sub = subs.add_parser("sweep", help="grid sweep with exact counting")
    _add_params(sub, required=False)
    sub.add_argument("--vary", choices=("p", "r"), default="p",
                     help="the swept axis; the other of -r/-p is required")
    sub.add_argument("--start", type=float, required=True)
    sub.add_argument("--stop", type=float, required=True)
    sub.add_argument("--step", type=float, required=True)
    sub.add_argument("--divisor", type=int, default=2, help="threshold divisor")
    _batch_args(sub, instances=100)
    sub.add_argument("--svg", default=None, help="also write an SVG plot here")
    sub.add_argument("--manifest", default=None, help="also write a manifest here")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("accuracy", help="interval coverage of exact counts")
    _add_params(sub)
    sub.add_argument("--deltas", default="0.5,0.6,0.7,0.8,0.9",
                     help="comma-separated interval widths")
    _batch_args(sub, instances=300)
    sub.set_defaults(func=cmd_accuracy)

    sub = subs.add_parser("compare", help="sample mean count against the "
                                          "closed-form mean")
    _add_params(sub)
    _batch_args(sub, instances=300)
    sub.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and exit 0
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    # RuntimeError takes in CapExceeded and a process pool whose worker died
    except (RuntimeError, ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"rbcount: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
