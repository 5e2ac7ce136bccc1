"""Command-line front end: verification pipelines with JSON certificates.

Exit codes: 0 verified/success, 1 verification failure, domain error or
unwritable --out file, 2 usage error. JSON goes to stdout, diagnostics to
stderr. All integers in JSON payloads are decimal strings. Every
--verify-file uses the decoder and check of the module that writes the payload.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import adc, geometry, hassett_rep, lattices, local_global
from .arith import LIMIT, MAX_DIGITS, short_int as _short_int
from .qforms import builtin_form

_FORM_FLAGS = {name.lower(): name for name in adc.TRACE_FORMS}


def _fraction(text: str) -> Fraction:
    # any spelling Fraction reads but exponents, since "1e100000" would stand
    # for a 100001-digit parameter; a ValueError is argparse's own "invalid
    # _fraction value" (exit 2)
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("zero denominator") from None


def _int_csv(arity: int):
    def parse(text: str):
        parts = tuple(int(x) for x in text.split(","))
        if len(parts) != arity:
            raise argparse.ArgumentTypeError(f"expected {arity} comma-separated integers")
        return parts

    return parse


def _variant(text: str) -> tuple[int, int]:
    """An (alpha, beta) pair of lattice isometry, each 0 or 1 as for lattice gram."""
    pair = _int_csv(2)(text)
    if not set(pair) <= {0, 1}:
        raise argparse.ArgumentTypeError("alpha and beta must be 0 or 1")
    return pair


def _bounded_int(high: int, low: int | None = None):
    """An int option in [low, high], so a few bytes cannot ask for a run that
    never ends (or, for adc check, for a mask of that many bits), nor scan nothing."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n > high:
            raise argparse.ArgumentTypeError(f"{n} is above the limit {high}")
        if low is not None and n < low:
            raise argparse.ArgumentTypeError(f"{n} is below the limit {low}")
        return n

    return parse


def _int_list(text: str):
    return [int(x) for x in text.split(",")]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _replay(path: str, what: str, decode, check, label) -> int:
    """The --verify-file mode of every command: decode the JSON at path,
    replay it with check, print label(decoded) and the verdict. A
    payload that does not decode, nested too deep for json included, is an
    unreadable `what` (exit 1)."""
    try:
        obj = decode(_load_json(path))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        print(f"unreadable {what}: {exc}", file=sys.stderr)
        return 1
    ok = check(obj)
    print(label(obj) + ": " + ("valid" if ok else "INVALID"))
    return 0 if ok else 1


# --- hassett ---


def _cmd_hassett_verify(args) -> int:
    # containment from F's Gram matrix, coverage from a replayed certificate
    # for every member: so F's primitive image up to N is `expected`
    n_max = args.max
    expected = [n for n in range(1, n_max + 1) if hassett_rep.in_hassett(n)]
    ok = hassett_rep.values_in_hassett(builtin_form("F"))
    for n in expected:
        hassett_rep.represent(n)  # raises unless its certificate replays
    if args.json:
        _emit({"verified": ok, "checked": [str(n) for n in expected]})
    else:
        print(f"primitive image up to {n_max}: {len(expected)} values")
        print("verified" if ok else "NOT verified")
    return 0 if ok else 1


def _hassett_diagnosis(n: int) -> str:
    if n % 6 not in (0, 2):
        return f"{n} is not in the Hassett set: {n} = {n % 6} (mod 6), need 0 or 2"
    return f"{n} is not in the Hassett set: below the minimum 8"


def _cmd_hassett_represent(args) -> int:
    if args.n is None:
        print("error: need n or --verify-file", file=sys.stderr)
        return 2
    n = args.n
    if not hassett_rep.in_hassett(n):
        if args.json:
            _emit({"n": str(n), "error": _hassett_diagnosis(n)})
        else:
            print(_hassett_diagnosis(n), file=sys.stderr)
        return 1
    cert = hassett_rep.represent(n)
    if args.json:
        _emit(hassett_rep.certificate_to_dict(cert))
    else:
        print(f"n = {cert.n}  branch = {cert.branch}")
        if cert.branch != "special":
            print(f"u = {cert.u}  k = {cert.k}")
            print(f"g = {_fmt_vec(cert.g)}  xyz = {_fmt_vec(cert.xyz)}")
        print(f"v = {_fmt_vec(cert.v)}  F(v) = {cert.n}, primitive")
    return 0


# --- adc ---


def _cmd_adc_check(args) -> int:
    form = builtin_form(_FORM_FLAGS[args.form])
    violations = adc.adc_check(form, args.max)
    if args.json:
        _emit(
            {
                "form": form.name,
                "max": str(args.max),
                "violations": [str(n) for n in violations],
            }
        )
    else:
        if violations:
            print(f"{form.name}: ADC violations up to {args.max}: {violations}")
        else:
            print(f"{form.name}: no ADC violations up to {args.max}")
    return 0 if not violations else 1


def _print_trace(trace) -> None:
    start = trace.start
    print(f"{trace.form_name}: descend {_fmt_vec(start.v)}/{start.t}, value {start.m}")
    for step in trace.steps:
        data = " ".join(f"{k}={v}" for k, v in step.data.items())
        print(
            f"  {step.kind:9s} {data:24s} "
            f"{_fmt_vec(step.before.v)}/{step.before.t} -> "
            f"{_fmt_vec(step.after.v)}/{step.after.t}"
        )
    term = trace.terminal
    print(f"terminal {_fmt_vec(term.v)}/{term.t}, value {term.m}")


def _cmd_adc_descend(args) -> int:
    if args.num is None or args.den is None:
        print("error: need --num and --den, or --verify-file", file=sys.stderr)
        return 2
    form = builtin_form(_FORM_FLAGS[args.form])
    point = adc.rational_point(form, args.num, args.den)
    if point.m >= LIMIT:  # m >= 0: Q3 and G are positive definite
        print(f"error: Q(v/t) has more than {MAX_DIGITS} digits", file=sys.stderr)
        return 2
    trace = adc.descend(form, point)
    ok = adc.verify_trace(form, trace)
    if args.json:
        _emit(adc.trace_to_dict(trace))
    else:
        _print_trace(trace)
    return 0 if ok else 1


# --- local ---


def _cmd_local_certify(args) -> int:
    if args.k is None:
        print("error: need --k or --verify-file", file=sys.stderr)
        return 2
    try:
        for p in args.primes or ():
            local_global.check_precision(p, args.precision)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = local_global.certify_global(args.k, args.primes, args.precision)
    if args.json:
        _emit(local_global.report_to_dict(report))
    else:
        print(f"k = {_short_int(report.k)}")
        for cert in report.certificates:
            witness = "" if cert.witness is None else f"  witness {_fmt_vec(cert.witness)}"
            print(f"  place {str(cert.place):>5}  {cert.verdict}{witness}")
        print(f"overall: {report.overall}")
    return 0 if report.overall == "solvable" else 1


# --- lattice ---


def _cmd_lattice_gram(args) -> int:
    # standard_config(a, b) has (alpha, beta) = ([a == 0], [b == 0])
    m = geometry.gram_from_geometry(geometry.standard_config(1 - args.alpha, 1 - args.beta))
    if args.json:
        _emit(
            {
                "alpha": str(args.alpha),
                "beta": str(args.beta),
                "entries": [[str(x) for x in row] for row in m.entries],
            }
        )
    else:
        print(f"Gram matrix, alpha = {args.alpha}, beta = {args.beta}:")
        for row in m.entries:
            print("  " + "  ".join(f"{x:>2}" for x in row))
    return 0


def _cmd_lattice_isometry(args) -> int:
    source, target = tuple(args.from_pair), tuple(args.to_pair)
    change = lattices.isometry_to(source, target)
    transformed = lattices.apply_basis_change(lattices.gram_M(*source), change)
    congruent = transformed == lattices.gram_M(*target).entries
    unimodular = lattices.is_unimodular(change)
    if args.json:
        _emit(
            {
                "from": [str(x) for x in source],
                "to": [str(x) for x in target],
                "matrix": [[str(x) for x in row] for row in change.matrix],
                "unimodular": unimodular,
                "congruent": congruent,
            }
        )
    else:
        print(f"basis change {source} -> {target}:")
        for row in change.matrix:
            print("  " + "  ".join(f"{x:>2}" for x in row))
        print(f"unimodular: {unimodular}  congruent: {congruent}")
    return 0 if congruent and unimodular else 1


# --- geometry ---


def _cmd_geometry_dims(args) -> int:
    config = geometry.standard_config(args.a, args.b)
    report = geometry.dims_report(config)
    if args.json:
        _emit(
            {
                key: value if isinstance(value, bool) else str(value)
                for key, value in report.items()
            }
        )
    else:
        for key, value in report.items():
            print(f"{key} = {value}")
    return 0 if report["methods_agree"] else 1


def _cmd_geometry_cubic(args) -> int:
    config = geometry.standard_config(args.a, args.b)
    cubic = geometry.random_cubic(config, args.seed)
    payload = geometry.cubic_to_dict(cubic, config, args.seed)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote cubic (a={config.a}, b={config.b}, seed={args.seed}) to {args.out}")
    else:
        _emit(payload)
    return 0


# --- parser ---


def _command(actions, name: str, help: str, func, replay=None):
    """A subcommand with --json. Given replay = (what, decode, check, label),
    it also takes --verify-file, which main runs through _replay instead of
    func."""
    command = actions.add_parser(name, help=help)
    command.add_argument("--json", action="store_true")
    if replay:
        command.add_argument("--verify-file", dest="verify_file")
    command.set_defaults(func=func, replay=replay, verify_file=None)
    return command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hassettmax",
        description="Exact verification toolkit for quadratic form and "
        "plane-configuration computations.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    hassett = groups.add_parser("hassett", help="primitive representation pipeline")
    hactions = hassett.add_subparsers(dest="action", required=True)
    verify = _command(hactions, "verify", "check the primitive image up to N",
                      _cmd_hassett_verify)
    verify.add_argument("--max", type=_bounded_int(10**5, 1), required=True)
    represent = _command(hactions, "represent", "certificate for one n", _cmd_hassett_represent,
                         ("certificate", hassett_rep.certificate_from_dict,
                          hassett_rep.verify_certificate, lambda c: f"certificate for n = {c.n}"))
    represent.add_argument("n", type=_bounded_int(10**13), nargs="?")

    adc_group = groups.add_parser("adc", help="descent and ADC verification")
    aactions = adc_group.add_subparsers(dest="action", required=True)
    check = _command(aactions, "check", "scan for ADC violations", _cmd_adc_check)
    check.add_argument("--form", choices=sorted(_FORM_FLAGS), required=True)
    check.add_argument("--max", type=_bounded_int(10**7, 1), required=True)
    descend = _command(aactions, "descend", "denominator descent trace", _cmd_adc_descend,
                       ("trace", adc.trace_from_dict,
                        lambda t: adc.verify_trace(builtin_form(t.form_name), t),
                        lambda t: f"trace for {t.form_name}"))
    descend.add_argument("--form", choices=sorted(_FORM_FLAGS), default="q3")
    descend.add_argument("--num", type=_int_csv(3))
    descend.add_argument("--den", type=_bounded_int(10**24, 1))

    local = groups.add_parser("local", help="local solvability certificates")
    lactions = local.add_subparsers(dest="action", required=True)
    certify = _command(lactions, "certify", "certify G(w) = k at all places", _cmd_local_certify,
                       ("report", local_global.report_from_dict, local_global.verify_report,
                        lambda r: f"report for k = {_short_int(r.k)}, overall {r.overall}"))
    certify.add_argument("--k", type=int)
    certify.add_argument("--primes", type=_int_list, default=None)
    certify.add_argument("--precision", type=_bounded_int(local_global.MAX_PRECISION, 1),
                         default=3)

    lattice = groups.add_parser("lattice", help="rank-5 Gram matrices")
    tactions = lattice.add_subparsers(dest="action", required=True)
    gram = _command(tactions, "gram", "print the Gram matrix", _cmd_lattice_gram)
    gram.add_argument("--alpha", type=int, choices=(0, 1), required=True)
    gram.add_argument("--beta", type=int, choices=(0, 1), required=True)
    isometry = _command(tactions, "isometry", "basis change between variants",
                        _cmd_lattice_isometry)
    isometry.add_argument("--from", dest="from_pair", type=_variant, required=True)
    isometry.add_argument("--to", dest="to_pair", type=_variant, required=True)

    geo = groups.add_parser("geometry", help="plane configurations and cubics")
    gactions = geo.add_subparsers(dest="action", required=True)
    dims = _command(gactions, "dims", "dimension report", _cmd_geometry_dims)
    cubic = _command(gactions, "cubic", "emit a seeded vanishing cubic", _cmd_geometry_cubic,
                     ("cubic", geometry.cubic_from_dict, lambda c: geometry.cubic_replays(*c),
                      lambda c: "cubic"))
    for command in (dims, cubic):
        command.add_argument("--a", type=_fraction, default=Fraction(1))
        command.add_argument("--b", type=_fraction, default=Fraction(1))
    cubic.add_argument("--seed", type=int, default=1)
    cubic.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.verify_file:
            return _replay(args.verify_file, *args.replay)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
