"""Command-line front end: verification pipelines with JSON certificates.

Exit codes: 0 verified/success, 1 verification failure or domain error,
2 usage error. JSON goes to stdout, diagnostics to stderr. All integers in
JSON payloads are decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import adc, geometry, hassett_rep, lattices, local_global
from .qforms import builtin_form, primitive_image

_FORM_FLAGS = {"q3": "Q3", "g": "G"}


def _fraction(text: str) -> Fraction:
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


def _int_list(text: str):
    return [int(x) for x in text.split(",")]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _replay(path: str, what: str, decode, check, label: str) -> int:
    """The --verify-file mode of every command: decode the JSON at path,
    replay it with check, print label.format(decoded) and the verdict. A
    payload that does not decode is an unreadable `what` (exit 1)."""
    try:
        obj = decode(_load_json(path))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"unreadable {what}: {exc}", file=sys.stderr)
        return 1
    ok = check(obj)
    print(label.format(obj) + ": " + ("valid" if ok else "INVALID"))
    return 0 if ok else 1


# --- hassett ---


def _cmd_hassett_verify(args) -> int:
    n_max = args.max
    expected = [n for n in range(1, n_max + 1) if hassett_rep.in_hassett(n)]
    image = primitive_image(builtin_form("F"), n_max)
    ok = image == expected
    failed = []
    for n in expected:
        if not hassett_rep.verify_certificate(hassett_rep.represent(n)):
            failed.append(n)
            ok = False
    if args.json:
        _emit({"verified": ok, "checked": [str(n) for n in expected]})
    else:
        print(f"primitive image up to {n_max}: {len(image)} values")
        if image != expected:
            extra = sorted(set(image) - set(expected))[:10]
            missing = sorted(set(expected) - set(image))[:10]
            print(f"MISMATCH extra={extra} missing={missing}", file=sys.stderr)
        if failed:
            print(f"certificates failed for n in {failed[:10]}", file=sys.stderr)
        print("verified" if ok else "NOT verified")
    return 0 if ok else 1


def _hassett_diagnosis(n: int) -> str:
    if n % 6 not in (0, 2):
        return f"{n} is not in the Hassett set: {n} = {n % 6} (mod 6), need 0 or 2"
    return f"{n} is not in the Hassett set: below the minimum 8"


def _cmd_hassett_represent(args) -> int:
    if args.verify_file:
        return _replay(args.verify_file, "certificate", hassett_rep.certificate_from_dict,
                       hassett_rep.verify_certificate, "certificate for n = {0.n}")
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


def _trace_ok(trace) -> bool:
    form = builtin_form(trace.form_name)
    return adc.verify_trace(form, trace) and trace.terminal.t == 1


def _decode_trace(payload):
    trace = adc.trace_from_dict(payload)
    builtin_form(trace.form_name)  # a trace of an unknown form is unreadable
    return trace


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
    if args.verify_file:
        return _replay(args.verify_file, "trace", _decode_trace, _trace_ok,
                       "trace for {0.form_name}")
    if args.num is None or args.den is None:
        print("error: need --num and --den, or --verify-file", file=sys.stderr)
        return 2
    form = builtin_form(_FORM_FLAGS[args.form])
    point = adc.rational_point(form, args.num, args.den)
    trace = adc.descend(form, point)
    ok = _trace_ok(trace)
    if args.json:
        _emit(adc.trace_to_dict(trace))
    else:
        _print_trace(trace)
    return 0 if ok else 1


# --- local ---


def _report_ok(report) -> bool:
    return local_global.verify_report(report) and report.overall == "solvable"


def _cmd_local_certify(args) -> int:
    if args.verify_file:
        return _replay(args.verify_file, "report", local_global.report_from_dict,
                       _report_ok, "report for k = {0.k}")
    if args.k is None:
        print("error: need --k or --verify-file", file=sys.stderr)
        return 2
    report = local_global.certify_global(args.k, args.primes, args.precision)
    ok = _report_ok(report)
    if args.json:
        _emit(local_global.report_to_dict(report))
    else:
        print(f"k = {report.k}")
        for cert in report.certificates:
            witness = "" if cert.witness is None else f"  witness {_fmt_vec(cert.witness)}"
            print(f"  place {str(cert.place):>5}  {cert.verdict}{witness}")
        print(f"overall: {report.overall}")
    return 0 if ok else 1


# --- lattice ---


def _cmd_lattice_gram(args) -> int:
    m = lattices.gram_M(args.alpha, args.beta)
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
    if args.verify_file:
        return _replay(args.verify_file, "cubic", lambda payload: payload,
                       geometry.verify_cubic_dict, "cubic")
    config = geometry.standard_config(args.a, args.b)
    cubic = geometry.random_cubic(config, args.seed)
    payload = geometry.cubic_to_dict(cubic, config, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote cubic (a={config.a}, b={config.b}, seed={args.seed}) to {args.out}")
    else:
        _emit(payload)
    return 0


# --- parser ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hassettmax",
        description="Exact verification toolkit for quadratic form and "
        "plane-configuration computations.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    hassett = groups.add_parser("hassett", help="primitive representation pipeline")
    hactions = hassett.add_subparsers(dest="action", required=True)
    verify = hactions.add_parser("verify", help="check the primitive image up to N")
    verify.add_argument("--max", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_hassett_verify)
    represent = hactions.add_parser("represent", help="certificate for one n")
    represent.add_argument("n", type=int, nargs="?")
    represent.add_argument("--json", action="store_true")
    represent.add_argument("--verify-file", dest="verify_file")
    represent.set_defaults(func=_cmd_hassett_represent)

    adc_group = groups.add_parser("adc", help="descent and ADC verification")
    aactions = adc_group.add_subparsers(dest="action", required=True)
    check = aactions.add_parser("check", help="scan for ADC violations")
    check.add_argument("--form", choices=sorted(_FORM_FLAGS), required=True)
    check.add_argument("--max", type=int, required=True)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_adc_check)
    descend = aactions.add_parser("descend", help="denominator descent trace")
    descend.add_argument("--form", choices=sorted(_FORM_FLAGS), default="q3")
    descend.add_argument("--num", type=_int_csv(3))
    descend.add_argument("--den", type=int)
    descend.add_argument("--json", action="store_true")
    descend.add_argument("--verify-file", dest="verify_file")
    descend.set_defaults(func=_cmd_adc_descend)

    local = groups.add_parser("local", help="local solvability certificates")
    lactions = local.add_subparsers(dest="action", required=True)
    certify = lactions.add_parser("certify", help="certify G(w) = k at all places")
    certify.add_argument("--k", type=int)
    certify.add_argument("--primes", type=_int_list, default=None)
    certify.add_argument("--precision", type=int, default=3)
    certify.add_argument("--json", action="store_true")
    certify.add_argument("--verify-file", dest="verify_file")
    certify.set_defaults(func=_cmd_local_certify)

    lattice = groups.add_parser("lattice", help="rank-5 Gram matrices")
    tactions = lattice.add_subparsers(dest="action", required=True)
    gram = tactions.add_parser("gram", help="print the Gram matrix")
    gram.add_argument("--alpha", type=int, choices=(0, 1), required=True)
    gram.add_argument("--beta", type=int, choices=(0, 1), required=True)
    gram.add_argument("--json", action="store_true")
    gram.set_defaults(func=_cmd_lattice_gram)
    isometry = tactions.add_parser("isometry", help="basis change between variants")
    isometry.add_argument("--from", dest="from_pair", type=_int_csv(2), required=True)
    isometry.add_argument("--to", dest="to_pair", type=_int_csv(2), required=True)
    isometry.add_argument("--json", action="store_true")
    isometry.set_defaults(func=_cmd_lattice_isometry)

    geo = groups.add_parser("geometry", help="plane configurations and cubics")
    gactions = geo.add_subparsers(dest="action", required=True)
    dims = gactions.add_parser("dims", help="dimension report")
    dims.add_argument("--a", type=_fraction, default=Fraction(1))
    dims.add_argument("--b", type=_fraction, default=Fraction(1))
    dims.add_argument("--json", action="store_true")
    dims.set_defaults(func=_cmd_geometry_dims)
    cubic = gactions.add_parser("cubic", help="emit a seeded vanishing cubic")
    cubic.add_argument("--a", type=_fraction, default=Fraction(1))
    cubic.add_argument("--b", type=_fraction, default=Fraction(1))
    cubic.add_argument("--seed", type=int, default=1)
    cubic.add_argument("--out")
    cubic.add_argument("--json", action="store_true")
    cubic.add_argument("--verify-file", dest="verify_file")
    cubic.set_defaults(func=_cmd_geometry_cubic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
