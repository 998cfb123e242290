"""Command-line front end.

One subcommand per calculus artifact: products, duals, degrees, word
enumeration, plain and ad-saturated closures, the simplicity and circle
checkers, the invertibles scan, and certificate verification.  Every run
is reproducible from its invocation; reports carry no timestamps or other
hidden state unless timing is explicitly requested.  Runs are serial:
--threads is accepted for compatibility and never changes an output byte.

Exit codes: 0 success or pass, 1 check failed, 2 usage error,
3 inconclusive (bound exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .closure import (
    CLOSED_FORMS,
    ClosureConfig,
    certificate_from_json,
    enumerate_words,
    generate,
    member,
    verify_certificate_detailed,
)
from .fusion import element_to_json, mul_many
from .normality import (
    AdConfig,
    Ambient,
    AmbientView,
    ad_closure,
    check_circle_corollary,
    check_simplicity,
    find_invertibles,
    witness_entries,
)
from .words import degree, format_word, involute, parse_word, parse_words

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# The encoder under _encode.  Compact separators keep it on the C encoder.
# The CLI renders only documents it built, which are acyclic, so it skips
# the cycle check; a cycle still raises RecursionError.
_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_MARK = "\0seeds"  # holds a sweep's place while the rest of its document is encoded


def _encode(document) -> str:
    """The one renderer of every JSON text the CLI writes, in json.dumps's
    compact bytes.  A seed and its dual share one fields dict, so a sweep
    record's text after its seed is encoded once per distinct set of non-seed
    values, keyed by their ids within this call, and spliced after the seed."""
    result = document.get("result") if isinstance(document, dict) else None
    records = result.get("seeds") if isinstance(result, dict) else None
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and len(r) > 1 and next(iter(r)) == "seed" for r in records):
        return _json(document)
    head, *tail = _json({**document, "result": {**result, "seeds": _MARK}}).split(_json(_MARK))
    if len(tail) != 1:  # the mark's text is also somewhere else
        return _json(document)
    bodies = {}  # the non-seed (key, id(value)) pairs -> the record's text after its seed
    texts = []
    for r in records:
        (_, seed), *fields = r.items()
        key = tuple((k, id(v)) for k, v in fields)
        if key not in bodies:
            bodies[key] = _json(dict(fields))[1:]
        texts.append(f'{{"seed":{_json(seed)},{bodies[key]}')
    return f'{head}[{",".join(texts)}]{tail[0]}'


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument("--report", metavar="FILE", help="write the JSON report to FILE")
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; runs are serial and the value "
        "never changes any output byte",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing in the report (breaks byte-stability)",
    )


def _add_bound_flags(p, seed_len=False, ad_len=False):
    p.add_argument("--work-len", type=int, default=ClosureConfig.work_len,
                   help="maximum word length retained during saturation")
    p.add_argument("--report-len", type=int,
                   help="length up to which answers are reported")
    if ad_len:
        p.add_argument("--ad-len", type=int, help="maximum conjugator length")
    if seed_len:
        p.add_argument("--seed-len", type=int,
                       help="maximum seed length for the sweep")


def _resolve_bounds(args):
    """An omitted bound is its config default capped at --work-len, so that
    a small --work-len alone is a valid invocation; an explicit one is kept."""
    defaults = {"report_len": ClosureConfig.report_len,
                "ad_len": AdConfig.ad_len, "seed_len": AdConfig.seed_len}
    for name, default in defaults.items():
        if getattr(args, name, default) is None:
            setattr(args, name, min(default, args.work_len))


def _add_arguments(name: str, p: _ArgumentParser) -> _ArgumentParser:
    """Subcommand name's arguments, added to its parser p."""
    if name == "mul":
        p.add_argument("words", nargs="+")
    elif name in ("dual", "degree"):
        p.add_argument("word")
    elif name == "enumerate":
        g = p.add_mutually_exclusive_group()
        g.add_argument("--all", dest="filter", action="store_const", const="all")
        g.add_argument("--balanced", dest="filter", action="store_const",
                       const="balanced")
        p.set_defaults(filter="all")
        p.add_argument("--max-len", type=int, required=True)
    elif name == "closure":
        p.add_argument("--gens", required=True, help="comma-separated words")
        p.add_argument("--member", help="query membership of a word")
        p.add_argument("--witness", help="emit a derivation certificate for a member")
        _add_bound_flags(p)
    elif name == "ad-closure":
        p.add_argument("--seeds", required=True, help="comma-separated words")
        p.add_argument("--ambient", default="au", help="au, pu, or gen:w1,w2,...")
        p.add_argument("--member", help="query membership of a word")
        p.add_argument("--witness", help="emit a derivation certificate for a member")
        _add_bound_flags(p, ad_len=True)
    elif name in ("check-simple", "check-circle"):
        if name == "check-simple":
            p.add_argument("--ambient", default="pu", help="au, pu, or gen:w1,w2,...")
        p.add_argument("--cert-samples", type=int, default=3)
        _add_bound_flags(p, seed_len=True, ad_len=True)
    elif name == "invertibles":
        p.add_argument("--max-len", type=int, required=True)
    else:  # verify-cert
        p.add_argument("file")
    _add_output_flags(p)
    return p


def _build_parser() -> _ArgumentParser:
    """The whole tree: every subcommand with its help and its arguments."""
    parser = _ArgumentParser(prog="freefusion")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help, _) in _COMMANDS.items():
        _add_arguments(name, sub.add_parser(name, help=help))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the whole tree parses it, building one parser where
    that suffices: the top level takes no argument but the subcommand, so
    when argv[0] names one, it hands exactly argv[1:] to that subcommand's
    parser.  Any other argv (help, version, an unknown, missing or later
    subcommand) builds the whole tree."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        return _build_parser().parse_args(argv)
    parser = _add_arguments(name, _ArgumentParser(prog=f"freefusion {name}"))
    return parser.parse_args(argv[1:], argparse.Namespace(subcommand=name))


# --------------------------------------------------------------------------
# subcommand implementations: each returns (result payload, text lines, exit)


def _membership_lines(w, m):
    reason = f" ({m.reason})" if m.reason else ""
    return [f"{format_word(w)}: {m.status}{reason}"]


def _run_mul(args):
    words = [parse_word(t) for t in args.words]
    product = mul_many([{w: 1} for w in words])
    payload = {"factors": [format_word(w) for w in words],
               "element": element_to_json(product)}
    return payload, [_encode(payload["element"])], EXIT_OK


def _run_dual(args):
    w = parse_word(args.word)
    d = involute(w)
    return {"word": format_word(w), "dual": format_word(d)}, [format_word(d)], EXIT_OK


def _run_degree(args):
    w = parse_word(args.word)
    return {"word": format_word(w), "degree": degree(w)}, [str(degree(w))], EXIT_OK


def _run_enumerate(args):
    words = enumerate_words(args.filter, args.max_len)
    formatted = [format_word(w) for w in words]
    return {"filter": args.filter, "max_len": args.max_len,
            "count": len(words), "words": formatted}, formatted, EXIT_OK


def _ad_config(args) -> AdConfig:
    # ad-closure has no --seed-len; it keeps the default, which it never uses.
    closure = ClosureConfig(work_len=args.work_len, report_len=args.report_len)
    seed_len = getattr(args, "seed_len", AdConfig.seed_len)
    return AdConfig(closure=closure, ad_len=args.ad_len, seed_len=seed_len)


def _run_closure(args):
    """closure and ad-closure: the plain or the ad-saturated closure."""
    if args.subcommand == "closure":
        gens = parse_words(args.gens)
        config = ClosureConfig(work_len=args.work_len, report_len=args.report_len)
        result = generate(gens, config)
        view, payload = None, {}
    else:
        seeds = parse_words(args.seeds)
        config = _ad_config(args)
        view = AmbientView(Ambient.parse(args.ambient), config.closure)
        result = ad_closure(seeds, view.ambient, config, _view=view)
        payload = {"ambient": view.name}
    payload["closure"] = result.to_json()
    lines = [f"members: {len(result.members)} (saturated: {result.saturated})"]
    if args.member is not None:
        w = parse_word(args.member)
        m = member(result, w)
        payload["membership"] = {"word": format_word(w), **m.to_json()}
        lines += _membership_lines(w, m)
    if args.witness is not None:
        w = parse_word(args.witness)
        wp = witness_entries(result, [w], view)[0]
        if wp is not None:
            wp = {"word": wp.pop("word"),
                  "generators": payload["closure"]["generators"], **wp}
        payload["witness"] = wp
        lines.append(
            f"witness for {format_word(w)}: "
            + ("none" if wp is None else _encode(wp["certificate"]))
        )
        if wp is not None and not wp["verified"]:
            return payload, lines, EXIT_FAIL
    return payload, lines, EXIT_OK


def _report_lines(report):
    lines = [f"check: {report['check']}", f"ambient: {report['ambient']}",
             f"seeds: {len(report['seeds'])}", f"verdict: {report['verdict']}"]
    for r in report["seeds"]:
        if r["status"] != "pass":
            missing = ",".join(r["missing_certified"] + r["missing_within_bound"])
            lines.append(f"seed {r['seed']}: {r['status']} missing {missing}")
    return lines


def _run_check(args):
    """check-simple and check-circle: one seed sweep, one report."""
    if args.subcommand == "check-simple":
        ambient = Ambient.parse(args.ambient)
        report = check_simplicity(
            ambient, _ad_config(args), cert_samples=args.cert_samples
        )
    else:
        report = check_circle_corollary(
            _ad_config(args), cert_samples=args.cert_samples
        )
    code = {"pass": EXIT_OK, "fail": EXIT_FAIL}.get(report["verdict"], EXIT_INCONCLUSIVE)
    return report, _report_lines(report), code


def _run_invertibles(args):
    found = find_invertibles(args.max_len)
    formatted = [format_word(w) for w in found]
    return {"max_len": args.max_len, "invertibles": formatted}, formatted, EXIT_OK


def _run_verify_cert(args):
    # Loading, parsing and replaying all recurse once per tree level; a
    # document too deep for that is malformed input, not an invalid proof.
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "certificate" not in doc:
            raise ValueError('a certificate document is an object with a "certificate" key')
        generators = doc.get("generators", [])
        if not isinstance(generators, list):
            raise ValueError('"generators" must be a list of words')
        gens = {parse_word(g) for g in generators}
        # No ambient means au, where every word is a simple: nothing to test.
        kind = doc.get("ambient")
        if kind not in (None, *CLOSED_FORMS):
            raise ValueError(f'"ambient" must be {" or ".join(CLOSED_FORMS)}, not {kind!r}')
        view = None if kind is None else AmbientView(Ambient(kind), ClosureConfig())
        cert = certificate_from_json(doc["certificate"])
        ok, why = verify_certificate_detailed(cert, gens, ambient=view)
    except RecursionError:
        raise ValueError("the certificate document is nested too deeply") from None
    payload = {"file": args.file, "valid": ok}
    if why is not None:
        payload["error"] = why
    lines = ["valid" if ok else f"invalid: {why}"]
    return payload, lines, EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {  # name -> (help, handler), in help order
    "mul": ("fusion product of simples", _run_mul),
    "dual": ("dual of a word", _run_dual),
    "degree": ("degree of a word (#0 - #1)", _run_degree),
    "enumerate": ("list words in shortlex order", _run_enumerate),
    "closure": ("bounded closure of a generated sub-semiring", _run_closure),
    "ad-closure": ("ad-saturated closure of seeds", _run_closure),
    "check-simple": ("per-seed simplicity check", _run_check),
    "check-circle": ("every nonempty seed reaches all balanced words", _run_check),
    "invertibles": ("scan for invertible simples", _run_invertibles),
    "verify-cert": ("replay a certificate file", _run_verify_cert),
}

# Flags that are contractually output-neutral are left out of the
# invocation echo so that, e.g., --threads 1 and --threads 8 runs write
# byte-identical reports.
_ECHO_EXCLUDED = {"subcommand", "json", "report", "threads", "timing"}


def _invocation_echo(args) -> dict:
    return {
        "subcommand": args.subcommand,
        "args": {
            k.replace("_", "-"): v
            for k, v in sorted(vars(args).items())
            if k not in _ECHO_EXCLUDED
        },
    }


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _resolve_bounds(args)

    start = time.monotonic()
    try:
        payload, lines, code = _COMMANDS[args.subcommand][1](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.monotonic() - start

    if args.report is not None or args.json:
        document = {
            "version": __version__,
            "invocation": _invocation_echo(args),
            "result": payload,
            "timing": {"seconds": round(elapsed, 6)} if args.timing else None,
        }
        rendered = _encode(document) + "\n"
        if args.report is not None:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as exc:  # a usage error, not a failed check
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
        if args.json:
            sys.stdout.write(rendered)
            return code
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
