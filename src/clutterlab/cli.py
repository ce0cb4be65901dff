"""Command line front end.

Usage summary (see README for the file formats):

    clutterlab check FILE [--json] [--max-states K]
    clutterlab invariants FILE [--f] [--h] [--betti] [--verify] [--json]
    clutterlab lambda max N D I        [--json]
    clutterlab lambda profile N D I    [--json]
    clutterlab lambda complete N D     [--json]
    clutterlab lambda validate N D SEQ [--json]
    clutterlab generate complete N D [-o FILE] [--json]
    clutterlab generate extremal N D I [-o FILE] [--json]

Exit codes: 0 success (chordal where that is the question), 1 not
chordal (or a failed verification), 2 inconclusive: the search hit its
--max-states budget, the run ran out of memory or recursion depth, or
the reader closed stdout before the report reached it (then stderr
stays empty), 64 malformed input or arguments.  Data goes to stdout,
diagnostics to stderr.

Requests whose answer is too big are refused with exit 64 before any
work: `generate` above GENERATE_MAX_CIRCUITS d-subsets C(n, d), and
`lambda` when the largest number it would print has more than
LAMBDA_MAX_DIGITS digits, which stays below Python's 4300-digit limit
on converting an int to text, or when its entries would print more
than LAMBDA_MAX_OUTPUT digits in all.  JSON reports carry a schema tag and
embed the parsed input, so piping a report's "input" object back into
the tool reproduces the report.

Arguments are read off one grammar table, GRAMMAR.  A well-formed argv,
one that matches it exactly, is parsed by _parse_well_formed without
argparse.  Every other argv (help, --version, usage errors, and
spellings such as abbreviated options or "--opt=value") goes to the
argparse tree that _build_parser builds from the same table; argparse
is imported only then.  Leaving an argv to argparse is always safe:
argparse reads every argv, so help, messages and exit codes are its own.
"""

import os
import sys
from collections import Counter
from functools import cache
from math import comb, lgamma, log, log10
from types import SimpleNamespace

from . import _EXPORTS, _ORIGIN, __version__
from .clutter import MAX_VERTICES, Clutter, complete_clutter
from .guards import HOCHSTER_DEFAULT, OracleBoundError, SearchLimitReached, check_cap
from .io import (
    ClutterParseError,
    clutter_to_json,
    clutter_to_json_dict,
    clutter_to_text,
    dumps_report,
    parse_clutter_file,
)

_loaded: set[tuple[str, ...]] = set()


def _load(*modules: str) -> None:
    """Import the modules and bind their public names in this namespace.

    Each command loads the modules it runs, so that it pays for no other
    command's, and calls the library under these names, where
    perfbench/tracing.py patches them.  A name that is bound already,
    say by a tracer's wrapper, is kept.  After the first call with the
    same modules, a call is one set lookup.
    """
    if modules not in _loaded:
        for module in modules:
            names = _EXPORTS[module].split()
            loaded = __import__(module, globals(), None, names, 1)
            for name in names:
                globals().setdefault(name, getattr(loaded, name))
        _loaded.add(modules)


def __getattr__(name: str):
    """A public name read from outside before any command loaded it, or
    Parser, whose first read loads argparse."""
    if name == "Parser":
        return _parser_class()
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_ORIGIN[name])
    return globals()[name]


SCHEMA = "clutterlab-report/1"

EXIT_OK = 0
EXIT_NOT_CHORDAL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 64

GENERATE_MAX_CIRCUITS = 10**6
LAMBDA_MAX_DIGITS = 4000
LAMBDA_MAX_OUTPUT = 10**6


class UsageError(Exception):
    pass


@cache
def _parser_class() -> type:
    """Parser: argparse that reports bad arguments through exit code 64."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    return Parser


MAX_STATES_HELP = ("search budget in expanded states: one per greedy step when "
                   "greedy completes, or gets stuck on a graph (d = 2); after a "
                   "stuck run for other d, the backtracking states summed over "
                   "the (d-1)-components; exceeding it exits 2")


def _type_error(message: str) -> Exception:
    """argparse's error for a refused value, imported only then."""
    from argparse import ArgumentTypeError
    return ArgumentTypeError(message)


def _state_budget(text: str) -> int:
    """--max-states value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise _type_error(f"not an integer: {text!r}") from None
    if value < 0:
        raise _type_error(f"must be non-negative, got {value}")
    return value


# The grammar, the one place it is written.  Per command, or per command
# and mode: its positionals as (dest, converter), then its option strings,
# each mapped to (dest, converter), where a None converter marks a
# store_true flag and any other an option that takes one value.
_JSON = {"--json": ("as_json", None)}
_BUDGET = {"--max-states": ("max_states", _state_budget)}
_OUTPUT = {"-o": ("output", str), "--output": ("output", str)}
_ND = (("n", int), ("d", int))
_NDI = (*_ND, ("index", int))
GRAMMAR = {
    "check": ((("file", str),), _JSON | _BUDGET),
    "invariants": ((("file", str),),
                   {"--f": ("want_f", None), "--h": ("want_h", None),
                    "--betti": ("want_betti", None), "--verify": ("verify", None),
                    **_JSON, **_BUDGET}),
    "lambda": {"max": (_NDI, _JSON), "profile": (_NDI, _JSON),
               "complete": (_ND, _JSON),
               "validate": ((*_ND, ("sequence", str)), _JSON)},
    "generate": {"complete": (_ND, _OUTPUT | _JSON),
                 "extremal": (_NDI, _OUTPUT | _JSON)},
}

# What argparse's tree adds to the grammar: help by command, by
# "command dest" and by dest, and metavars by dest.
_HELP = {
    "check": "decide chordality of a clutter file",
    "invariants": "f/h/Betti invariants of a chordal clutter file",
    "lambda": "lambda-sequence arithmetic for (n, d)",
    "generate": "write a named clutter family member",
    "generate as_json": "emit the JSON clutter form instead of text",
    "max_states": MAX_STATES_HELP,
    "verify": "cross-check against the enumeration oracles",
    "sequence": "comma-separated candidate, e.g. 4,2",
}
_METAVAR = {"index": "I", "sequence": "SEQ"}


def _parse_well_formed(argv) -> SimpleNamespace | None:
    """The namespace argparse returns for argv, or None to leave argv to it.

    It returns one only for an exact, complete match of the grammar:
    a known command and mode, each word that starts with "-" one of
    their option strings as spelled (no abbreviation, "--opt=value",
    "--", "-", -h or negative number), an option's value present and
    not starting with "-", the right number of positionals, and every
    converter succeeding.  argparse reads each such argv the same way.
    """
    words = iter(argv)
    values = {"command": next(words, None)}
    rule = GRAMMAR.get(values["command"])
    if isinstance(rule, dict):
        values["mode"] = next(words, None)
        rule = rule.get(values["mode"])
    if rule is None:
        return None
    positionals, options = rule
    for dest, convert in options.values():
        values[dest] = False if convert is None else None
    given, pending = [], []  # pending: an option's (dest, converter, value)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        if word not in options:
            return None
        dest, convert = options[word]
        if convert is None:
            values[dest] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        pending.append((dest, convert, value))
    if len(given) != len(positionals):
        return None
    try:
        for dest, convert, word in pending:
            values[dest] = convert(word)
        for (dest, convert), word in zip(positionals, given):
            values[dest] = convert(word)
    except Exception:  # ValueError, or argparse's type error: argparse says why
        return None
    return SimpleNamespace(**values)


@cache
def _build_parser():
    """argparse's tree over GRAMMAR, built on the first call and reused.

    main parses with it only the argv that _parse_well_formed leaves to
    it: help, --version, usage errors and any well-formed spelling that
    the grammar does not match exactly.  Leaving an argv to it is always
    safe, since it reads every argv, and so the messages, help and exit
    codes are argparse's own.

    Reuse is safe because a parse keeps no state in the tree:
    parse_args holds all per-call state in the Namespace it returns and
    in local variables, and copies defaults into that namespace without
    writing them back to the actions; Parser.error raises UsageError and
    leaves nothing behind; the help and usage formatters are made per
    message and read the terminal width and sys.stdout/sys.stderr at
    that moment; and nothing mutates the tree once it is built.
    """
    parser = _parser_class()(prog="clutterlab",
                             description="chordality and resolution invariants "
                                         "of uniform clutters")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, rule in GRAMMAR.items():
        p_command = sub.add_parser(command, help=_HELP[command])
        if isinstance(rule, dict):
            modes = p_command.add_subparsers(dest="mode", required=True)
            for mode, mode_rule in rule.items():
                _add_arguments(modes.add_parser(mode), command, mode_rule)
        else:
            _add_arguments(p_command, command, rule)
    return parser


def _add_arguments(parser, command: str, rule) -> None:
    positionals, options = rule
    for dest, convert in positionals:
        parser.add_argument(dest, type=convert, metavar=_METAVAR.get(dest),
                            help=_HELP.get(dest))
    flags: dict[tuple, list[str]] = {}  # the option strings of each option
    for flag, option in options.items():
        flags.setdefault(option, []).append(flag)
    for (dest, convert), strings in flags.items():
        kind = {"action": "store_true"} if convert is None else {"type": convert}
        parser.add_argument(*strings, dest=dest, **kind,
                            help=_HELP.get(f"{command} {dest}", _HELP.get(dest)))


# ----- report assembly --------------------------------------------------------


def _order_block(order) -> dict:
    return {"elements": order.elements, "neighborhood_sizes": order.neighborhood_sizes}


def _chordal_analysis(path: str, max_states: int | None) -> tuple[Clutter, dict]:
    """Shared by check and invariants: parse, decide and derive the multiset."""
    clutter = parse_clutter_file(path)
    order = find_simplicial_order(clutter, max_states=max_states)
    report = {
        "schema": SCHEMA,
        "input": clutter_to_json_dict(clutter),
        "chordal": order is not None,
    }
    if order is not None:
        ms = simplicial_multiset(order)
        report["order"] = _order_block(order)
        report["multiset"] = sorted(ms.elements())
        report["lambda"] = list(lambda_sequence(ms))
    return clutter, report


def _print_human_check(report: dict, out) -> None:
    n, d = report["input"]["n"], report["input"]["d"]
    r = len(report["input"]["circuits"])
    print(f"clutter: n={n} d={d} circuits={r}", file=out)
    if report["chordal"]:
        steps = report["order"]
        pretty = ", ".join(
            "{%s}:%d" % (",".join(map(str, e)), s)
            for e, s in zip(steps["elements"], steps["neighborhood_sizes"]))
        print("chordal: yes", file=out)
        print(f"order: {pretty}", file=out)
        print(f"multiset: {report['multiset']}", file=out)
        print(f"lambda: {report['lambda']}", file=out)
    else:
        print("chordal: no", file=out)


def cmd_check(args) -> int:
    _load("chordality")
    _, report = _chordal_analysis(args.file, args.max_states)
    if args.as_json:
        print(dumps_report(report))
    else:
        _print_human_check(report, sys.stdout)
    return EXIT_OK if report["chordal"] else EXIT_NOT_CHORDAL


def cmd_invariants(args) -> int:
    _load("chordality", "homology", "invariants", "macaulay")
    clutter, report = _chordal_analysis(args.file, args.max_states)
    if not report["chordal"]:
        print("not chordal: invariants are defined through a simplicial order; "
              "run 'clutterlab check' for the negative witness",
              file=sys.stderr)
        return EXIT_NOT_CHORDAL

    n, d = clutter.n, clutter.d
    ms = Counter(report["multiset"])
    want_all = not (args.want_f or args.want_h or args.want_betti)
    show_f = want_all or args.want_f
    show_betti = want_all or args.want_betti
    # f and Betti are computed once; --verify compares the oracles with them.
    # delta is f's top index: n, not d - 1, for an empty clutter with d > n + 1.
    f = list(f_vector_from_multiset(n, d, ms))
    report["delta"] = len(f) - 1
    report["multiplicity"] = multiplicity(clutter)
    if show_f:
        report["f"] = f
    if want_all or args.want_h:
        report["h"] = list(h_vector_from_multiset(n, d, ms))
    if show_betti or args.verify:
        try:
            betti = list(betti_from_multiset(n, d, ms))
        except ValueError as exc:
            betti, note = None, str(exc)
        if show_betti:
            report["betti"] = betti
            if betti is None:
                report["betti_note"] = note
            else:
                report["projective_dimension"] = len(betti) - 1
    diag = validate_lambda(n, d, report["lambda"])
    report["macaulay"] = None if diag.l_sequence is None else {
        "l_sequence": list(diag.l_sequence),
        "valid": diag.valid,
    }

    code = EXIT_OK
    if args.verify:
        try:
            # One complex for both oracles, built under Hochster's cap, the
            # lower one, so a run above it enumerates nothing.
            check_cap("hochster_betti", n, HOCHSTER_DEFAULT, None)
            faces = clique_complex_faces(clutter, range(1, n + 1), n)
            table = hochster_betti(clutter, faces=faces)
            fv = f_vector_direct(clutter, faces=faces)
        except OracleBoundError as exc:
            # The invariants above stand without the oracles; keep them.
            report["verify"] = {"skipped": str(exc)}
            print(f"verify skipped: {exc}", file=sys.stderr)
        else:
            verify = report["verify"] = {
                "f_direct": list(fv),
                "betti_oracle": list(table.totals()),
                "graded_betti": table.to_json(),
                "linear_resolution": table.is_linear(),
            }
            verify["agreement"] = (
                f == verify["f_direct"]
                and (betti or []) == verify["betti_oracle"]
                and verify["linear_resolution"]
            )
            if not verify["agreement"]:
                print("VERIFICATION MISMATCH: formula and oracle disagree; "
                      "this is a bug worth reporting", file=sys.stderr)
                code = EXIT_NOT_CHORDAL

    if args.as_json:
        print(dumps_report(report))
    else:
        _print_human_invariants(report)
    return code


def _print_human_invariants(report: dict) -> None:
    inp = report["input"]
    print(f"clutter: n={inp['n']} d={inp['d']} circuits={len(inp['circuits'])}")
    print(f"multiset: {report['multiset']}")
    print(f"lambda: {report['lambda']}")
    print(f"delta: {report['delta']}  multiplicity: {report['multiplicity']}")
    if "f" in report:
        print(f"f-vector: {report['f']}")
    if "h" in report:
        print(f"h-vector: {report['h']}")
    if "betti" in report:
        if report["betti"] is None:
            print(f"betti: undefined ({report['betti_note']})")
        else:
            print(f"betti: {report['betti']}  "
                  f"projdim: {report['projective_dimension']}")
    if report.get("macaulay"):
        print(f"l-sequence: {report['macaulay']['l_sequence']}")
    if "verify" in report:
        v = report["verify"]
        if "skipped" in v:
            print(f"verify: skipped ({v['skipped']})")
            return
        print(f"verify: f-oracle {v['f_direct']}")
        print(f"verify: betti-oracle {v['betti_oracle']} "
              f"linear={v['linear_resolution']}")
        print(f"verify: agreement={'yes' if v['agreement'] else 'NO'}")


# ----- lambda and generate ----------------------------------------------------


def _parse_sequence(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _log10_binom(m: int, k: int) -> float:
    """log10 C(m, k) without computing C(m, k); -inf where it is 0.

    lgamma is accurate to about 0.01 digits while m <= 10**12.  Beyond
    that, k' = min(k, m - k) < 450 sums the k' factors of the product,
    and a larger k' gives C(m, k) >= (m / k')**k' > 10**4200.
    """
    k = min(k, m - k)
    if k < 0:
        return float("-inf")
    if m <= 10**12:
        return (lgamma(m + 1) - lgamma(k + 1) - lgamma(m - k + 1)) / log(10)
    if k < 450:
        return sum(log10(m - j) - log10(j + 1) for j in range(k))
    return float("inf")


def cmd_lambda(args) -> int:
    _load("macaulay")
    n, d = args.n, args.d
    i = getattr(args, "index", 1)
    seq = _parse_sequence(args.sequence) if args.mode == "validate" else ()
    if args.mode == "validate" and not 1 <= d < n:
        raise UsageError(f"need 1 <= d < n, got d={d}, n={n}")
    # The largest number each mode prints is one of these binomials.
    biggest = {"max": [(n - i, d - 1)], "profile": [(n - i, d - 1), (n - 2, d - 2)],
               "complete": [(n - 2, d - 2)], "validate": [(n - 1, d - 1)]}[args.mode]
    digits = max(_log10_binom(m, k) for m, k in biggest)
    if digits >= LAMBDA_MAX_DIGITS:
        raise UsageError(f"the answer would print a number over the lambda cap "
                         f"of {LAMBDA_MAX_DIGITS} digits")
    # How many numbers it prints: a profile stops at index i <= n - d, and
    # validate echoes SEQ beside an l-sequence of n - d + 1 entries.
    entries = {"max": 1, "profile": min(i, n - d), "complete": n - d + 1,
               "validate": len(seq) + n - d + 1}[args.mode]
    if digits >= 0 and entries * (int(digits) + 1) > LAMBDA_MAX_OUTPUT:
        raise UsageError(f"the answer would print {entries} numbers, over the "
                         f"lambda output cap of {LAMBDA_MAX_OUTPUT} digits")
    out: dict = {"schema": SCHEMA, "n": n, "d": d, "mode": args.mode}
    try:
        if args.mode == "max":
            out["index"] = args.index
            out["lambda_max"] = lambda_max(n, d, args.index)
            human = f"lambda_max({n},{d}) at index {args.index}: {out['lambda_max']}"
        elif args.mode == "profile":
            out["index"] = args.index
            profile = extremal_lambda_profile(n, d, args.index)
            out["lambda"] = list(profile)
            human = f"extremal lambda profile at index {args.index}: {list(profile)}"
        elif args.mode == "complete":
            lam = complete_lambda(n, d)
            out["lambda"] = list(lam)
            human = f"lambda of the complete clutter: {list(lam)}"
        else:  # validate
            diag = validate_lambda(n, d, seq)
            out["lambda"] = list(seq)
            out["valid"] = diag.valid
            out["l_sequence"] = list(diag.l_sequence) if diag.l_sequence else None
            out["reason"] = diag.reason
            if diag.valid:
                human = f"valid: realized by l-sequence {list(diag.l_sequence)}"
            else:
                human = f"invalid: {diag.reason}"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.as_json:
        print(dumps_report(out))
    else:
        print(human)
    if args.mode == "validate" and not out["valid"]:
        return EXIT_NOT_CHORDAL
    return EXIT_OK


def cmd_generate(args) -> int:
    n, d = args.n, args.d
    if 0 <= d <= n <= MAX_VERTICES and comb(n, d) > GENERATE_MAX_CIRCUITS:
        raise UsageError(f"C({n}, {d}) = {comb(n, d)} exceeds the generate cap "
                         f"of {GENERATE_MAX_CIRCUITS} circuits")
    try:
        if args.mode == "complete":
            clutter = complete_clutter(n, d)
        else:
            _load("macaulay")
            clutter = extremal_clutter(n, d, args.index)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = clutter_to_json(clutter) if args.as_json else clutter_to_text(clutter)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ----- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_well_formed(argv) or _build_parser().parse_args(argv)
        command = {"check": cmd_check, "invariants": cmd_invariants,
                   "lambda": cmd_lambda, "generate": cmd_generate}[args.command]
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, so no answer reached it.  Point the fd
        # at devnull so that the flush at exit does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # an in-process stream such as StringIO
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_INCONCLUSIVE
    except (SearchLimitReached, MemoryError, RecursionError) as exc:
        # Out of memory or stack is no answer either, never "not chordal".
        print(f"inconclusive: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (UsageError, ClutterParseError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

if __name__ == "__main__":
    sys.exit(main())
