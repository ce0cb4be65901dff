"""The grammar-table parse agrees with argparse wherever it answers.

For every argv, cli._parse_well_formed either declines (returns None),
or argparse accepts the argv and vars() of both namespaces are equal.
Whenever argparse errors or exits (-h, --version), the table parse must
have declined.  The argv come from the golden corpus, the benchmark's
workloads and a Hypothesis strategy over short token lists, so a Python
whose argparse reads some argv differently fails here.
"""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from clutterlab import cli
from test_golden_cli import invocations

ROOT = Path(__file__).resolve().parents[1]


def _argparse(argv) -> dict | None:
    """vars() of argparse's namespace for argv, or None where it refuses
    the argv or exits (help, --version)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except (cli.UsageError, SystemExit):
            return None


def _agree(argv) -> bool:
    """Check the property on argv; True when the table parse answered."""
    fast = cli._parse_well_formed(list(argv))
    if fast is None:
        return False
    assert _argparse(list(argv)) == vars(fast), argv
    return True


def _negative_number(word: str) -> bool:
    return word.startswith("-") and word[1:].isdigit()


def test_the_golden_argv():
    answered = 0
    for _, argv in invocations():
        if _agree(argv):
            answered += 1
        elif _argparse(argv) is not None:
            # argparse reads a negative number as a positional; the table
            # parse leaves every word that starts with "-" to it
            assert any(map(_negative_number, argv)), argv
    assert answered > 250


def test_the_benchmark_argv(tmp_path):
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    finally:
        sys.path.remove(str(ROOT))
    for name in workloads.WORKLOADS:
        work = workloads.build(name, 1, tmp_path / name, small=True)
        for job in work.jobs + work.planted:
            assert _agree(job.argv), job.argv


def test_help_version_and_usage_errors_decline():
    for argv in ([], ["-h"], ["--help"], ["--version"], ["check", "-h"],
                 ["lambda", "max", "--help"], ["frobnicate"], ["check"],
                 ["check", "f", "--js"], ["check", "f", "--max-states=5"],
                 ["check", "f", "--max-states", "-1"], ["check", "f", "--max-states"],
                 ["check", "--", "f"], ["check", "-"], ["lambda", "max", "6", "3", "x"],
                 ["generate", "complete", "5", "-1"], ["generate", "complete", "5", "3", "-o"],
                 ["invariants", "f", "--max-states", "x"]):
        assert cli._parse_well_formed(argv) is None, argv


def _option_strings() -> list[str]:
    rules = []
    for rule in cli.GRAMMAR.values():
        rules += rule.values() if isinstance(rule, dict) else [rule]
    return sorted({flag for _, options in rules for flag in options})


WORDS = sorted({*cli.GRAMMAR, "max", "profile", "complete", "validate", "extremal",
                *_option_strings(),
                "--js", "--max", "--ver", "--vers", "--out", "--b", "--he", "--betti-x",
                "--max-states=5", "--json=1", "--output=x", "-ox",
                "--", "-", "-h", "--help", "--version",
                "1.5", "abc", "3,1", "", " 5", "٥", "x.txt"})
TOKENS = st.one_of(st.sampled_from(WORDS), st.integers(-30, 80).map(str))
PREFIXES = [[], ["check"], ["invariants"], *(["lambda", mode] for mode in cli.GRAMMAR["lambda"]),
            *(["generate", mode] for mode in cli.GRAMMAR["generate"])]


@st.composite
def _grammar_shaped(draw) -> list[str]:
    """A command and mode, as many words as it has positionals, and a few
    of its options spliced in anywhere, each with a value if it takes one."""
    prefix = draw(st.sampled_from(PREFIXES[1:]))
    rule = cli.GRAMMAR[prefix[0]]
    positionals, options = rule[prefix[1]] if len(prefix) == 2 else rule
    words = draw(st.lists(TOKENS, min_size=len(positionals), max_size=len(positionals)))
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        at = draw(st.integers(0, len(words)))
        words[at:at] = [flag] if options[flag][1] is None else [flag, draw(TOKENS)]
    return prefix + words


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(TOKENS, max_size=7),
                 st.tuples(st.sampled_from(PREFIXES), st.lists(TOKENS, max_size=5))
                 .map(lambda pair: pair[0] + pair[1])))
def test_random_token_lists(argv):
    _agree(argv)


@settings(max_examples=600, deadline=None)
@given(_grammar_shaped())
def test_grammar_shaped_argv(argv):
    _agree(argv)
