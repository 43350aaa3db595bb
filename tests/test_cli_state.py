"""One interpreter, many ``cli.run`` calls: nothing carries over between them.

The parser is built once per process and reused, so a run must leave it as
it found it: the same bytes for every pin however often and in whatever
order the pins run, and the same exit code, stdout and stderr after usage
errors and ``--help`` as from a freshly built parser.
"""

import hashlib

from bpsing.cli import _build_parser, run
from test_pins import PINS


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_every_pin_twice_in_one_process_forward_then_reversed(capsys):
    order = sorted(PINS)
    for command in order + order[::-1]:
        assert run(command.split()) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINS[command], command


SEQUENCE = [
    "lattice --p 2,3,3 --orientation Et-E",
    "category",
    "lattice --p 2,3,3",
    "category --p 2,3 --threads 0",
    "singcat resolution --p 3,4 --length 3 --window 2",
    "--help",
    "singcat resolution --p 3,4 --length 3",
    "verify --suite lattice --p 3,3 --json",
    "singcat ext --p 3,4 --source -1,0 --target 0,0",
    "lattice --help",
    "verify --suite nope --p 3,3",
    "singcat ext --p 3,4 --source=-1,0 --target=0,0 --json",
    "orlov --p 2,3,7",
]


def outcome(capsys, command):
    code = run(command.split())
    out, err = capsys.readouterr()
    return code, out, err


def test_interleaved_errors_and_help_match_a_fresh_parser(capsys):
    fresh = []
    for command in SEQUENCE:
        _build_parser.cache_clear()
        fresh.append(outcome(capsys, command))
    _build_parser.cache_clear()
    parser = _build_parser()
    shared = [outcome(capsys, command) for command in SEQUENCE]
    assert _build_parser() is parser
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    for command, got, want in zip(SEQUENCE, shared, fresh):
        assert got == want, command
