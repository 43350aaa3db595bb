"""``cli._dump_json`` against its oracle, ``json.dumps(obj, indent=2) + "\\n"``.

The writer lays dicts and lists out itself so that ``--json`` output never
runs json's pure-Python encoder; these tests hold it to the library's bytes
on fixed edge cases, on a generated family of values, and on the object of
every ``--json`` subcommand.
"""

import json

import pytest

from bpsing import cli
from test_mutations import MUTANTS


def oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


FIXED = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    [[], [[]], {"x": [{}, ()]}],
    ((), ((1, 2), (3,)), ("a", (None,))),
    [(1, (2, (3, ()))), {"t": ((), [()])}],
    "café ☃ \U0001f600",
    ["quote \" backslash \\ slash /", "tab\tnewline\ncr\r", "\x00\x01\x1f\x7f"],
    {"key \"with\" quotes\n": "value", "é": "é"},
    True,
    False,
    1,
    None,
    [True, 1, None, False, 0, "1"],
    [1, True, 0, False],
    {"true": True, "one": 1, "none": None},
    [-1, -0, -(10**25), 10**25, 2**64],
    123456789012345678901234567890,
    float("nan"),
    float("inf"),
    float("-inf"),
    0.1,
    [0.1, 1, float("nan"), {"x": -2.5e-300}],
    {1: "int key", 2: [3]},
    [{"nested": {None: 1, True: 2, 1.5: 3}}],
    # lists of dicts: only a run of records with one key list, in one order,
    # takes the records path
    pytest.param([{"a": 1, "b": 2}, {"b": 2, "a": 1}], id="records-keys-reordered"),
    pytest.param([{"a": 1, "b": 2}, {"a": 1}], id="records-later-key-missing"),
    pytest.param([{"a": 1}, {"a": 1, "b": 2}], id="records-later-key-extra"),
    pytest.param([{}, {"a": 1}], id="records-empty-first"),
    pytest.param([{"a": 1}, {1: 2}], id="records-later-int-key"),
    pytest.param([{"a": 1, "b": "x"}], id="records-one"),
    pytest.param([{"a": [1, True]}, {"a": {"b": []}}], id="records-container-values"),
    # True == 1 and they hash alike, so a bool must never read an int's text
    pytest.param([[1, 1], [1, True]], id="int-row-then-bool"),
    pytest.param([[True, False], [1, 0]], id="bool-row-then-ints"),
    pytest.param([{"a": 1}, {"a": True}], id="records-int-then-bool"),
    pytest.param([{"a": False}, {"a": 0}], id="records-bool-then-int"),
    pytest.param([[-0, 0, 2**64, -(10**25)], [2**64, -(10**25), -0], [1, 1.0, 2**64, float(2**64)]],
                 id="ints-the-table-must-keep-apart"),
]


@pytest.mark.parametrize("obj", FIXED, ids=range(len(FIXED)))
def test_writer_matches_json_dumps_on_fixed_cases(obj):
    assert cli._dump_json(obj) == oracle(obj)


def test_writer_matches_json_dumps_on_generated_values(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    scalars = st.none() | st.booleans() | st.integers() | st.text() | st.floats()

    def records(inner):
        """Lists of dicts on one key list, some in another order and some missing a key."""

        def on_keys(keys):
            def record(values, change):
                d = dict(zip(keys, values))
                if change == "rotated":
                    d = {k: d[k] for k in keys[1:] + keys[:1]}
                elif change == "dropped" and d:
                    d.popitem()
                return d

            one = st.builds(
                record,
                st.lists(inner, min_size=len(keys), max_size=len(keys)),
                st.sampled_from(("same", "same", "rotated", "dropped")),
            )
            return st.lists(one, min_size=1, max_size=5)

        return st.lists(st.text(max_size=3), max_size=4, unique=True).flatmap(on_keys)

    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner)
        | records(inner),
        max_leaves=40,
    )
    laid_out = []
    layout_records = cli._layout_records

    def spy(dicts, *rest):
        laid_out.append(dicts)
        return layout_records(dicts, *rest)

    monkeypatch.setattr(cli, "_layout_records", spy)

    @hypothesis.settings(derandomize=True, database=None, max_examples=100)
    @hypothesis.given(values)
    def check(obj):
        assert cli._dump_json(obj) == oracle(obj)

    check()
    # the records path ran, so the comparison above covered it
    assert laid_out


def test_no_int_text_outlives_a_dump():
    assert cli._dump_json([1]) == oracle([1])
    assert cli._dump_json([True]) == oracle([True])


COMMANDS = [
    "category --p 2,3 --json",
    "suspend --p 2,3 --k 3 --verify --json",
    "fukaya --p 2,3 --verify --json",
    "lattice --p 3,3 --json",
    "lattice --p 2,3,3 --orientation Et-E --json",
    "orlov --p 2,3,7 --json",
    "singcat ext --p 3,4 --source -1,0 --target 0,0 --json",
    "singcat ext --p 3,4 --source 5,5 --target 0,0 --json",
    "singcat resolution --p 3,4 --length 4 --json",
    "singcat lemma-k --p 3,4 --axis 1 --j 2 --json",
    "verify --suite fukaya --p 3,3 --json",
    "verify --suite singcat --p 3,3 --json",
    "verify --suite lattice --p 3,3 --json",
    "verify --suite all --p 2,3,3 --json",
]


def written_objects(monkeypatch, argv):
    """Exit code, stdout and every object that ``run(argv)`` handed to the writer."""
    seen = []
    writer = cli._dump_json

    def spy(obj):
        seen.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_dump_json", spy)
    return cli.run(argv), seen


@pytest.mark.parametrize("command", COMMANDS)
def test_every_json_subcommand_prints_json_dumps_bytes(capsys, monkeypatch, command):
    code, seen = written_objects(monkeypatch, command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert len(seen) == 1
    assert out == oracle(seen[0])


def test_failing_verify_under_a_mutant_prints_json_dumps_bytes(capsys, monkeypatch):
    module, name, stand_in = MUTANTS["euler-corner-doubled"]
    monkeypatch.setattr(module, name, stand_in)
    code, seen = written_objects(monkeypatch, ["verify", "--suite", "all", "--p", "3,3,3", "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"found": 4' in out
    assert out == oracle(seen[0])
