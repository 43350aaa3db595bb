"""Case lists of the three benchmark workloads, and the check of each case.

A case is one ``bpsing`` command line.  The program only ever sees the
generated argv; the seed decides the drawn cases and nothing else.

Anchor cases are checked against a stdout sha256 pinned at the commit that
defined the benchmark.  Seed-drawn cases are checked by exit code and by their
verdict line (``PASS``, ``agree: True``) or, for ``orlov``, by recomputing the
printed arithmetic here.  Cases marked ``known_defect`` reproduce a bug listed
in ROADMAP item 5; they are checked by verdict only, so they count as failures
until the bug is fixed and can never be pinned as passing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

NAMES = ("tower", "algebra", "lattice")
VERDICTS = {"fukaya": "verification: PASS", "verify": "verify: PASS", "ext": "agree: True"}


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    check: str  # "pin", "fukaya", "verify", "ext", "orlov" or "json"
    largest: bool = False
    known_defect: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# sha256 of stdout for every pinned anchor case
PINS = {
    "fukaya --p 3,3,3 --verify":
        "7c3a0976ee7358a5b3da50bb38f00e83dd1f67167ee9157e3748ee442039b6c9",
    "fukaya --p 4,4,4 --verify":
        "30d5d8e75df7089765b9d60d7fb61f0b762a1e413ccfd9d3914b53c5edf3e34f",
    "fukaya --p 2,3,4,5 --verify":
        "19681633420611a5983ad43dcf3ee4707596071afedf700fc8154ec63590c367",
    "fukaya --p 3,3,3,3 --verify":
        "5c319a469970b212c7cc28b48b31ab60d0b19324c16d3803571017dc7e5be1e6",
    "fukaya --p 5,5,5 --verify":
        "219bc1e068490d36aca45d3351abdd5c97dc1f911fa6024b9448f24c155e33b4",
    "verify --p 4,4,4 --suite singcat":
        "378a91fca592ba618bbd97c4c29a3cc6ad169fa64830f1fc7ef2b2266fa3289c",
    "verify --p 7,11 --suite singcat":
        "28581aff850f29f8725b76f439f107ef44b5a967b0b0c4897a8643d3d116c4c4",
    "verify --p 3,3,3,3 --suite singcat":
        "ad2b955574fb8f7ac1859e3413e41380adcd1c3a49750cde86e7d6948e534024",
    "singcat resolution --p 3,4,5 --length 9":
        "0936f41b8ae81b5eb6fa22f5cda4b9d05c6a6f992dd472213b9de6111133a528",
    "verify --suite lattice --p 5,5,5,5":
        "35d1fd4b7328cacd056e0335cd5f3a58ee75e4551a0e125d738a96d0cf830b52",
    "lattice --p 4,4,4,4,4 --json":
        "9a575af94db01321bd2c95700359996dbe602c69a45795cdfcd0317e1036a694",
    "category --p 4,4,4,4 --json":
        "108970f25f04f0114c45c4da0cb9d4d49bf4d0f5175f2dc872db6709882c7729",
}


def _seq(p) -> str:
    return ",".join(str(x) for x in p)


def _fukaya(p, check="pin", largest=False) -> Case:
    return Case(("fukaya", "--p", _seq(p), "--verify"), check, largest)


def _verify(p, suite, check="pin", largest=False, known_defect="") -> Case:
    return Case(("verify", "--p", _seq(p), "--suite", suite), check, largest, known_defect)


def _ext(p, a, b) -> Case:
    return Case(
        ("singcat", "ext", "--p", _seq(p), f"--source={_seq(a)}", f"--target={_seq(b)}"), "ext"
    )


def _draw_sequence(rng: random.Random, nvars: tuple[int, int], top: int) -> tuple[int, ...]:
    return tuple(rng.randint(2, top) for _ in range(rng.randint(*nvars)))


def _draw_tower(rng: random.Random) -> tuple[int, ...]:
    # At most 12 objects: the drawn cases then cost at most about 0.15 s each,
    # so the seed moves wall_s by a few percent and (5,5,5) stays the largest.
    while True:
        p = _draw_sequence(rng, (2, 4), 9)
        if math.prod(x - 1 for x in p) <= 12:
            return p


def _draw_twist(rng: random.Random, p) -> tuple[int, ...]:
    return tuple(rng.randint(-x + 2, 0) for x in p)


def tower(seed: int) -> list[Case]:
    """Suspension tower: ``fukaya --verify``; no singcat or lattice code."""
    rng = random.Random(f"tower-{seed}")
    cases = [_fukaya(p) for p in ((3, 3, 3), (4, 4, 4), (2, 3, 4, 5), (3, 3, 3, 3))]
    cases.append(_fukaya((5, 5, 5), largest=True))
    cases += [_fukaya(_draw_tower(rng), check="fukaya") for _ in range(3)]
    return cases


def algebra(seed: int) -> list[Case]:
    """Graded ring and Ext: the singcat suite, a resolution and Ext pairs."""
    rng = random.Random(f"algebra-{seed}")
    cases = [_verify((4, 4, 4), "singcat"), _verify((7, 11), "singcat")]
    cases.append(_verify((3, 3, 3, 3), "singcat", largest=True))
    cases.append(_verify((7,), "singcat", check="verify",
                         known_defect="one-variable ext-vanishing scan finds 27 of 50 twists"))
    cases.append(Case(("singcat", "resolution", "--p", "3,4,5", "--length", "9"), "pin"))
    cases.append(Case(("singcat", "ext", "--p", "3,4", "--source", "-1,0", "--target", "0,0"),
                      "ext", known_defect="argparse rejects --source -1,0 as README spells it"))
    for _ in range(40):
        p = _draw_sequence(rng, (2, 3), 7)
        cases.append(_ext(p, _draw_twist(rng, p), _draw_twist(rng, p)))
    return cases


def lattice(seed: int) -> list[Case]:
    """Tensor model and lattices: 256-object categories and large JSON output."""
    rng = random.Random(f"lattice-{seed}")
    cases = [
        Case(("verify", "--suite", "lattice", "--p", "5,5,5,5"), "pin", largest=True),
        Case(("lattice", "--p", "4,4,4,4,4", "--json"), "pin"),
        # the only case that reaches dgcat.to_json_dict
        Case(("category", "--p", "4,4,4,4", "--json"), "pin"),
    ]
    cases += [Case(("orlov", "--p", _seq(_draw_sequence(rng, (3, 6), 12))), "orlov")
              for _ in range(10)]
    return cases


def tiny(name: str) -> list[Case]:
    """A few-millisecond case list per workload, for the self-test."""
    if name == "tower":
        return [_fukaya((2, 3), check="fukaya", largest=True), _fukaya((3, 3), check="fukaya")]
    if name == "algebra":
        return [
            _verify((2, 3), "singcat", check="verify", largest=True),
            _verify((3, 3), "singcat", check="verify"),
            _ext((3, 4), (-1, 0), (0, -2)),
        ]
    return [
        _verify((2, 3), "lattice", check="verify", largest=True),
        Case(("lattice", "--p", "3,3", "--json"), "json"),
        Case(("category", "--p", "2,3", "--json"), "json"),
        Case(("orlov", "--p", "3,3,3"), "orlov"),
    ]


def build(name: str, seed: int) -> list[Case]:
    return {"tower": tower, "algebra": algebra, "lattice": lattice}[name](seed)


def _orlov_problem(argv, lines: list[str]) -> str | None:
    p = [int(x) for x in argv[argv.index("--p") + 1].split(",")]
    ell = math.lcm(*p)
    total = sum(Fraction(1, x) for x in p)
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    group = fields.get("group", "")
    try:
        order = math.prod(int(f[2:]) for f in group.split(" x ")) if group != "0" else 1
    except ValueError:
        return f"group {group!r} is not a product of Z/d factors"
    expect = {
        "sum of reciprocals": str(total),
        "calabi-yau condition": "holds" if total == 1 else "fails",
        "ell": str(ell),
        "weights": str(tuple(ell // x for x in p)),
    }
    for key, want in expect.items():
        if fields.get(key) != want:
            return f"{key}: expected {want!r}, found {fields.get(key)!r}"
    if order != math.prod(p) // ell:
        return f"group {group} has order {order}, expected {math.prod(p) // ell}"
    return None


def problem(case: Case, rc: int, sha256: str, stdout_tail: str) -> str | None:
    """Why the case's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout_tail.splitlines()
    last = lines[-1] if lines else ""
    if case.check == "pin":
        want = PINS[case.key]
        return None if sha256 == want else f"stdout sha256 {sha256[:12]} != pinned {want[:12]}"
    if case.check in VERDICTS:
        return None if last == VERDICTS[case.check] else f"verdict {last!r}"
    if case.check == "orlov":
        return _orlov_problem(case.argv, lines)
    try:
        json.loads(stdout_tail)
    except ValueError:
        return "stdout is not JSON"
    return None
