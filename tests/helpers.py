"""Lookups, builders and oracles that only the tests need."""

import ast
from fractions import Fraction
from typing import Mapping, Sequence

from bpsing import dgcat
from bpsing.dgcat import DirectedGradedCategory, MorRef
from bpsing.exactlin import RatMatrix, SparseRow, exact, smith_normal_form
from bpsing.grading import LDegree
from bpsing.singcat import FreeComplex, GradedModule, GradedRing
from bpsing.twisted import identity_class


def morphism_by_name(C: DirectedGradedCategory, name: str) -> MorRef:
    """The basis morphism of C whose ``C.name`` is ``name``; KeyError if none."""
    for f in C.morphisms():
        if C.name(f) == name:
            return f
    raise KeyError(name)


def assert_exact(values):
    """Each value an int (never a bool) when integral, else a Fraction with
    denominator above 1; a float, or an integral Fraction, fails."""
    values = list(values)
    assert values
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), (type(v), v)


def drop_one_composite(C: DirectedGradedCategory) -> DirectedGradedCategory:
    """C without its first composite of two non-identity morphisms; C if it has none."""
    entries = dict(C.composition_entries())
    victims = [(g, f) for (g, f) in entries if not (C.is_identity(g) or C.is_identity(f))]
    if not victims:
        return C
    del entries[victims[0]]
    homs = {(i, j): C.hom(i, j) for i, j in C.hom_pairs() if i < j}
    return DirectedGradedCategory(C.objects, homs, entries)


def scaled_identity_class(factor):
    """``identity_class`` with every coefficient times ``factor``: no unit unless factor is 1."""

    def scaled(h):
        d, coeffs = identity_class(h)
        return d, tuple(factor * c for c in coeffs)

    return scaled


def count_table_builds(monkeypatch) -> list:
    """Wrap the product-table builder; the list gets each built table's hom table.

    The hom tables are kept alive, so two builds of one product table show
    up as the same object twice.
    """
    built = []
    build = dgcat._product_composites

    def counting(A, B, homs):
        built.append(homs)
        return build(A, B, homs)

    monkeypatch.setattr(dgcat, "_product_composites", counting)
    return built


# ---------------------------------------------------------------------------
# matrices


def identity_matrix(n: int) -> RatMatrix:
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def matrix_sum(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError("shape mismatch")
    return RatMatrix(
        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(A.entries, B.entries)], cols=A.cols
    )


def densify(row: SparseRow, n: int) -> tuple:
    """The length-n vector whose nonzero entries are the sparse row's (position, value) pairs."""
    vec = [0] * n
    for i, x in row:
        vec[i] = x
    return tuple(vec)


def apply(M: RatMatrix, vec: Sequence) -> tuple:
    """M times the column vector vec, each entry in exact form."""
    if len(vec) != M.cols:
        raise ValueError("vector length mismatch")
    vec = tuple(map(exact, vec))
    return tuple(exact(sum(x * v for x, v in zip(row, vec))) for row in M.entries)


def integer_kernel(M: RatMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel lattice {v : M v = 0}.

    The columns of V in U M V = D whose D-column vanishes form a basis of the
    full kernel lattice because V is unimodular.
    """
    D, _, V = smith_normal_form(M)
    return [tuple(row[j] for row in V.entries) for j in range(M.cols)
            if all(D.entries[i][j] == 0 for i in range(M.rows))]


# ---------------------------------------------------------------------------
# categories


def _label_from_str(s: str):
    try:
        return ast.literal_eval(s)
    except (ValueError, SyntaxError):
        return s


def from_json_dict(data: Mapping) -> DirectedGradedCategory:
    """The category that ``dgcat.to_json_dict`` (``category --json``) wrote as data."""
    objects = tuple(_label_from_str(s) for s in data["objects"])
    index = {label: i for i, label in enumerate(objects)}
    homs: dict[tuple[int, int], list[int]] = {}
    names: dict[str, MorRef] = {}
    for item in data["homs"]:
        i = index[_label_from_str(item["src"])]
        j = index[_label_from_str(item["tgt"])]
        if i == j:
            names[item["name"]] = MorRef(i, i, 0)
            continue
        bucket = homs.setdefault((i, j), [])
        names[item["name"]] = MorRef(i, j, len(bucket))
        bucket.append(int(item["degree"]))
    comp: dict[tuple[MorRef, MorRef], dict[int, Fraction]] = {}
    for item in data["comp"]:
        g = names[item["g"]]
        f = names[item["f"]]
        result = names[item["result"]]
        comp.setdefault((g, f), {})[result.idx] = Fraction(item["coeff"])
    return DirectedGradedCategory(objects, {k: tuple(v) for k, v in homs.items()}, comp)


# ---------------------------------------------------------------------------
# graded rings and modules


def monomial(ring: GradedRing, exponents: Sequence[int], coeff=1) -> dict:
    mono = tuple(int(e) for e in exponents)
    if len(mono) != ring.n or any(e < 0 for e in mono):
        raise ValueError("bad exponent vector")
    return ring.reduce({mono: coeff})


def variable(ring: GradedRing, i: int, power: int = 1) -> dict:
    """x_i^power in the ring, with i 1-indexed."""
    return monomial(ring, tuple(power * int(j == i - 1) for j in range(ring.n)))


def module_violations(M: GradedModule) -> tuple[str, ...]:
    """Shape, commutation, and defining-relation checks of a graded module."""
    L = M.ring.L
    bad = []
    for (t, d), mat in M.action.items():
        if mat.rows != M.dim(L.add(d, L.x(t))) or mat.cols != M.dim(d):
            bad.append(f"action of x_{t} at {d.raw()} has wrong shape")
    if bad:
        return tuple(bad)
    for d in M.degrees():
        for s in range(1, M.ring.n + 1):
            for t in range(s + 1, M.ring.n + 1):
                left = M.act(t, L.add(d, L.x(s))) @ M.act(s, d)
                right = M.act(s, L.add(d, L.x(t))) @ M.act(t, d)
                if left != right:
                    bad.append(f"x_{s} and x_{t} do not commute at {d.raw()}")
        # the defining polynomial sum(x_t^{p_t}) must act by zero
        total = None
        for t in range(1, M.ring.n + 1):
            mat = None
            cur = d
            for _ in range(M.ring.p[t - 1]):
                step = M.act(t, cur)
                mat = step if mat is None else step @ mat
                cur = L.add(cur, L.x(t))
            total = mat if total is None else matrix_sum(total, mat)
        if total is not None and not total.is_zero():
            bad.append(f"defining relation fails at {d.raw()}")
    return tuple(bad)


def last_column_zeroed(cplx: FreeComplex) -> FreeComplex:
    """cplx with the last column of its leftmost differential zeroed: squares stay
    zero and every entry stays homogeneous, so only a scan over degrees sees it."""
    diffs = {i: [list(row) for row in mat] for i, mat in cplx.diffs.items()}
    for row in diffs[min(diffs)]:
        row[-1] = {}
    return FreeComplex(cplx.ring, cplx.terms, diffs, cplx.labels)


def piece_bases(cplx: FreeComplex, d: LDegree) -> dict[int, tuple]:
    """Each level's ``piece_basis`` at d, for the levels whose piece at d is nonzero."""
    return {i: basis for i in cplx.levels() if (basis := cplx.piece_basis(i, d))}


def support_degrees(cplx: FreeComplex, window: int) -> list[LDegree]:
    """Degrees of z-degree <= window where some term has a nonzero piece, in
    (z, raw) order: every generator degree plus every ring piece within reach."""
    ring = cplx.ring
    L = ring.L
    gens = {g for i in cplx.levels() for g in cplx.generator_degrees(i)}
    seen = set()
    for g in gens:
        zg = L.z_degree(g)
        for z in range(max(0, -zg), window - zg + 1):
            for d in ring.pieces_of_weight(z):
                seen.add(L.add(g, d))
    return sorted(seen, key=ring.sort_key)


def reference_scan(cplx: FreeComplex, window: int):
    """The exactness scan degree by degree: each support degree with its
    levels' piece bases, every basis built by one ring lookup per generator."""
    for d in support_degrees(cplx, window):
        yield d, piece_bases(cplx, d)
