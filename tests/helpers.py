"""Lookups, builders and oracles that only the tests need."""

import ast
from fractions import Fraction
from operator import neg
from typing import Mapping, Sequence

from bpsing import dgcat
from bpsing.dgcat import DirectedGradedCategory, MorRef
from bpsing.exactlin import ComplexError, RatMatrix, SparseRow, exact, rref, smith_normal_form
from bpsing.grading import LDegree, LGroup
from bpsing.singcat import FreeComplex, GradedModule, GradedRing, ModuleMap, monomial_label
from bpsing.twisted import HomComplex, cone, identity_class


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


def column(M: RatMatrix, j: int) -> tuple:
    """Column j of M, top to bottom."""
    return tuple(row[j] for row in M.entries)


def matrix_sum(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError("shape mismatch")
    return RatMatrix(
        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(A.entries, B.entries)], cols=A.cols
    )


def reference_eliminate(entries: list[list], cols: int) -> tuple[list[list], list[int], list]:
    """The former dense elimination kernel, kept as the oracle of the sparse one.

    Row reduce lists in place to reduced echelon form; return (rows, pivot
    columns, pivots).  Pivot selection is the first nonzero entry scanning
    down each column, so the result is deterministic.  Each pivot is taken
    before its row is normalized and negated when a row swap brought it
    into place, so for a square matrix of full rank their product is the
    determinant.  Unit pivots keep int rows int; the rows may end with
    integral Fractions.
    """
    pivots: list[int] = []
    values: list = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(entries)):
            if entries[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        entries[r], entries[pivot_row] = entries[pivot_row], entries[r]
        values.append(entries[r][c] if pivot_row == r else -entries[r][c])
        if entries[r][c] == -1:
            entries[r] = [-x for x in entries[r]]
        elif entries[r][c] != 1:
            inv = Fraction(1) / entries[r][c]  # never 1 / pivot, a float on ints
            entries[r] = [x * inv for x in entries[r]]
        for i in range(len(entries)):
            if i != r and entries[i][c] != 0:
                factor = entries[i][c]
                entries[i] = [a - factor * b for a, b in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
        if r == len(entries):
            break
    return entries, pivots, values


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


def off_connector_cones(E: DirectedGradedCategory, x) -> list:
    """Two cones over the three-level extension E that no connector gives: the
    identity of (x, 3), whose cone is null, and the copy of id_x from (x, 3)
    down two levels to (x, 1)."""
    top = E.object_index((x, 3))
    return [cone(E, E.identity(top)), cone(E, MorRef(top, E.object_index((x, 1)), 0))]


def reference_differential(X, Y, d: int) -> RatMatrix:
    """The degree-d differential of hom(X, Y) as the general twisted-object
    loop built it, with its own basis.

    Each cone is read as the components ((src, 1), (tgt, 0)) and the delta
    {(0, 1): {f.idx: 1}} it stands for.  Every delta term of Y is
    postcomposed and every delta term of X precomposed under the Koszul sign.
    """
    cat = X.category

    def unfold(T):
        return ((T.f.src, 1), (T.f.tgt, 0)), {(0, 1): {T.f.idx: 1}}

    (xs, xdelta), (ys, ydelta) = unfold(X), unfold(Y)
    by_degree: dict[int, list] = {}
    for a, (ia, sa) in enumerate(xs):
        for b, (jb, tb) in enumerate(ys):
            for idx, deg in enumerate(cat.hom(ia, jb)):
                by_degree.setdefault(deg + sa - tb, []).append((a, b, idx))
    position = {elt: (e, i) for e, elts in by_degree.items() for i, elt in enumerate(elts)}
    basis = by_degree.get(d, [])
    entries = [[0] * len(basis) for _ in by_degree.get(d + 1, [])]
    sign = 1 if d % 2 else -1

    def add(col, s, t, coeff, composite):
        for ridx, rcoeff in composite.items():
            dd, pos = position[(s, t, ridx)]
            if dd != d + 1:
                raise ComplexError("differential is not homogeneous")
            entries[pos][col] += coeff * rcoeff

    for col, (a, b, idx) in enumerate(basis):
        m = MorRef(xs[a][0], ys[b][0], idx)
        for (b1, b2), entry in ydelta.items():
            if b1 == b:
                for k, c in entry.items():
                    add(col, a, b2, c, cat.compose(MorRef(ys[b][0], ys[b2][0], k), m))
        for (a0, a1), entry in xdelta.items():
            if a1 == a:
                for k, c in entry.items():
                    add(col, a0, b, sign * c, cat.compose(m, MorRef(xs[a0][0], xs[a][0], k)))
    return RatMatrix(entries, cols=len(basis))


def chain_dims(H: HomComplex) -> dict[int, int]:
    """Dimension of each nonzero degree of a hom complex, before cohomology."""
    return {d: len(v) for d, v in H.basis.items()}


# ---------------------------------------------------------------------------
# graded rings and modules


def negative(L: LGroup, d: LDegree) -> LDegree:
    """The additive inverse of d in the grading group L."""
    return L.normalize(tuple(-u for u in d.raw()))


def monomial(ring: GradedRing, exponents: Sequence[int], coeff=1) -> dict:
    mono = tuple(int(e) for e in exponents)
    if len(mono) != ring.n or any(e < 0 for e in mono):
        raise ValueError("bad exponent vector")
    return ring.reduce({mono: coeff})


def variable(ring: GradedRing, i: int, power: int = 1) -> dict:
    """x_i^power in the ring, with i 1-indexed."""
    return monomial(ring, tuple(power * int(j == i - 1) for j in range(ring.n)))


def multiply(ring: GradedRing, f: dict, g: dict) -> dict:
    """The product f g in normal form: every pair of terms, then one ``reduce``."""
    prod = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            prod[m] = prod.get(m, 0) + c1 * c2
    return ring.reduce(prod)


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


def piece_basis(cplx: FreeComplex, i: int, d: LDegree) -> tuple[tuple[int, tuple], ...]:
    """Basis of the level-i piece at degree d, one ring lookup per generator:
    (generator index, monomial), by index, then lex within each piece."""
    ring = cplx.ring
    return tuple((c, mono) for c, g in enumerate(cplx.generator_degrees(i))
                 for mono in ring.piece(ring.L.sub(d, g)))


def piece_bases(cplx: FreeComplex, d: LDegree) -> dict[int, tuple]:
    """Each level's ``piece_basis`` at d, for the levels whose piece at d is nonzero."""
    return {i: basis for i in cplx.levels() if (basis := piece_basis(cplx, i, d))}


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


def reference_square_defects(cplx: FreeComplex) -> tuple[str, ...]:
    """``square_defects`` over every entry of both dense matrices, each product
    through ``multiply``, zero entries included."""
    bad = []
    for i in sorted(cplx.diffs):
        upper = cplx.diffs.get(i + 1)
        if upper is None:
            continue
        lower = cplx.diffs[i]
        for r in range(len(upper)):
            for c in range(len(lower[0]) if lower else 0):
                acc = {}
                for k in range(len(lower)):
                    for m, co in multiply(cplx.ring, upper[r][k], lower[k][c]).items():
                        acc[m] = acc.get(m, 0) + co
                if any(acc.values()):
                    bad.append(f"square at level {i} nonzero at ({r},{c})")
    return tuple(bad)


def reference_map_validate(f: ModuleMap) -> tuple[str, ...]:
    """``ModuleMap.validate`` evaluating the square at every x_t and every degree
    of either module, behind the same shape checks: without them a wrongly
    shaped action raises in the product or compares unequal by shape alone."""
    ring = f.src.ring
    L = ring.L
    bad = [f"matrix at {d.raw()} has wrong shape" for d, mat in f.mats.items()
           if mat.rows != f.tgt.dim(d) or mat.cols != f.src.dim(d)]
    for side, M in (("source", f.src), ("target", f.tgt)):
        bad.extend(f"{side} action of x_{t} at {d.raw()} has wrong shape"
                   for (t, d), mat in M.action.items()
                   if mat.rows != M.dim(L.add(d, L.x(t))) or mat.cols != M.dim(d))
    if bad:
        return tuple(bad)
    for d in sorted(set(f.src.basis) | set(f.tgt.basis), key=ring.sort_key):
        for t in range(1, ring.n + 1):
            up = L.add(d, L.x(t))
            if f.at(up) @ f.src.act(t, d) != f.tgt.act(t, d) @ f.at(d):
                bad.append(f"does not intertwine x_{t} at {d.raw()}")
    return tuple(bad)


def reference_quotient_by_variables(ring: GradedRing, killed, window: int) -> GradedModule:
    """``quotient_by_variables`` with an elimination in every degree, rows or not,
    and every product x_t m through the rewrite."""
    L = ring.L
    killed = tuple(sorted({int(t) for t in killed}))
    degrees = sorted(
        (d for z in range(window + 1) for d in ring.pieces_of_weight(z)), key=ring.sort_key
    )

    def times(t, mono):
        return ring.reduce({mono[: t - 1] + (mono[t - 1] + 1,) + mono[t:]: 1}).items()

    piece_data = {}
    for d in degrees:
        monos = ring.piece(d)
        pos = {m: i for i, m in enumerate(monos)}
        rows = []
        for t in killed:
            for m in ring.piece(L.sub(d, L.x(t))):
                vec = [0] * len(monos)
                for m2, co in times(t, m):
                    vec[pos[m2]] += co
                rows.append(vec)
        reduced, pivots = rref(RatMatrix(rows, cols=len(monos)))
        free = tuple(i for i in range(len(monos)) if i not in pivots)
        piece_data[d] = (monos, pos, free, pivots, reduced.entries[: len(pivots)])
    basis = {d: tuple(monomial_label(piece_data[d][0][f]) for f in piece_data[d][2])
             for d in degrees}
    action = {}
    for d in degrees:
        monos, _, free, _, _ = piece_data[d]
        for t in range(1, ring.n + 1):
            up = L.add(d, L.x(t))
            if not free or up not in piece_data or not piece_data[up][2]:
                continue
            u_monos, u_pos, u_free, u_pivots, u_rows = piece_data[up]
            cols = []
            for f in free:
                vec = [0] * len(u_monos)
                for m2, co in times(t, monos[f]):
                    vec[u_pos[m2]] += co
                ideal = [(vec[c], row) for c, row in zip(u_pivots, u_rows) if vec[c]]
                cols.append([vec[g] - sum(a * row[g] for a, row in ideal) for g in u_free])
            action[(t, d)] = RatMatrix(
                [[cols[c][r] for c in range(len(free))] for r in range(len(u_free))],
                cols=len(free),
            )
    return GradedModule(ring, basis, action)


def reference_shape_fault(gram, symmetric: bool) -> dict | None:
    """``cli._shape_fault`` as a dense scan: every row against its mirrored column."""
    if gram.symmetric != symmetric:
        return {"flag": "symmetric", "expected": symmetric, "found": gram.symmetric}
    for i, (row, col) in enumerate(zip(gram.entries, zip(*gram.entries))):
        expected = list(col if symmetric else map(neg, col))
        expected[i] = 2 if symmetric else 0
        if list(row) != expected:
            j = next(j for j, (x, y) in enumerate(zip(row, expected)) if x != y)
            return {"entry": [i, j], "expected": expected[j], "found": row[j]}
    return None


def reference_sebastiani_thom_mismatch(cmpr) -> dict | None:
    """``cli._sebastiani_thom_mismatch`` as a dense scan of every upper-triangle entry."""
    labels, st, euler = cmpr.st.labels, cmpr.st.entries, cmpr.euler.entries
    for a, i in enumerate(labels):
        for b in range(a, len(labels)):
            j = labels[b]
            expected = euler[a][b]
            if a < b and expected and all(x <= y for x, y in zip(i, j)):
                expected *= 2 ** sum(x == y for x, y in zip(i, j))
            found = st[a][b]
            if found != expected:
                return {"pair": [list(i), list(j)], "expected": expected, "found": found}
    return None
