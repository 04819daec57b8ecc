from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from loopchains import exactalg
from loopchains.cobarloop import LoopAlgebra, based_loop_complex
from loopchains.exactalg import (
    ComplexVerdict,
    FreeComplex,
    HomologySummary,
    IntMatrix,
    ShapeError,
    chain_map_check,
    homology,
    quotient_homology,
    smith_normal_form,
    validate_complex,
)
from loopchains.hochschild import hochschild_b
from loopchains.simpcx import chain_complex, collapse, load_complex

from oracle_ranks import (det, heap_smith_diagonal, quotient_ranks_q, rank_p,
                          rank_q)
from oracle_words import bucketed_layers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMPLEXES = ("s1_3", "boundary_delta3", "torus_7", "rp2")


# frozen Smith normal form examples, worked by hand
def test_snf_diag_2_3():
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.diagonal == (1, 6)


def test_snf_zero_1x1():
    s = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert s.diagonal == (0,)


def test_snf_2x2_with_kernel():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diagonal == (2, 4)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix(0, 5)).diagonal == ()
    assert smith_normal_form(IntMatrix(3, 0)).diagonal == ()


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        IntMatrix(2, 3) @ IntMatrix(2, 3)


def test_from_rows_ragged():
    with pytest.raises(ShapeError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_apply():
    m = IntMatrix.from_rows([[1, 2], [3, 4], [0, 1]])
    assert m.apply([1, -1]) == [-1, -1, -1]


matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda r: st.integers(min_value=1, max_value=8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(matrices)
# this matrix once came out with the diagonal (1, 3, -6)
@example([[0, 0, 0, 0, 2], [0, 0, 0, 3, 0], [0, 0, 3, 0, 0]])
def test_snf_transforms_and_chain(rows):
    m = IntMatrix.from_rows(rows)
    s = smith_normal_form(m)
    d = s.left @ m @ s.right
    # diagonal, nonnegative, divisibility chain
    for (i, j), v in d.entries.items():
        assert i == j, "off-diagonal entry survived"
    diag = list(s.diagonal)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0, "zero before nonzero in the chain"
        else:
            assert b % a == 0
    assert d == s.diagonal_matrix(m.rows, m.cols)
    # transforms are unimodular
    assert det(s.left) in (1, -1)
    assert det(s.right) in (1, -1)


# sparse matrices of +-1 entries, like the boundary matrices the package
# builds, with enough 2, 3 and 6 to leave a non-unit core; up to 60 x 80,
# so that pivots tie on Markowitz cost and elimination fills in
sparse_matrices = st.tuples(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=80)).flatmap(
        lambda shape: st.integers(
            min_value=0, max_value=3 * sum(shape)).flatmap(
                lambda count: st.lists(
                    st.tuples(st.integers(min_value=0, max_value=shape[0] - 1),
                              st.integers(min_value=0, max_value=shape[1] - 1),
                              st.sampled_from([1, -1] * 3
                                              + [2, -2, 3, -3, 6, -6])),
                    min_size=count, max_size=count).map(
                        lambda entries: IntMatrix(*shape, {
                            (i, j): v for i, j, v in entries}))))


@settings(max_examples=60, deadline=None)
@given(sparse_matrices)
def test_snf_divisors_against_rank_oracles(m):
    s = smith_normal_form(m)
    fast = smith_normal_form(m, transforms=False)
    assert fast.left is None and fast.right is None
    assert fast.diagonal == s.diagonal == heap_smith_diagonal(m)
    assert s.left @ m @ s.right == s.diagonal_matrix(m.rows, m.cols)
    assert fast.rank == rank_q(m)
    for p in (2, 3):
        assert rank_p(m, p) == sum(1 for d in fast.diagonal if d % p), p


def _program_matrices():
    """The differentials of complexes the package builds, by label: the
    based loop complexes of the fixtures at weight cap 4, the simplicial
    chain complex of rp2, and the cyclic bar complexes that hh_truncated
    takes in degree -1, of boundary_delta3 at cap 4 and rp2 at cap 3."""
    for name in COMPLEXES:
        cc = collapse(load_complex(FIXTURES / f"{name}.json"))
        for n, m in based_loop_complex(cc, 4).complex.diffs.items():
            yield ("based loop", name, n), m
    for n, m in _fixture_complex("rp2").diffs.items():
        yield ("simplicial", "rp2", n), m
    for name, cap in (("boundary_delta3", 4), ("rp2", 3)):
        algebra = LoopAlgebra(collapse(load_complex(FIXTURES
                                                    / f"{name}.json")))
        c = FreeComplex.from_basis(bucketed_layers(algebra, -1, cap),
                                   lambda w: hochschild_b(algebra, w))
        for n, m in c.diffs.items():
            yield ("cyclic bar", name, n), m


def test_snf_matches_the_heap_oracle_on_the_program_matrices():
    torsion = {}
    for label, m in _program_matrices():
        want = heap_smith_diagonal(m)
        assert smith_normal_form(m, transforms=False).diagonal == want, label
        s = smith_normal_form(m)
        assert s.diagonal == want, label
        assert s.left @ m @ s.right == s.diagonal_matrix(m.rows, m.cols), \
            label
        torsion[label] = tuple(d for d in want if d > 1)
    # s1_3's based loop complex is all in degree 0; every other complex
    # has two differentials, and these have non-unit cores
    assert len(torsion) == 12
    assert {label: t for label, t in torsion.items() if t} == {
        ("simplicial", "rp2", -2): (2,),
        ("cyclic bar", "boundary_delta3", -2): (3, 3, 3),
        ("cyclic bar", "rp2", -2): (2,) * 5}


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rank_transpose_invariant(rows):
    m = IntMatrix.from_rows(rows)
    t = IntMatrix(m.cols, m.rows,
                  {(j, i): v for (i, j), v in m.entries.items()})
    assert smith_normal_form(m, transforms=False).rank == \
        smith_normal_form(t, transforms=False).rank


def test_free_complex_shape_enforced():
    with pytest.raises(ShapeError):
        FreeComplex({0: 2, 1: 2}, {0: IntMatrix(3, 2)})


def test_validate_complex_reports_first_failure():
    # d1 . d0 != 0 by construction
    d0 = IntMatrix.from_rows([[1], [0]])
    d1 = IntMatrix.from_rows([[1, 0]])
    c = FreeComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
    verdict = validate_complex(c)
    assert not verdict.ok
    assert verdict.first_failing_degree == 0
    with pytest.raises(ValueError):
        homology(c)


def test_validate_ok_is_distinct_from_shape_error():
    c = FreeComplex({0: 1, 1: 1}, {0: IntMatrix(1, 1)})
    assert validate_complex(c) == ComplexVerdict(ok=True)


def test_homology_circle_like():
    # one 0-cell, one 1-cell, zero differential: H^0 = H^1 = Z
    c = FreeComplex({0: 1, 1: 1}, {})
    h = homology(c)
    assert h[0] == HomologySummary(0, 1, ())
    assert h[1] == HomologySummary(1, 1, ())


def test_homology_torsion():
    # Z --2--> Z gives H^1 = Z/2
    c = FreeComplex({0: 1, 1: 1}, {0: IntMatrix.from_rows([[2]])})
    h = homology(c)
    assert h[0] == HomologySummary(0, 0, ())
    assert h[1] == HomologySummary(1, 0, (2,))


def test_from_basis_assembles_a_filled_triangle():
    # the simplicial boundary of the triangle abc, n-cells in degree -n
    bases = {-2: ["abc"], -1: ["ab", "ac", "bc"], 0: ["a", "b", "c"]}
    c = FreeComplex.from_basis(
        bases, lambda cell: {cell[:j] + cell[j + 1:]: (-1) ** j
                             for j in range(len(cell))})
    assert c.dims == {-2: 1, -1: 3, 0: 3}
    assert c.diff(-2) == IntMatrix.from_rows([[1], [-1], [1]])
    assert c.diff(-1) == IntMatrix.from_rows([[-1, -1, 0],
                                              [1, 0, -1],
                                              [0, 1, 1]])
    assert set(c.diffs) == {-2, -1}
    h = homology(c)
    assert [h[n] for n in (-2, -1, 0)] == [HomologySummary(-2, 0, ()),
                                           HomologySummary(-1, 0, ()),
                                           HomologySummary(0, 1, ())]


def test_from_basis_names_an_output_outside_the_next_basis():
    with pytest.raises(ValueError, match=r"not closed.*'u' in degree 0 maps "
                                         r"to 'w'.*basis of degree 1"):
        FreeComplex.from_basis({0: ["u"], 1: ["v"]}, lambda x: {"w": 1})


def test_from_basis_skips_degrees_without_a_successor():
    def boundary(x):
        if x != "mid":
            raise AssertionError(f"rule called on {x!r}")
        return {"top": 2}

    # degrees 0 and 3 have no degree above them in the basis
    c = FreeComplex.from_basis({0: ["lone"], 2: ["mid"], 3: ["top"]},
                               boundary)
    assert set(c.diffs) == {2}
    assert c.diff(2) == IntMatrix.from_rows([[2]])
    assert homology(c)[3] == HomologySummary(3, 0, (2,))


def _simplex_faces(cell):
    return {cell[:j] + cell[j + 1:]: (-1) ** j for j in range(len(cell))}


def _simplex_bases(vertices):
    """Every face of the simplex on ``vertices`` (n-cells in degree -n)."""
    return {-n: ["".join(c) for c in combinations(vertices, n + 1)]
            for n in range(len(vertices))}


def _outcome(build):
    try:
        c = build()
    except ValueError as e:
        return str(e)
    return c.dims, c.diffs


def test_restrict_matches_from_basis_on_the_sub_basis():
    bases = _simplex_bases("abcde")
    whole = FreeComplex.from_basis(bases, _simplex_faces)
    rng = Random(0)
    closed = errors = 0
    for trial in range(300):
        if trial % 2:  # a subcomplex: a cell and all of its faces
            cell = rng.choice(bases[-rng.randrange(5)])
            kept = {"".join(c) for n in range(1, len(cell) + 1)
                    for c in combinations(cell, n)}
        else:  # an arbitrary subset, seldom closed
            kept = {x for xs in bases.values() for x in xs
                    if rng.random() < 0.6}
        sub = {n: [x for x in xs if x in kept] for n, xs in bases.items()
               if rng.random() < 0.9}
        for xs in sub.values():
            rng.shuffle(xs)  # any order of the kept elements
        want = _outcome(lambda: FreeComplex.from_basis(sub, _simplex_faces))
        assert _outcome(lambda: whole.restrict(sub)) == want, sub
        if isinstance(want, str):
            errors += 1
        else:
            closed += 1
    assert closed > 50 and errors > 50


def test_restrict_names_the_first_offender_in_order():
    # the same offender as from_basis: the first kept column, then the
    # first output in the rule's order
    bases = {0: ["x", "y"], 1: ["p", "q", "r"]}
    rule = {"x": {"r": 1, "q": 2}, "y": {"p": 1, "q": -1}}.get
    whole = FreeComplex.from_basis(bases, rule)
    for sub in ({0: ["x", "y"], 1: ["p"]}, {0: ["y", "x"], 1: ["p"]},
                {0: ["x"], 1: ["p", "q"]}, {0: ["y"], 1: ["q"]}):
        with pytest.raises(ValueError) as got:
            whole.restrict(sub)
        with pytest.raises(ValueError) as want:
            FreeComplex.from_basis(sub, rule)
        assert str(got.value) == str(want.value)
    assert whole.restrict({0: ["y"], 1: ["q", "p"]}).diff(0) == \
        IntMatrix.from_rows([[-1], [1]])


def test_restrict_needs_a_sub_basis_of_a_built_complex():
    whole = FreeComplex.from_basis({0: ["u"], 1: ["v"]}, lambda x: {"v": 1})
    with pytest.raises(ValueError, match="'w' is not in the basis of "
                                         "degree 1"):
        whole.restrict({0: ["u"], 1: ["w"]})
    with pytest.raises(ValueError, match="degree 2 is not a degree"):
        whole.restrict({2: []})
    with pytest.raises(ValueError, match="built by from_basis"):
        FreeComplex({0: 1}, {}).restrict({0: []})


def _fixture_complex(name):
    return chain_complex(load_complex(FIXTURES / f"{name}.json"))


def _table(summaries):
    return {n: (s.rank, s.torsion) for n, s in summaries.items()}


def _closed_relations(c, rng, count):
    # ``count`` seeded chains v, each with its boundary d v: a subcomplex
    relations = {}
    for _ in range(count):
        n = rng.choice(sorted(c.dims))
        cells = rng.sample(c.bases[n], min(3, c.dim(n)))
        v = {x: rng.choice((-2, -1, 1, 2, 3)) for x in cells}
        dv = c.diff(n).apply([v.get(x, 0) for x in c.bases[n]])
        relations.setdefault(n, []).append(v)
        if any(dv):
            relations.setdefault(n + 1, []).append(
                {y: k for y, k in zip(c.bases[n + 1], dv) if k})
    return relations


@pytest.mark.parametrize("name", COMPLEXES)
def test_quotient_homology_ranks_against_the_rational_oracle(name):
    c = _fixture_complex(name)
    rng = Random(f"quotient {name}")
    for count in (1, 1, 2, 3, 5, 8):
        relations = _closed_relations(c, rng, count)
        got = quotient_homology(c, relations)
        want = quotient_ranks_q(c, relations)
        assert set(c.dims) <= set(got)
        assert {n: s.rank for n, s in got.items()} == \
            {n: want.get(n, 0) for n in got}, relations


@pytest.mark.parametrize("name", COMPLEXES)
def test_quotient_homology_by_nothing_or_everything(name):
    c = _fixture_complex(name)
    assert quotient_homology(c, {}) == homology(c)
    everything = {n: [{x: 1} for x in c.bases[n]] for n in c.dims}
    assert set(_table(quotient_homology(c, everything)).values()) == {(0, ())}


@pytest.mark.parametrize("name", COMPLEXES)
def test_quotient_homology_takes_smith_forms_only_where_relations_are(
        name, monkeypatch):
    # a degree without relations has the zero lattice: no Smith form is
    # taken there, and the homology still agrees with the rational
    # oracle, and with homology(c) when every degree's list is empty
    c = _fixture_complex(name)
    calls = []
    snf = exactalg.smith_normal_form

    def recording(m, *, transforms=True):
        if transforms:
            calls.append((m.rows, m.cols))
        return snf(m, transforms=transforms)

    monkeypatch.setattr(exactalg, "smith_normal_form", recording)
    assert quotient_homology(c, {n: [] for n in c.dims}) == homology(c)
    assert calls == []
    top = max(c.dims)
    relations = {top: [{c.bases[top][0]: 2}]}  # a cycle: nothing above
    got = quotient_homology(c, relations)
    assert calls == [(c.dim(top), 1)]
    want = quotient_ranks_q(c, relations)
    assert {n: s.rank for n, s in got.items()} == \
        {n: want.get(n, 0) for n in got}
    assert got[top].torsion == (2,)


def test_quotient_homology_keeps_torsion_of_a_one_cell_relation():
    c = FreeComplex.from_basis({0: ["x"]}, lambda x: {})
    assert _table(quotient_homology(c, {0: [{"x": 2}]})) == \
        {-1: (0, ()), 0: (0, (2,))}


def test_quotient_homology_needs_a_subcomplex_over_the_basis():
    c = _fixture_complex("s1_3")
    edge = c.bases[-1][0]
    with pytest.raises(ValueError,
                       match="relations are not closed under the boundary"):
        quotient_homology(c, {-1: [{edge: 1}]})
    with pytest.raises(ValueError, match=r"\(9,\) is not in the basis of "
                                         r"degree 0"):
        quotient_homology(c, {0: [{(9,): 1}]})


def test_quotient_homology_needs_a_complex_built_from_a_basis():
    c = FreeComplex({0: 1, 1: 1}, {0: IntMatrix.from_rows([[2]])})
    with pytest.raises(ValueError, match="only a complex built by from_basis "
                                         "can be divided by relations"):
        quotient_homology(c, {})


def test_chain_map_identity_and_sign():
    d0 = IntMatrix.from_rows([[3]])
    c = FreeComplex({0: 1, 1: 1}, {0: d0})
    ident = {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])}
    assert chain_map_check(ident, c, c, sign=1).ok
    bad = chain_map_check(ident, c, c, sign=-1)
    assert not bad.ok and bad.first_failing_degree == 0


def test_chain_map_shape_error():
    c = FreeComplex({0: 2}, {})
    with pytest.raises(ShapeError):
        chain_map_check({0: IntMatrix(1, 1)}, c, c)


@settings(max_examples=30, deadline=None)
@given(matrices)
def test_euler_characteristic(rows):
    # two-term complex 0 -> Z^c --m--> Z^r -> 0 in degrees 0, 1
    m = IntMatrix.from_rows(rows)
    c = FreeComplex({0: m.cols, 1: m.rows}, {0: m})
    h = homology(c)
    euler_dims = m.cols - m.rows
    euler_h = h.get(0, HomologySummary(0, 0, ())).rank - \
        h.get(1, HomologySummary(1, 0, ())).rank
    assert euler_dims == euler_h
