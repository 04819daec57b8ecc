import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from loopchains import boxquot
from loopchains.boxquot import (
    AdmissibilityError,
    CubeFamily,
    FitError,
    GeometryError,
    PLCube,
    Realization,
    _affinely_independent,
    box_dot,
    box_slash,
    concat_f,
    constant_level,
    face,
    fits,
    load_cube_family,
    parse_cube_family,
    pl_equal,
    quotient_homology_compare,
    random_cube,
    random_level,
    serialize_cube_family,
    split,
    transpose,
    transpose_cancellation,
)
from loopchains.simpcx import ParseError, parse_complex
from oracle_geometry import solved_barycentric

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def triangle_realization():
    cx = parse_complex(json.dumps({"name": "triangle", "vertices": [0, 1, 2],
                                   "facets": [[0, 1, 2]]}))
    return Realization(cx, {0: (0, 0), 1: (1, 0), 2: (0, 1)})


# local copies of the collapse point maps, so the checks below recompute
# certificate witnesses through the public eval surface only
def clampsum(pt, thr=F(1)):
    if len(pt) == 1:
        return ()
    s = pt[-2] + pt[-1]
    return pt[:-2] + (s if s <= thr else thr,)


def insert(pt, k, v):
    return pt[:k - 1] + (v,) + pt[k - 1:]


def shrink(pt, k, center):
    body, lam = list(pt[:-1]), pt[-1]
    body[k - 1] = center + (1 - lam) * (body[k - 1] - center)
    body[k] = center + (1 - lam) * (body[k] - center)
    return tuple(body)


# -- construction and evaluation --------------------------------------------

def test_breakpoints_must_increase_from_zero_to_one():
    with pytest.raises(GeometryError, match="axis 1"):
        PLCube(((0, F(1, 2), F(1, 2), 1),), {(j,): (0,) for j in range(4)})
    with pytest.raises(GeometryError, match="axis 2"):
        PLCube(((0, 1), (0, F(3, 4))),
               {idx: (0,) for idx in ((0, 0), (0, 1), (1, 0), (1, 1))})


def test_lattice_must_be_complete_and_exact():
    with pytest.raises(GeometryError, match="missing value"):
        PLCube(((0, 1),), {(0,): (0,)})
    with pytest.raises(GeometryError, match="unexpected lattice point"):
        PLCube(((0, 1),), {(0,): (0,), (1,): (1,), (2,): (2,)})
    with pytest.raises(GeometryError, match="not a rational"):
        PLCube(((0, 1),), {(0,): (0.5,), (1,): (1,)})


def test_kuhn_interpolation_of_corner_data_is_min():
    # corner values 0, 0, 0, 1 interpolate to min(u, v) on the square
    mn = PLCube(((0, 1), (0, 1)),
                {(0, 0): (0,), (1, 0): (0,), (0, 1): (0,), (1, 1): (1,)})
    assert mn.eval((F(1, 3), F(3, 4))) == (F(1, 3),)
    assert mn.eval((F(2, 3), F(1, 5))) == (F(1, 5),)
    assert mn.eval((F(1, 2), F(1, 2))) == (F(1, 2),)


def test_resampling_on_a_finer_grid_changes_the_map():
    # Kuhn data is not refinement-stable; pl_equal must detect it and hand
    # back a point where the two interpolants genuinely differ.  min(u, v)
    # on {0, 1/2, 1}^2 is the same map again, but dropping either 1/2
    # changes it at (1/2, 1/2): no breakpoint of the finer grid can go
    # alone, though both grids carry the map
    mn = PLCube(((0, 1), (0, 1)),
                {(0, 0): (0,), (1, 0): (0,), (0, 1): (0,), (1, 1): (1,)})
    half = (0, F(1, 2), 1)
    assert pl_equal(mn, PLCube.from_function((half, half), mn.eval)).equal
    for grid in ((half, (0, 1)), ((0, 1), half)):
        res = PLCube.from_function(grid, mn.eval)
        verdict = pl_equal(mn, res)
        assert not verdict.equal
        assert verdict.witness == (F(1, 2), F(1, 2))
        assert mn.eval(verdict.witness) != res.eval(verdict.witness)


def test_pl_equal_accepts_an_affine_map_on_any_grid():
    fn = lambda p: (p[0] + 2 * p[1], p[0] - p[1])
    a = PLCube.from_function(((0, 1), (0, 1)), fn)
    b = PLCube.from_function(((0, F(1, 3), 1), (0, F(1, 2), F(3, 4), 1)), fn)
    assert pl_equal(a, b).equal
    assert pl_equal(b, a).equal


def test_degeneracy_detection():
    flat = PLCube(((0, 1), (0, F(1, 2), 1)),
                  {(i, j): (F(j), F(j)) for i in range(2) for j in range(3)})
    assert flat.degenerate_axes() == (1,)
    assert flat.is_degenerate
    assert not PLCube.constant(0, (3,)).is_degenerate
    assert PLCube.constant(2, (3,)).degenerate_axes() == (1, 2)


def ignoring(rng, dim, dead, coarse=False):
    """A random dim-cube whose lattice values do not vary along the
    1-indexed axes in ``dead``.  A coarse cube takes values 0 and 1 only,
    so its other axes are often flat on some slices and not on others."""
    base = random_cube(rng, dim, ambient=1 if coarse else 2)

    def value(idx):
        p = base.value(tuple(0 if a + 1 in dead else j
                             for a, j in enumerate(idx)))
        return (F(p[0] > 0),) if coarse else p
    return PLCube(base.breakpoints,
                  {idx: value(idx) for idx, _ in base.lattice()})


def test_degenerate_axes_do_not_move_the_kuhn_interpolation():
    # the certificates skip evaluating two points that differ only on
    # degenerate axes, so eval must not read those coordinates
    rng = random.Random(61)
    for dim, coarse in product((1, 2, 3, 4), (False, True)):
        for _ in range(8):
            dead = set(rng.sample(range(1, dim + 1), rng.randint(0, dim)))
            cube = ignoring(rng, dim, dead, coarse)
            flat = cube.degenerate_axes()
            assert dead <= set(flat)
            for _ in range(25):
                p = tuple(F(rng.randint(0, 60), 60) for _ in range(dim))
                q = tuple(F(rng.randint(0, 60), 60) if a + 1 in flat else x
                          for a, x in enumerate(p))
                assert cube.eval(p) == cube.eval(q), (cube.lattice(), p, q)


def test_target_containment_is_checked():
    real = triangle_realization()
    PLCube(((0, 1),), {(0,): (0, 0), (1,): (F(1, 2), F(1, 2))}, real)
    with pytest.raises(GeometryError, match="leaves the target"):
        PLCube(((0, 1),), {(0,): (0, 0), (1,): (2, 0)}, real)


def test_barycentric_frames_match_the_per_point_solve():
    # seeded points of every shipped realization and of a full triangle:
    # vertices, points on faces (some coordinate 0), interior points,
    # points outside (some coordinate negative) and, where the ambient
    # dimension exceeds the simplex's, points off its affine hull
    rng = random.Random(73)
    reals = [load_cube_family(FIXTURES / f"{name}.json").realization
             for name in ("point_cubes", "circle_cubes", "figure_eight_cubes")]
    reals.append(triangle_realization())
    kinds = dict.fromkeys(("vertex", "face", "interior", "outside", "off hull"),
                          0)
    for real in reals:
        for simplex in real._simplices:
            verts = [real.coordinates[v] for v in simplex]
            m = len(verts)

            def at(lam):
                return tuple(sum(l * v[d] for l, v in zip(lam, verts))
                             for d in range(real.ambient))

            points = [(at([F(j == i) for j in range(m)]), "vertex")
                      for i in range(m)]
            for _ in range(6):
                raw = [F(rng.randint(1, 9)) for _ in range(m)]
                lam = [x / sum(raw) for x in raw]
                points.append((at(lam), "interior" if m > 1 else "vertex"))
                if m > 1:
                    dead = rng.sample(range(m), rng.randint(1, m - 1))
                    zeroed = [0 if j in dead else x for j, x in enumerate(raw)]
                    points.append((at([x / sum(zeroed) for x in zeroed]),
                                   "face"))
                    out = raw[:]
                    out[rng.randrange(m)] = F(-rng.randint(1, 9))
                    if sum(out):
                        points.append((at([x / sum(out) for x in out]),
                                       "outside"))
                if m <= real.ambient:
                    shift = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(real.ambient))
                    p = tuple(a + b for a, b in zip(at(lam), shift))
                    if _affinely_independent(verts + [p]):
                        points.append((p, "off hull"))
            for point, kind in points:
                want = solved_barycentric(real, simplex, point)
                assert real._barycentric(simplex, point) == want, (
                    real, simplex, point)
                assert (want is None) == (kind in ("outside", "off hull"))
                kinds[kind] += 1
    assert all(kinds.values()), kinds


# -- faces, transpositions, boundary -----------------------------------------

def test_face_of_identity_square_is_the_left_edge():
    sq = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
    left = face(sq, 1, 0)
    assert left.lattice() == [((0,), (F(0), F(0))), ((1,), (F(0), F(1)))]
    with pytest.raises(GeometryError, match="face index 3 out of range"):
        face(sq, 3, 0)
    with pytest.raises(GeometryError, match="side must be 0 or 1"):
        face(sq, 1, 2)


def test_face_of_degenerate_cube_along_other_axis_stays_degenerate():
    # map depends only on axis 2, so axis 1 is the degenerate one; fixing
    # axis 2 leaves a 1-cube still constant in its surviving coordinate
    flat = PLCube(((0, 1), (0, F(1, 2), 1)),
                  {(i, j): (F(j),) for i in range(2) for j in range(3)})
    assert flat.degenerate_axes() == (1,)
    assert face(flat, 2, 0).degenerate_axes() == (1,)
    assert face(flat, 2, 1).degenerate_axes() == (1,)
    # fixing the surviving axis instead gives a nondegenerate 1-cube
    assert face(flat, 1, 0).degenerate_axes() == ()


def test_boundary_squares_to_zero_on_random_cubes():
    # the face closure of one cube is the cube's own cell complex, whose
    # span has the homology of a point; d.d != 0 fails validation, and
    # face signs other than (-1)**(k + eps) change the groups
    rng = random.Random(11)
    for dim in (1, 2, 3):
        for _ in range(4):
            closure = face_closure([random_cube(rng, dim)])
            assert len(closure) == 3 ** dim
            assert table(quotient_homology_compare(closure).plain) == \
                {n: (int(n == 0), ()) for n in range(dim + 1)}


def test_boundary_signs_on_the_interval():
    arc = PLCube(((0, 1),), {(0,): (0, 0), (1,): (1, 0)})
    ends = {p[0]: (-1) ** (k + eps)
            for k, eps, f in boxquot._signed_faces(arc)
            for _, p in f.lattice()}
    # (-1)**(1+0) delta_{1,0} + (-1)**(1+1) delta_{1,1}: head minus tail
    assert ends == {F(0): -1, F(1): 1}


def test_double_transpose_is_identity_and_symmetric_cube_is_fixed():
    rng = random.Random(5)
    cube = random_cube(rng, 3)
    for k in (1, 2):
        assert transpose(transpose(cube, k), k) == cube
    sym = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0] + p[1],))
    assert transpose(sym, 1) == sym
    with pytest.raises(GeometryError, match="out of range for transposition"):
        transpose(sym, 2)


def derived_cubes(cube):
    """Every iterated face of the cube, down to its points, and every
    transposition of it and of its faces, each once."""
    seen, todo = set(), [cube]
    while todo:
        c = todo.pop()
        for d in ([face(c, k, eps) for k in range(1, c.dim + 1) for eps in (0, 1)]
                  + [transpose(c, k) for k in range(1, c.dim)]):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def test_faces_and_transpositions_match_the_validating_constructor():
    # face and transpose skip validation and the target check; the same
    # data through the validating constructor must be accepted, compare
    # equal and hash alike
    cubes = [c for name in ("point_cubes", "circle_cubes", "figure_eight_cubes")
             for c in load_cube_family(FIXTURES / f"{name}.json").cubes]
    # a triangle holding every value random_cube draws
    cx = parse_complex(json.dumps({"name": "big triangle", "vertices": [0, 1, 2],
                                   "facets": [[0, 1, 2]]}))
    big = Realization(cx, {0: (-20, -20), 1: (40, -20), 2: (-20, 40)})
    rng = random.Random(41)
    for dim in (1, 2, 3, 4):
        for target in (None, big):
            c = random_cube(rng, dim)
            cubes.append(PLCube(c.breakpoints, c.lattice(), target))
    checked = Counter()
    for cube in cubes:
        for d in derived_cubes(cube):
            v = PLCube(d.breakpoints, d.lattice(), d.target)
            assert d == v and hash(d) == hash(v)
            assert (d.dim, d.ambient) == (v.dim, v.ambient)
            assert d.degenerate_axes() == v.degenerate_axes()
            checked[d.dim, d.target is not None] += 1
    assert all(checked[dim, True] and checked[dim, False]
               for dim in range(5)), checked


@pytest.mark.parametrize("call, message", [
    (lambda sq: face(sq, 1.0, 0), "face index k must be an integer, got 1.0"),
    (lambda sq: face(sq, True, 0), "face index k must be an integer, got True"),
    (lambda sq: transpose(sq, 1.0), "axis k must be an integer, got 1.0"),
    (lambda sq: box_dot(sq, 1.0), "axis k must be an integer, got 1.0"),
    (lambda sq: transpose_cancellation(sq, 1.0),
     "axis k must be an integer, got 1.0"),
], ids=["face", "face_bool", "transpose", "box_dot", "transpose_cancellation"])
def test_non_integer_axis_is_named(call, message):
    # 1.0 passes the range check; it must not reach list indexing
    sq = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
    with pytest.raises(GeometryError) as caught:
        call(sq)
    assert str(caught.value) == message


@pytest.mark.parametrize("idx", [(0.4,), (True,), ("x",)],
                         ids=["float", "bool", "str"])
def test_value_rejects_a_non_integer_index(idx):
    # int() would read 0.4 as point 0 and True as point 1
    interval = PLCube(((0, 1),), {(0,): (0,), (1,): (1,)})
    assert interval.value((1,)) == (F(1),)
    with pytest.raises(GeometryError) as caught:
        interval.value(idx)
    assert str(caught.value) == (f"index entry of lattice point {idx} must "
                                 f"be an integer, got {idx[0]!r}")


def test_transposition_faces_cancel_for_fifty_random_cubes():
    rng = random.Random(23)
    for _ in range(50):
        dim = rng.choice((2, 3))
        cube = random_cube(rng, dim)
        for k in range(1, dim):
            assert transpose_cancellation(cube, k)


def test_mispaired_transposition_faces_do_not_cancel():
    rng = random.Random(7)
    cube = random_cube(rng, 3)
    # face 1 of the cube against face 1 (not 2) of the transposition
    wrong = face(transpose(cube, 1), 1, 0)
    right = face(cube, 1, 0)
    assert not right.is_degenerate and not wrong.is_degenerate
    assert right != wrong


# -- concatenation and splitting ---------------------------------------------

def test_midpoint_concatenation_of_two_arcs():
    a = PLCube(((0, 1),), {(0,): (0, 0), (1,): (1, 0)})
    b = PLCube(((0, 1),), {(0,): (1, 0), (1,): (1, 1)})
    cat = concat_f(a, b, F(1, 2))
    assert cat.breakpoints == ((F(0), F(1, 2), F(1)),)
    assert [p for _, p in cat.lattice()] == [(F(0), F(0)), (F(1), F(0)),
                                             (F(1), F(1))]
    assert cat.eval((F(1, 4),)) == (F(1, 2), F(0))
    assert cat.eval((F(3, 4),)) == (F(1), F(1, 2))


def test_concat_requires_matching_faces():
    a = PLCube(((0, 1),), {(0,): (0, 0), (1,): (1, 0)})
    b = PLCube(((0, 1),), {(0,): (1, 0), (1,): (1, 1)})
    with pytest.raises(FitError, match="faces do not match"):
        concat_f(b, a, F(1, 2))
    assert fits(a, b) and not fits(b, a)


def test_constant_cubes_concatenate_at_any_level():
    k = PLCube.constant(2, (3, 4))
    level = PLCube(((0, 1),), {(0,): (F(1, 4),), (1,): (F(3, 4),)})
    assert constant_level(level) is None
    cat = concat_f(k, k, level)
    assert cat.is_degenerate
    assert cat.eval((F(1, 3), F(1, 7))) == (F(3), F(4))


def test_level_zero_set_condition_is_named():
    # the level vanishes at a lattice corner where the first cube still
    # depends on its last coordinate
    a = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
    b = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], 1 + p[1] - p[1]))
    level = PLCube(((0, 1),), {(0,): (F(0),), (1,): (F(1, 2),)})
    assert fits(a, b)
    with pytest.raises(AdmissibilityError, match="vanishes where the first"):
        concat_f(a, b, level)
    # mirrored: the level hits one where the second cube still varies
    b0 = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], 0 * p[1]))
    level_one = PLCube(((0, 1),), {(0,): (F(1, 2),), (1,): (F(1),)})
    assert fits(b0, a)
    with pytest.raises(AdmissibilityError, match="reaches one where the second"):
        concat_f(b0, a, level_one)


def test_level_range_is_checked():
    a = PLCube(((0, 1),), {(0,): (0,), (1,): (1,)})
    with pytest.raises(GeometryError, match=r"lie in \[0, 1\]"):
        concat_f(a, a, F(3, 2))


def test_concat_at_level_zero_and_one():
    a = PLCube(((0, 1),), {(0,): (0,), (1,): (1,)})
    loop = PLCube(((0, F(1, 2), 1),), {(0,): (1,), (1,): (2,), (2,): (0,)})
    head = PLCube.constant(1, (0,))
    tail = PLCube.constant(1, (1,))
    # level 0: the first factor must be degenerate, and the result is the second
    cat0 = concat_f(head, a, 0)
    assert pl_equal(cat0, a).equal
    cat1 = concat_f(a, tail, 1)
    assert pl_equal(cat1, a).equal


def test_varying_level_needs_last_degenerate_factors():
    rng = random.Random(19)
    a = random_cube(rng, 2)
    b = PLCube.from_function(a.breakpoints, lambda p, a=a: a.eval((p[0], 1)))
    assert fits(a, b)
    level = PLCube(((0, 1),), {(0,): (F(1, 4),), (1,): (F(3, 4),)})
    with pytest.raises(GeometryError, match="varying level"):
        concat_f(a, b, level)


def test_concat_needs_a_shared_transverse_grid():
    fn = lambda p: (p[0], p[1])
    a = PLCube.from_function(((0, F(1, 2), 1), (0, 1)), fn)
    b = PLCube.from_function(((0, F(1, 3), 1), (0, 1)),
                             lambda p: (p[0], 1 + 0 * p[1]))
    # faces match as maps even though the transverse grids differ
    assert fits(a, PLCube.from_function(((0, F(1, 2), 1), (0, 1)),
                                        lambda p: (p[0], 1 + 0 * p[1])))
    with pytest.raises(GeometryError, match="transverse"):
        concat_f(a, b, F(1, 2))


def test_split_then_concat_round_trip_dim1_any_level():
    rng = random.Random(29)
    for c in (F(2, 7), F(1, 2), F(5, 6)):
        cube = random_cube(rng, 1)
        lower, upper = split(cube, c)
        assert fits(lower, upper)
        assert pl_equal(concat_f(lower, upper, c), cube).equal


def test_split_then_concat_round_trip_on_the_grid():
    rng = random.Random(31)
    for dim in (2, 3):
        cube = random_cube(rng, dim)
        grid = cube.breakpoints[-1]
        c = grid[1] if len(grid) > 2 else F(1, 2)
        if c not in grid:
            cube = PLCube.from_function(
                cube.breakpoints[:-1] + ((0, c, 1),), cube.eval)
        lower, upper = split(cube, c)
        assert pl_equal(concat_f(lower, upper, c), cube).equal


def test_split_off_grid_is_refused_in_dim_two():
    rng = random.Random(37)
    with pytest.raises(GeometryError, match="last-axis grid"):
        split(random_cube(rng, 2), F(1, 7))
    varying = PLCube(((0, 1),), {(0,): (F(1, 4),), (1,): (F(1, 2),)})
    with pytest.raises(GeometryError, match="constant level"):
        split(random_cube(rng, 2), varying)


def test_split_at_the_ends():
    cube = PLCube(((0, F(1, 2), 1),), {(0,): (0,), (1,): (3,), (2,): (1,)})
    lower, upper = split(cube, 0)
    assert lower.is_degenerate
    assert pl_equal(upper, cube).equal
    lower, upper = split(cube, 1)
    assert upper.is_degenerate
    assert pl_equal(lower, cube).equal


def test_split_refuses_the_levels_concat_refuses():
    # split read the first coordinate of a level of any dimension or
    # ambient dimension; it now parses the level as concat_f does
    square = PLCube.from_function(((0, F(1, 2), 1), (0, F(1, 2), 1)),
                                  lambda p: (p[0], p[1]))
    lower, upper = split(square, F(1, 2))
    for level in (PLCube.constant(3, (F(1, 2),)), PLCube.constant(0, (F(1, 2),)),
                  PLCube.constant(1, (F(1, 2), 7))):
        for call in (lambda: split(square, level),
                     lambda: concat_f(lower, upper, level)):
            with pytest.raises(GeometryError, match="level must be a 1-cube "
                                                    "into the unit interval"):
                call()
    for level in (F(3, 2), PLCube.constant(1, (F(-1, 2),))):
        for call in (lambda: split(square, level),
                     lambda: concat_f(lower, upper, level)):
            with pytest.raises(GeometryError, match=r"lie in \[0, 1\]"):
                call()


# -- collapse certificates ----------------------------------------------------

def test_box_slash_on_the_circle_arc():
    family = load_cube_family(FIXTURES / "circle_cubes.json")
    arc = family.cubes[family.labels.index("arc-b")]
    cert = box_slash(arc, F(1, 2))
    assert cert.ok
    assert "zero face restores the cube" in cert.checks


def test_box_slash_constant_levels_pass_in_dims_two_and_three():
    rng = random.Random(41)
    for dim in (2, 3):
        cube = random_cube(rng, dim)
        level = random_level(rng, dim - 1)
        cert = box_slash(cube, level)
        assert cert.ok, cert.failures


def test_box_slash_varying_level_fails_exactly_at_the_top_transverse_axis():
    # the collapse does not commute with the face at k = i-1 on the level
    # side when the level varies; everything else still holds
    sig = PLCube.from_function(
        ((0, 1), (0, 1), (0, 1)),
        lambda t: (t[0] * t[0] + 2 * t[1], t[1] * t[2] - t[0]))
    level = PLCube.from_function(((0, 1), (0, 1)),
                                 lambda t: ((t[0] + t[1]) / 4 + F(1, 8),))
    cert = box_slash(sig, level)
    assert not cert.ok
    failing = {name for name, _ in cert.failures}
    assert failing == {"face 2(0) commutes (level side)",
                       "face 2(1) commutes (level side)"}


def test_box_slash_threshold_control_fails_with_a_live_witness():
    rng = random.Random(43)
    cube = random_cube(rng, 2)
    assert 2 not in cube.degenerate_axes()
    thr = F(3, 4)
    cert = box_slash(cube, F(1, 2), clamp_threshold=thr)
    assert not cert.ok
    byname = dict(cert.failures)
    pt = byname["zero face restores the cube"]
    assert cube.eval(clampsum(insert(pt, 2, F(0)), thr)) != cube.eval(pt)
    # a threshold above one pushes the one face out of the unit cube: a
    # failing certificate whose witness leaves the cube, not an exception
    thr = F(7, 5)
    family = load_cube_family(FIXTURES / "circle_cubes.json")
    arc = family.cubes[family.labels.index("arc-b")]
    for cube in (cube, arc):
        cert = box_slash(cube, F(1, 2), clamp_threshold=thr)
        assert not cert.ok
        pt = dict(cert.failures)["one face is degenerate (cube side)"]
        assert clampsum(insert(pt, cube.dim, F(1)), thr)[-1] > 1


def test_box_dot_identities_hold():
    rng = random.Random(47)
    for dim in (2, 3):
        for _ in range(3):
            cube = random_cube(rng, dim)
            for k in range(1, dim):
                cert = box_dot(cube, k)
                assert cert.ok, (dim, k, cert.failures)


def test_box_dot_center_control_fails_exactly_the_one_face():
    rng = random.Random(53)
    cube = random_cube(rng, 2)
    cert = box_dot(cube, 1, center=F(1, 3))
    assert not cert.ok
    assert {name for name, _ in cert.failures} == \
        {"one face lands on the center-degenerate cube"}
    with pytest.raises(GeometryError, match="out of range for transposition"):
        box_dot(cube, 2)


def test_a_passing_certificate_evaluates_no_cube(monkeypatch):
    monkeypatch.setattr(boxquot, "_decided", {})  # decide every identity
    calls = []
    real_eval = PLCube.eval
    monkeypatch.setattr(PLCube, "eval",
                        lambda self, pt: calls.append(pt) or real_eval(self, pt))
    rng = random.Random(67)
    for dim in (1, 2, 3):
        for _ in range(5):
            cube = random_cube(rng, dim)
            level = random_level(rng, dim - 1)
            assert box_slash(cube, level).ok
            for k in range(1, dim):
                assert box_dot(cube, k).ok
    assert calls == []
    # the varying-level control is refuted and still walks to its witness
    square = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
    level = PLCube(((0, 1),), {(0,): (F(1, 8),), (1,): (F(3, 8),)})
    assert box_slash(square, level).failures == \
        (("face 1(0) commutes (level side)", (F(1, 3),)),)
    assert calls


def probe_grid(dim, *cubes):
    # the certificates' probe grid: a stock of rationals plus the
    # breakpoints of each axis and of the next
    axes = []
    for a in range(dim):
        vals = {F(0), F(1, 3), F(1, 2), F(3, 4), F(1)}
        for cube in cubes:
            for b in (a, a + 1):
                if b < cube.dim:
                    vals.update(cube.breakpoints[b])
        axes.append(sorted(vals))
    return axes


def slash_identities(cube, level, thr):
    i = cube.dim
    out = []
    for comp, side in ((cube, "cube"), (level, "level"))[:min(i, 2)]:
        out.append((f"zero face restores the {side}", comp,
                    lambda t: clampsum(insert(t, i, F(0)), thr), lambda t: t))
        out.append((f"one face is degenerate ({side} side)", comp,
                    lambda t: clampsum(insert(t, i, F(1)), thr),
                    lambda t: t[:-1] + (F(1),)))
        for k in range(1, i):
            for e in (0, 1):
                out.append((f"face {k}({e}) commutes ({side} side)", comp,
                            lambda t, k=k, e=F(e): clampsum(insert(t, k, e), thr),
                            lambda t, k=k, e=F(e): insert(clampsum(t, thr), k, e)))
    return out


def dot_identities(cube, k, c):
    i = cube.dim
    out = [("zero face restores the cube", cube,
            lambda t: shrink(t + (F(0),), k, c), lambda t: t),
           ("one face lands on the center-degenerate cube", cube,
            lambda t: shrink(t + (F(1),), k, c),
            lambda t: t[:k - 1] + (F(1, 2), F(1, 2)) + t[k + 1:])]
    for j in range(1, i + 1):
        if j not in (k, k + 1):
            kk = k - 1 if j < k else k
            for e in (0, 1):
                out.append((f"face {j}({e}) commutes", cube,
                            lambda t, j=j, e=F(e): shrink(insert(t, j, e), k, c),
                            lambda t, j=j, e=F(e), kk=kk:
                            insert(shrink(t, kk, c), j, e)))
    return out


def first_failures(identities, axes, values):
    """Evaluate both sides of every identity at every probe point through
    the public eval; a point outside the unit cube fails the identity.
    ``values`` keeps each (component, point) evaluation across calls,
    with None where eval refuses the point."""
    def value(comp, pt):
        key = (comp, pt)
        if key not in values:
            try:
                values[key] = comp.eval(pt)
            except GeometryError:
                values[key] = None
        return values[key]

    out = []
    for name, comp, lhs, rhs in identities:
        for t in product(*axes[:comp.dim]):
            p, q = value(comp, lhs(t)), value(comp, rhs(t))
            if p is None or p != q:
                out.append((name, t))
                break
    return out


def assert_matches_oracle(cert, identities, axes, values):
    assert cert.checks == tuple(name for name, _, _, _ in identities)
    oracle = first_failures(identities, axes, values)
    assert cert.failures == tuple(oracle)
    assert cert.ok == (not oracle)


def oracle_cases():
    """(tag, certificate call, identities, probe grid, evaluation memo)
    for every certificate the oracle test checks; the tag is the center
    or threshold of the call."""
    # the decision sets show here as well: centers outside [0, 1] push
    # the face identities out of the cube, which the corners must refute
    # and the grid must witness, and the thresholds put thr and thr - 1
    # inside, on the edge of and outside [0, 1]
    rng = random.Random(59)
    sq = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
    cube3 = PLCube.from_function(((0, 1),) * 3, lambda p: p)
    cases = [(sq, PLCube(((0, 1),), {(0,): (F(1, 8),), (1,): (F(3, 8),)})),
             (cube3, PLCube.constant(2, (F(1, 2),)))]
    for dim in (1, 2, 2, 3):
        cube = random_cube(rng, dim)
        cases.append((cube, random_level(rng, dim - 1)))
        if dim >= 2:  # a varying level, one draw per corner
            cases.append((cube, PLCube(((0, 1),) * (dim - 1), {
                idx: (F(rng.randint(0, 8), 8),)
                for idx in product((0, 1), repeat=dim - 1)})))
    centers = (F(1, 2), F(1, 3), F(0), F(1), F(2, 3), F(3, 2), F(-1, 2))
    thresholds = (F(1), F(3, 4), F(7, 5), F(0), F(1, 3), F(2), F(5, 2), F(-1))
    out = []
    for cube, level in cases:
        values = {}
        for thr in thresholds:
            out.append((thr, lambda c=cube, l=level, t=thr:
                        box_slash(c, l, clamp_threshold=t),
                        slash_identities(cube, level, thr),
                        probe_grid(cube.dim, cube, level), values))
        for k in range(1, cube.dim):
            for c in centers:
                out.append((c, lambda cb=cube, k=k, c=c:
                            box_dot(cb, k, center=c),
                            dot_identities(cube, k, c),
                            probe_grid(cube.dim, cube), values))
    # one 4-cube, at its middle axis pair, so that faces lie on both sides
    cube4, values = random_cube(rng, 4), {}
    for c in centers:
        out.append((c, lambda c=c: box_dot(cube4, 2, center=c),
                    dot_identities(cube4, 2, c), probe_grid(4, cube4), values))
    # a cube that ignores axes 1 and 2: the one face lands on it at any
    # center in [0, 1], and a center outside pulls it out of the cube
    flat, values = ignoring(rng, 3, {1, 2}), {}
    assert flat.degenerate_axes() == (1, 2)
    for c in (F(1, 3), F(3, 2)):
        out.append((("flat", c), lambda c=c: box_dot(flat, 1, center=c),
                    dot_identities(flat, 1, c), probe_grid(3, flat), values))
    return out


def test_certificates_match_the_full_evaluation_oracle(monkeypatch):
    # every identity is evaluated on both sides at every probe point, so a
    # certificate that skips evaluating a point it may not skip shows here;
    # the cases run first with an empty decide-step memo and then again,
    # warm, in reverse order, which must change no certificate
    monkeypatch.setattr(boxquot, "_decided", {})
    cases = oracle_cases()
    cold = [call() for _, call, _, _, _ in cases]
    warm = [call() for _, call, _, _, _ in reversed(cases)][::-1]
    assert warm == cold
    failing = set()
    for cert, (tag, _, identities, axes, values) in zip(cold, cases):
        assert_matches_oracle(cert, identities, axes, values)
        failing |= {(tag, name) for name, _ in cert.failures}
    # the flat cube's one face fails only at the center outside [0, 1]
    one_face = "one face lands on the center-degenerate cube"
    assert (("flat", F(1, 3)), one_face) not in failing
    assert (("flat", F(3, 2)), one_face) in failing
    # the negative controls all fired: threshold, center, varying level
    assert (F(3, 4), "zero face restores the cube") in failing
    assert (F(7, 5), "one face is degenerate (cube side)") in failing
    assert (F(1, 3), "one face lands on the center-degenerate cube") in failing
    assert (F(1), "face 1(0) commutes (level side)") in failing
    assert (F(3, 2), "face 3(0) commutes") in failing
    assert (F(-1, 2), "face 3(1) commutes") in failing
    # the witness is the first grid point that leaves the cube
    cube3 = PLCube.from_function(((0, 1),) * 3, lambda p: p)
    assert ("face 3(0) commutes", (F(0), F(0), F(3, 4))) in \
        box_dot(cube3, 1, center=F(3, 2)).failures


# -- quotient homology comparison ---------------------------------------------

def table(summaries):
    return {n: (s.rank, s.torsion) for n, s in summaries.items()}


def test_point_family_comparison():
    cmp = quotient_homology_compare(load_cube_family(FIXTURES / "point_cubes.json"))
    assert cmp.agree
    assert table(cmp.plain) == {0: (1, ())}
    assert table(cmp.quotient) == {0: (1, ())}
    assert cmp.concat_relations == 0 and cmp.transpose_relations == 0


def test_circle_family_comparison():
    cmp = quotient_homology_compare(load_cube_family(FIXTURES / "circle_cubes.json"))
    assert cmp.agree
    assert table(cmp.plain) == {0: (1, ()), 1: (1, ())}
    assert table(cmp.quotient) == {0: (1, ()), 1: (1, ()), 2: (0, ())}
    assert cmp.concat_relations == 2


def test_figure_eight_family_comparison():
    cmp = quotient_homology_compare(
        load_cube_family(FIXTURES / "figure_eight_cubes.json"))
    assert cmp.agree
    assert table(cmp.plain) == {0: (1, ()), 1: (2, ())}
    assert table(cmp.quotient) == {0: (1, ()), 1: (2, ()), 2: (0, ())}
    assert cmp.concat_relations == 4


def face_closure(fam):
    # close under nondegenerate faces, up to map equality, down to points
    fam = list(fam)
    for _ in range(max(c.dim for c in fam)):
        fresh = []
        for cube in fam:
            for k in range(1, cube.dim + 1):
                for eps in (0, 1):
                    f = face(cube, k, eps)
                    if f.is_degenerate:
                        continue
                    if all(not pl_equal(f, g) for g in fam + fresh):
                        fresh.append(f)
        fam += fresh
    return fam


def square_transposition_family():
    sq = PLCube(((0, 1), (0, 1)),
                {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1),
                 (1, 1): (1, 0)}, triangle_realization())
    return face_closure([sq, transpose(sq, 1)])


def test_transposition_relation_kills_the_square_class():
    # the span of a square and its transposition has H_2 = Z, and the
    # transposition relation kills it; the two tables legitimately disagree
    cmp = quotient_homology_compare(square_transposition_family())
    assert cmp.transpose_relations == 2
    assert table(cmp.plain) == {0: (1, ()), 1: (0, ()), 2: (1, ())}
    assert table(cmp.quotient) == {0: (1, ()), 1: (0, ()), 2: (0, ()),
                                   3: (0, ())}
    assert not cmp.agree


def test_symmetric_square_leaves_torsion_in_the_quotient():
    # transpose(sq, 1) == sq, so the transposition relation is 2 sq: the
    # quotient keeps Z/2 where the span has Z, read off the mapping cone
    sq = PLCube(((0, 1), (0, 1)),
                {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (1, 0),
                 (1, 1): (0, 0)}, triangle_realization())
    assert transpose(sq, 1) == sq
    cmp = quotient_homology_compare(face_closure([sq]))
    assert table(cmp.plain) == {0: (1, ()), 1: (1, ()), 2: (1, ())}
    assert table(cmp.quotient) == {0: (1, ()), 1: (1, ()), 2: (0, (2,)),
                                   3: (0, ())}
    assert cmp.concat_relations == 2 and cmp.transpose_relations == 1
    assert not cmp.agree


def test_family_must_be_face_closed():
    family = load_cube_family(FIXTURES / "circle_cubes.json")
    arc = family.cubes[family.labels.index("arc-a")]
    pt0 = family.cubes[family.labels.index("pt0")]
    with pytest.raises(ValueError, match="not face-closed"):
        quotient_homology_compare([arc, pt0])
    # no 0-cube at all: the empty dimension below the arc is still asked
    with pytest.raises(ValueError, match=r"face 1\(0\) of a 1-cube has no match"):
        quotient_homology_compare([arc])


def test_relations_must_be_closed_under_the_boundary():
    # a's face 1(0) is degenerate and b's is not, so the boundary of
    # a + b - a*b leaves face 1(0) of b minus that of a*b, which no
    # relation among the 1-cubes spans
    a = PLCube(((0, 1), (0, 1)), {(0, 0): (0, 0), (1, 0): (1, 0),
                                  (0, 1): (0, 0), (1, 1): (1, 1)})
    b = PLCube(((0, 1), (0, 1)), {(0, 0): (0, 0), (1, 0): (1, 1),
                                  (0, 1): (0, 1), (1, 1): (1, 1)})
    assert fits(a, b)
    with pytest.raises(ValueError,
                       match="relations are not closed under the boundary"):
        quotient_homology_compare(face_closure([a, b]))


def test_member_faces_are_checked_before_any_relation():
    # the same family with face 2(0) of a dropped has two faults: that
    # face has no match, and the relations are not closed.  The face is
    # also a face of a*b, so a relation enumerated first would add it back
    a = PLCube(((0, 1), (0, 1)), {(0, 0): (0, 0), (1, 0): (1, 0),
                                  (0, 1): (0, 0), (1, 1): (1, 1)})
    b = PLCube(((0, 1), (0, 1)), {(0, 0): (0, 0), (1, 0): (1, 1),
                                  (0, 1): (0, 1), (1, 1): (1, 1)})
    dropped = face(a, 2, 0)
    assert pl_equal(face(concat_f(a, b, F(1, 2)), 2, 0), dropped)
    family = [c for c in face_closure([a, b]) if not pl_equal(c, dropped)]
    with pytest.raises(ValueError, match=r"family not face-closed: face "
                                         r"2\(0\) of a 2-cube has no match"):
        quotient_homology_compare(family)
    # members are taken in dimension order: a 1-cube's missing face first
    family = [c for c in family if c != face(dropped, 1, 0)]
    with pytest.raises(ValueError, match=r"face 1\(0\) of a 1-cube"):
        quotient_homology_compare(family)


def test_a_concatenation_matches_its_alias_on_a_coarser_grid():
    # concatenating 0->1/2 and 1/2->1 at 1/2 gives the segment 0->1 as a
    # map, on the grid (0, 1/2, 1).  Matched by map equality, the relation
    # kills the loop of the three segments; matched by data alone, the
    # concatenation would be a new generator and H_1 = Z would survive
    points = [PLCube.constant(0, (x,)) for x in (0, F(1, 2), 1)]
    segments = [PLCube(((0, 1),), {(0,): (lo,), (1,): (hi,)})
                for lo, hi in ((0, F(1, 2)), (F(1, 2), 1), (0, 1))]
    cat = concat_f(segments[0], segments[1], F(1, 2))
    assert cat != segments[2] and pl_equal(cat, segments[2])
    cmp = quotient_homology_compare(points + segments)
    assert cmp.concat_relations == 1 and cmp.transpose_relations == 0
    assert table(cmp.plain) == {0: (1, ()), 1: (1, ())}
    assert table(cmp.quotient) == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    assert not cmp.agree


def test_shipped_families_satisfy_the_transposition_cancellation():
    for name in ("point_cubes.json", "circle_cubes.json",
                 "figure_eight_cubes.json"):
        for cube in load_cube_family(FIXTURES / name).cubes:
            for k in range(1, cube.dim):
                assert transpose_cancellation(cube, k)


# -- fixtures and generators ----------------------------------------------------

def test_cube_family_round_trip():
    for name in ("point_cubes.json", "circle_cubes.json",
                 "figure_eight_cubes.json"):
        text = (FIXTURES / name).read_text()
        family = parse_cube_family(text)
        assert serialize_cube_family(family) == text


def test_cube_family_parse_errors_name_locations():
    text = (FIXTURES / "circle_cubes.json").read_text()
    doc = json.loads(text)
    broken = dict(doc)
    del broken["coordinates"]
    with pytest.raises(ParseError, match="coordinates: missing section"):
        parse_cube_family(json.dumps(broken))
    broken = json.loads(text)
    del broken["coordinates"]["2"]
    with pytest.raises(ParseError, match="coordinates: missing vertex 2"):
        parse_cube_family(json.dumps(broken))
    broken = json.loads(text)
    broken["cubes"][2]["values"] = broken["cubes"][2]["values"][:1]
    with pytest.raises(ParseError, match=r"cubes\[2\] \(arc-a\)"):
        parse_cube_family(json.dumps(broken))
    for index in ([0.4], [True], ["x"]):
        broken = json.loads(text)
        broken["cubes"][2]["values"][0][0] = index
        with pytest.raises(ParseError, match=r"cubes\[2\] \(arc-a\): index "
                                             r"entry of lattice point"):
            parse_cube_family(json.dumps(broken))
    broken = json.loads(text)
    broken["cubes"][1]["name"] = "pt0"
    with pytest.raises(ParseError, match="duplicate cube name"):
        parse_cube_family(json.dumps(broken))
    for point in (5, None, "1/2"):
        broken = json.loads(text)
        broken["coordinates"]["0"] = point
        with pytest.raises(ParseError) as caught:
            parse_cube_family(json.dumps(broken))
        assert str(caught.value) == ("coordinates: vertex 0 must be a list of "
                                     f"rationals, got {point!r}")
    broken = json.loads(text)
    broken["cubes"][0]["values"][0][1].append("0")
    with pytest.raises(ParseError) as caught:
        parse_cube_family(json.dumps(broken))
    assert str(caught.value) == ("cubes[0] (pt0): cube values lie in R^3 but "
                                 "the target complex is realized in R^2")
    broken = json.loads(text)
    broken["cubes"][2]["values"][0][1][0] = True
    with pytest.raises(ParseError, match=r"cubes\[2\] \(arc-a\): not a "
                                         r"rational value: True"):
        parse_cube_family(json.dumps(broken))


def test_a_lattice_point_listed_twice_is_refused():
    # were the later value kept, arc-a would be a constant map
    doc = json.loads((FIXTURES / "circle_cubes.json").read_text())
    doc["cubes"][2]["values"].append([[0], ["1", "0"]])
    with pytest.raises(ParseError) as caught:
        parse_cube_family(json.dumps(doc))
    assert str(caught.value) == ("cubes[2] (arc-a): repeated value at "
                                 "lattice point (0,)")
    with pytest.raises(GeometryError, match=r"lattice point \(1,\)"):
        PLCube(((0, 1),), [((0,), (0,)), ((1,), (1,)), ((1,), (0,))])


def test_a_coordinate_for_no_vertex_is_refused():
    # dropped, it would break parse . serialize = identity
    doc = json.loads((FIXTURES / "circle_cubes.json").read_text())
    doc["coordinates"]["99"] = ["1", "1"]
    with pytest.raises(ParseError) as caught:
        parse_cube_family(json.dumps(doc))
    assert str(caught.value) == "coordinates: unknown vertex '99'"


def test_cube_family_text_is_decoded_once(monkeypatch):
    text = (FIXTURES / "point_cubes.json").read_text()
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s: calls.append(s) or loads(s))
    family = parse_cube_family(text)
    monkeypatch.undo()
    assert calls == [text]
    assert family == parse_cube_family(json.loads(text))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_cube_family(text[:-2])


def test_random_cube_is_deterministic():
    a = random_cube(random.Random(99), 3)
    b = random_cube(random.Random(99), 3)
    assert a == b
    assert random_cube(random.Random(100), 3) != a
