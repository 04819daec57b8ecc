"""Pipeline driver: fixture commands, verification suites, the convention
resolution harness, and the consolidated report.

Everything printed here is derived from exact arithmetic over committed
fixtures, so two runs with the same seed produce the same bytes.  Nothing
samples time, paths, or hash order.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .boxquot import (PLCube, box_dot, box_slash, concat_f, face, fits,
                      load_cube_family, pl_equal, quotient_homology_compare,
                      random_cube, random_level, serialize_cube_family, split,
                      transpose, transpose_cancellation)
from .cobarloop import (Alphabet, BoundaryUndefinedError, LoopAlgebra,
                        TruncationError, TVerification, adams_T,
                        based_loop_complex, dga_differential,
                        format_cyclic_word, format_word, letter_degree,
                        loop_words, pi2_boundary, t_residual, t_residuals,
                        tau_boundary, verify_T_chain_map, word_boundary)
from .conventions import (CHOICES, DEFAULT, Conventions, LedgerError,
                          parse_ledger, serialize_ledger, validate)
from .exactalg import (IntMatrix, chain_map_check,
                       homology as graded_homology, smith_normal_form,
                       validate_complex)
from .freeloop import (CircleWordAlgebra, _g_residual, _g_words,
                       basepoint_degree, goodwillie_G, loop_boundary,
                       normalize, s1_example, verify_G_chain_map)
from .hochschild import (TableDGA, _Memo, cc_degree, cc_of_morphism,
                         hh_truncated, hochschild_b, hochschild_b_vector,
                         identity_morphism, random_dga, word_degree)
from .signkoszul import (bullet_exponent, dagger_exponent, diamond_exponent,
                         flat_exponent, homotopy_identity_check,
                         koszul_permutation_sign, maltese_exponent,
                         sharp_exponent, sweep_identity)
from .simpcx import (SimplicialComplex, chain_complex, collapse,
                     collapsed_chain_complex, collapsed_homology,
                     homology as simplicial_homology, load_complex,
                     parse_complex, serialize_complex, spanning_tree)

LEDGER_NAME = "conventions.ledger"
COMPLEX_FIXTURES = ("s1_3", "boundary_delta3", "torus_7", "rp2")
CUBE_FIXTURES = ("point_cubes", "circle_cubes", "figure_eight_cubes")

T12 = ("tau", (1, 2))
T13 = ("tau", (1, 3))
T123 = ("tau", (1, 2, 3))
Q012 = ("tau", (0, 1, 2))
GAMMA = ("gamma", 1)
GAMMA_INV = ("gamma", -1)

SQUARE_ZERO = TableDGA({"u": 0, "v": 1}, {}, {"u": {"v": 1}})

# Expected values frozen from independent derivations: hand censuses on the
# tetrahedron and its boundary, the classical homology tables, and rank
# counts computed once and pinned.  They are data the suites compare
# against, not output of the code under test.

BALL_CENSUS = {
    (("tau", (0, 2, 3)),): -1,
    (("tau", (0, 1, 3)),): 1,
    (("tau", (1, 2, 3)),): 1,
    (("tau", (0, 1, 2)), ("tau", (2, 3))): -1,
}
LEIBNIZ_CENSUS = {(T12, T13): -1, (T12, T12, ("tau", (2, 3))): 1}
WRAP_IMAGE = {("v",): -1}
SPOT_PAIR = {("wedge", (T123,), (Q012,)): 1}

PI2_SPOT = {
    (("tau", (0, 1, 2)), ("tau", (2, 1, 0))): -1,
    (("pi2", (0, 2), (2, 1, 0)),): -1,
    (("pi2", (0, 1, 2), (2, 0)),): 1,
    (("pi3", (0, 1), (1, 2), (2, 1, 0)),): 1,
    (("pi3", (0, 1, 2), (2, 1), (1, 0)),): -1,
}
ADAMS_SPOT = {
    ((), (("tau", (0, 1, 2)),)): -1,
    ((("tau", (2, 0, 1)),), (("tau", (1, 2)),)): 1,
    ((("pi2", (0, 1), (1, 2, 0)),),): 1,
    ((("pi2", (1, 2, 0), (0, 1)),),): -1,
    ((("pi2", (0, 1, 2), (2, 0)),),): -1,
    ((("pi2", (2, 0), (0, 1, 2)),),): 1,
    ((("pi2", (1, 2), (2, 0, 1)),),): 1,
    ((("pi2", (2, 0, 1), (1, 2)),),): -1,
}

HOMOLOGY_TABLE = {
    "s1_3": {0: (1, ()), 1: (1, ())},
    "boundary_delta3": {0: (1, ()), 1: (0, ()), 2: (1, ())},
    "torus_7": {0: (1, ()), 1: (2, ()), 2: (1, ())},
    "rp2": {0: (1, ()), 1: (0, (2,)), 2: (0, ())},
}
LETTER_CENSUS = {
    "s1_3": {0: 1},
    "boundary_delta3": {0: 3, -1: 4},
    "torus_7": {0: 15, -1: 14},
    "rp2": {0: 10, -1: 10},
}
CUBE_TABLE = {
    "point_cubes": ({0: (1, ())}, 0, 0),
    "circle_cubes": ({0: (1, ()), 1: (1, ())}, 2, 0),
    "figure_eight_cubes": ({0: (1, ()), 1: (2, ())}, 4, 0),
}

G_SPOTS = (
    ("one slot, odd word", ((T123,),), {("iota", (T123,)): -1}),
    ("one slot, even word", ((T12, T13),), {("iota", (T12, T13)): 1}),
    ("two slots", ((T123,), (T12,)), {("wedge", (T123,), (T12,)): -1}),
    ("three slots die", ((T12,), (T12,), (T12,)), {}),
    ("two odd slots", ((T123,), (Q012,)), SPOT_PAIR),
    ("empty special slot", ((), (T12,)), {("wedge", (), (T12,)): -1}),
)

S1_TABLE = (
    ((False, True), (True, True, 1)),
    ((False, False), (True, False, 1)),
    ((True, True), (False, True, 1)),
    ((True, False), (False, True, 1)),
)


class ResolutionError(RuntimeError):
    """The convention search did not end with exactly one survivor."""


class Workspace:
    """Fixture directory plus caches for the derived objects the suites
    and the report share, each built once; a fixture's loop state lives
    on its alphabet.  The solid 3-simplex "ball3" is built inline: it
    needs no fixture."""

    def __init__(self, fixtures: Path):
        self.fixtures = fixtures
        self._cache = {("complex", "ball3"): SimplicialComplex(
            "solid 3-simplex", (0, 1, 2, 3), ((0, 1, 2, 3),))}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def complex(self, name):
        return self._memo(("complex", name), lambda: load_complex(
            self.fixtures / (name + ".json")))

    def collapsed(self, name):
        return self.alphabet(name).cc

    def alphabet(self, name):
        """The alphabet of a fixture's collapsed complex: the one memo of
        its loop state, which the suites and the sweep pass to every loop
        operation, so the algebras of every assignment share its bases
        and the convention sweep fills each boundary table once."""
        return self._memo(("alphabet", name),
                          lambda: Alphabet(collapse(self.complex(name))))

    def algebra(self, name, conv):
        """A fixture's loop algebra under conv, on the fixture's alphabet."""
        return LoopAlgebra(self.alphabet(name), conv)

    def hh(self, name, conv, max_weight):
        """Degree-0 truncated cyclic homology of a fixture's loop algebra,
        which the hochschild suite and the report share."""
        return self._memo(("hh", name, conv, max_weight), lambda: hh_truncated(
            self.algebra(name, conv), 0, max_weight,
            arity=conv.hochschild_arity))

    def _cyclic_boundaries(self, name, conv):
        """b(w) of a fixture's cyclic words under conv, each computed on
        first use and kept per stage-one entries, which are all that b
        reads, so stage two's assignments share them; see _release_sweep."""
        def build():
            alg = self.algebra(name, conv)
            return _Memo(lambda word: hochschild_b(
                alg, word, arity=conv.hochschild_arity))
        return self._memo(("b", name, _stage_one(conv)), build)

    def _release_sweep(self):
        """Drop what only the convention sweep reads again: the kept b(w)
        and the boundary tables of the fixtures' alphabets."""
        for key in list(self._cache):
            if key[0] == "b":
                del self._cache[key]
            elif key[0] == "alphabet":
                self._cache[key]._tables.clear()

    def t_verification(self, name, conv):
        """verify_T_chain_map on a fixture, which the T suite shares with
        the convention sweep: a survivor's completed residual loop (see
        _t_refuted) serves every assignment with its stage-one entries."""
        return self._memo(_t_key(name, conv),
                          lambda: verify_T_chain_map(self.alphabet(name), conv))

    def sweep(self):
        """The sign-identity sweep the signs suite and the report share."""
        return self._memo(("sweep",), lambda: sweep_identity(4, (-2, 2)))

    def cubes(self, name):
        """A cube family fixture and its quotient homology comparison."""
        def build():
            family = load_cube_family(self.fixtures / (name + ".json"))
            return family, quotient_homology_compare(family)
        return self._memo(("cubes", name), build)

    def varying_level_control(self):
        """The collapse certificate of the identity square under the level
        rising from 1/8 to 3/8: a negative control that must fail on the
        level side."""
        square = PLCube.from_function(((0, 1), (0, 1)), lambda p: (p[0], p[1]))
        level = PLCube(((0, 1),), {(0,): (Fraction(1, 8),),
                                   (1,): (Fraction(3, 8),)})
        return self._memo(("varying level",), lambda: box_slash(square, level))


# -- convention resolution ---------------------------------------------------------

# stage two is every entry the freeloop suite certifies, stage one the rest
STAGE_TWO = tuple(f.name for f in fields(Conventions)
                  if CHOICES[f.name][1] == "freeloop")
STAGE_ONE = tuple(f.name for f in fields(Conventions)
                  if f.name not in STAGE_TWO)


def _stage_one(conv):
    return tuple(getattr(conv, entry) for entry in STAGE_ONE)


def _t_key(name, conv):
    # T reads only the stage-one entries
    return "T", name, _stage_one(conv)


# The certifiers decide "not verify_T_chain_map(...).ok" and "not
# verify_G_chain_map(...).ok" at the first nonzero residual: a refuted
# assignment's reason is fixed by its first failing check, so the cells
# and words after that residual decide nothing.  The one survivor still
# runs every check to the end.


def _t_refuted(ws, name, conv):
    cells, census = [], {}
    for cell, r in t_residuals(ws.alphabet(name), conv, census=census):
        if r:
            return True
        cells.append(cell)
    # every residual vanished, so the corner census is complete and this
    # is verify_T_chain_map's verdict, which the T suite reads back
    v = TVerification(cells=tuple(cells), residuals={}, corner_census=census)
    ws._cache[_t_key(name, conv)] = v
    return not v.ok


def _g_refuted(ws, name, conv):
    alg = ws.algebra(name, conv)
    boundaries = ws._cyclic_boundaries(name, conv)
    return any(_g_residual(alg, w, boundaries[w], conv)
               for w in _g_words(alg))


# The pinned words above are written in letters; the loop dga takes and
# returns code words, so the checks encode what they pass in and decode
# what they compare.

def _decoded(alphabet, vector):
    """A vector with the code words in its keys decoded: a key is a tuple
    of code words (a cyclic word), led by a kind string for a free-loop
    generator."""
    return {tuple(x if isinstance(x, str) else alphabet.decode(x)
                  for x in key): c for key, c in vector.items()}


def _leibniz_census(ws, conv):
    """The boundary of the 2-sphere word T12.T123, decoded."""
    alg = ws.algebra("boundary_delta3", conv)
    vector = alg.mu1(alg.alphabet.encode((T12, T123)))
    return {alg.decode(w): c for w, c in vector.items()}


def _g_spot(alg, word, conv):
    """G of a cyclic word written in letters, decoded."""
    alphabet = alg.alphabet
    return _decoded(alphabet, goodwillie_G(
        alg, tuple(map(alphabet.encode, word)), conv))


def _certify_stage_one(ws: Workspace, conv: Conventions):
    """First failing stage-one check, or None.  Stage one pins every entry
    visible to the loop differential, the cyclic boundary, and T, by
    checking in turn the tetrahedron face census, the two-letter
    product rule census, the cyclic boundary's unit wrap image, and T on
    the 2-sphere model and on the solid simplex."""
    ball = ws.collapsed("ball3")
    if tau_boundary(ball, (0, 1, 2, 3), conv) != BALL_CENSUS:
        return "tetrahedron face census"
    if _leibniz_census(ws, conv) != LEIBNIZ_CENSUS:
        return "two-letter product rule census"
    if hochschild_b(SQUARE_ZERO, ("u",),
                    arity=conv.hochschild_arity) != WRAP_IMAGE:
        return "unit wrap image"
    if _t_refuted(ws, "boundary_delta3", conv):
        return "comparison map fails on the 2-sphere model"
    if _t_refuted(ws, "ball3", conv):
        return "comparison map fails on the solid simplex"
    return None


def _certify_stage_two(ws: Workspace, conv: Conventions):
    """First failing stage-two check, or None.  Stage two pins the wedge
    and inclusion entries against G with stage one already certified, by
    checking in turn G's two-slot image spot and G's chain condition over
    the circle and the 2-sphere algebras."""
    sphere_alg = ws.algebra("boundary_delta3", conv)
    if _g_spot(sphere_alg, ((T123,), (Q012,)), conv) != SPOT_PAIR:
        return "two-slot image spot"
    if _g_refuted(ws, "s1_3", conv):
        return "chain condition fails over the circle algebra"
    if _g_refuted(ws, "boundary_delta3", conv):
        return "chain condition fails over the 2-sphere algebra"
    return None


def _sweep_stage(label, axes, fixed, ws, certify):
    survivors = []
    failures = []
    for values in itertools.product(*(CHOICES[a][0] for a in axes)):
        assignment = dict(zip(axes, values))
        conv = Conventions(**{**fixed, **assignment})
        try:
            reason = certify(ws, conv)
        except (BoundaryUndefinedError, TruncationError) as exc:
            reason = f"error: {exc}"  # outside the loop model's domain
        if reason is None:
            survivors.append(assignment)
        else:
            failures.append((assignment, reason))
    if len(survivors) == 1:
        return survivors[0]
    if not survivors:
        lines = [f"{label}: no assignment passes the certifying checks"]
        for assignment, reason in failures:
            key = ",".join(f"{a}={assignment[a]}" for a in axes)
            lines.append(f"  {key}: {reason}")
        raise ResolutionError("\n".join(lines))
    raise ResolutionError(
        f"{label}: {len(survivors)} assignments pass; the certifying checks "
        "cannot separate them and need a finer probe")


def resolve_conventions(fixtures):
    """Exhaust the convention space and return the unique certified
    assignment together with a short log.

    Stage one sweeps the seven entries visible to the loop differential and
    the comparison map T (2^7 assignments) through two boundary censuses,
    the unit wrap image and T.  Stage two sweeps the six wedge and
    inclusion entries against G with stage one pinned (2^6), through G's
    two-slot image spot and its chain condition.  An assignment's reason
    is its first failing check, so each check runs only on the
    assignments every earlier check passed.  Anything
    other than exactly one survivor per stage raises ResolutionError, for
    zero survivors with the full per-assignment failure list attached.

    Work the assignments share is done once: the checks pass each
    fixture's Workspace alphabet, which keeps one boundary table per set
    of the entries a table reads, and stage two keeps each cyclic word's
    b(w), which reads only stage-one entries.  Both are dropped when the
    sweep ends.
    """
    ws = fixtures if isinstance(fixtures, Workspace) else Workspace(Path(fixtures))
    placeholder = {name: CHOICES[name][0][0] for name in STAGE_TWO}
    try:
        base = _sweep_stage("stage one", STAGE_ONE, placeholder, ws,
                            _certify_stage_one)
        tail = _sweep_stage("stage two", STAGE_TWO, base, ws,
                            _certify_stage_two)
    finally:
        ws._release_sweep()
    log = (f"stage one: 1 of {2 ** len(STAGE_ONE)} assignments certified",
           f"stage two: 1 of {2 ** len(STAGE_TWO)} assignments certified")
    conv = Conventions(**{**base, **tail})
    validate(conv)
    return conv, log


# -- suites ------------------------------------------------------------------------

class SuiteResult(NamedTuple):
    name: str
    lines: tuple
    failures: int

    @property
    def ok(self):
        return not self.failures


class Checker:
    """Collects labeled pass/fail lines and counts the failing ones."""

    def __init__(self):
        self.failures = 0
        self.lines = []

    def check(self, label, passed, detail=""):
        if passed:
            self.lines.append(label + ": ok")
        else:
            self.failures += 1
            self.lines.append(label + ": FAIL"
                              + (f" ({detail})" if detail else ""))

    def equal(self, label, got, want):
        self.check(label, got == want, f"got {got!r}, want {want!r}")

    def result(self, name):
        return SuiteResult(name, tuple(self.lines), self.failures)


def _suite_ledger(ws, conv, seed):
    ck = Checker()
    path = ws.fixtures / LEDGER_NAME
    if not path.is_file():
        ck.check("ledger file present", False, f"missing {path.name}")
        return ck.result("ledger")
    ck.check("ledger file present", True)
    text = path.read_text()
    try:
        resolved, _ = resolve_conventions(ws)
    except ResolutionError as exc:
        ck.check("resolution finds a unique assignment", False,
                 str(exc).splitlines()[0])
        return ck.result("ledger")
    ck.check("resolution finds a unique assignment", True)
    ck.check("ledger bytes equal the re-derived ledger",
             text == serialize_ledger(resolved),
             "stored file differs from the certified assignment")
    try:
        parsed = parse_ledger(text)
    except LedgerError as exc:
        ck.check("ledger parses", False, str(exc))
    else:
        ck.check("ledger parses", True)
        ck.check("parsed entries equal the certified assignment",
                 parsed == resolved, "entry values differ")
    return ck.result("ledger")


def _suite_signs(ws, conv, seed):
    ck = Checker()
    degrees = (1, 2, 0)
    spots = (
        ("dagger", dagger_exponent((1, 2)), 1),
        ("maltese", maltese_exponent(degrees, 1, 2), 1),
        ("flat", flat_exponent(degrees, 1, 2), 1),
        ("sharp", sharp_exponent(degrees, 1, 2), 0),
        ("diamond", diamond_exponent(degrees, 1, 1), 0),
        ("bullet", bullet_exponent(degrees, 1, 2), 0),
    )
    for kind, exponent, want in spots:
        ck.equal(f"{kind} exponent parity", exponent % 2, want)
    ck.equal("reduced-degree swap parity",
             koszul_permutation_sign((0, 0), (1, 0)), 1)
    ck.equal("three-cycle parity",
             koszul_permutation_sign((0, 1, 2), (2, 0, 1)), 1)
    ck.equal("identity permutation parity",
             koszul_permutation_sign((5, 3, 2), (0, 1, 2)), 0)
    ck.check("interior homotopy case",
             homotopy_identity_check((1, 2, 0), 1, 1).equal)
    sweep = ws.sweep()
    ck.equal("sweep size", sweep.total, 10790)
    ck.equal("interior cases pass",
             (sweep.interior_total, sweep.interior_failures), (7080, 0))
    ck.check("failures confined to the boundary rotation",
             sweep.all_failures_on_boundary)
    ck.equal("boundary failure count", len(sweep.failures), 2226)
    return ck.result("signs")


def _collapse_projection(sc, cc):
    """Chain map sending a cell to itself when it survives the collapse,
    every vertex to the basepoint, and tree edges to zero."""
    grouped = {}
    for cell in sc.cells():
        grouped.setdefault(len(cell) - 1, []).append(cell)
    f = {}
    for k, cells in grouped.items():
        surviving = cc.cells(dim=k)
        index = {cell: i for i, cell in enumerate(surviving)}
        m = IntMatrix(len(surviving), len(cells))
        for j, cell in enumerate(cells):
            if k == 0:
                m[0, j] = 1
            elif cc.surviving(cell):
                m[index[cell], j] = 1
        f[-k] = m
    return f


def _suite_cobar(ws, conv, seed):
    ck = Checker()
    m = IntMatrix(2, 2)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = 2, 4, 6, 8
    s = smith_normal_form(m)
    ck.equal("elementary divisors of a 2x2 probe", s.diagonal, (2, 4))
    ck.check("unimodular factorization reproduces the diagonal",
             s.left @ m @ s.right == s.diagonal_matrix(2, 2))
    for name in COMPLEX_FIXTURES:
        sc = ws.complex(name)
        text = serialize_complex(sc)
        ck.check(f"{name}: serialize/parse round trip",
                 serialize_complex(parse_complex(json.loads(text))) == text)
        ck.equal(f"{name}: tree edge count", len(spanning_tree(sc)),
                 len(sc.vertices) - 1)
        table = {n: (h.rank, h.torsion)
                 for n, h in simplicial_homology(sc).items()}
        ck.equal(f"{name}: homology", table, HOMOLOGY_TABLE[name])
        ctable = {n: (h.rank, h.torsion)
                  for n, h in collapsed_homology(sc).items()}
        ck.equal(f"{name}: homology after collapse", ctable,
                 HOMOLOGY_TABLE[name])
        ck.check(f"{name}: cell differential squares to zero",
                 validate_complex(chain_complex(sc)).ok)
        alphabet = ws.alphabet(name)
        census = {}
        for code in ws.algebra(name, conv).letters():
            degree = letter_degree(alphabet.letters[code])
            census[degree] = census.get(degree, 0) + 1
            if dga_differential(alphabet, word_boundary(alphabet, (code,),
                                                        conv), conv):
                ck.check(f"{name}: d^2 on generator", False,
                         format_word((code,), alphabet))
        ck.equal(f"{name}: loop generator census", census,
                 LETTER_CENSUS[name])
    for name in ("s1_3", "rp2"):
        sc, cc = ws.complex(name), ws.collapsed(name)
        ck.check(f"{name}: collapse projection is a chain map",
                 chain_map_check(_collapse_projection(sc, cc),
                                 chain_complex(sc),
                                 collapsed_chain_complex(cc)).ok)
    ck.equal("tetrahedron face census",
             tau_boundary(ws.collapsed("ball3"), (0, 1, 2, 3), conv),
             BALL_CENSUS)
    ck.equal("two-letter product rule census", _leibniz_census(ws, conv),
             LEIBNIZ_CENSUS)
    for name, cap in (("s1_3", 6), ("boundary_delta3", 4), ("torus_7", 3),
                      ("rp2", 3)):
        alg = ws.algebra(name, conv)
        bad = sum(1 for word in loop_words(alg.alphabet, cap, conv)
                  if dga_differential(alg.alphabet, alg.mu1(word), conv))
        ck.check(f"{name}: d^2 vanishes through weight {cap}", bad == 0,
                 f"{bad} words fail")
    model = based_loop_complex(ws.alphabet("boundary_delta3"), 4, conv)
    ck.equal("2-sphere model word count at weight 4", model.word_count(), 273)
    dims = {d: len(words) for d, words in model.words_by_degree.items()}
    ck.equal("2-sphere model dimensions", dims, {-2: 16, -1: 136, 0: 121})
    ck.check("2-sphere model differential squares to zero",
             validate_complex(model.complex).ok)
    circle_model = based_loop_complex(ws.alphabet("s1_3"), 6, conv)
    table = {n: (h.rank, h.torsion)
             for n, h in graded_homology(circle_model.complex).items()}
    ck.equal("circle model homology at weight 6", table, {0: (7, ())})
    return ck.result("cobar")


def _suite_t_chain_map(ws, conv, seed):
    ck = Checker()
    for name, corners in (("s1_3", 0), ("boundary_delta3", 12), ("ball3", 24),
                          ("torus_7", 42)):
        v = ws.t_verification(name, conv)
        bad = sum(1 for r in v.residuals.values() if r)
        ck.check(f"{name}: boundary residual vanishes on every cell", v.ok,
                 f"{bad} cells fail")
        ck.check(f"{name}: corner terms cancel in pairs", v.corners_balanced)
        ck.equal(f"{name}: corner census size", len(v.corner_census), corners)
    ck.equal("splitting boundary spot",
             pi2_boundary(ws.collapsed("ball3"), (0, 1, 2), (2, 1, 0), conv),
             PI2_SPOT)
    sphere = ws.alphabet("boundary_delta3")
    ck.equal("triangle image spot",
             _decoded(sphere, adams_T(sphere, (0, 1, 2), conv)), ADAMS_SPOT)
    ck.equal("triangle residual", t_residual(sphere, (0, 1, 2), conv), {})
    try:
        verify_T_chain_map(sphere, conv, max_weight=2)
        ck.check("weight cap below the image weight is refused", False,
                 "no error raised")
    except TruncationError:
        ck.check("weight cap below the image weight is refused", True)
    return ck.result("t_chain_map")


def _suite_hochschild(ws, conv, seed):
    ck = Checker()
    ck.equal("two-sided wrap image",
             hochschild_b(SQUARE_ZERO, ("u",), arity=conv.hochschild_arity),
             WRAP_IMAGE)
    ck.equal("one-sided control drops the wrap",
             hochschild_b(SQUARE_ZERO, ("u",), arity="subscript"), {})
    ck.equal("degree bookkeeping spot",
             (cc_degree(SQUARE_ZERO, ("u", "v")),
              word_degree(SQUARE_ZERO, ("u", "v"))), (2, 0))
    rng = random.Random(seed)
    algebras = [random_dga(100 + i) for i in range(5)]
    bad = parity_bad = 0
    for _ in range(200):
        alg = algebras[rng.randrange(5)]
        basis = alg.basis(4)
        word = tuple(rng.choice(basis) for _ in range(rng.randint(1, 4)))
        once = hochschild_b(alg, word, arity=conv.hochschild_arity)
        if hochschild_b_vector(alg, once, arity=conv.hochschild_arity):
            bad += 1
        if (cc_degree(alg, word) - word_degree(alg, word)) % 2:
            parity_bad += 1
    ck.check("b^2 vanishes on 200 seeded words", bad == 0, f"{bad} fail")
    ck.check("bookkeeping and complex degrees agree in parity",
             parity_bad == 0, f"{parity_bad} fail")
    ck.equal("identity morphism acts as the identity",
             cc_of_morphism(identity_morphism(SQUARE_ZERO), ("u", "v")),
             {("u", "v"): 1})
    for w, want in ((1, 2), (2, 3), (3, 4)):
        res = ws.hh("s1_3", conv, w)
        ck.equal(f"circle rank in degree 0 at weight {w}",
                 (res.summary.rank, res.summary.torsion), (want, ()))
    return ck.result("hochschild")


def _suite_freeloop(ws, conv, seed):
    ck = Checker()
    sphere_alg = ws.algebra("boundary_delta3", conv)
    circle_alg = ws.algebra("s1_3", conv)
    for label, word, want in G_SPOTS:
        ck.equal(label, _g_spot(sphere_alg, word, conv), want)
    v = verify_G_chain_map(circle_alg, conv)
    ck.check("chain condition over the circle algebra", v.ok,
             f"{len(v.failures)} words fail")
    ck.equal("circle words checked", v.words_checked, 8)
    v = verify_G_chain_map(sphere_alg, conv)
    ck.check("chain condition over the 2-sphere algebra", v.ok,
             f"{len(v.failures)} words fail")
    ck.equal("2-sphere words checked", v.words_checked, 182)
    rng = random.Random(seed)
    slots = sphere_alg.basis(3)
    bad = idem_bad = 0
    for _ in range(100):
        w1 = rng.choice([*slots, ()])
        w2 = rng.choice(slots) + rng.choice(((), rng.choice(slots)))
        gen = normalize(sphere_alg, {("wedge", w1, w2): 1}, conv)
        if loop_boundary(sphere_alg, loop_boundary(sphere_alg, gen, conv),
                         conv):
            bad += 1
        if normalize(sphere_alg, gen, conv) != gen:
            idem_bad += 1
    ck.check("boundary squares to zero on 100 seeded wedges", bad == 0,
             f"{bad} fail")
    ck.check("normal form is idempotent", idem_bad == 0, f"{idem_bad} fail")
    return ck.result("freeloop")


def _suite_s1(ws, conv, seed):
    ck = Checker()
    for (strict, sigma), want in S1_TABLE:
        r = s1_example(strict=strict, include_sigma=sigma, conv=conv)
        got = (r.sigma_matches_wrap, r.chain_closed, r.winding)
        ck.equal(f"strict={strict} sigma={sigma}", got, want)
    alg = CircleWordAlgebra()
    image = goodwillie_G(alg, {((GAMMA_INV,), (GAMMA,)): 1}, conv)
    ck.equal("image winding", basepoint_degree(alg, image), 1)
    ck.equal("inclusion cells keep the basepoint fixed",
             basepoint_degree(alg, {("iota", (GAMMA,)): 1}), 0)
    return ck.result("s1")


def _suite_boxquot(ws, conv, seed):
    ck = Checker()
    for name in CUBE_FIXTURES:
        family, cmp = ws.cubes(name)
        ck.check(f"{name}: serialize round trip",
                 serialize_cube_family(family)
                 == (ws.fixtures / (name + ".json")).read_text())
        plain = {n: (h.rank, h.torsion) for n, h in cmp.plain.items()}
        want_plain, want_concat, want_transpose = CUBE_TABLE[name]
        ck.equal(f"{name}: span homology", plain, want_plain)
        ck.equal(f"{name}: relation counts",
                 (cmp.concat_relations, cmp.transpose_relations),
                 (want_concat, want_transpose))
        ck.check(f"{name}: quotient agrees", cmp.agree)
    rng = random.Random(seed)
    slash_bad = dot_bad = cancel_bad = 0
    for _ in range(20):
        dim = rng.randint(1, 3)
        cube = random_cube(rng, dim)
        if not box_slash(cube, random_level(rng, dim - 1)).ok:
            slash_bad += 1
        for k in range(1, dim):
            if not box_dot(cube, k).ok:
                dot_bad += 1
            if not transpose_cancellation(cube, k):
                cancel_bad += 1
    ck.check("collapse certificates on 20 seeded cubes", slash_bad == 0,
             f"{slash_bad} fail")
    ck.check("center homotopy certificates", dot_bad == 0, f"{dot_bad} fail")
    ck.check("transposition face cancellation", cancel_bad == 0,
             f"{cancel_bad} fail")
    trip_bad = 0
    for _ in range(10):
        cube = random_cube(rng, 1)
        c = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
        first, second = split(cube, c)
        if not pl_equal(concat_f(first, second, c), cube):
            trip_bad += 1
    ck.check("split then concatenate restores 10 seeded intervals",
             trip_bad == 0, f"{trip_bad} fail")
    first, second = split(random_cube(rng, 1), Fraction(1, 2))
    ck.check("split halves fit", fits(first, second))
    square = random_cube(rng, 2)
    ck.check("transposing twice restores the square",
             pl_equal(transpose(transpose(square, 1), 1), square))
    ck.equal("face of a square is an interval", face(square, 1, 0).dim, 1)
    ck.equal("varying level reports the level-side obstruction",
             ws.varying_level_control().failures,
             (("face 1(0) commutes (level side)", (Fraction(1, 3),)),))
    return ck.result("boxquot")


@dataclass(frozen=True)
class Suite:
    name: str
    run: object
    covers: frozenset


SUITES = {s.name: s for s in (
    Suite("ledger", _suite_ledger, frozenset({
        "cli.resolve_conventions"})),
    Suite("signs", _suite_signs, frozenset({
        "signkoszul.dagger_exponent", "signkoszul.maltese_exponent",
        "signkoszul.flat_exponent", "signkoszul.sharp_exponent",
        "signkoszul.diamond_exponent", "signkoszul.bullet_exponent",
        "signkoszul.koszul_permutation_sign",
        "signkoszul.homotopy_identity_check"})),
    Suite("cobar", _suite_cobar, frozenset({
        "exactalg.smith_normal_form", "exactalg.validate_complex",
        "exactalg.homology", "exactalg.chain_map_check",
        "simpcx.parse_complex", "simpcx.spanning_tree", "simpcx.collapse",
        "simpcx.homology", "cobarloop.LoopAlgebra.letters",
        "cobarloop.tau_boundary", "cobarloop.word_boundary",
        "cobarloop.dga_differential", "cobarloop.based_loop_complex"})),
    Suite("t_chain_map", _suite_t_chain_map, frozenset({
        "cobarloop.pi2_boundary", "cobarloop.adams_T",
        "cobarloop.t_residual", "cobarloop.verify_T_chain_map"})),
    Suite("hochschild", _suite_hochschild, frozenset({
        "hochschild.cc_degree", "hochschild.hochschild_b",
        "hochschild.cc_of_morphism", "hochschild.hh_truncated"})),
    Suite("freeloop", _suite_freeloop, frozenset({
        "freeloop.goodwillie_G", "freeloop.loop_boundary",
        "freeloop.normalize", "freeloop.verify_G_chain_map"})),
    Suite("s1", _suite_s1, frozenset({
        "freeloop.s1_example", "freeloop.basepoint_degree"})),
    Suite("boxquot", _suite_boxquot, frozenset({
        "boxquot.face", "boxquot.transpose", "boxquot.concat_f",
        "boxquot.box_slash", "boxquot.box_dot",
        "boxquot.quotient_homology_compare", "exactalg.quotient_homology"})),
)}


def _coverage_problems():
    """Audit the suites' covers declarations.  Every entry must resolve to
    a public callable defined in the module it names, no operation may be
    claimed by two suites, and every module of the package must contribute.
    The conventions module is exempt: it is the ledger format, which the
    ledger suite exercises through cli.resolve_conventions."""
    claimed = {}
    problems = []
    for suite in SUITES.values():
        for op in sorted(suite.covers):
            if op in claimed:
                problems.append(f"{op}: claimed by {claimed[op]} and {suite.name}")
                continue
            claimed[op] = suite.name
            module, _, path = op.partition(".")
            try:
                obj = importlib.import_module(f"loopchains.{module}")
                for part in path.split("."):
                    obj = getattr(obj, part)
            except (ImportError, AttributeError):
                problems.append(f"{op}: no such operation")
                continue
            if (any(part.startswith("_") for part in op.split("."))
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != f"loopchains.{module}"):
                problems.append(f"{op}: not a public callable of {module}")
    modules = {p.stem for p in Path(__file__).parent.glob("[!_]*.py")}
    modules.discard("conventions")
    for module in sorted(modules - {op.partition(".")[0] for op in claimed}):
        problems.append(f"{module}: no operation covered")
    return problems, len(claimed)


# -- report helpers ----------------------------------------------------------------

def _suspected_typos(ws, conv):
    """Identities whose stated form fails while every certified identity
    passes, each with the minimal counterexample that pins the mismatch."""
    out = []
    sweep = ws.sweep()
    if sweep.failures:
        case = min(sweep.failures,
                   key=lambda f: (len(f[0]), sum(abs(d) for d in f[0]), f))
        rep = homotopy_identity_check(*case)
        out.append("rotation identity fails at the stated range endpoint "
                   f"r = d2; minimal case degrees={case[0]} d1={case[1]} "
                   f"r={case[2]} gives parity {rep.lhs} against {rep.rhs}")
    for axis, name, cell in (
            ("hochschild_arity", "boundary_delta3", (0, 1, 2)),
            ("t_word_sign", "boundary_delta3", (0, 1, 2)),
            ("t_pair2_sign", "boundary_delta3", (0, 1, 2)),
            ("pi2_bsplit_sign", "ball3", (0, 1, 2, 3))):
        flipped = conv.flip(axis)
        alphabet = ws.alphabet(name)
        residual = t_residual(alphabet, cell, flipped)
        head = f"{axis} = {getattr(flipped, axis)} (the rejected reading)"
        if residual:
            text, coeff = min((format_cyclic_word(w, alphabet), c)
                              for w, c in residual.items())
            out.append(f"{head} breaks the comparison map on cell {cell}: "
                       f"first residual term {text} with coefficient "
                       f"{coeff}, {len(residual)} terms in all")
        else:
            out.append(f"{head} shows no failing term under the active "
                       "ledger")
    cert = ws.varying_level_control()
    if cert.failures:
        check, witness = cert.failures[0]
        point = ",".join(str(x) for x in witness)
        out.append("the collapse certificate with a varying level fails "
                   f"'{check}' on the identity square at witness ({point}); "
                   "only constant levels commute with every face")
    return out


def _load_ledger(fixtures: Path):
    path = fixtures / LEDGER_NAME
    if not path.is_file():
        return None, f"{LEDGER_NAME} not found under {fixtures}"
    try:
        return parse_ledger(path.read_text()), None
    except LedgerError as exc:
        return None, f"{LEDGER_NAME} rejected: {exc}"


def _conv_for_paths(fixtures_dir):
    conv, note = _load_ledger(Path(fixtures_dir))
    if note:
        sys.stderr.write(f"note: {note}; using built-in defaults\n")
    return conv or DEFAULT


def _torsion_str(t):
    return ",".join(str(x) for x in t) if t else "-"


def _status(ok):
    return "pass" if ok else "FAIL"


def _rank_record(groups):
    """The {str(n): {"rank", "torsion"}} record of (n, group) pairs, kept in
    their order: homology tables and truncated cyclic ranks alike."""
    return {str(n): {"rank": h.rank, "torsion": list(h.torsion)}
            for n, h in groups}


def _rank_rows(record, prefix=""):
    for n, row in record.items():
        yield f"{prefix}{n}\t{row['rank']}\t{_torsion_str(row['torsion'])}"


def _emit(args, record, rows):
    """Write one command's result to --out or stdout: the record itself
    under --format json, else the tsv rows rendered from it."""
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(row + "\n" for row in rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------

def _cmd_homology(args):
    table = simplicial_homology(load_complex(args.fixture))
    record = _rank_record(sorted(table.items()))
    _emit(args, record, _rank_rows(record))
    return 0


def _cmd_cobar(args):
    conv = _conv_for_paths(args.fixtures)
    model = based_loop_complex(collapse(load_complex(args.fixture)),
                               args.max_weight, conv)
    verdict = validate_complex(model.complex)
    lines = [f"words\t{model.word_count()}"]
    for n in sorted(model.words_by_degree):
        lines.append(f"degree\t{n}\t{len(model.words_by_degree[n])}")
    lines.append("d2\t" + ("ok" if verdict.ok
                           else f"FAIL at degree {verdict.first_failing_degree}"))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if verdict.ok else 1


def _cmd_t_map(args):
    conv = _conv_for_paths(args.fixtures)
    cc = collapse(load_complex(args.fixture))
    v = verify_T_chain_map(cc, conv, max_weight=args.max_weight)
    bad = sum(1 for r in v.residuals.values() if r)
    sys.stdout.write(
        f"cells\t{len(v.cells)}\n"
        f"nonzero residuals\t{bad}\n"
        f"corner terms\t{len(v.corner_census)}\n"
        "corners balanced\t" + ("yes" if v.corners_balanced else "no") + "\n"
        "status\t" + ("ok" if v.ok else "FAIL") + "\n")
    return 0 if v.ok else 1


def _cmd_hh(args):
    conv = _conv_for_paths(args.fixtures)
    alg = LoopAlgebra(collapse(load_complex(args.fixture)), conv)
    res = hh_truncated(alg, args.degree, args.max_weight,
                       arity=conv.hochschild_arity)
    record = {"degree": res.degree, "max_weight": res.max_weight,
              "rank": res.summary.rank, "torsion": list(res.summary.torsion),
              "stabilized": res.stabilized}
    shown = {**record, "torsion": _torsion_str(record["torsion"]),
             "stabilized": "yes" if record["stabilized"] else "no"}
    _emit(args, record, (f"{key}\t{value}" for key, value in shown.items()))
    return 0


TARGETS = {
    "all": tuple(SUITES),
    "signs": ("signs",),
    "cobar": ("cobar", "t_chain_map"),
    "hochschild": ("hochschild",),
    "freeloop": ("freeloop",),
    "s1": ("s1",),
    "boxquot": ("boxquot",),
}


def _cmd_verify(args):
    ws = Workspace(Path(args.fixtures))
    conv, note = _load_ledger(ws.fixtures)
    out = []
    if note:
        out.append(f"note: {note}; using built-in defaults")
    ok = True
    for name in TARGETS[args.target]:
        res = SUITES[name].run(ws, conv or DEFAULT, args.seed)
        ok &= res.ok
        out.append(f"{name}: {_status(res.ok)}")
        out.extend("  " + line for line in res.lines)
    if args.target == "all":
        problems, count = _coverage_problems()
        ok &= not problems
        out.append(f"coverage: {_status(not problems)} ({count} operations)")
        out.extend("  " + p for p in problems)
    sys.stdout.write("\n".join(out) + "\n")
    return 0 if ok else 1


def _cmd_resolve(args):
    try:
        conv, log = resolve_conventions(Path(args.fixtures))
    except ResolutionError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    text = serialize_ledger(conv)
    out = Path(args.out) if args.out else Path(args.fixtures) / LEDGER_NAME
    out.write_text(text)
    sys.stdout.write("\n".join(log) + "\n" + text)
    return 0


def _report_record(ws, conv, note, seed):
    """Everything `report` shows, built once: the record --format json
    prints and `_report_rows` renders as tsv."""
    active = conv or DEFAULT
    results = {name: SUITES[name].run(ws, active, seed)
               for name in TARGETS["all"]}
    failing_checks = sum(r.failures for r in results.values())
    sweep = ws.sweep()
    boundary_failures = len(sweep.failures) - sweep.interior_failures
    suite_of = {f.name: CHOICES[f.name][1] for f in fields(Conventions)}
    cubes = {name: ws.cubes(name)[1] for name in CUBE_FIXTURES}
    return {
        "note": note,
        "conventions": {name: {"value": getattr(active, name), "suite": suite,
                               "status": _status(results[suite].ok)}
                        for name, suite in suite_of.items()},
        "suites": {name: r.ok for name, r in results.items()},
        "failing_checks": failing_checks,
        # Failing checks count as artifact bugs only when the active ledger
        # is the certified one; under a mismatched ledger they indict it.
        "artifact_bugs": failing_checks if results["ledger"].ok else None,
        "sign_sweep": {
            "cases": sweep.total,
            "interior_total": sweep.interior_total,
            "interior_failures": sweep.interior_failures,
            "boundary_total": sweep.boundary_total,
            "boundary_failures": boundary_failures,
            "classified": (len(sweep.failures)
                           if sweep.all_failures_on_boundary
                           else boundary_failures),
        },
        "suspected_typos": _suspected_typos(ws, active),
        "homology": {name: _rank_record(sorted(
            simplicial_homology(ws.complex(name)).items()))
            for name in COMPLEX_FIXTURES},
        "hochschild_circle": _rank_record(
            (w, ws.hh("s1_3", active, w).summary) for w in (1, 2, 3)),
        "cube_families": {name: {"verdict": "agree" if cmp.agree
                                            else "DISAGREE",
                                 "concat": cmp.concat_relations,
                                 "transpose": cmp.transpose_relations}
                          for name, cmp in cubes.items()},
        "ok": all(r.ok for r in results.values()),
    }


def _report_rows(record):
    yield "conventions"
    if record["note"]:
        yield f"  ({record['note']}; built-in defaults shown)"
    for name, row in record["conventions"].items():
        yield f"  {name} = {row['value']}  [{row['suite']}: {row['status']}]"
    yield "suites"
    for name, ok in record["suites"].items():
        yield f"  {name}: {_status(ok)}"
    if record["artifact_bugs"] is not None:
        yield f"  artifact bugs: {record['artifact_bugs']}"
    else:
        yield (f"  failing checks: {record['failing_checks']} "
               "(ledger mismatch; not classified as artifact bugs)")
    sweep = record["sign_sweep"]
    yield "sign sweep"
    yield f"  cases: {sweep['cases']}"
    for side in ("interior", "boundary"):
        total = sweep[f"{side}_total"]
        yield f"  {side} passes: {total - sweep[side + '_failures']}/{total}"
    yield (f"  classified failures: {sweep['classified']}/"
           f"{sweep['interior_failures'] + sweep['boundary_failures']}")
    yield "suspected typos"
    for i, typo in enumerate(record["suspected_typos"], start=1):
        yield f"  {i}. {typo}"
    yield "homology"
    for name, table in record["homology"].items():
        yield from _rank_rows(table, f"  {name}\t")
    yield "hochschild circle"
    yield from _rank_rows(record["hochschild_circle"], "  ")
    yield "cube families"
    for name, row in record["cube_families"].items():
        yield (f"  {name}\t{row['verdict']}\tconcat={row['concat']}"
               f"\ttranspose={row['transpose']}")


def _cmd_report(args):
    fixtures = Path(args.fixtures)
    if not fixtures.is_dir() or not any(fixtures.glob("*.json")):
        _emit(args, {"note": "no fixtures", "ok": True}, ["no fixtures"])
        return 0
    conv, note = _load_ledger(fixtures)
    record = _report_record(Workspace(fixtures), conv, note, args.seed)
    _emit(args, record, _report_rows(record))
    return 0 if record["ok"] else 1


# -- entry point -------------------------------------------------------------------

def _weight_cap(text):
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"weight cap must be at least 0, got {cap}")
    return cap


def build_parser():
    p = argparse.ArgumentParser(
        prog="loopchains",
        description="exact chain-level checks for loop space models")
    p.add_argument("--fixtures", default="fixtures",
                   help="directory holding fixture complexes, cube "
                        "families, and the conventions ledger")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("homology",
                       help="integral homology of a fixture complex")
    q.set_defaults(handler=_cmd_homology)
    q.add_argument("fixture")
    q.add_argument("--format", choices=("tsv", "json"), default="tsv")
    q.add_argument("--out")

    q = sub.add_parser("cobar",
                       help="loop model word counts and d^2 on a fixture")
    q.set_defaults(handler=_cmd_cobar)
    q.add_argument("fixture")
    q.add_argument("--max-weight", type=_weight_cap, default=3)

    q = sub.add_parser("t-map",
                       help="comparison map residuals on a fixture")
    q.set_defaults(handler=_cmd_t_map)
    q.add_argument("fixture")
    q.add_argument("--max-weight", type=_weight_cap, default=None)

    q = sub.add_parser("hh",
                       help="truncated cyclic homology of a fixture's "
                            "loop algebra")
    q.set_defaults(handler=_cmd_hh)
    q.add_argument("fixture")
    q.add_argument("--degree", type=int, default=0)
    q.add_argument("--max-weight", type=_weight_cap, default=3)
    q.add_argument("--format", choices=("tsv", "json"), default="tsv")
    q.add_argument("--out")

    q = sub.add_parser("verify", help="run a verification suite")
    q.set_defaults(handler=_cmd_verify)
    q.add_argument("target", choices=tuple(TARGETS))
    q.add_argument("--seed", type=int, default=7)

    q = sub.add_parser("resolve",
                       help="search the convention space and write the "
                            "ledger")
    q.set_defaults(handler=_cmd_resolve)
    q.add_argument("--out")

    q = sub.add_parser("report",
                       help="consolidated pass/fail report with tables")
    q.set_defaults(handler=_cmd_report)
    q.add_argument("--seed", type=int, default=7)
    q.add_argument("--format", choices=("tsv", "json"), default="tsv")
    q.add_argument("--out")
    return p


def run(args):
    """Dispatch one parsed invocation."""
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
