"""Acceptance gate: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
asserts are the contract, the lines are the receipt.  Every check is
deterministic at the seeds fixed below and runs under the committed
conventions ledger, not the built-in defaults.

The loop-word checks for the 7-vertex torus and the 6-vertex projective
plane enumerate exhaustively through weight 5 (about 1.0M and 0.16M
words).  Weight 6 follows by derivation locality: the word differential
is built as the signed Leibniz extension of its values on generators, so
its square vanishes on every word as soon as it vanishes on single
generators and the prefix-sign bookkeeping is exact on two-letter words.
Both generator degrees are 0 and -1, so all four two-letter degree
patterns already occur by weight 4, inside the enumerated range.
"""

import random
from pathlib import Path

from loopchains import cli
from loopchains.boxquot import (box_dot, box_slash, load_cube_family,
                                quotient_homology_compare, random_cube,
                                random_level, transpose_cancellation)
from loopchains.cli import Workspace, resolve_conventions
from loopchains.cobarloop import (Alphabet, LoopAlgebra, dga_differential,
                                  letter_boundary, loop_words,
                                  verify_T_chain_map, word_boundary)
from loopchains.conventions import CHOICES, parse_ledger
from loopchains.exactalg import validate_complex
from loopchains.freeloop import loop_boundary, normalize, s1_example, verify_G_chain_map
from loopchains.hochschild import (hh_truncated, hochschild_b,
                                   hochschild_b_vector, random_dga)
from loopchains.signkoszul import sweep_identity
from loopchains.simpcx import (chain_complex, collapse,
                               collapsed_chain_complex, homology,
                               load_complex)

from oracle_ranks import rank_p, rank_q
from oracle_rewriting import normal_forms

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONV = parse_ledger((FIXTURES / "conventions.ledger").read_text())

_CACHE = {}


def _complex(name):
    key = ("sc", name)
    if key not in _CACHE:
        _CACHE[key] = load_complex(FIXTURES / f"{name}.json")
    return _CACHE[key]


def _cc(name):
    key = ("cc", name)
    if key not in _CACHE:
        _CACHE[key] = collapse(_complex(name))
    return _CACHE[key]


def _pass(n, text):
    print(f"criterion {n}: {text}: pass")


# -- 1: every differential squares to zero -----------------------------------------

def test_criterion_1_differentials_square_to_zero():
    for name in ("s1_3", "boundary_delta3", "torus_7", "rp2"):
        sc = _complex(name)
        assert validate_complex(chain_complex(sc)).ok, name
        assert validate_complex(collapsed_chain_complex(_cc(name))).ok, name

    counts = {}
    for name, cap in (("s1_3", 6), ("boundary_delta3", 6), ("torus_7", 5),
                      ("rp2", 5)):
        cc = _cc(name)
        alphabet = Alphabet(cc)
        for code in LoopAlgebra(cc, CONV).letters():
            letter = alphabet.letters[code]
            boundary = {alphabet.encode(w): c for w, c
                        in letter_boundary(cc, letter, CONV).items()}
            assert not dga_differential(cc, boundary, CONV), (name, letter)
        words = loop_words(cc, cap, CONV)
        counts[name] = len(words)
        bad = sum(1 for w in words
                  if dga_differential(cc, word_boundary(cc, w, CONV), CONV))
        assert bad == 0, (name, cap, bad)

    rng = random.Random(7)
    algebras = [random_dga(i) for i in range(5)]
    for _ in range(200):
        alg = algebras[rng.randrange(5)]
        basis = alg.basis(4)
        word = tuple(rng.choice(basis) for _ in range(rng.randint(1, 4)))
        once = hochschild_b(alg, word, arity=CONV.hochschild_arity)
        assert not hochschild_b_vector(alg, once,
                                       arity=CONV.hochschild_arity), word

    rng = random.Random(11)
    alg = LoopAlgebra(_cc("boundary_delta3"), CONV)
    slots = alg.basis(3)
    for _ in range(100):
        w1 = rng.choice([*slots, ()])
        w2 = rng.choice(slots) + rng.choice(((), rng.choice(slots)))
        gen = normalize(alg, {("wedge", w1, w2): 1}, CONV)
        assert not loop_boundary(alg, loop_boundary(alg, gen, CONV),
                                 CONV), (w1, w2)

    _pass(1, "d^2 = 0 everywhere (simplicial complexes; loop words "
             f"exhaustive to weight 6/6/5/5 with {counts['torus_7']} torus "
             f"and {counts['rp2']} projective-plane words, weight 6 by "
             "derivation locality; 200 seeded cyclic words over 5 random "
             "algebras; 100 seeded wedges)")


# -- 2: T is a chain map ------------------------------------------------------------

def test_criterion_2_t_residuals_vanish():
    for name in ("boundary_delta3", "torus_7"):
        v = verify_T_chain_map(_cc(name), CONV, max_weight=6)
        assert v.ok, name
        assert all(not r for r in v.residuals.values()), name
        assert v.corners_balanced, name
    _pass(2, "comparison map residual is zero on every cell of the "
             "2-sphere and torus models at weight cap 6, with corner "
             "terms cancelling in pairs")


# -- 3: G is a chain map ------------------------------------------------------------

def test_criterion_3_g_residuals_vanish():
    circle = verify_G_chain_map(LoopAlgebra(_cc("s1_3"), CONV), CONV,
                                max_len=3, max_weight=3)
    sphere = verify_G_chain_map(LoopAlgebra(_cc("boundary_delta3"), CONV),
                                CONV, max_len=3, max_weight=3)
    assert circle.ok and circle.words_checked == 8, circle
    assert sphere.ok and sphere.words_checked == 182, sphere
    _pass(3, "free-loop comparison is a chain map on all 8 circle and "
             "182 2-sphere cyclic words of length <= 3, weight <= 3")


# -- 4: the degree-one circle loop --------------------------------------------------

def test_criterion_4_circle_degree_one_class():
    r = s1_example(conv=CONV)
    assert r.sigma_included and r.sigma_matches_wrap
    assert r.chain_closed
    assert abs(r.winding) == 1
    _pass(4, "the corrected circle chain is closed and its image winds "
             "the basepoint path exactly once")


# -- 5: exhaustive sign sweep -------------------------------------------------------

def test_criterion_5_sign_sweep_classified():
    sweep = sweep_identity(4, (-2, 2))
    assert sweep.total == 10790
    assert sweep.interior_failures == 0
    assert sweep.all_failures_on_boundary
    assert len(sweep.failures) == 2226
    for degrees, d1, r in sweep.failures:
        assert r == len(degrees) - d1, (degrees, d1, r)
    minimal = min(sweep.failures,
                  key=lambda f: (len(f[0]), sum(abs(d) for d in f[0]), f))
    assert minimal == ((0,), 0, 1)
    rate = (sweep.total - len(sweep.failures)) / sweep.total
    _pass(5, f"homotopy identity sweep over {sweep.total} cases passes at "
             f"rate {rate:.3f}; all 2226 failures sit at the rotation range "
             "endpoint r = d2 (minimal case degrees=(0,) d1=0 r=1) and "
             "nowhere else")


# -- 6: cubical certificates --------------------------------------------------------

def test_criterion_6_cubical_certificates():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 3)
        cube = random_cube(rng, dim)
        assert box_slash(cube, random_level(rng, dim - 1, constant=True)).ok

    rng = random.Random(8)
    dots = 0
    while dots < 50:
        cube = random_cube(rng, rng.randint(2, 3))
        for k in range(1, cube.dim):
            assert box_dot(cube, k).ok
            dots += 1

    rng = random.Random(23)
    cancels = 0
    while cancels < 50:
        cube = random_cube(rng, rng.randint(2, 3))
        for k in range(1, cube.dim):
            assert transpose_cancellation(cube, k)
            cancels += 1

    for name, concat in (("point_cubes", 0), ("circle_cubes", 2),
                         ("figure_eight_cubes", 4)):
        cmp = quotient_homology_compare(
            load_cube_family(FIXTURES / f"{name}.json"))
        assert cmp.agree, name
        assert cmp.concat_relations == concat, name
    _pass(6, "collapse, center-homotopy, and face-cancellation "
             "certificates hold on 50 seeded cubes each; quotient "
             "homology agrees on the point, circle, and figure eight")


# -- 7: first homology by two independent routes ------------------------------------

def test_criterion_7_first_homology_two_routes():
    expected = {"s1_3": (1, ()), "torus_7": (2, ()), "rp2": (0, (2,))}
    for name, (betti, torsion) in expected.items():
        sc = _complex(name)
        summary = homology(sc)[1]
        assert (summary.rank, summary.torsion) == (betti, torsion), name

        fc = chain_complex(sc)
        c1, d1, d2 = fc.dim(-1), fc.diff(-1), fc.diff(-2)
        assert c1 - rank_q(d1) - rank_q(d2) == betti, name
        for p in (2, 3):
            t_p = sum(1 for t in torsion if t % p == 0)
            assert c1 - rank_p(d1, p) - rank_p(d2, p) == betti + t_p, \
                (name, p)
    _pass(7, "H_1 = Z (circle), Z^2 (torus), Z/2 (projective plane) by "
             "the normal-form route and again by independent rational "
             "and mod-2/mod-3 rank counts")


# -- 8: truncated cyclic homology against the rewriting oracle ----------------------

def test_criterion_8_truncated_cyclic_ranks():
    circle = LoopAlgebra(_cc("s1_3"), CONV)
    for w in (1, 2, 3):
        res = hh_truncated(circle, 0, w, arity=CONV.hochschild_arity)
        assert (res.summary.rank, res.summary.torsion) == (w + 1, ()), w
        # one loop class per winding number, certified by rewriting
        assert len(normal_forms(_cc("s1_3"), w)) == w + 1, w

    sphere = LoopAlgebra(_cc("boundary_delta3"), CONV)
    ranks = [hh_truncated(sphere, 0, w,
                          arity=CONV.hochschild_arity).summary.rank
             for w in (3, 4, 5)]
    assert ranks == [9, 16, 28], ranks
    # The honest capped ranks grow: boundaries that would identify words
    # of weight w need letters of weight w + 1, beyond the cap.  The
    # rewriting oracle shows every loop word reduces to the unit, so the
    # stable class count in degree 0 is 1.
    assert normal_forms(_cc("boundary_delta3"), 4) == {()}
    _pass(8, "circle ranks follow the w + 1 law (rewriting agrees); "
             f"capped 2-sphere ranks grow {ranks[0]}/{ranks[1]}/{ranks[2]} "
             "while the oracle reduces every loop word to the unit, so "
             "the stable count is 1")


def test_criterion_8_truncated_cyclic_bar_on_a_3_manifold():
    # the slow cyclic-bar case on the 3-sphere (the boundary of the
    # 4-simplex, not a report fixture): raw capped groups at cap 4, not
    # H_*(LS^3), since classes of weight 4 may still die at cap 5
    sphere3 = LoopAlgebra(_cc("boundary_delta4"), CONV)
    groups = {}
    for degree in (0, -1):
        summary = hh_truncated(sphere3, degree, 4,
                               arity=CONV.hochschild_arity).summary
        groups[degree] = (summary.rank, summary.torsion)
    assert groups == {0: (205, ()), -1: (320, (3,) * 6)}, groups
    _pass(8, "capped cyclic bar of the 3-sphere at cap 4: rank 205 in "
             "degree 0, rank 320 and (Z/3)^6 in degree -1")


# -- 9: the convention space has one survivor ---------------------------------------

def certify(conv):
    """The first failing certifying check of either stage, or None."""
    ws = Workspace(FIXTURES)
    return (cli._certify_stage_one(ws, conv)
            or cli._certify_stage_two(ws, conv))


def test_criterion_9_resolution_unique_and_rigid():
    conv, log = resolve_conventions(FIXTURES)
    assert conv == CONV
    assert log == ("stage one: 1 of 128 assignments certified",
                   "stage two: 1 of 64 assignments certified")
    for name in CHOICES:
        assert certify(conv.flip(name)) is not None, name
    _pass(9, "192 candidate assignments leave a single survivor, the "
             "committed ledger, and all 13 single-entry flips are "
             "rejected by a certifying check")
