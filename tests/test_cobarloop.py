import gc
import hashlib
import pathlib
import weakref
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from loopchains import cobarloop
from loopchains.cobarloop import (
    Alphabet, BoundaryUndefinedError, LoopAlgebra, TruncationError,
    UNIT_LETTER,
    adams_T, based_loop_complex, degenerate_path, dga_differential,
    format_cyclic_word, format_letter, format_word, letter_degree,
    letter_weight, loop_words, make_tau, mu2, pi2_boundary, pi2_vanishes,
    t_residual, t_residuals, tau_boundary, verify_T_chain_map, word_boundary,
    word_degree,
)
from loopchains.conventions import CHOICES, DEFAULT
from loopchains.exactalg import _add, homology, validate_complex
from loopchains.hochschild import cyclic_words, hochschild_b
from loopchains.simpcx import SimplicialComplex, collapse, load_complex

from oracle_words import leibniz_word_boundary, sorted_basis, word_weight

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

T12 = ("tau", (1, 2))
T13 = ("tau", (1, 3))
T23 = ("tau", (2, 3))
T123 = ("tau", (1, 2, 3))


def _load(name):
    return collapse(load_complex(FIXTURES / name))


# The loop dga takes and returns code words; the tests write words in
# letters, encode what they pass in and decode what they compare.

def _encoded(cc, word):
    return Alphabet(cc).encode(word)


def _decoded(cc, vector):
    """A vector of code words of cc's alphabet, decoded."""
    alphabet = Alphabet(cc)
    return {alphabet.decode(w): c for w, c in vector.items()}


def _coded(cc, vector):
    """A vector of words of letters, encoded in cc's alphabet."""
    alphabet = Alphabet(cc)
    return {alphabet.encode(w): c for w, c in vector.items()}


@pytest.fixture(scope="module")
def circle():
    return _load("s1_3.json")


@pytest.fixture(scope="module")
def sphere2():
    return _load("boundary_delta3.json")


@pytest.fixture(scope="module")
def torus():
    return _load("torus_7.json")


@pytest.fixture(scope="module")
def ball3():
    solid = SimplicialComplex(name="solid 3-simplex", vertices=(0, 1, 2, 3),
                              facets=((0, 1, 2, 3),))
    return collapse(solid)


# -- letters ------------------------------------------------------------------

def test_degenerate_path_is_cyclic_by_default():
    assert degenerate_path((1,))
    assert degenerate_path((1, 1))
    assert degenerate_path((1, 2, 1))          # wraps around
    assert not degenerate_path((1, 2, 1), "linear")
    assert not degenerate_path((1, 2, 3))
    assert degenerate_path(())  # nowhere to go


def test_make_tau_cases(sphere2):
    assert make_tau(sphere2, (0, 1)) == UNIT_LETTER   # spanning-tree edge
    assert make_tau(sphere2, (1, 2)) == ("tau", (1, 2))
    assert make_tau(sphere2, (1, 1)) is None
    assert make_tau(sphere2, (1, 2, 1)) is None
    assert make_tau(sphere2, (1,)) is None


def test_letter_degrees_and_weights():
    assert letter_degree(UNIT_LETTER) == 0
    assert letter_weight(UNIT_LETTER) == 0
    assert letter_degree(T12) == 0 and letter_weight(T12) == 1
    assert letter_degree(T123) == -1 and letter_weight(T123) == 2
    p = ("pi2", (1, 2), (2, 1))
    assert letter_degree(p) == -1 and letter_weight(p) == 1
    p = ("pi2", (0, 1, 2), (2, 1, 0))
    assert letter_degree(p) == -3 and letter_weight(p) == 3
    q = ("pi3", (0, 1), (1, 2), (2, 1, 0))
    assert letter_degree(q) == -2 and letter_weight(q) == 3


def test_word_degree_weight():
    assert word_degree(()) == 0 and word_weight(()) == 0
    assert word_degree((T12, T123)) == -1
    assert word_weight((T12, T123)) == 3


def test_product_is_in_path_order_with_a_degree_sign():
    assert mu2((T123,), (T12,)) == (1, (T12, T123))
    assert mu2((T12,), (T123,)) == (-1, (T123, T12))
    assert mu2((), (T12,)) == (1, (T12,))
    assert mu2((T12,), ()) == (1, (T12,))


# -- boundaries ---------------------------------------------------------------

def test_circle_edge_is_a_cycle(circle):
    assert tau_boundary(circle, (1, 2)) == {}


def test_triangle_boundary_census(sphere2):
    # one interior face and one splitting, in path order
    assert tau_boundary(sphere2, (1, 2, 3)) == {
        ((T13),): -1,
        (T12, T23): 1,
    } or tau_boundary(sphere2, (1, 2, 3)) == {
        (T13,): -1,
        (T12, T23): 1,
    }


def test_tetrahedron_boundary_census(ball3):
    t = lambda *seq: ("tau", tuple(seq))
    assert tau_boundary(ball3, (0, 1, 2, 3)) == {
        (t(0, 2, 3),): -1,
        (t(0, 1, 3),): 1,
        (t(1, 2, 3),): 1,                    # split through the tree edge 01
        (t(0, 1, 2), t(2, 3)): -1,           # split at 2, path order
    }


def test_antipath_product_reverses_the_split_term(ball3):
    t = lambda *seq: ("tau", tuple(seq))
    anti = DEFAULT.flip("mu2_order")
    assert tau_boundary(ball3, (0, 1, 2, 3), anti) == {
        (t(0, 2, 3),): -1,
        (t(0, 1, 3),): 1,
        (t(1, 2, 3),): 1,
        (t(2, 3), t(0, 1, 2)): -1,
    }


def test_word_boundary_leibniz_example(sphere2):
    word = _encoded(sphere2, (T12, T123))
    assert _decoded(sphere2, word_boundary(sphere2, word)) == {
        (T12, T13): -1,
        (T12, T12, T23): 1,
    }
    red = DEFAULT.flip("leibniz_prefix")
    assert _decoded(sphere2, word_boundary(sphere2, word, red)) == {
        (T12, T13): 1,
        (T12, T12, T23): -1,
    }


def test_reduced_prefix_breaks_the_square():
    # frozen witness: with reduced-degree prefix signs the differential
    # no longer squares to zero
    sphere2 = _load("boundary_delta3.json")
    red = DEFAULT.flip("leibniz_prefix")
    dd = dga_differential(sphere2, word_boundary(
        sphere2, _encoded(sphere2, (T123, T123)), red), red)
    assert _decoded(sphere2, dd) == {
        (T12, T23, T12, T23): 2,
        (T12, T23, T13): -2,
    }
    assert not validate_complex(based_loop_complex(sphere2, 4, red).complex).ok


def test_corner_letters_have_no_boundary(sphere2):
    q = ("pi3", (0, 1), (1, 2), (2, 1, 0))
    with pytest.raises(BoundaryUndefinedError, match="corner"):
        dga_differential(sphere2, {(q,): 1})


def test_pi2_vanishing_on_tree_paths(sphere2):
    assert pi2_vanishes(sphere2, (0, 1), (1, 0))
    assert not pi2_vanishes(sphere2, (1, 2), (2, 1))


def test_pi2_boundary_produces_corners(ball3):
    out = pi2_boundary(ball3, (0, 1, 2), (2, 1, 0))
    corners = sorted({l for w in out for l in w if l[0] == "pi3"})
    assert corners == [
        ("pi3", (0, 1), (1, 2), (2, 1, 0)),
        ("pi3", (0, 1, 2), (2, 1), (1, 0)),
    ]


# -- letter census of the collapsed models ------------------------------------

def test_letter_censuses(circle, sphere2, torus):
    assert LoopAlgebra(circle).letters() == [0]
    assert Alphabet(circle).letters == (T12,)
    for cc, census in ((sphere2, {0: 3, -1: 4}), (torus, {0: 15, -1: 14})):
        letters = Alphabet(cc).letters
        by_deg = {}
        for code in LoopAlgebra(cc).letters():
            degree = letter_degree(letters[code])
            by_deg[degree] = by_deg.get(degree, 0) + 1
        assert by_deg == census


# -- the materialized complex --------------------------------------------------

def test_circle_loop_words_count(circle):
    assert len(loop_words(circle, 6)) == 7  # unit plus six powers


def _t_map(cc, cap):
    return verify_T_chain_map(cc, max_weight=cap)


def _first_residual(cc, cap):
    return next(t_residuals(cc, max_weight=cap))


def test_a_negative_weight_cap_is_refused(circle):
    with pytest.raises(ValueError, match="got -1"):
        loop_words(circle, -1)
    with pytest.raises(ValueError, match="got -2"):
        based_loop_complex(circle, -2)
    for build in (_t_map, _first_residual):
        with pytest.raises(ValueError, match="at least 0, got -1"):
            build(circle, -1)
    # a cap that is not an int is refused by name, bool included: the
    # comparison map took 2.5 and 2.0 as caps and read True as 1
    for cap in (True, False, 2.5, 2.0):
        for build in (loop_words, based_loop_complex, _t_map,
                      _first_residual):
            with pytest.raises(ValueError, match=f"weight cap must be an "
                                                 f"int, got {cap!r}"):
                build(circle, cap)


FIXTURE_NAMES = ("s1_3", "boundary_delta3", "torus_7", "rp2")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_loop_basis_matches_the_sorted_oracle(name):
    # decoded, the basis and loop_words are the sorted words on the tau
    # letters of the cells
    cc = _load(f"{name}.json")
    alg = LoopAlgebra(cc)
    letters = [("tau", cell) for dim in range(1, cc.source.dimension() + 1)
               for cell in cc.cells(dim=dim)]
    decode = alg.alphabet.decode
    for cap in range(5):
        want = sorted_basis(letters, letter_weight, cap)
        assert [decode(w) for w in alg.basis(cap)] == want, cap
        assert [decode(w) for w in loop_words(cc, cap)] == [()] + want, cap


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_algebra_tables_match_the_word_functions(name):
    cc = _load(f"{name}.json")
    for order in CHOICES["mu2_order"][0]:
        conv = replace(DEFAULT, mu2_order=order)
        alg = LoopAlgebra(cc, conv)
        alphabet = alg.alphabet
        basis = alg.basis(3)
        letters = {w: alphabet.decode(w) for w in basis}
        # basis fills the alphabet's tables, graded off each word's
        # prefix: every basis word is in them, and every entry, whoever
        # made it, is the word function's value of its decoded word;
        # loop_words lists the same words after the unit
        degrees, weights = alphabet.word_degrees, alphabet.word_weights
        assert set(basis) <= degrees.keys() and set(basis) <= weights.keys()
        for word, n in degrees.items():
            assert n == word_degree(alphabet.decode(word)), word
        for word, n in weights.items():
            assert n == word_weight(alphabet.decode(word)), word
        assert loop_words(cc, 3, conv) == [(), *basis]
        by_weight = {w: [] for w in range(1, 4)}
        for word in basis:
            assert alg.degree(word) == word_degree(letters[word]), word
            assert alg.weight(word) == word_weight(letters[word]), word
            by_weight[word_weight(letters[word])].append(word)
        # every product of two basis words that stays under the cap
        for w1, x1s in by_weight.items():
            for x1 in x1s:
                for w2 in range(1, 4 - w1):
                    for x2 in by_weight[w2]:
                        sign, product = mu2(letters[x2], letters[x1], conv)
                        assert alg.mu2(x2, x1) == \
                            {alphabet.encode(product): sign}, (x2, x1)
        # a loop word has degree <= 0, so a cyclic word has degree <= 0
        assert cyclic_words(alg, 3, degree=1) == []


BAD_CAPS = ((True, "an int, got True"), (2.5, "an int, got 2.5"),
            (-1, "at least 0, got -1"))


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("boundary_delta4",))
def test_the_basis_refuses_a_bad_weight_cap(name):
    # the basis read True as cap 1, raised a bare TypeError on 2.5 and
    # gave [] on -1; a kept cap-1 basis must not answer True either
    alg = LoopAlgebra(_load(f"{name}.json"))
    alg.basis(1)
    for cap, says in BAD_CAPS:
        for basis in (alg.basis, alg.alphabet.basis):
            with pytest.raises(ValueError, match=f"weight cap must be {says}"):
                basis(cap)


def test_the_alphabet_enumerates_each_cap_once(monkeypatch):
    # two algebras of one complex under different conventions share the
    # alphabet's basis: one enumeration, one kept tuple, which every
    # read returns
    calls = []
    graded = cobarloop._graded_words

    def counting(letters, weight, grade, max_weight):
        calls.append(max_weight)
        return graded(letters, weight, grade, max_weight)

    monkeypatch.setattr(cobarloop, "_graded_words", counting)
    alphabet = Alphabet(_load("torus_7.json"))
    first = LoopAlgebra(alphabet, DEFAULT)
    second = LoopAlgebra(alphabet, DEFAULT.flip("mu2_order"))
    assert first.alphabet is alphabet and second.alphabet is alphabet
    words = alphabet.basis(3)
    assert type(words) is tuple and words == tuple(sorted(words))
    assert alphabet.basis(3) is words
    assert first.basis(3) is words and second.basis(3) is words
    assert calls == [3]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_the_basis_fills_the_word_tables(name):
    # a fresh alphabet's tables hold the basis words and the unit, and
    # nothing else: other words are graded at each lookup
    alphabet = Alphabet(_load(f"{name}.json"))
    basis = alphabet.basis(3)
    for table, rule in ((alphabet.word_degrees, word_degree),
                        (alphabet.word_weights, word_weight)):
        assert dict.keys(table) == set(basis) | {()}
        for word, n in table.items():
            assert n == rule(alphabet.decode(word)), word


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_words_by_degree_lists_are_sorted(name):
    # based_loop_complex files each word by degree inside the enumerator:
    # every list must be loop_words filtered by word_degree, in order (so
    # sorted), and the degrees must come in the order loop_words first
    # meets them
    cc = _load(f"{name}.json")
    top = {"s1_3": 4, "boundary_delta3": 4}.get(name, 3)
    for order in CHOICES["mu2_order"][0]:
        conv = replace(DEFAULT, mu2_order=order)
        for cap in range(top + 1):
            by_degree = based_loop_complex(cc, cap, conv).words_by_degree
            if cap == 0:
                assert by_degree == {0: [()]}
            words = loop_words(cc, cap, conv)
            decode = Alphabet(cc).decode
            degrees = [word_degree(decode(w)) for w in words]
            assert list(by_degree) == list(dict.fromkeys(degrees)), \
                (order, cap)
            for n, ws in by_degree.items():
                assert ws == [w for w, d in zip(words, degrees) if d == n], \
                    (order, cap, n)
                assert ws == sorted(ws), (order, cap, n)
                assert [decode(w) for w in ws] == sorted(map(decode, ws)), \
                    (order, cap, n)


# sha256 of each fixture's cap-4 loop complex, its words decoded (see
# _model_digest), taken before letters were coded as ints
CAP_FOUR_DIGESTS = {
    "s1_3":
        "616524fb45ec89543ae62247344891c51a396d1a984bc844e4487a26d36f9c79",
    "boundary_delta3":
        "2e75e73ed220e58a4b0bcf4d618253e5a2b84435f3dd75061f437473ae4225aa",
    "torus_7":
        "e437a9b50c449219e186ba014b4b5d44962d0dee9bbab9faf5244368d9f8798c",
    "rp2":
        "3adacc474973dc10c3d0f438b799e162c8f1284c0bc2e0ef98abdc3da1d1ac43",
}


def _model_digest(model, decode):
    """The words of each degree, decoded, in order, and then every
    differential's shape and entries."""
    h = hashlib.sha256()
    for n, words in model.words_by_degree.items():
        h.update(f"{n}:{[decode(w) for w in words]!r}\n".encode())
    for n in sorted(model.complex.diffs):
        m = model.complex.diffs[n]
        h.update(f"{n}:{m.rows}x{m.cols}:{sorted(m.entries.items())!r}\n"
                 .encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_loop_complexes_keep_their_words_and_matrices(name):
    cc = _load(f"{name}.json")
    model = based_loop_complex(cc, 4)
    assert _model_digest(model, Alphabet(cc).decode) == \
        CAP_FOUR_DIGESTS[name]


def test_alphabet_codes_depend_on_the_complex_alone(sphere2, torus):
    one, two = Alphabet(sphere2), Alphabet(sphere2)
    letters = sorted(("tau", cell) for dim in (1, 2)
                     for cell in sphere2.cells(dim=dim))
    assert one.letters == two.letters == tuple(letters)
    assert one.codes == two.codes == {l: i for i, l in enumerate(letters)}
    # a T image and a boundary made in one alphabet equal those made in
    # the other, and those made on the bare complex before the slot of
    # bare calls moves to another complex and other conventions equal
    # those made after it comes back; a call given an alphabet leaves it
    word = one.encode((T12, T123))
    image = adams_T(one, (1, 2, 3))
    boundary = word_boundary(one, word)
    assert adams_T(sphere2, (1, 2, 3)) == image
    assert word_boundary(sphere2, word) == boundary
    assert cobarloop._table[0] is sphere2
    flipped = DEFAULT.flip("leibniz_prefix")
    word_boundary(torus, (0, 1), flipped)
    assert adams_T(two, (1, 2, 3)) == image
    assert word_boundary(two, two.encode((T12, T123))) == boundary
    assert cobarloop._table[:2] == (torus, flipped)
    assert word_boundary(sphere2, word) == boundary
    assert cobarloop._table[0] is sphere2
    assert _decoded(sphere2, boundary) == {(T12, T13): -1, (T12, T12, T23): 1}
    assert {tuple(map(two.decode, w)): c for w, c in image.items()} == \
        {tuple(map(one.decode, w)): c for w, c in adams_T(
            sphere2, (1, 2, 3)).items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_algebra_degrees_of_words_outside_the_basis(name):
    # a word outside the basis is graded off the alphabet's degree table,
    # with each letter outside the alphabet graded on its own: words that
    # mix codes with the pair letters and the wrap-path tau letters of T
    # images, the unit letter and corner letters
    cc = _load(f"{name}.json")
    alg = LoopAlgebra(cc)
    alphabet = alg.alphabet
    outside = {UNIT_LETTER, ("pi3", (0, 1), (1, 2), (2, 1, 0)),
               ("pi3", (0, 1, 2), (2, 1), (1, 0))}
    for cell in cc.cells():
        for ccword in adams_T(cc, cell):
            outside.update(l for w in ccword for l in w if type(l) is not int)
    assert any(l[0] == "pi2" for l in outside)
    pool = sorted(outside) + list(range(len(alphabet.letters)))
    rng = Random(name)
    for _ in range(300):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        assert alg.degree(word) == word_degree(alphabet.decode(word)), word
    assert alg.degree(()) == 0


def test_algebras_of_a_complex_share_their_tables(sphere2):
    # the degree and weight tables belong to the alphabet, so algebras
    # under different conventions on one alphabet read and fill the same
    # ones
    alphabet = Alphabet(sphere2)
    one = LoopAlgebra(alphabet)
    two = LoopAlgebra(alphabet, DEFAULT.flip("mu2_order"))
    assert one.alphabet is two.alphabet is alphabet
    degrees, weights = one.alphabet.word_degrees, one.alphabet.word_weights
    word = one.basis(3)[-1]
    assert word in degrees and word in weights
    assert two.degree(word) == word_degree(two.decode(word))
    # the unit is in them; a word basis does not list is graded, not kept
    assert one.degree(()) == one.weight(()) == 0 and () in degrees
    pair = ("pi2", (0, 1, 2), (2, 3, 0))
    for word in ((0, pair), word + word):
        assert one.degree(word) == word_degree(one.decode(word))
        assert one.weight(word) == word_weight(one.decode(word))
        assert word not in degrees and word not in weights


def test_alphabets_keep_a_table_per_boundary_entries(sphere2):
    # the loop dga fills the tables of the alphabet it is given; they are
    # keyed by the four entries a boundary reads, so conventions that
    # differ elsewhere share one, and every algebra on the alphabet binds
    # the table of its conventions
    alphabet = Alphabet(sphere2)
    word = alphabet.encode((T12, T123))
    boundary = word_boundary(alphabet, word)
    table, = alphabet._tables.values()
    for entry in ("hochschild_arity", "t_word_sign", "iota_twist"):
        conv = DEFAULT.flip(entry)
        assert word_boundary(alphabet, word, conv) == boundary
        assert LoopAlgebra(alphabet, conv)._boundaries is table
    flipped = DEFAULT.flip("leibniz_prefix")
    assert word_boundary(alphabet, word, flipped) != boundary
    assert len(alphabet._tables) == 2
    assert LoopAlgebra(alphabet, flipped).mu1(word) == \
        word_boundary(alphabet, word, flipped)
    # a bare complex gets a new alphabet, whose table the slot keeps
    assert word_boundary(sphere2, word) == boundary
    assert cobarloop._table[0] is sphere2
    assert cobarloop._table[2] is not table
    assert len(alphabet._tables) == 2


def _loop_operations(source):
    """Every public loop operation run on source, a collapsed complex or
    an alphabet of one, at small caps: {operation: its output}, with the
    code words of the outputs decoded."""
    alg = LoopAlgebra(source)
    cc, decode = alg.cc, alg.decode
    image = {cell: adams_T(source, cell) for cell in cc.cells()
             if len(cell) > 1}
    basis = alg.basis(3)
    v = verify_T_chain_map(source)
    return {
        "loop_words": [decode(w) for w in loop_words(source, 3)],
        "based_loop_complex": _model_digest(based_loop_complex(source, 3),
                                            decode),
        "adams_T": {cell: {tuple(map(decode, w)): c for w, c in t.items()}
                    for cell, t in image.items()},
        "t_residual": {cell: t_residual(source, cell) for cell in image},
        "t_residuals": list(t_residuals(source)),
        "verify_T_chain_map": (v.cells, v.residuals, v.ok),
        "word_boundary": [_decoded(cc, word_boundary(source, w))
                          for w in basis],
        "dga_differential": _decoded(cc, dga_differential(
            source, {w: 1 for w in basis[::7]})),
        "basis": [decode(w) for w in basis],
        "mu1": [_decoded(cc, alg.mu1(w)) for w in basis],
    }


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_loop_operation_reads_a_complex_and_its_alphabet_alike(name):
    cc = _load(f"{name}.json")
    assert _loop_operations(Alphabet(cc)) == _loop_operations(cc)


def test_every_loop_operation_refuses_an_uncollapsed_complex():
    # a complex that was never collapsed would make tree edges letters
    sc = load_complex(FIXTURES / "rp2.json")
    calls = (
        lambda: Alphabet(sc), lambda: LoopAlgebra(sc),
        lambda: loop_words(sc, 2), lambda: based_loop_complex(sc, 2),
        lambda: word_boundary(sc, (0,)),
        lambda: dga_differential(sc, {(0,): 1}),
        lambda: adams_T(sc, (0, 1, 2)), lambda: t_residual(sc, (0, 1, 2)),
        lambda: next(t_residuals(sc)), lambda: verify_T_chain_map(sc))
    for call in calls:
        with pytest.raises(TypeError,
                           match="not a SimplicialComplex: collapse it"):
            call()


def test_two_alphabets_of_a_complex_keep_their_own_state(sphere2):
    # what an algebra fills belongs to the alphabet it was given, so a
    # second alphabet of the same complex starts empty and stays apart
    one, two = Alphabet(sphere2), Alphabet(sphere2)
    flipped = DEFAULT.flip("leibniz_prefix")
    for conv in (DEFAULT, flipped):
        alg = LoopAlgebra(one, conv)
        for w in alg.basis(3):
            alg.mu1(w)
    assert list(one._bases) == [3] and len(one._tables) == 2
    assert not two._bases and not two._tables
    words = one.basis(2)
    bases, tables = dict(one._bases), dict(one._tables)
    alg = LoopAlgebra(two, flipped)
    assert alg.basis(2) == words and alg.basis(2) is not words
    assert list(two._bases) == [2] and len(two._tables) == 1
    assert alg._boundaries is not one._table_for(flipped)
    assert one._bases == bases and one._tables == tables
    assert all(one._tables[k] is t for k, t in tables.items())


def test_an_alphabet_is_freed_once_its_caller_drops_it(sphere2):
    # nothing an operation keeps, the slot of bare calls included, holds
    # on to an alphabet passed to it: with the cyclic collector off, the
    # caller's last reference takes it
    alphabet = Alphabet(sphere2)
    ref = weakref.ref(alphabet)
    gc.collect()
    gc.disable()
    try:
        _loop_operations(alphabet)
        word_boundary(sphere2, (0,))
        del alphabet
        assert ref() is None
    finally:
        gc.enable()


def test_sphere_complex_is_a_complex(sphere2):
    model = based_loop_complex(sphere2, 4)
    assert model.word_count() == 273
    assert {n: model.complex.dim(n) for n in sorted(model.complex.dims)} == {
        -2: 16, -1: 136, 0: 121}
    assert validate_complex(model.complex).ok


# the largest loop complexes the package builds: rp2 has a 1111x210
# differential and torus_7 a 3616x434 one
@pytest.mark.parametrize("name, words, table", [
    ("rp2.json", 1321, {-1: (25, ()), 0: (926, ())}),
    ("torus_7.json", 4050, {-1: (37, ()), 0: (3219, ())}),
])
def test_loop_homology_at_weight_three(name, words, table):
    model = based_loop_complex(_load(name), 3)
    assert model.word_count() == words
    assert {n: (h.rank, h.torsion)
            for n, h in homology(model.complex).items()} == table


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_differential_properties_on_random_words(seed):
    sphere2 = _load("boundary_delta3.json")
    alg = LoopAlgebra(sphere2)
    letters, decode = alg.letters(), alg.alphabet.decode
    rng = Random(seed)
    word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
    n, w = word_degree(decode(word)), word_weight(decode(word))
    vec = word_boundary(sphere2, word)
    for out in vec:
        assert word_degree(decode(out)) == n + 1
        assert word_weight(decode(out)) <= w
    assert dga_differential(sphere2, vec) == {}


# the ledger and each single flip of an entry that word boundaries read
BOUNDARY_CONVENTIONS = (DEFAULT, *(DEFAULT.flip(name) for name in (
    "leibniz_prefix", "mu2_order", "tau_degeneracy", "pi2_bsplit_sign")))


@pytest.fixture(scope="module")
def letter_pool():
    """The four collapsed fixtures, one letter pool and its boundary-free
    part.  The pool holds their tau letters, every letter of their
    comparison-map images (wrap paths and pi2 letters among them) and
    the alternating path (a, b, a, b) of each edge (a, b).  The fixtures
    share vertex labels, so many letters have a different boundary in
    each.  The second list holds the edge letters and the alternating
    paths: an alternating path has no boundary terms under cyclic
    degeneracy and has some under linear."""
    complexes = [_load(f"{name}.json") for name in FIXTURE_NAMES]
    letters = set()
    for cc in complexes:
        alphabet = Alphabet(cc)
        letters.update(alphabet.letters)
        for dim in range(1, cc.source.dimension() + 1):
            for cell in cc.cells(dim=dim):
                for ccword in adams_T(cc, cell):
                    letters.update(l for entry in ccword
                                   for l in alphabet.decode(entry))
    edges = {l for l in letters if l[0] == "tau" and len(l[1]) == 2}
    alternating = {("tau", l[1] * 2) for l in edges}
    letters |= alternating
    return complexes, sorted(letters), sorted(edges | alternating)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_word_boundary_matches_the_leibniz_reference(letter_pool, data):
    # every word is differentiated under each (complex, conventions) pair
    # in a drawn order, so a letter table or boundary-free set kept under
    # the wrong key, or not dropped when the pair changes, fails; some
    # words are drawn from the boundary-free letters alone
    complexes, letters, free = letter_pool
    words = data.draw(st.lists(
        st.one_of(st.lists(st.sampled_from(letters), max_size=5),
                  st.lists(st.sampled_from(free), max_size=5)).map(tuple),
        min_size=1, max_size=3))
    pairs = data.draw(st.permutations(
        [(cc, conv) for cc in complexes for conv in BOUNDARY_CONVENTIONS]))
    # dga_differential runs the same Leibniz loop on the words as one
    # vector, first or last under each pair, so it meets the table both
    # freshly switched and as word_boundary left it
    vector = dict(zip(words, data.draw(st.lists(
        st.sampled_from((0, -2, -1, 1, 3)), min_size=len(words),
        max_size=len(words)))))
    vector_first = data.draw(st.booleans())
    for cc, conv in pairs:
        # each complex codes the same letters its own way
        coded = _coded(cc, vector)
        if vector_first:
            assert _decoded(cc, dga_differential(cc, coded, conv)) == \
                _leibniz_vector(cc, vector, conv)
        for word in words:
            assert _decoded(cc, word_boundary(cc, _encoded(cc, word), conv)) \
                == leibniz_word_boundary(cc, word, conv)
        if not vector_first:
            assert _decoded(cc, dga_differential(cc, coded, conv)) == \
                _leibniz_vector(cc, vector, conv)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_word_boundary_matches_the_leibniz_reference_on_every_word(name):
    # every loop word at cap 3, decoded, under the ledger and each single
    # flip of an entry that word boundaries read
    cc = _load(f"{name}.json")
    decode = Alphabet(cc).decode
    words = loop_words(cc, 3)
    for conv in BOUNDARY_CONVENTIONS:
        for word in words:
            got = word_boundary(cc, word, conv)
            assert {decode(w): c for w, c in got.items()} == \
                leibniz_word_boundary(cc, decode(word), conv), (conv, word)


def test_word_boundary_refuses_the_unit_letter_wherever_it_sits(sphere2):
    # a code word holds no unit letter: at the start, in the middle, at
    # the end and twice, beside boundary-bearing letters, it is refused
    # by name in either entry point, and it gets no table entry
    alphabet = Alphabet(sphere2)
    for conv in BOUNDARY_CONVENTIONS:
        for word in ((UNIT_LETTER, T123), (T123, UNIT_LETTER, T12),
                     (T12, T123, UNIT_LETTER),
                     (UNIT_LETTER, T123, UNIT_LETTER, T123)):
            coded = alphabet.encode(word)
            with pytest.raises(ValueError, match="no unit letter"):
                word_boundary(alphabet, coded, conv)
            with pytest.raises(ValueError, match="no unit letter"):
                dga_differential(alphabet, {(T12,): 1, coded: 1}, conv)
            table = alphabet._table_for(conv)
            assert UNIT_LETTER not in table.entries
            assert UNIT_LETTER not in table.free


def test_word_boundary_caches_no_failure_and_hands_out_fresh_dicts(sphere2):
    q = ("pi3", (0, 1), (1, 2), (2, 1, 0))
    code = Alphabet(sphere2).encode
    for word in ((q,), (T12, q), (T123, q, T12)):
        for _ in range(2):
            with pytest.raises(BoundaryUndefinedError, match="corner"):
                word_boundary(sphere2, code(word))
    expected = {(T12, T13): -1, (T12, T12, T23): 1}
    for word, want in (((T12, T123), expected),
                       ((T123,), {(T13,): -1, (T12, T23): 1})):
        got = word_boundary(sphere2, code(word))
        assert _decoded(sphere2, got) == want
        got.clear()
        got[code((T12,))] = 5
        assert _decoded(sphere2, word_boundary(sphere2, code(word))) == want
    # a word of edge letters has no boundary, and each call hands out
    # its own empty dict
    edges = code((T12, T23, T13, T12))
    got = word_boundary(sphere2, edges)
    assert got == {}
    got[code((T12,))] = 5
    again = word_boundary(sphere2, edges)
    assert again == {} and again is not got
    # a corner letter still raises beside a letter known to be
    # boundary-free, on either side of it
    assert word_boundary(sphere2, code((T12,))) == {}
    for word in ((T12, q), (q, T12)):
        with pytest.raises(BoundaryUndefinedError, match="corner"):
            word_boundary(sphere2, code(word))


def _leibniz_vector(cc, vector, conv):
    """The Leibniz reference extended linearly to a vector."""
    out = {}
    for word, c in vector.items():
        for w, c2 in leibniz_word_boundary(cc, word, conv).items():
            _add(out, w, c * c2)
    return out


def test_dga_differential_keeps_no_zero_coefficient(sphere2):
    # the Leibniz loop adds every word's terms into one dict, and the
    # first letter to add terms fills it without lookups: a zero
    # coefficient and terms that cancel across words must still leave no
    # zero entry
    vectors = [
        {(T123,): 0},
        {(T123,): 0, (T12, T123): 2},
        {(T12, T123): 2, (T123, T123): 0, (T123,): -1},
    ]
    square = _encoded(sphere2, (T123, T123))
    for conv in BOUNDARY_CONVENTIONS:
        # a boundary: under the ledger its words' boundaries cancel
        boundary = _decoded(sphere2, word_boundary(sphere2, square, conv))
        for vector in vectors + [boundary]:
            got = dga_differential(sphere2, _coded(sphere2, vector), conv)
            assert _decoded(sphere2, got) == \
                _leibniz_vector(sphere2, vector, conv)
            assert 0 not in got.values()
    boundary = word_boundary(sphere2, square)
    assert len(boundary) > 1 and dga_differential(sphere2, boundary) == {}
    # a corner letter in the middle of a vector raises, whatever its
    # coefficient, and gets no table entry
    q = ("pi3", (0, 1), (1, 2), (2, 1, 0))
    alphabet = Alphabet(sphere2)
    for c in (1, 0):
        with pytest.raises(BoundaryUndefinedError, match="corner"):
            dga_differential(alphabet, _coded(
                sphere2, {(T123,): 1, (T12, q): c, (T23,): 1}))
        assert q not in alphabet._table_for(DEFAULT).entries
        with pytest.raises(BoundaryUndefinedError, match="corner"):
            dga_differential(sphere2, _coded(
                sphere2, {(T123,): 1, (T12, q): c, (T23,): 1}))
        assert cobarloop._table[0] is sphere2
        assert q not in cobarloop._table[2].entries


@pytest.mark.parametrize("conv", (DEFAULT, DEFAULT.flip("leibniz_prefix")))
def test_dga_differential_matches_the_leibniz_reference_twice(sphere2, conv):
    # d and d.d against the reference; under the flipped prefix d.d does
    # not vanish on words with two letters that split, such as T123.T123,
    # so both sides have terms to agree on
    alg = LoopAlgebra(sphere2)
    words = [alg.decode(w) for w in alg.basis(4)]
    rng = Random(11)
    # the unit term of the edge pair letter P comes out of either slot of
    # P.P, with opposite signs under the ledger: those terms cancel
    P = ("pi2", (1, 2), (2, 1))
    assert ((P,) in word_boundary(sphere2, (P, P), conv)) == (conv != DEFAULT)
    vectors = [{}, {(): 3}, {(T12, T123): -2}, {(P, P): 1, (T123, P): -1}]
    vectors += [{w: rng.choice((-2, -1, 1, 3)) for w in rng.sample(words, 4)}
                for _ in range(30)]
    # the boundary of a word: under the ledger its own terms cancel
    vectors += [_decoded(sphere2, word_boundary(
        sphere2, _encoded(sphere2, w), conv)) for w in words[::3]]
    dd_terms = 0
    for vector in vectors:
        once = dga_differential(sphere2, _coded(sphere2, vector), conv)
        assert _decoded(sphere2, once) == \
            _leibniz_vector(sphere2, vector, conv)
        twice = dga_differential(sphere2, once, conv)
        assert _decoded(sphere2, twice) == \
            _leibniz_vector(sphere2, _decoded(sphere2, once), conv)
        dd_terms += len(twice)
    assert (dd_terms == 0) == (conv == DEFAULT)


# -- the comparison map --------------------------------------------------------

def _decoded_image(cc, image):
    """A vector of cyclic words of code words, decoded."""
    decode = Alphabet(cc).decode
    return {tuple(map(decode, w)): c for w, c in image.items()}


def test_comparison_map_on_an_edge(circle):
    assert _decoded_image(circle, adams_T(circle, (1, 2))) == {
        ((("tau", (2, 1)),), (("tau", (1, 2)),)): -1,
        ((("pi2", (1, 2), (2, 1)),),): 1,
        ((("pi2", (2, 1), (1, 2)),),): -1,
    }


def test_comparison_map_triangle_census(sphere2):
    image = adams_T(sphere2, (1, 2, 3))
    by_slots = {}
    for ccword in image:
        by_slots[len(ccword)] = by_slots.get(len(ccword), 0) + 1
    assert by_slots == {1: 6, 2: 3, 3: 1}


def test_unnormalized_image_keeps_unit_slots(sphere2):
    # the image is normalized: a tree-edge slot stays as the unit only in
    # the marked slot, and the two words with a unit in another slot go
    image = adams_T(sphere2, (0, 1, 2))
    assert len(image) == 8
    assert ((), _encoded(sphere2, (("tau", (0, 1, 2)),))) in image
    assert not [cw for cw in image if () in cw[1:]]


def test_comparison_map_is_a_chain_map(circle, sphere2, ball3, torus):
    for cc, census_size in ((circle, 0), (sphere2, 12), (ball3, 24), (torus, 42)):
        v = verify_T_chain_map(cc)
        assert v.ok, (cc.source.name, v.residuals)
        assert len(v.corner_census) == census_size
        assert v.corners_balanced


@pytest.fixture(scope="module")
def rp2():
    return _load("rp2.json")


@pytest.mark.parametrize("axis", (None,) + tuple(CHOICES))
def test_residual_generator_matches_the_verifier(circle, sphere2, ball3,
                                                 torus, rp2, axis):
    conv = DEFAULT if axis is None else DEFAULT.flip(axis)
    for cc in (circle, sphere2, ball3, torus, rp2):
        census = {}
        pairs = list(t_residuals(cc, conv, census=census))
        v = verify_T_chain_map(cc, conv)
        assert tuple(cell for cell, _ in pairs) == v.cells
        assert {cell: r for cell, r in pairs if r} == v.residuals
        assert census == v.corner_census
        # cell by cell, against the single-cell residual
        cells = [c for dim in range(1, cc.source.dimension() + 1)
                 for c in cc.cells(dim=dim)]
        assert pairs == [(c, t_residual(cc, c, conv)) for c in cells]


def test_residual_generator_computes_no_cell_past_its_caller(sphere2,
                                                            monkeypatch):
    seen = []
    # t_residuals computes each cell through the helper behind t_residual
    monkeypatch.setattr(cobarloop, "_t_residual",
                        lambda algebra, cell, *args: seen.append(cell))
    cells = t_residuals(sphere2)
    assert next(cells)[0] == seen[0]
    assert next(cells)[0] == seen[1]
    assert len(seen) == 2
    with pytest.raises(TruncationError, match="weight cap 2"):
        next(t_residuals(sphere2, max_weight=2))


def test_residuals_share_one_loop_algebra(sphere2, torus, monkeypatch):
    built = []
    init = LoopAlgebra.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LoopAlgebra, "__init__", counting)
    nonzero = 0
    for cc in (sphere2, torus):
        # the ledger's conventions, and a rejected reading that leaves
        # nonzero residuals
        for conv in (DEFAULT, DEFAULT.flip("t_word_sign")):
            built.clear()
            residuals = dict(t_residuals(cc, conv))
            assert len(residuals) > 1 and len(built) == 1
            # each residual is that of t_residual alone
            for cell, r in residuals.items():
                assert t_residual(cc, cell, conv) == r
                nonzero += bool(r)
            assert len(built) == 1 + len(residuals)
    assert nonzero


def test_weight_cap_must_hold_the_image(sphere2):
    with pytest.raises(TruncationError, match="weight cap 2"):
        verify_T_chain_map(sphere2, max_weight=2)
    assert verify_T_chain_map(sphere2, max_weight=3).ok


def test_cyclic_square_of_the_circle_generator(circle):
    t12 = _encoded(circle, (T12,))
    assert hochschild_b(LoopAlgebra(circle), (t12, t12)) == {}


# -- every sign convention is load-bearing -------------------------------------

def test_word_sign_flip_breaks_the_sphere(sphere2):
    assert not verify_T_chain_map(sphere2, DEFAULT.flip("t_word_sign")).ok


def test_pair_sign_flip_breaks_the_sphere(sphere2):
    assert not verify_T_chain_map(sphere2, DEFAULT.flip("t_pair2_sign")).ok


def test_linear_degeneracy_breaks_the_sphere(sphere2):
    assert not verify_T_chain_map(sphere2, DEFAULT.flip("tau_degeneracy")).ok


def test_subscript_arity_breaks_the_sphere(sphere2):
    assert not verify_T_chain_map(sphere2, DEFAULT.flip("hochschild_arity")).ok


def test_bsplit_flip_needs_a_three_dimensional_witness(sphere2, ball3):
    # the two exponents agree in parity on every cell of the 2-sphere, so
    # the flip is invisible there; the solid simplex catches it
    flipped = DEFAULT.flip("pi2_bsplit_sign")
    assert verify_T_chain_map(sphere2, flipped).ok
    assert not verify_T_chain_map(ball3, flipped).ok


# -- formatting ----------------------------------------------------------------

def test_formatting(sphere2):
    assert format_letter(UNIT_LETTER) == "1"
    assert format_letter(T12) == "t[1,2]"
    assert format_letter(("pi2", (1, 2), (2, 1))) == "p[1,2|2,1]"
    assert format_letter(("pi3", (0, 1), (1, 2), (2, 1, 0))) == "q[0,1|1,2|2,1,0]"
    # code words are decoded through their alphabet; a letter outside it
    # is written as it stands
    alphabet = Alphabet(sphere2)
    assert format_word((), alphabet) == "1"
    assert format_word(alphabet.encode((T12, T123)), alphabet) == \
        "t[1,2]*t[1,2,3]"
    assert format_word(alphabet.encode((T12, ("tau", (2, 0, 1)))),
                       alphabet) == "t[1,2]*t[2,0,1]"
    assert format_cyclic_word((alphabet.encode((T12,)), ()), alphabet) == \
        "(t[1,2] ; 1)"
