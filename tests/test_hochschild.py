from functools import partial
from hashlib import sha256
from itertools import islice, product as iproduct
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from loopchains.hochschild import (
    Morphism, TableDGA, bounded_words, cc_degree, cc_of_morphism,
    cyclic_words, hh_truncated, hochschild_b, hochschild_b_vector,
    identity_morphism, is_degenerate, random_dga, word_degree,
)

from oracle_classical import (SphereCochains, check_table_dga,
                              classical_b_squared, classical_cyclic_b, rev)
from loopchains import hochschild
from loopchains.exactalg import FreeComplex, HomologySummary, _axpy
from oracle_words import (bucketed_hh_truncated, bucketed_layers,
                          per_special_cyclic_words, signkoszul_hochschild_b,
                          words_by_degree)


class DegreeStub:
    """Just enough algebra for degree arithmetic on abstract letters."""

    def __init__(self, degrees):
        self.degrees = degrees

    def degree(self, x):
        return self.degrees[x]

    def weight(self, x):
        return 1


def square_zero():
    # du = v, all products vanish
    return TableDGA({"u": 0, "v": 1}, {}, {"u": {"v": 1}})


def one_generator_commutative():
    # e.e = e2, degree 0, no differential
    return TableDGA({"e": 0, "e2": 0}, {("e", "e"): {"e2": 1}}, {})


def vec_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
        if out[k] == 0:
            del out[k]
    return out


# -- degrees ------------------------------------------------------------------

def test_cc_degree_examples():
    alg = DegreeStub({"a": 3, "b": 0, "c": 0, "p": -1, "q": -1, "r": -1})
    assert cc_degree(alg, ("a",)) == 3
    assert cc_degree(alg, ("b", "c")) == 1
    assert cc_degree(alg, ("p", "q", "r")) == -1


def test_cc_degree_empty_word_rejected():
    with pytest.raises(ValueError, match="empty word"):
        cc_degree(DegreeStub({}), ())


def test_grading_and_bookkeeping_degree_agree_mod_2():
    alg = DegreeStub({"a": 3, "b": 0, "c": -2})
    for word in [("a",), ("a", "b"), ("c", "b", "a"), ("b", "b", "c", "a")]:
        assert (cc_degree(alg, word) - word_degree(alg, word)) % 2 == 0
        assert cc_degree(alg, word) - word_degree(alg, word) == 2 * (len(word) - 1)


# -- the differential ---------------------------------------------------------

def test_single_letter_word_is_minus_mu1():
    dga = square_zero()
    assert hochschild_b(dga, ("u",)) == {("v",): -1}
    assert hochschild_b(dga, ("v",)) == {}


def test_two_equal_degree_zero_letters_cancel():
    dga = one_generator_commutative()
    assert hochschild_b(dga, ("e", "e")) == {}


def test_subscript_arity_reading_kills_wrap_terms():
    dga = square_zero()
    assert hochschild_b(dga, ("u",), arity="subscript") == {}


def test_an_unknown_arity_is_refused():
    # read as the subscript, the misspelling would drop every wrap term:
    # rank 18 and (Z/2)^9 in degree -3 instead of the answer below.  The
    # empty vector and the wordless degree 50 are refused as well
    dga = random_dga(0)
    for call in (lambda arity: hochschild_b(dga, ("e01",), arity=arity),
                 lambda arity: hochschild_b_vector(dga, {}, arity=arity),
                 lambda arity: hh_truncated(dga, -3, 3, arity=arity),
                 lambda arity: hh_truncated(dga, 50, 3, arity=arity)):
        with pytest.raises(ValueError, match="'subscript', got "
                                             "'Argument_count'"):
            call("Argument_count")
    assert hh_truncated(dga, -3, 3).summary == \
        HomologySummary(-3, 8, (2,) * 12)


def test_random_dga_tables_are_pinned():
    # the degree, product and differential tables of seeds 0-199, in
    # insertion order: 3 or 4 vertices, so at most 3 short and 2 long edges
    h = sha256()
    for seed in range(200):
        dga = random_dga(seed)
        h.update(repr((dga.degrees, dga.product, dga.differential)).encode())
    assert h.hexdigest() == ("69d4c675472b2d87f06a4e1abd114914"
                             "110ab862ab326321c6b6b27be4f1ea0a")


def test_differential_raises_word_degree_by_one():
    dga = random_dga(2)
    gens = dga.basis()
    rng = Random(0)
    for _ in range(40):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        n = word_degree(dga, word)
        for out in hochschild_b(dga, word):
            assert word_degree(dga, out) == n + 1


def test_differential_never_raises_weight():
    dga = random_dga(3)
    gens = dga.basis()
    rng = Random(1)
    for _ in range(40):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        w = sum(map(dga.weight, word))
        for out in hochschild_b(dga, word):
            assert sum(map(dga.weight, out)) <= w


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 200), st.integers(0, 10_000))
def test_b_squared_vanishes_on_random_dgas(seed, wordseed):
    dga = random_dga(seed)
    check_table_dga(dga)
    gens = dga.basis()
    assert len(gens) <= 7
    rng = Random(wordseed)
    for _ in range(5):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        assert hochschild_b_vector(dga, hochschild_b(dga, word)) == {}


def test_b_squared_two_hundred_words():
    rng = Random(20)
    dgas = [random_dga(seed) for seed in range(5)]
    for dga in dgas:
        check_table_dga(dga)
    for i in range(200):
        dga = dgas[i % 5]
        gens = dga.basis()
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        assert hochschild_b_vector(dga, hochschild_b(dga, word)) == {}


def test_degenerate_words_stay_degenerate():
    # unit in a non-special slot: the normalized projection of b is zero,
    # so degenerate words span a subcomplex and the quotient is honest
    class WithUnit:
        def __init__(self, dga):
            self.dga = dga

        def degree(self, x):
            return 0 if x == "1" else self.dga.degree(x)

        def weight(self, x):
            return 0 if x == "1" else self.dga.weight(x)

        def unit(self):
            return "1"

        def mu1(self, x):
            return {} if x == "1" else self.dga.mu1(x)

        def mu2(self, x2, x1):
            if x1 == "1":
                return {x2: 1}
            if x2 == "1":
                return {x1: (-1) ** (self.dga.degree(x1) % 2)}
            return self.dga.mu2(x2, x1)

    alg = WithUnit(random_dga(4))
    gens = alg.dga.basis()
    rng = Random(9)
    for _ in range(50):
        d = rng.randint(2, 4)
        word = [rng.choice(gens) for _ in range(d)]
        word[rng.randint(1, d - 1)] = "1"
        word = tuple(word)
        assert is_degenerate(alg, word)
        assert hochschild_b(alg, word, normalize=True) == {}


# -- classical oracle ---------------------------------------------------------

def test_degree_zero_dictionary_against_classical_operator():
    # in degree zero the textbook operator is convention-free; the package
    # differs by bar-part reversal and one global sign
    degrees = {"x": 0, "y": 0, "z": 0, "w": 0}
    product = {("x", "y"): {"z": 1}, ("y", "x"): {"w": 1},
               ("x", "x"): {"x": 1}, ("z", "x"): {"w": 2}}
    dga = TableDGA(degrees, product, {})
    rng = Random(11)
    gens = list(degrees)
    for _ in range(200):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 5)))
        mine = hochschild_b(dga, word, normalize=False)
        cl = classical_cyclic_b(dga, rev(word))
        assert mine == {rev(k): -c for k, c in cl.items()}


def test_classical_oracle_squares_to_zero():
    # the square of the cyclic operator vanishes only over an associative
    # product, so this uses a path algebra on a -> b -> c
    degrees = dict.fromkeys(("a", "b", "c", "ab", "bc", "abc"), 0)
    product = {("a", "b"): {"ab": 1}, ("b", "c"): {"bc": 1},
               ("a", "bc"): {"abc": 1}, ("ab", "c"): {"abc": 1}}
    dga = TableDGA(degrees, product, {})
    rng = Random(12)
    gens = list(degrees)
    for _ in range(100):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 5)))
        assert classical_b_squared(dga, word) == {}


def test_graded_length_two_spot_values():
    # frozen small graded cases over du = v; note the two images of (u, u)
    # cancel under one more differential, as they must
    dga = square_zero()
    assert hochschild_b(dga, ("v", "u")) == {("v", "v"): 1}
    assert hochschild_b(dga, ("u", "u")) == {("u", "v"): 1, ("v", "u"): 1}
    assert hochschild_b(dga, ("u", "v")) == {("v", "v"): -1}
    assert hochschild_b(dga, ("v", "v")) == {}


# -- table algebras -----------------------------------------------------------

def test_selfcheck_catches_broken_leibniz():
    # d(x.x) = dx = y, but dx.x and x.dx both vanish
    bad = TableDGA({"x": 0, "y": 1},
                   {("x", "x"): {"x": 1}},
                   {"x": {"y": 1}})
    with pytest.raises(AssertionError, match="Leibniz"):
        check_table_dga(bad)


def test_selfcheck_catches_broken_differential():
    bad = TableDGA({"x": 0, "y": 1, "z": 2}, {},
                   {"x": {"y": 1}, "y": {"z": 1}})
    with pytest.raises(AssertionError, match="d.d"):
        check_table_dga(bad)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 500))
def test_random_dgas_are_honest(seed):
    dga = random_dga(seed)
    assert check_table_dga(dga)
    assert 1 <= len(dga.basis()) <= 7


# -- morphisms ----------------------------------------------------------------

def test_identity_extension_is_identity():
    dga = square_zero()
    ident = identity_morphism(dga)
    for word in [("u",), ("v", "u"), ("u", "v", "v")]:
        assert cc_of_morphism(ident, word) == {word: 1}


def cc_of_morphism_vector(morphism, vector):
    out = {}
    for word, c in vector.items():
        _axpy(out, cc_of_morphism(morphism, word, c), 1)
    return out


def test_strict_map_extension_is_a_chain_map():
    dga = random_dga(1)
    ident = identity_morphism(dga)
    gens = dga.basis()
    rng = Random(3)
    for _ in range(40):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        lhs = cc_of_morphism_vector(ident, hochschild_b(dga, word))
        rhs = hochschild_b_vector(dga, cc_of_morphism(ident, word))
        assert lhs == rhs


def test_two_level_morphism_extension_is_a_chain_map():
    # F1 = id and a full F2 table on the square-zero algebra; the functor
    # equation forces the three entries to match, and the extension must
    # then commute with the differentials on every word
    dga = square_zero()
    table = {("v", "u"): {"u": 1}, ("u", "v"): {"u": 1}, ("v", "v"): {"v": 1}}
    F = Morphism(dga, dga, {
        1: lambda args: {args[0]: 1},
        2: lambda args: dict(table.get(args, {})),
    })
    for d in (1, 2, 3):
        for word in iproduct(("u", "v"), repeat=d):
            lhs = cc_of_morphism_vector(F, hochschild_b(dga, word))
            rhs = hochschild_b_vector(dga, cc_of_morphism(F, word))
            assert vec_sub(lhs, rhs) == {}, word


def test_missing_components_are_zero():
    dga = square_zero()
    F = Morphism(dga, dga, {})
    assert F.apply(1, ("u",)) == {}
    assert cc_of_morphism(F, ("u", "v")) == {}


# -- bounded words ------------------------------------------------------------

def brute_force_words(weights, max_weight, max_len):
    """Every tuple over the alphabet of length up to max_len (or the cap,
    enough since weights are >= 1) and weight <= max_weight."""
    longest = max_weight if max_len is None else max_len
    return {w for n in range(longest + 1)
            for w in iproduct(sorted(weights), repeat=n)
            if sum(weights[x] for x in w) <= max_weight}


@pytest.mark.parametrize("weights", [
    {"a": 1},
    {"a": 1, "b": 2},
    {"a": 3, "b": 1, "c": 2, "d": 1},
    {"x": 2, "y": 5},
    {},
])
def test_bounded_words_match_brute_force(weights):
    # the words come in depth-first preorder over the letters as given:
    # sorted for sorted letters, and sorted by letter position otherwise
    backwards = sorted(weights, reverse=True)
    position = {x: i for i, x in enumerate(backwards)}
    for max_weight in range(-1, 6):
        for max_len in (None, 0, 1, 2, 3):
            got = list(bounded_words(sorted(weights), weights.get,
                                     max_weight, max_len))
            assert len(got) == len(set(got))
            assert set(got) == brute_force_words(weights, max_weight,
                                                 max_len)
            assert got == sorted(got)
            if got:
                assert got[0] == ()
            got = list(bounded_words(backwards, weights.get, max_weight,
                                     max_len))
            assert got == sorted(got, key=lambda w: [position[x] for x in w])


# a weight per letter and the letters in some order
WEIGHTED_LETTERS = st.dictionaries(
    st.sampled_from("abcdefg"), st.integers(1, 4), max_size=4).flatmap(
        lambda weights: st.tuples(st.just(weights),
                                  st.permutations(sorted(weights))))


@settings(deadline=None, max_examples=150)
@given(WEIGHTED_LETTERS, st.integers(-1, 6),
       st.one_of(st.none(), st.integers(0, 4)))
def test_bounded_words_come_in_exact_preorder(drawn, max_weight, max_len):
    # preorder over the letters as given is the order of their position
    # lists: a word before its extensions, an earlier letter first
    weights, letters = drawn
    position = {x: i for i, x in enumerate(letters)}
    got = list(bounded_words(letters, weights.get, max_weight, max_len))
    assert got == sorted(brute_force_words(weights, max_weight, max_len),
                         key=lambda w: [position[x] for x in w])


@settings(deadline=None, max_examples=150)
@given(WEIGHTED_LETTERS, st.integers(-1, 6),
       st.one_of(st.none(), st.integers(0, 4)))
@example(({"a": 1, "b": 2}, ["b", "a"]), 6, None)  # room-leafy batches
@example(({"a": 1, "b": 1, "c": 3}, ["c", "a", "b"]), 6, 3)  # max_len's
def test_the_last_shorter_word_is_each_words_prefix(drawn, max_weight,
                                                     max_len):
    # LoopAlgebra.basis and cyclic_words carry a word's degree from its
    # prefix, so leaf batches must keep the invariant too
    weights, letters = drawn
    last = {}  # length -> (position, last word of that length)
    for position, word in enumerate(bounded_words(letters, weights.get,
                                                  max_weight, max_len)):
        if word:
            shorter = max(v for n, v in last.items() if n < len(word))
            assert shorter[1] == word[:-1], (shorter, word)
        last[len(word)] = position, word


# a grade per letter, negative, zero or positive, beside the weights
GRADED_LETTERS = WEIGHTED_LETTERS.flatmap(
    lambda drawn: st.tuples(st.just(drawn), st.fixed_dictionaries(
        {x: st.integers(-2, 2) for x in drawn[0]})))


@settings(deadline=None, max_examples=150)
@given(GRADED_LETTERS, st.integers(-1, 6))
# room-leafy batches, as in the prefix test; then batches of three
# letters in two grade classes, one split by a letter of the other
@example((({"a": 1, "b": 2}, ["b", "a"]), {"a": 1, "b": -1}), 6)
@example((({"a": 2, "b": 3, "c": 2}, ["c", "a", "b"]),
          {"a": -1, "b": 1, "c": 1}), 6)
@example((({"a": 1, "b": 1, "c": 3}, ["c", "a", "b"]),
          {"a": 0, "b": 0, "c": -2}), 6)
def test_graded_words_file_bounded_words_by_grade(drawn, max_weight):
    # each bucket is bounded_words' preorder restricted to one grade sum,
    # and the grade sums come in the order that preorder first meets them
    (weights, letters), grades = drawn
    words = list(bounded_words(letters, weights.get, max_weight))
    sums = [sum(grades[x] for x in w) for w in words]
    got = hochschild._graded_words(letters, weights.get, grades.get,
                                   max_weight)
    assert list(got) == list(dict.fromkeys(sums))
    for g, bucket in got.items():
        assert bucket == [w for w, s in zip(words, sums) if s == g], g
    assert sum(map(len, got.values())) == len(words)


def test_bounded_words_is_lazy():
    # an iterator, checked before anything is drawn: an eager
    # bounded_words fails here instead of building 2^41 words
    words = bounded_words(["a", "b"], lambda x: 1, 40)
    assert iter(words) is words
    assert next(words) == ()
    assert len(next(words)) == 1


def test_bounded_words_is_lazy_at_leafy_nodes():
    # every child of the root is a leaf under max_len 1
    words = bounded_words(["a", "b"], lambda x: 1, 40, max_len=1)
    assert iter(words) is words
    assert next(words) == ()
    assert list(words) == [("a",), ("b",)]
    # a^39 is the first node with room for one letter only; the words
    # after its batch still come one at a time out of 2^41 - 1
    words = bounded_words(["a", "b"], lambda x: 1, 40)
    assert iter(words) is words
    head = list(islice(words, 45))
    a, b = ("a",), ("b",)
    assert head[:41] == [a * n for n in range(41)]
    assert head[41:] == [a * 39 + b, a * 38 + b, a * 38 + b + a,
                         a * 38 + b + b]


def test_weight_zero_letter_is_rejected():
    with pytest.raises(ValueError, match="weight >= 1"):
        list(bounded_words(["a", "b"], {"a": 1, "b": 0}.get, 2))
    with pytest.raises(ValueError, match="weight >= 1"):
        hochschild._graded_words(["a", "b"], {"a": 1, "b": 0}.get,
                                 {"a": 0, "b": 1}.get, 2)
    dga = TableDGA({"u": 0, "v": 1}, {}, {"u": {"v": 1}},
                   weights={"u": 0, "v": 1})
    with pytest.raises(ValueError, match="weight >= 1"):
        cyclic_words(dga, 2)
    with pytest.raises(ValueError, match="weight >= 1"):
        hh_truncated(dga, 0, 2)


# -- truncated homology -------------------------------------------------------

def point_algebra():
    from loopchains.cobarloop import LoopAlgebra
    from loopchains.simpcx import SimplicialComplex, collapse
    point = SimplicialComplex(name="point", vertices=(0,), facets=())
    return LoopAlgebra(collapse(point))


def loop_algebra(name):
    from loopchains.cobarloop import LoopAlgebra
    from loopchains.simpcx import collapse, load_complex
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    return LoopAlgebra(collapse(load_complex(root / "fixtures"
                                             / f"{name}.json")))


def circle_algebra():
    return loop_algebra("s1_3")


def test_cyclic_words_keep_the_order_of_the_decoded_slot_reprs():
    # the loop algebra's elements are code words, whose reprs sort apart
    # from those of the words they stand for; the enumeration must keep
    # the order of the decoded reprs, pinned from before letters were
    # coded: sha256 of the decoded words, one repr a line
    alg = loop_algebra("rp2")
    words = [tuple(map(alg.decode, w)) for w in cyclic_words(alg, 3)]
    assert len(words) == 9241
    assert sha256("\n".join(map(repr, words)).encode()).hexdigest() == \
        "001d6b144bdabfd220c29e5cfb330ba66068005302d13db4a5836b5384de798a"


def _bar_digest(alg, vector):
    """sha256 of each (word, coeff) of ``vector`` and its b, decoded, one
    line per word, the terms in the order b gives them."""
    h = sha256()

    def decode(word):
        return tuple(map(alg.decode, word))
    for word, c in vector:
        terms = [(decode(t), x) for t, x in hochschild_b(alg, word, c).items()]
        h.update(f"{decode(word)!r} {c}: {terms!r}\n".encode())
    return h.hexdigest()


# pinned before the loop algebra's tables moved onto its alphabet and b
# stopped listing its term families
HH_CAPPED_DIGESTS = (
    ("s1_3", 3, 10,
     "aeb81a00315cc4f1a6d9a7ba6d880f06a5c9d9669f4f1780d29eb6df792c0bc6"),
    ("boundary_delta3", 3, 170,
     "f8e9b00423bf78c59571c4e44a45af5d9a0d6a9eb2095b767349dcee55e38dc9"),
    ("boundary_delta3", 4, 683,
     "783220f9c7dffa353ea3ef92ed14fd82e18c448f16a1dcc8bdbae06d184e5b7f"),
    ("torus_7", 2, 720,
     "5337c49b0900339c50549b54a27200494f96b1a64255f934d023701e016d3e5a"),
    ("rp2", 2, 331,
     "2c71c6dfccc6a15584dbdfa09066f112ea82feaf390fa34f0a825ce4a20f8d58"),
)
T_IMAGE_DIGESTS = {
    "s1_3": "202b6f06b051e19523ff321c5e444e37197ed4443652b6d2afb041b35afceb32",
    "boundary_delta3":
        "b51265ccfa9036ed11d218712310488b2ce9460cf3ba39e624f0abde6f9f17c8",
    "torus_7":
        "99324f9f3e1f6121f8e69c53591a2b2910591935193aa0d727ae3905fa37a2d2",
    "rp2": "9bcae7c92dbc07c659413c9ee6f0239329052e0b7540827ddca3a8fcf0e6a6f0",
}


@pytest.mark.parametrize("name, cap, count, digest", HH_CAPPED_DIGESTS)
def test_hh_capped_words_and_boundaries_are_pinned(name, cap, count, digest):
    # the words hh_truncated enumerates at degree 0 and their b
    alg = loop_algebra(name)
    words = cyclic_words(alg, cap, range(-1, 2))
    assert len(words) == count
    assert _bar_digest(alg, [(w, 1) for w in words]) == digest


@pytest.mark.parametrize("name", sorted(T_IMAGE_DIGESTS))
def test_t_image_boundaries_are_pinned(name):
    from loopchains.cobarloop import adams_T
    alg = loop_algebra(name)
    vector = [item for cell in alg.cc.cells() if len(cell) > 1
              for item in adams_T(alg.cc, cell).items()]
    assert _bar_digest(alg, vector) == T_IMAGE_DIGESTS[name]


def test_g_word_boundaries_are_pinned():
    # the rp2 words the G check reads, the empty word read as the unit
    alg = loop_algebra("rp2")
    words = [w or (alg.unit(),)
             for w in bounded_words(alg.basis(3), alg.weight, 3, 2)]
    assert len(words) == 3621
    assert _bar_digest(alg, [(w, 1) for w in words]) == \
        "922634f198a5d023a5e8b1b70bb2630e840811361b240abd6878e2b0a9bdff71"


def test_cyclic_word_enumeration_on_the_circle():
    alg = circle_algebra()
    words = cyclic_words(alg, 3, degree=0)
    assert len(words) == 4  # unit and the three powers of the generator
    assert ((),) in words
    assert all(len(w) == 1 for w in words)


def test_circle_truncated_rank_is_cap_plus_one():
    alg = circle_algebra()
    for cap in (1, 2, 3):
        t = hh_truncated(alg, 0, cap)
        assert t.summary.rank == cap + 1
        assert t.summary.torsion == ()
        assert not t.stabilized  # the rank moves with every cap


def test_trivial_algebra_has_rank_one():
    t = hh_truncated(point_algebra(), 0, 2)
    assert t.summary.rank == 1
    assert t.summary.torsion == ()
    assert t.stabilized


def test_weight_not_closed_is_an_error():
    dga = TableDGA({"u": 0, "v": 1}, {}, {"u": {"v": 1}},
                   weights={"u": 1, "v": 2})
    with pytest.raises(ValueError, match="not closed"):
        hh_truncated(dga, 0, 1)


def _cyclic_word_cases():
    from loopchains.freeloop import CircleWordAlgebra
    # torus_7 stops at cap 2: at cap 3 the per-special reference takes
    # 19 s on a 2-vCPU Xeon host
    for name, top in (("s1_3", 3), ("boundary_delta3", 3), ("torus_7", 2),
                      ("rp2", 3)):
        yield name, loop_algebra(name), range(top + 1)
    # 10, 11, 16 and 21 are the first seeds with an element of degree 2,
    # whose tail slots raise a word's degree
    for seed in (*range(10), 10, 11, 16, 21):
        yield f"random_dga({seed})", random_dga(seed), range(5)
    for strict in (False, True):
        yield (f"CircleWordAlgebra(strict={strict})",
               CircleWordAlgebra(strict=strict), range(5))
    yield "UncappedBasis", UncappedBasis(), range(5)
    yield "LighterSource", LighterSource(), range(5)


def test_a_degree_two_slot_reaches_above_the_top_slot_degree():
    # random_dga(10) has p02 of degree 2; degree 4 lies above every
    # slot's degree, and the words that reach it carry p02 in a tail slot
    dga = random_dga(10)
    assert max(map(dga.degree, dga.basis())) == 2
    assert hh_truncated(dga, 4, 3).summary == HomologySummary(4, 0, (2,))
    assert hh_truncated(dga, 4, 4).summary == HomologySummary(4, 0, (2,) * 11)


Z, Z_Z2, Z2 = (1, ()), (1, (2,)), (0, (2,))
# H^k(LS^n; Z) for k <= 12, zero where not listed: Ziller (1977) for the
# ranks, Cohen-Jones-Yan (2003) for the 2-torsion of the even spheres
LOOP_SPHERE_COHOMOLOGY = {
    2: {0: Z, 1: Z, **{k: Z if k % 2 == 0 else Z_Z2 for k in range(2, 13)}},
    3: {0: Z, **{k: Z for k in range(2, 13)}},
    4: {0: Z, 3: Z, 4: Z, 7: Z2, 9: Z, 10: Z},
    5: {0: Z, 4: Z, 5: Z, 8: Z, 9: Z, 12: Z},
}


def test_formal_sphere_cochains_give_the_free_loop_cohomology():
    # Jones (1987): HH_*(C^*S^n) = H^*(LS^n), and C^*(S^n; Z) is formal
    for n, table in LOOP_SPHERE_COHOMOLOGY.items():
        algebra = SphereCochains(n)
        for k in range(13):
            summary = hh_truncated(algebra, k, 12).summary
            assert (summary.rank, summary.torsion) == table.get(k, (0, ())), \
                (n, k)


class UncappedBasis(TableDGA):
    """A basis that ignores the cap and holds an element heavier than
    the cap plus one: it must still give no word past the cap."""

    def __init__(self):
        super().__init__({"a": 0, "b": -1}, {}, {},
                         weights={"a": 1, "b": 3})

    def basis(self, max_weight=None):
        return super().basis()


def test_cyclic_words_match_the_per_special_reference():
    for label, algebra, caps in _cyclic_word_cases():
        with pytest.raises(ValueError, match="got -1"):
            cyclic_words(algebra, -1)
        for cap in caps:
            want = per_special_cyclic_words(algebra, cap)
            assert cyclic_words(algebra, cap) == want, (label, cap)
            degrees = [word_degree(algebra, w) for w in want]
            for degree in sorted(set(degrees)) + [7]:  # 7: no word
                assert cyclic_words(algebra, cap, degree=degree) == \
                    [w for w, n in zip(want, degrees) if n == degree], \
                    (label, cap, degree)
            # degree windows: every degree in them, in the same order
            windows = [range(n - 1, n + 2) for n in sorted(set(degrees))]
            windows += [range(min(degrees, default=0) - 1,
                              max(degrees, default=0) + 2),
                        range(-1, 4, 2), range(6, 9), range(0, 0)]
            for window in windows:
                assert cyclic_words(algebra, cap, degree=window) == \
                    [w for w, n in zip(want, degrees) if n in window], \
                    (label, cap, window)


class CountingBasis(TableDGA):
    """random_dga(3), counting its basis calls."""

    def __init__(self):
        dga = random_dga(3)
        super().__init__(dga.degrees, dga.product, dga.differential)
        self.basis_calls = 0

    def basis(self, max_weight=None):
        self.basis_calls += 1
        return super().basis(max_weight)


def test_hh_truncated_enumerates_once(monkeypatch):
    calls = []
    enumerate_ = hochschild.cyclic_words

    def counting(*args, **kwargs):
        calls.append(kwargs.get("degree"))
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(hochschild, "cyclic_words", counting)
    for degree in range(-2, 3):
        for cap in range(4):
            calls.clear()
            algebra = CountingBasis()
            hh_truncated(algebra, degree, cap)
            assert calls == [range(degree - 1, degree + 2)]
            assert algebra.basis_calls == 1


class LighterSource(TableDGA):
    """u differentiates into the heavier v: a cap of 2 holds both, and a
    cap of 1 holds u without its boundary, so a cap-2 complex can be
    closed while its lower cap is not."""

    def __init__(self):
        super().__init__({"u": 0, "v": 1}, {}, {"u": {"v": 1}},
                         weights={"u": 1, "v": 2})


def test_a_lower_cap_that_is_not_a_subcomplex_is_an_error():
    algebra = LighterSource()
    FreeComplex.from_basis(bucketed_layers(algebra, 1, 2), lambda w:
                           hochschild_b(algebra, w))  # the cap is closed
    with pytest.raises(ValueError) as got:
        hh_truncated(algebra, 1, 2)
    with pytest.raises(ValueError) as want:
        bucketed_hh_truncated(algebra, 1, 2)
    assert str(got.value) == str(want.value)
    assert "('u',) in degree 0 maps to ('v',)" in str(got.value)


def test_a_negative_weight_cap_is_refused():
    alg = circle_algebra()
    for degree in (None, 0, 1):
        with pytest.raises(ValueError, match="weight cap must be at least "
                                             "0, got -1"):
            cyclic_words(alg, -1, degree)
    with pytest.raises(ValueError, match="weight cap must be at least "
                                         "0, got -1"):
        hh_truncated(alg, 0, -1)
    with pytest.raises(ValueError, match="got -2"):
        hh_truncated(random_dga(0), 0, -2)
    # a cap that is not an int is refused by name, bool included
    for cap in (True, False, 2.5):
        with pytest.raises(ValueError, match=f"weight cap must be an int, "
                                             f"got {cap!r}"):
            cyclic_words(alg, cap)
        with pytest.raises(ValueError, match=f"got {cap!r}"):
            hh_truncated(alg, 0, cap)


def test_hh_truncated_matches_the_bucketed_reference(monkeypatch):
    # the layers hh_truncated hands to the homology step, in call order:
    # the cap's, then the lower cap's when the cap is at least 1
    seen = []
    at = hochschild._hh_at

    def record(algebra, degree, layers, arity):
        seen.append(layers)
        return at(algebra, degree, layers, arity)

    def outcome(truncated, algebra, degree, cap):
        # the non-strict circle's sigma is lighter than its boundary, so
        # some of its caps are not subcomplexes: both sides must say so
        try:
            t = truncated(algebra, degree, cap)
        except ValueError as e:
            return str(e)
        return t.summary, t.stabilized

    monkeypatch.setattr(hochschild, "_hh_at", record)
    for label, algebra, caps in _cyclic_word_cases():
        for cap in caps:
            # one enumeration of the cap serves every degree: those the
            # words reach, and one past each end (-1..1 when there is no
            # word), which checks the degree window that cyclic_words cuts
            by_degree = words_by_degree(algebra, cap)
            for degree in range(min(by_degree, default=0) - 1,
                                max(by_degree, default=0) + 2):
                seen.clear()
                got = outcome(hh_truncated, algebra, degree, cap)
                want = outcome(partial(bucketed_hh_truncated,
                                       by_degree=by_degree),
                               algebra, degree, cap)
                layers = bucketed_layers(algebra, degree, cap, by_degree)
                case = (label, cap, degree)
                # the same words in the same order, under the same keys
                assert list(seen[0].items()) == list(layers.items()), case
                assert got == want, case


def test_hochschild_b_matches_the_signkoszul_reference():
    from loopchains.freeloop import CircleWordAlgebra
    cases = [(f"random_dga({seed})", random_dga(seed), 3) for seed in range(10)]
    cases += [(f"CircleWordAlgebra(strict={strict})",
               CircleWordAlgebra(strict=strict), 3) for strict in (False, True)]
    # torus_7 stops at cap 2, as in the test above: at cap 3 its 29,639
    # words take 10 s on a 2-vCPU Xeon host
    cases += [(name, loop_algebra(name), cap)
              for name, cap in (("s1_3", 3), ("boundary_delta3", 3),
                                ("torus_7", 2), ("rp2", 3))]
    for label, algebra, cap in cases:
        words = cyclic_words(algebra, cap)
        unit = algebra.unit()
        if unit is not None:
            # the words with the unit in the special slot are among them;
            # add every fifth word once more with the unit put into one
            # of its other slots, a different one from word to word, so
            # that the full degeneracy test of a degenerate input is
            # checked too
            assert any(w[0] == unit for w in words), label
            words += [w[:k] + (unit,) + w[k:]
                      for n, w in enumerate(words[::5])
                      for k in [1 + n % len(w)]]
        for word in words:
            for arity in ("argument_count", "subscript"):
                for normalize in (True, False):
                    kw = {"arity": arity, "normalize": normalize}
                    got = hochschild_b(algebra, word, -2, **kw)
                    want = signkoszul_hochschild_b(algebra, word, -2, **kw)
                    # same terms in the same order
                    assert list(got.items()) == list(want.items()), \
                        (label, word, arity, normalize)
