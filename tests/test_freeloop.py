import pathlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from loopchains.cobarloop import Alphabet, BoundaryUndefinedError, LoopAlgebra
from loopchains.conventions import CHOICES, DEFAULT
from loopchains.freeloop import (
    GAMMA, GAMMA_INV, SIGMA, CircleWordAlgebra, basepoint_degree,
    g_residual, g_residuals, goodwillie_G, loop_boundary,
    normalize, s1_example, verify_G_chain_map,
)
from loopchains.hochschild import (bounded_words, cyclic_words, hochschild_b,
                                   word_degree)
from loopchains.simpcx import collapse, load_complex

from oracle_words import (dict_goodwillie_G, dict_loop_boundary,
                          dict_normalize, sorted_basis)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the letters the words below are written in, as their codes in the
# 2-sphere model's alphabet: the loop algebra takes code words
T12, T13, T23, T123, Q012 = map(
    Alphabet(collapse(load_complex(FIXTURES / "boundary_delta3.json"))).codes
    .__getitem__, (("tau", (1, 2)), ("tau", (1, 3)), ("tau", (2, 3)),
                   ("tau", (1, 2, 3)), ("tau", (0, 1, 2))))

IN_BOUNDARY = DEFAULT.flip("iota_twist")


@pytest.fixture(scope="module")
def circle_alg():
    return LoopAlgebra(collapse(load_complex(FIXTURES / "s1_3.json")))


@pytest.fixture(scope="module")
def sphere_alg():
    return LoopAlgebra(collapse(load_complex(FIXTURES / "boundary_delta3.json")))


# -- generators and normal form ------------------------------------------------

def test_generator_degrees(sphere_alg):
    # iota(w) has the degree of w, wedge(w1, w2) has |w1| + |w2| - 1, and
    # G keeps the cyclic bar degree of every word it does not kill
    def degree(gen):
        if gen[0] == "iota":
            return sphere_alg.degree(gen[1])
        return sphere_alg.degree(gen[1]) + sphere_alg.degree(gen[2]) - 1

    assert degree(("iota", (T12, T123))) == -1
    assert degree(("wedge", (T123,), (T123,))) == -3
    assert degree(("wedge", (), (T12,))) == -1
    for word in cyclic_words(sphere_alg, 3):
        n = word_degree(sphere_alg, word)
        assert all(degree(gen) == n for gen in goodwillie_G(sphere_alg, word))


def test_normalize_splits_cargo_to_single_letters(sphere_alg):
    out = normalize(sphere_alg, {("wedge", (T123,), (T12, T13)): 1})
    assert out == {
        ("wedge", (T123, T12), (T13,)): 1,
        ("wedge", (T13, T123), (T12,)): 1,
    }


def test_normalize_is_idempotent(sphere_alg):
    chain = normalize(sphere_alg, {("wedge", (T12,), (T123, T13, T12)): 1,
                                   ("iota", (T12,)): 3})
    assert normalize(sphere_alg, chain) == chain


def test_normalize_split_holds_for_any_cut(sphere_alg):
    # the relation splits the cargo at a letter boundary; cutting off a
    # two-letter head agrees with iterating the single-letter rule
    a, u, v = (T123,), (T12, T13), (T23,)
    whole = normalize(sphere_alg, {("wedge", a, u + v): 1})
    du = sphere_alg.degree(u) % 2
    dv = sphere_alg.degree(v) % 2
    da = sphere_alg.degree(a) % 2
    e2 = (-1) ** (dv * (da + du) % 2)
    parts = {}
    for gen, c in ((("wedge", a + u, v), 1), (("wedge", v + a, u), e2)):
        for k, cc in normalize(sphere_alg, {gen: c}).items():
            parts[k] = parts.get(k, 0) + cc
    assert whole == parts


def test_normalize_drops_constant_cargo_keeps_constant_first_slot(sphere_alg):
    assert normalize(sphere_alg, {("wedge", (T12,), ()): 1}) == {}
    kept = {("wedge", (), (T12,)): 1}
    assert normalize(sphere_alg, kept) == kept


def test_twist_location_moves_the_split_sign(sphere_alg):
    gen = {("wedge", (T123,), (T12, Q012)): 1}
    assert normalize(sphere_alg, gen) == {
        ("wedge", (T123, T12), (Q012,)): 1,
        ("wedge", (Q012, T123), (T12,)): -1,
    }
    assert normalize(sphere_alg, gen, IN_BOUNDARY) == {
        ("wedge", (T123, T12), (Q012,)): 1,
        ("wedge", (Q012, T123), (T12,)): 1,
    }


# -- the boundary ---------------------------------------------------------------

def test_boundary_of_odd_even_wedge(sphere_alg):
    out = loop_boundary(sphere_alg, {("wedge", (T123,), (T12,)): 1})
    assert out == {
        ("wedge", (T12, T23), (T12,)): 1,    # d on the first slot
        ("wedge", (T13,), (T12,)): -1,
        ("iota", (T123, T12)): -1,           # closing faces
        ("iota", (T12, T123)): 1,
    }


def test_boundary_of_even_odd_wedge_splits_its_cargo(sphere_alg):
    out = loop_boundary(sphere_alg, {("wedge", (T12,), (T123,)): 1})
    assert out == {
        ("wedge", (T12, T12), (T23,)): 1,    # d on the cargo, then split
        ("wedge", (T23, T12), (T12,)): 1,
        ("wedge", (T12,), (T13,)): -1,
        ("iota", (T12, T123)): -1,
        ("iota", (T123, T12)): 1,
    }


def test_boundary_on_iota_is_letterwise(sphere_alg):
    from loopchains.cobarloop import word_boundary
    w = (T123, T12)
    out = loop_boundary(sphere_alg, {("iota", w): 1})
    assert out == {("iota", k): v
                   for k, v in word_boundary(sphere_alg.cc, w).items()}


def test_constant_first_slot_faces_cancel(sphere_alg):
    out = loop_boundary(sphere_alg, {("wedge", (), (T123,)): 1})
    # both closing faces read the same composite loop and cancel; only
    # the cargo differential survives
    assert out == {
        ("wedge", (T12,), (T23,)): 1,
        ("wedge", (T23,), (T12,)): 1,
        ("wedge", (), (T13,)): -1,
    }


def test_boundary_squares_to_zero(sphere_alg):
    rng = Random(5)
    slots = sphere_alg.basis(3)
    for _ in range(100):
        w1 = rng.choice([*slots, ()])
        w2 = rng.choice(slots) + rng.choice(((), rng.choice(slots)))
        gen = normalize(sphere_alg, {("wedge", w1, w2): 1})
        dd = loop_boundary(sphere_alg, loop_boundary(sphere_alg, gen))
        assert dd == {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_boundary_squares_to_zero_either_twist(sphere_alg, data):
    slots = sphere_alg.basis(2)
    w1 = sum((data.draw(st.sampled_from(slots))
              for _ in range(data.draw(st.integers(0, 2)))), ())
    w2 = data.draw(st.sampled_from(slots))
    conv = data.draw(st.sampled_from([DEFAULT, IN_BOUNDARY]))
    gen = normalize(sphere_alg, {("wedge", w1, w2): 1}, conv)
    assert loop_boundary(
        sphere_alg, loop_boundary(sphere_alg, gen, conv), conv) == {}


def test_corner_obstruction_propagates(sphere_alg):
    q = ("pi3", (0, 1), (1, 2), (2, 1, 0))
    with pytest.raises(BoundaryUndefinedError, match="corner"):
        loop_boundary(sphere_alg, {("wedge", (q,), (T12,)): 1})


# -- the comparison map ---------------------------------------------------------

def test_G_spot_values(sphere_alg):
    assert goodwillie_G(sphere_alg, ((T123,),)) == {("iota", (T123,)): -1}
    assert goodwillie_G(sphere_alg, ((T12, T13),)) == {("iota", (T12, T13)): 1}
    assert goodwillie_G(sphere_alg, ((T123,), (T12,))) == {
        ("wedge", (T123,), (T12,)): -1}
    assert goodwillie_G(sphere_alg, ((T12,), (T12,), (T12,))) == {}


def test_G_twist_sits_in_G_or_in_the_boundary(sphere_alg):
    odd_odd = ((T123,), (Q012,))
    assert goodwillie_G(sphere_alg, odd_odd) == {
        ("wedge", (T123,), (Q012,)): 1}
    assert goodwillie_G(sphere_alg, odd_odd, IN_BOUNDARY) == {
        ("wedge", (T123,), (Q012,)): -1}


def test_G_keeps_the_unit_special_slot(sphere_alg):
    assert goodwillie_G(sphere_alg, ((), (T12,))) == {
        ("wedge", (), (T12,)): -1}


def test_chain_map_verifies_on_the_circle(circle_alg):
    v = verify_G_chain_map(circle_alg)
    assert v.ok
    assert v.words_checked == 8
    assert v.failures == {}


def test_chain_map_verifies_on_the_sphere(sphere_alg):
    v = verify_G_chain_map(sphere_alg)
    assert v.ok
    assert v.words_checked == 182


def test_both_twist_packages_verify(circle_alg, sphere_alg):
    assert verify_G_chain_map(circle_alg, IN_BOUNDARY).ok
    assert verify_G_chain_map(sphere_alg, IN_BOUNDARY).ok


def test_face_sign_flips_break_even_the_circle(circle_alg):
    for axis in ("wedge_sign_cat", "wedge_sign_swap"):
        assert not verify_G_chain_map(circle_alg, DEFAULT.flip(axis)).ok


def test_slot_sign_flips_need_open_slots_to_show(circle_alg, sphere_alg):
    # the circle has one closed letter and a commutative concatenation,
    # so these three flips are invisible there; the sphere sees them
    for axis in ("wedge_sign_left", "wedge_sign_right", "g_parity_s"):
        conv = DEFAULT.flip(axis)
        assert verify_G_chain_map(circle_alg, conv).ok
        assert not verify_G_chain_map(sphere_alg, conv).ok


G_AXES = tuple(name for name in CHOICES if CHOICES[name][1] == "freeloop")


@pytest.mark.parametrize("axis", (None,) + G_AXES)
def test_residual_generator_matches_the_verifier(axis):
    conv = DEFAULT if axis is None else DEFAULT.flip(axis)
    failing = 0
    for name, caps, count in (("s1_3", {}, 8), ("boundary_delta3", {}, 182),
                              ("rp2", {"max_len": 2}, 3621)):
        alg = LoopAlgebra(collapse(load_complex(FIXTURES / (name + ".json"))),
                          conv)
        pairs = list(g_residuals(alg, conv, **caps))
        v = verify_G_chain_map(alg, conv, **caps)
        # the words in enumeration order, the empty word read as the unit
        words = [w or (alg.unit(),) for w in bounded_words(
            alg.basis(3), alg.weight, 3, caps.get("max_len", 3))]
        assert [w for w, _ in pairs] == words
        assert len(pairs) == v.words_checked == count
        assert list({w: r for w, r in pairs if r}.items()) == \
            list(v.failures.items())
        failing += len(v.failures)
    # both twist packages verify (see test_both_twist_packages_verify)
    assert (failing == 0) == (axis in (None, "iota_twist"))


def _in_order(chain):
    return list(chain.items())


@pytest.mark.parametrize("conv", (DEFAULT, IN_BOUNDARY))
def test_G_path_matches_the_dict_oracle_on_every_rp2_word(conv):
    # every word G is checked on, in both twist packages; the dicts must
    # agree down to their insertion order
    alg = LoopAlgebra(collapse(load_complex(FIXTURES / "rp2.json")), conv)
    count = 0
    for word in bounded_words(alg.basis(3), alg.weight, 3, 2):
        word = word or (alg.unit(),)
        image = goodwillie_G(alg, word, conv)
        assert _in_order(image) == \
            _in_order(dict_goodwillie_G(alg, word, conv))
        assert _in_order(loop_boundary(alg, image, conv)) == \
            _in_order(dict_loop_boundary(alg, image, conv))
        b = hochschild_b(alg, word, arity=conv.hochschild_arity)
        assert _in_order(goodwillie_G(alg, b, conv)) == \
            _in_order(dict_goodwillie_G(alg, b, conv))
        count += 1
    assert count == 3621


@pytest.mark.parametrize("axis", (None,) + G_AXES)
def test_G_path_matches_the_dict_oracle_on_seeded_wedges(sphere_alg, axis):
    # wedges whose cargo is one or two basis words and whose first slot
    # is a basis word or empty, summed into chains whose terms can
    # cancel, under the ledger and each single flip of a free-loop entry
    conv = DEFAULT if axis is None else DEFAULT.flip(axis)
    rng = Random(3)
    slots = sphere_alg.basis(3)
    for _ in range(60):
        chain = {}
        for _ in range(rng.randint(1, 3)):
            w1 = rng.choice([*slots, ()])
            w2 = rng.choice(slots) + rng.choice(((), rng.choice(slots)))
            chain[("wedge", w1, w2)] = rng.choice((-2, -1, 1, 2))
        chain[("iota", rng.choice(slots))] = rng.choice((-1, 1))
        normal = normalize(sphere_alg, chain, conv)
        assert _in_order(normal) == \
            _in_order(dict_normalize(sphere_alg, chain, conv))
        for gens in (chain, normal):
            assert _in_order(loop_boundary(sphere_alg, gens, conv)) == \
                _in_order(dict_loop_boundary(sphere_alg, gens, conv))
        words = {gen[1:]: c for gen, c in normal.items()
                 if gen[0] == "wedge" and gen[1]}
        words.update({(w,): 1 for w in slots[:5]})
        assert _in_order(goodwillie_G(sphere_alg, words, conv)) == \
            _in_order(dict_goodwillie_G(sphere_alg, words, conv))


def test_a_negative_weight_cap_is_refused(circle_alg):
    with pytest.raises(ValueError, match="weight cap must be at least 0, "
                                         "got -1"):
        verify_G_chain_map(circle_alg, max_weight=-1)
    with pytest.raises(ValueError, match="got -1"):
        next(g_residuals(circle_alg, max_weight=-1))
    # a cap that is not an int is refused by name, bool included
    for cap in (True, False, 2.5):
        with pytest.raises(ValueError, match=f"weight cap must be an int, "
                                             f"got {cap!r}"):
            verify_G_chain_map(circle_alg, max_weight=cap)
        with pytest.raises(ValueError, match=f"got {cap!r}"):
            next(g_residuals(circle_alg, max_weight=cap))


@pytest.mark.parametrize("strict", (False, True))
def test_the_circle_basis_refuses_a_bad_weight_cap(strict):
    # it read True as cap 1, raised a bare TypeError on 2.5 and gave []
    # on -1
    alg = CircleWordAlgebra(strict=strict)
    for cap, says in ((True, "an int, got True"), (2.5, "an int, got 2.5"),
                      (-1, "at least 0, got -1")):
        with pytest.raises(ValueError, match=f"weight cap must be {says}"):
            alg.basis(cap)


def test_residual_of_a_single_word_is_exposed(sphere_alg):
    assert g_residual(sphere_alg, ((T123,), (T12,))) == {}
    bad = g_residual(sphere_alg, ((T123,), (T12,)),
                     DEFAULT.flip("wedge_sign_cat"))
    assert bad != {}


# -- the circle example ----------------------------------------------------------

def test_s1_sigma_boundary_matches_the_wrap_terms():
    alg = CircleWordAlgebra()
    wrap = hochschild_b(alg, ((GAMMA_INV,), (GAMMA,)))
    assert wrap == {((GAMMA, GAMMA_INV),): 1, ((GAMMA_INV, GAMMA),): -1}
    assert alg.mu1((SIGMA,)) == {
        (GAMMA, GAMMA_INV): 1, (GAMMA_INV, GAMMA): -1}


def test_s1_example_with_sigma_closes_and_winds():
    r = s1_example()
    assert r.sigma_included and r.sigma_matches_wrap
    assert r.chain_closed
    assert abs(r.winding) == 1


def test_s1_example_without_sigma_is_not_closed():
    assert not s1_example(include_sigma=False).chain_closed


def test_s1_strict_group_ring_needs_no_sigma():
    r = s1_example(strict=True)
    assert r.strict and not r.sigma_included
    assert r.chain_closed
    assert abs(r.winding) == 1


@pytest.mark.parametrize("strict", [False, True])
def test_circle_basis_matches_the_sorted_oracle(strict):
    alg = CircleWordAlgebra(strict=strict)
    for cap in range(6):
        want = [w for w in sorted_basis(alg.letters(), lambda letter: 1, cap)
                if alg._reduce(w) == w]
        assert alg.basis(cap) == want, cap


def test_strict_wrap_terms_cancel_to_the_unit_word():
    alg = CircleWordAlgebra(strict=True)
    assert hochschild_b(alg, ((GAMMA_INV,), (GAMMA,))) == {}
    assert alg.concat((GAMMA, GAMMA_INV), (GAMMA,)) == (GAMMA,)


# -- winding ---------------------------------------------------------------------

def test_basepoint_degree_reads_the_first_slot():
    alg = CircleWordAlgebra()
    G = goodwillie_G(alg, {((GAMMA,), (GAMMA_INV,)): 1})
    assert G == {("wedge", (GAMMA,), (GAMMA_INV,)): -1}
    assert basepoint_degree(alg, G) == -1
    assert basepoint_degree(alg, {("wedge", (GAMMA, GAMMA), (GAMMA_INV,)): 1}) == 2
    assert basepoint_degree(alg, {("iota", (GAMMA,)): 5}) == 0
    assert basepoint_degree(alg, {("wedge", (), (GAMMA,)): 7}) == 0


def test_basepoint_degree_is_additive():
    alg = CircleWordAlgebra()
    chain = {("wedge", (GAMMA,), (GAMMA,)): 2,
             ("wedge", (GAMMA_INV,), (GAMMA,)): 3}
    assert basepoint_degree(alg, chain) == -1


def test_basepoint_degree_accepts_the_lone_circle_letter(circle_alg):
    t = circle_alg.letters()[0]
    assert basepoint_degree(circle_alg, {("wedge", (t, t), (t,)): 1}) == 2


def test_basepoint_degree_rejects_letters_that_do_not_wind(sphere_alg):
    with pytest.raises(ValueError, match="wind"):
        basepoint_degree(sphere_alg, {("wedge", (T12,), (T12,)): 1})
    alg = CircleWordAlgebra()
    with pytest.raises(ValueError, match="wind"):
        basepoint_degree(alg, {("wedge", (SIGMA,), (GAMMA,)): 1})
