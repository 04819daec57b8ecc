"""Reference versions of nine word routines, written the plain way.

``word_weight`` sums the weights of the letters of a word of letters
(not a code word), which the alphabet's weight table must agree with.
``leibniz_word_boundary`` extends the letter boundary to words of
letters (not code words) by recomputing every letter's boundary and
every prefix degree at each slot, with no table and no running sign.
``per_special_cyclic_words`` enumerates the cyclic bar words with one
bounded-word call per special slot, re-weighing the basis each time,
and sorts them by the reprs of their decoded slots.  ``signkoszul_hochschild_b``
takes every sign of the cyclic bar differential from its own signkoszul
call, summing the degrees of each run again.  ``sorted_basis`` sorts
every bounded word instead of trusting the enumeration order.
``bucketed_hh_truncated`` enumerates every cyclic word at the cap with
no length bound, or takes that enumeration bucketed by degree, and
reads the three degrees it needs.
``dict_normalize``, ``dict_loop_boundary`` and ``dict_goodwillie_G`` are
the free-loop normal form, boundary and comparison map with every term
added through ``_add`` and every sign taken as a power of -1 where it is
used.  The other eight are slow on purpose; the tests compare the fast
routines against them, the free-loop ones down to the insertion order of
the dicts they return.
"""

from loopchains.cobarloop import (letter_boundary, letter_weight,
                                  normalize_word, word_degree)
from loopchains.exactalg import FreeComplex, HomologySummary, _add, homology
from loopchains.freeloop import _split_exponents
from loopchains.hochschild import (TruncatedHomology, bounded_words,
                                   cyclic_words, hochschild_b, is_degenerate)
from loopchains.hochschild import word_degree as cc_word_degree
from loopchains.signkoszul import bullet_exponent, maltese_exponent


def word_weight(word) -> int:
    return sum(letter_weight(l) for l in word)


def leibniz_word_boundary(cc, word, conv):
    out = {}
    for i, letter in enumerate(word):
        prefix = word[:i]
        exponent = word_degree(prefix)
        if conv.leibniz_prefix == "reduced":
            exponent += len(prefix)
        sgn = (-1) ** (exponent % 2)
        for t, c in letter_boundary(cc, letter, conv).items():
            _add(out, normalize_word(word[:i] + t + word[i + 1:]), sgn * c)
    return out


def sorted_basis(letters, weight, max_weight):
    """Every nonempty word of weight <= max_weight, sorted."""
    return sorted(bounded_words(letters, weight, max_weight))[1:]


def per_special_cyclic_words(algebra, max_weight, degree=None):
    basis = list(algebra.basis(max_weight))
    unit = algebra.unit()
    specials = basis + ([unit] if unit is not None else [])
    words = [(first,) + tail
             for first in specials
             for tail in bounded_words(basis, algebra.weight,
                                       max_weight - algebra.weight(first))]
    if degree is not None:
        words = [w for w in words if cc_word_degree(algebra, w) == degree]
    decode = getattr(algebra, "decode", lambda x: x)  # code words decoded
    return sorted(words, key=lambda w: (len(w),
                                        tuple(repr(decode(x)) for x in w)))


def words_by_degree(algebra, max_weight):
    """Every word at the cap, from one enumeration, bucketed by degree:
    {degree: words}, each list in enumeration order."""
    by_degree = {}
    for word in cyclic_words(algebra, max_weight):
        by_degree.setdefault(cc_word_degree(algebra, word), []).append(word)
    return by_degree


def bucketed_layers(algebra, degree, max_weight, by_degree=None):
    """The words of degrees degree - 1, degree and degree + 1 at the cap,
    taken from ``by_degree`` (words_by_degree at the cap, enumerated here
    when not given)."""
    if by_degree is None:
        by_degree = words_by_degree(algebra, max_weight)
    return {n: list(by_degree.get(n, ()))
            for n in (degree - 1, degree, degree + 1)}


def bucketed_hh_truncated(algebra, degree, max_weight, *,
                          arity="argument_count", by_degree=None):
    def at(layers):
        complex_ = FreeComplex.from_basis(
            layers, lambda w: hochschild_b(algebra, w, arity=arity))
        return homology(complex_).get(degree, HomologySummary(degree, 0, ()))

    layers = bucketed_layers(algebra, degree, max_weight, by_degree)
    summary = at(layers)
    if max_weight >= 1:
        previous = at({n: [w for w in ws
                           if sum(map(algebra.weight, w)) < max_weight]
                       for n, ws in layers.items()})
        stabilized = (previous.rank, previous.torsion) == \
            (summary.rank, summary.torsion)
    else:
        stabilized = False
    return TruncatedHomology(degree=degree, max_weight=max_weight,
                             summary=summary, stabilized=stabilized)


def signkoszul_hochschild_b(algebra, word, coeff=1, *,
                            arity="argument_count", normalize=True):
    """The cyclic bar differential with every sign taken from a
    signkoszul call per term: maltese_exponent for the inner terms,
    bullet_exponent plus maltese_exponent for the wrap terms."""
    out = {}
    d = len(word)
    a = lambda i: word[d - i]  # 1-based from the right
    degrees = tuple(algebra.degree(x) for x in reversed(word))  # |a_1| first

    def emit(prefix_word, vector, suffix_word, sgn):
        for element, c in vector.items():
            w = prefix_word + (element,) + suffix_word
            if normalize and is_degenerate(algebra, w):
                continue
            _add(out, w, coeff * sgn * c)

    # inner terms: mu_j eats slots i+1 .. i+j, 1 <= i+j < d
    for i in range(0, d):
        for j in (1, 2):
            if not 1 <= i + j < d:
                continue
            sgn = (-1) ** (maltese_exponent(degrees, 1, i) % 2)
            prefix = word[:d - i - j]
            suffix = word[d - i:]
            if j == 1:
                emit(prefix, algebra.mu1(a(i + 1)), suffix, sgn)
            else:
                emit(prefix, algebra.mu2(a(i + 2), a(i + 1)), suffix, sgn)

    # wrap terms: the product swallows a_d together with a_i..a_1, and
    # the skipped slots a_{i+j}..a_{i+1} become the tail of the output
    for i in range(0, d):
        for j in range(0, d):
            if i + j >= d:
                continue
            argc = d - j  # a_i..a_1 plus a_d..a_{i+j+1}
            m = argc if arity == "argument_count" else argc - 1
            if m > 2:
                continue
            sgn = (-1) ** ((bullet_exponent(degrees, i, i + j)
                            + maltese_exponent(degrees, i + 1, i + j) + 1) % 2)
            tail = tuple(a(t) for t in range(i + j, i, -1))
            if m == 1:
                if not (i == 0 and argc == 1):
                    continue
                emit((), algebra.mu1(a(d)), tail, sgn)
            elif m == 2:
                if argc != 2:
                    continue
                if i == 0:
                    product = algebra.mu2(a(d), a(d - 1))
                elif i == 1:
                    product = algebra.mu2(a(1), a(d))
                else:
                    continue
                emit((), product, tail, sgn)
    return out


def dict_normalize(alg, chain, conv):
    out = {}
    work = list(chain.items())
    while work:
        gen, c = work.pop()
        if gen[0] == "iota":
            _add(out, gen, c)
            continue
        _, w1, w2 = gen
        if not w2:  # constant cargo loop: degenerate cube
            continue
        if len(w2) == 1:
            _add(out, gen, c)
            continue
        u, v = w2[:1], w2[1:]
        e1, e2 = _split_exponents(conv, alg.degree(w1), alg.degree(u),
                                  alg.degree(v))
        work.append((("wedge", w1 + u, v), c * (-1) ** e1))
        work.append((("wedge", v + w1, u), c * (-1) ** e2))
    return out


def _concat(alg, w1, w2):
    cat = getattr(alg, "concat", None)
    if cat is not None:
        return cat(w1, w2)
    return w1 + w2


def _axis_sign(axis):
    return 1 if axis == "plus" else -1


def dict_loop_boundary(alg, chain, conv):
    out = {}
    for gen, c in chain.items():
        if gen[0] == "iota":
            for w, cw in alg.mu1(gen[1]).items():
                _add(out, ("iota", w), c * cw)
            continue
        _, w1, w2 = gen
        p, q = alg.degree(w1) % 2, alg.degree(w2) % 2
        if conv.iota_twist == "in_g":
            left, right = 1, (-1) ** p
            cat = (-1) ** ((p + q) % 2)
            swap = -((-1) ** ((p + q + p * q) % 2))
        else:
            left, right = (-1) ** q, 1
            cat = (-1) ** ((p + q + p * q) % 2)
            swap = -((-1) ** ((p + q) % 2))
        left *= _axis_sign(conv.wedge_sign_left)
        right *= _axis_sign(conv.wedge_sign_right)
        cat *= _axis_sign(conv.wedge_sign_cat)
        swap *= _axis_sign(conv.wedge_sign_swap)
        raw = {}
        for w, cw in alg.mu1(w1).items():
            _add(raw, ("wedge", w, w2), cw * left)
        for w, cw in alg.mu1(w2).items():
            _add(raw, ("wedge", w1, w), cw * right)
        _add(raw, ("iota", _concat(alg, w1, w2)), cat)
        _add(raw, ("iota", _concat(alg, w2, w1)), swap)
        for g, cg in dict_normalize(alg, raw, conv).items():
            _add(out, g, c * cg)
    return out


def dict_goodwillie_G(alg, words, conv):
    if isinstance(words, tuple):
        words = {words: 1}
    out = {}
    for word, c in words.items():
        if len(word) == 1:
            _add(out, ("iota", word[0]),
                 c * (-1) ** (alg.degree(word[0]) % 2))
        elif len(word) == 2:
            a2, a1 = word
            tw = 0
            if conv.iota_twist == "in_g":
                tw = (alg.degree(a2) * alg.degree(a1)) % 2
            _add(out, ("wedge", a2, a1), -c * (-1) ** tw)
    return dict_normalize(alg, out, conv)
