"""Cell model for the free loop space built from based-loop words.

Two generator families over a based-loop algebra.  An inclusion cell
``("iota", w)`` is a based loop read off a word, degree equal to the word
degree.  A wedge cell ``("wedge", w1, w2)`` glues the loop of ``w1`` to the
loop of ``w2`` at a moving basepoint; its degree is ``|w1| + |w2| - 1``.

Wedges whose second slot merged into a longer word are rewritten by the
three-term split

    W(a, u + v)  ->  (-1)^e1 W(a + u, v) + (-1)^e2 W(v + a, u)

with ``u`` the first letter, until the second slot holds at most one
letter.  The rewrite shortens the second slot, so it terminates, and
normal forms are unique.  A wedge whose second slot is empty carries a
constant cargo loop; that cube is degenerate and dies here.  An empty
first slot is kept: its two closing faces land on the same inclusion
cell and cancel.

The comparison map G sends one-slot words to inclusion cells, two-slot
words to wedge cells, and everything longer to zero.  Where the Koszul
twist of the two-slot case lives is a bookkeeping choice (the
``iota_twist`` axis): inside G itself, or pushed into the boundary and
split signs.  Both packages verify; mixing them does not.
"""

from typing import NamedTuple

from .conventions import DEFAULT, Conventions
from .exactalg import _add, _axpy
from .hochschild import (_check_cap, bounded_words, hochschild_b,
                         hochschild_b_vector)


def _split_exponents(conv, da, du, dv):
    da, du, dv = da % 2, du % 2, dv % 2
    if conv.iota_twist == "in_g":
        return 0, dv * (da + du) % 2
    return du * (da + dv) % 2, 0


def normalize(alg, chain, conv: Conventions = DEFAULT) -> dict:
    """Rewrite a generator chain to normal form.

    Splits second slots down to single letters, drops degenerate
    wedges.  Idempotent: normal generators pass through untouched.
    """
    out = {}
    work = list(chain.items())
    while work:
        gen, c = work.pop()
        if gen[0] == "wedge" and len(gen[2]) != 1:
            _, w1, w2 = gen
            if w2:  # else a constant cargo loop: a degenerate cube
                u, v = w2[:1], w2[1:]
                e1, e2 = _split_exponents(conv, alg.degree(w1),
                                          alg.degree(u), alg.degree(v))
                work.append((("wedge", w1 + u, v), -c if e1 else c))
                work.append((("wedge", v + w1, u), -c if e2 else c))
            continue
        c += out.get(gen, 0)
        if c:
            out[gen] = c
        else:
            out.pop(gen, None)
    return out


def loop_boundary(alg, chain, conv: Conventions = DEFAULT) -> dict:
    """Boundary of a generator chain, normalized.

    Inclusion cells differentiate letterwise through mu1.  A wedge cell
    has four groups of terms: mu1 on either slot, and the two faces
    where the connecting coordinate closes, one reading the composite
    loop in slot order, one swapped.  The base signs are the unique
    package compatible with the comparison map; the four ``wedge_sign``
    axes multiply one group each, so any flipped axis is detectable.
    """
    in_g = conv.iota_twist == "in_g"
    concat = getattr(alg, "concat", tuple.__add__)
    axes = [1 if axis == "plus" else -1
            for axis in (conv.wedge_sign_left, conv.wedge_sign_right,
                         conv.wedge_sign_cat, conv.wedge_sign_swap)]
    out = {}
    for gen, c in chain.items():
        if gen[0] == "iota":
            for w, cw in alg.mu1(gen[1]).items():
                _add(out, ("iota", w), c * cw)
            continue
        _, w1, w2 = gen
        p, q = alg.degree(w1) % 2, alg.degree(w2) % 2
        # the base sign exponents of the left, right, cat and swap groups
        base = (0, p, p ^ q, 1 ^ (p | q)) if in_g else (q, 0, p | q, 1 ^ p ^ q)
        left, right, cat, swap = [-a if e else a for a, e in zip(axes, base)]
        raw = {}
        for w, cw in alg.mu1(w1).items():
            _add(raw, ("wedge", w, w2), cw * left)
        for w, cw in alg.mu1(w2).items():
            _add(raw, ("wedge", w1, w), cw * right)
        _add(raw, ("iota", concat(w1, w2)), cat)
        _add(raw, ("iota", concat(w2, w1)), swap)
        _axpy(out, normalize(alg, raw, conv), c)
    return out


def goodwillie_G(alg, words, conv: Conventions = DEFAULT) -> dict:
    """The comparison map on a vector of cyclic words.

    One slot becomes an inclusion cell with the degree sign, two slots
    become a wedge cell with the first (special) slot leading, longer
    words die.  Output is normalized.
    """
    if isinstance(words, tuple):
        words = {words: 1}
    in_g = conv.iota_twist == "in_g"
    out = {}  # distinct words give distinct generators: nothing to add up
    for word, c in words.items():
        if len(word) == 1:
            out[("iota", word[0])] = -c if alg.degree(word[0]) % 2 else c
        elif len(word) == 2:
            a2, a1 = word
            twisted = in_g and alg.degree(a2) * alg.degree(a1) % 2
            out[("wedge", a2, a1)] = c if twisted else -c
    return normalize(alg, out, conv)


class GVerification(NamedTuple):
    ok: bool
    words_checked: int
    failures: dict  # word -> nonzero residual chain


def g_residual(alg, word, conv: Conventions = DEFAULT) -> dict:
    """G(b(word)) - (-1)^s d(G(word)), empty when the square commutes."""
    return _g_residual(alg, word, hochschild_b(
        alg, word, arity=conv.hochschild_arity), conv)


def _g_residual(alg, word, boundary, conv) -> dict:
    """g_residual with b(word) passed in as ``boundary``, which it does
    not change: b reads no entry that only G and the wedge boundary read,
    so a caller sweeping those entries may compute it once."""
    res = goodwillie_G(alg, boundary, conv)
    s = (-1) ** (conv.g_parity_s % 2)
    _axpy(res, loop_boundary(alg, goodwillie_G(alg, word, conv), conv), -s)
    return res


def _g_words(alg, max_len=3, max_weight=3):
    """Every cyclic word of at most max_len slots and weight at most
    max_weight, as a list: the words verify_G_chain_map checks.

    The slots hold basis elements.  The unit is checked only as the
    one-letter word ``(unit,)``: it may sit in the special slot alone,
    and longer words that start with the unit are not checked (words
    with the unit in any other slot are degenerate and already zero
    upstream).  A max_len that is not an int of at least 1, or a weight
    cap that is not an int or is negative, is refused.
    """
    # bool is an int subclass, but True is no length cap
    if not isinstance(max_len, int) or isinstance(max_len, bool) \
            or max_len < 1:
        raise ValueError(f"max_len must be an int of at least 1, "
                         f"not {max_len!r}")
    _check_cap(max_weight)
    words = bounded_words(alg.basis(max_weight), alg.weight, max_weight,
                          max_len)
    # the first word is the empty one, which stands for the unit word
    words[0] = (alg.unit(),)
    return words


def verify_G_chain_map(alg, conv: Conventions = DEFAULT, *, max_len=3,
                       max_weight=3) -> GVerification:
    """Residual check (see g_residual) over every word of _g_words."""
    failures = {}
    checked = 0
    for w in _g_words(alg, max_len, max_weight):
        checked += 1
        res = g_residual(alg, w, conv)
        if res:
            failures[w] = res
    return GVerification(ok=not failures, words_checked=checked,
                         failures=failures)


# -- the circle ---------------------------------------------------------------

GAMMA = ("gamma", 1)
GAMMA_INV = ("gamma", -1)
SIGMA = ("sigma",)


class CircleWordAlgebra:
    """Loop words on the circle: letters gamma and gamma^{-1}, both
    degree 0, plus one degree -1 letter sigma whose boundary is declared
    to be gamma.gamma^{-1} - gamma^{-1}.gamma.

    ``strict`` switches to the group-ring picture: adjacent inverse
    pairs cancel out of every product and sigma is dropped, since the
    two words it mediated between are already equal there.
    """

    def __init__(self, strict=False):
        self.strict = strict

    def letters(self):
        if self.strict:
            return [GAMMA, GAMMA_INV]
        return [GAMMA, GAMMA_INV, SIGMA]

    def _reduce(self, word):
        if not self.strict:
            return word
        out = []
        for letter in word:
            if out and out[-1][0] == "gamma" and letter[0] == "gamma" \
                    and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def degree(self, word) -> int:
        return -sum(1 for l in word if l[0] == "sigma")

    def weight(self, word) -> int:
        return len(word)

    def unit(self):
        return ()

    def winding(self, letter) -> int:
        if letter[0] == "gamma":
            return letter[1]
        raise ValueError("letter %r does not wind around the circle"
                         % (letter,))

    def concat(self, w1, w2):
        return self._reduce(w1 + w2)

    def mu1(self, word) -> dict:
        out = {}
        for i, letter in enumerate(word):
            if letter[0] != "sigma":
                continue
            pre = (-1) ** (self.degree(word[:i]) % 2)
            for piece, c in (((GAMMA, GAMMA_INV), 1),
                             ((GAMMA_INV, GAMMA), -1)):
                w = self._reduce(word[:i] + piece + word[i + 1:])
                _add(out, w, pre * c)
        return out

    def mu2(self, x2, x1) -> dict:
        return {self._reduce(x1 + x2): (-1) ** (self.degree(x1) % 2)}

    def basis(self, max_weight: int):
        """All nonempty words of length <= max_weight, sorted; in the
        strict picture only the reduced ones; a bad cap is refused."""
        _check_cap(max_weight)
        words = bounded_words(sorted(self.letters()), lambda letter: 1,
                              max_weight)
        return [w for w in words if w and self._reduce(w) == w]


def basepoint_degree(alg, chain) -> int:
    """Winding number of the basepoint path, summed over the chain.

    Only the first slot of a wedge moves the basepoint; inclusion cells
    keep it fixed.  An empty first slot is the constant path, winding
    zero.  The winding of a letter is ``alg.winding``'s, which raises on
    a letter that is not a circle loop.
    """
    total = 0
    for gen, c in chain.items():
        if gen[0] != "wedge":
            continue
        total += c * sum(alg.winding(l) for l in gen[1])
    return total


class S1Report(NamedTuple):
    strict: bool
    sigma_included: bool
    sigma_matches_wrap: bool
    chain_closed: bool
    winding: int


def s1_example(strict=False, include_sigma=True,
               conv: Conventions = DEFAULT) -> S1Report:
    """The degree-one free loop on the circle, followed through G.

    The cyclic word gamma^{-1} (x) gamma is not closed on its own: the
    two wrap terms survive as the composite words in either order.  The
    declared sigma boundary is exactly that defect, so adding sigma
    closes the chain.  In the strict group-ring picture both composites
    reduce to the unit word, the wraps cancel by themselves, and sigma
    is not needed.  Either way the image under G has basepoint winding
    of absolute value one.
    """
    alg = CircleWordAlgebra(strict=strict)
    word2 = ((GAMMA_INV,), (GAMMA,))
    chain = {word2: 1}
    if include_sigma and not strict:
        chain[((SIGMA,),)] = 1

    wrap = hochschild_b(alg, word2, arity=conv.hochschild_arity)
    sigma_image = {(elt,): c for elt, c in alg.mu1((SIGMA,)).items()}
    matches = (not strict) and wrap == sigma_image

    closed = not hochschild_b_vector(alg, chain,
                                     arity=conv.hochschild_arity)
    wind = basepoint_degree(alg, goodwillie_G(alg, chain, conv))
    return S1Report(strict=strict, sigma_included=include_sigma and not strict,
                    sigma_matches_wrap=matches, chain_closed=closed,
                    winding=wind)
