"""Reference versions of two word routines, written the plain way.

``leibniz_word_boundary`` extends the letter boundary to words by
recomputing every letter's boundary and every prefix degree at each
slot, with no table and no running sign.  ``per_special_cyclic_words``
enumerates the cyclic bar words with one bounded-word call per special
slot, re-weighing the basis each time.  Both are slow on purpose; the
tests compare the fast routines against them.
"""

from loopchains.cobarloop import letter_boundary, normalize_word, word_degree
from loopchains.hochschild import _add, bounded_words
from loopchains.hochschild import word_degree as cc_word_degree


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
    return sorted(words, key=lambda w: (len(w), tuple(repr(x) for x in w)))
