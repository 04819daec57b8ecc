"""Cyclic bar complex of a differential graded algebra.

Words are tuples (a_d, ..., a_1), stored leftmost-first with 1-based
index arithmetic throughout (a_i is word[d - i]).  The leftmost entry
a_d is the special slot: it may hold the unit, while a word with a unit
in any other slot is degenerate and treated as zero.  The complex is
the normalized one: the differential keeps the degenerate words a
subspace, and dropping them from its output is the quotient
differential.

Degrees.  An entry of ordinary degree g contributes its reduced degree
g + 1 to all sign bookkeeping, whose exponents come from signkoszul.
A word's degree is

    sum_i |a_i| - (d - 1),

which the differential raises by exactly one: inner products merge two
slots (d drops by one), and the per-slot differential raises a slot
degree by one.  A word's weight is the sum of the entry weights and is
never increased by the differential, so weight caps give honest
subcomplexes.

Algebra interface.  Any object with

    degree(x) -> int            weight(x) -> int
    unit() -> element or None   mu1(x) -> {element: coeff}
    mu2(x2, x1) -> {element: coeff}
    basis(max_weight) -> iterable of elements (units excluded)

works: the based-loop algebras built elsewhere in this package and the
finite table algebras below both do.  The unit is the one element equal
to unit(); a non-unital algebra returns None, which equals no element.
The basis elements and the unit must compare with <, by which
cyclic_words orders its slots.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from random import Random
from typing import NamedTuple

from .conventions import CHOICES
from .exactalg import (FreeComplex, HomologySummary, _add, _axpy,
                       homology as _homology)
from .signkoszul import bullet_exponent


def word_degree(algebra, word) -> int:
    return sum(algebra.degree(x) for x in word) - (len(word) - 1)


def cc_degree(algebra, word) -> int:
    """Bookkeeping degree: the special entry keeps its degree, every
    other entry is shifted up by one.  Sign exponents read this mod 2.
    It differs from word_degree (the complex grading) by 2(d - 1), so
    the two agree in parity but only word_degree is raised by exactly
    one by the differential."""
    if not word:
        raise ValueError("the empty word has no degree")
    return algebra.degree(word[0]) + sum(algebra.degree(x) + 1
                                         for x in word[1:])


def is_degenerate(algebra, word) -> bool:
    """Unit in a non-special slot (any position but the leftmost)."""
    return algebra.unit() in word[1:]


_ARITIES = CHOICES["hochschild_arity"][0]  # the ledger's two readings


def _check_arity(arity) -> None:
    if arity not in _ARITIES:
        raise ValueError(f"arity must be one of "
                         f"{', '.join(map(repr, _ARITIES))}, got {arity!r}")


def hochschild_b(algebra, word, coeff=1, *, arity="argument_count"):
    """The cyclic bar differential of a single word, as {word: coeff}.

    Two families of terms.  Inner terms apply mu1 to one slot or mu2 to
    two adjacent slots strictly inside the word.  Wrap terms close the
    word up cyclically: the special slot is multiplied with a run of
    slots taken from the right end, and the slots it jumped over move to
    the front.  The sign exponents are signkoszul's maltese runs of
    reduced degrees and its bullet wrap correction, read off the prefix
    sums of the reduced degrees, which are taken once per word.

    ``arity`` selects how the wrapped product's arity is read: from its
    argument count (certified) or from the printed subscript, which is
    one lower and silently kills every wrap term of a two-product
    algebra.  The latter is kept only so the resolution harness can
    demonstrate that it fails.  Any other value is refused.

    Degenerate output words are dropped, and degeneracy is tested once
    per word.  An inner term keeps the special slot and the other slots
    of the input, but for the one slot it fills; a wrap term puts its
    product in the special slot and keeps a run of the input's other
    slots.  So when the input has no unit outside its special slot, a
    term is degenerate exactly when it is an inner term that writes the
    unit into the slot it fills.  An input with a unit in another slot
    has every output word tested in full.
    """
    _check_arity(arity)
    d = len(word)
    degree = algebra.degree
    # maltese(i, j) = run[j] - run[i - 1]: reduced degrees of a_i..a_j,
    # where a_i = word[d - i] counts slots from the right
    run = [0]
    for x in reversed(word):
        run.append(run[-1] + degree(x) + 1)
    unit = algebra.unit()  # None, which equals no element, if non-unital
    degenerate = unit in word[1:]
    out = {}

    # inner terms: mu_j eats slots i+1 .. i+j, 1 <= i+j < d, so it fills
    # slot k = d - i - j >= 1; the sign is maltese(1, i)
    for i in range(d - 1):
        k = d - i - 1
        suffix = word[k + 1:]
        sign = -coeff if run[i] % 2 else coeff
        head = word[:k]
        for element, c in algebra.mu1(word[k]).items():
            if element == unit:
                continue
            w = head + (element,) + suffix
            if degenerate and unit in w[1:]:
                continue
            c = out.get(w, 0) + sign * c
            if c:
                out[w] = c
            else:
                out.pop(w, None)
        if k > 1:
            head = word[:k - 1]
            for element, c in algebra.mu2(word[k - 1], word[k]).items():
                if element == unit:
                    continue
                w = head + (element,) + suffix
                if degenerate and unit in w[1:]:
                    continue
                c = out.get(w, 0) + sign * c
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)

    # wrap terms: the product swallows a_d together with a_i..a_1, and
    # the skipped slots a_{i+j}..a_{i+1} become the tail of the output;
    # the sign is bullet(i, i + j) + maltese(i + 1, i + j) + 1.  Only
    # mu1 and mu2 exist, so the product takes d - j = 1 or 2 arguments:
    # a_d alone, or a_d with a_{d-1} (i = 0) or with a_1 (i = 1).  Read
    # from the subscript, each arity is one lower than the argument
    # count, and no product matches.
    if arity == "argument_count":
        for i, j in ((0, d - 2), (0, d - 1), (1, d - 2)):
            if j < 0:
                continue
            if d - j == 1:
                product = algebra.mu1(word[0])
            elif i == 0:
                product = algebra.mu2(word[0], word[1])
            else:
                product = algebra.mu2(word[d - 1], word[0])
            # bullet(i, i + j) = maltese(1, i) (1 + maltese(i + 1, d))
            #                    + maltese(i + j + 1, d - 1)
            bullet = run[i] * (1 + run[d] - run[i]) + run[d - 1] - run[i + j]
            sign = -coeff if (bullet + run[i + j] - run[i] + 1) % 2 else coeff
            tail = word[d - i - j:d - i]
            for element, c in product.items():
                w = (element,) + tail
                if degenerate and unit in w[1:]:
                    continue
                c = out.get(w, 0) + sign * c
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out


def hochschild_b_vector(algebra, vector, *, arity="argument_count"):
    _check_arity(arity)
    out = {}
    for word, c in vector.items():
        _axpy(out, hochschild_b(algebra, word, c, arity=arity), 1)
    return out


# -- finite table algebras ---------------------------------------------------

class TableDGA:
    """A dga given by explicit finite tables.

    ``product`` maps (x, y) to {element: coeff} for the underlying
    associative product x.y; ``differential`` maps x to {element: coeff}
    and satisfies the ordinary Leibniz rule.  mu2 exposes the pairing
    with the loop-composition twist: mu2(x2, x1) = (-1)^|x1| x1.x2, the
    same pattern the based-loop algebra uses, so the cyclic bar
    machinery treats both uniformly.
    """

    def __init__(self, degrees: dict, product: dict, differential: dict,
                 weights: dict | None = None):
        self.degrees = dict(degrees)
        self.product = {k: dict(v) for k, v in product.items() if v}
        self.differential = {k: dict(v) for k, v in differential.items() if v}
        self.weights = dict(weights) if weights else {x: 1 for x in degrees}

    def degree(self, x) -> int:
        return self.degrees[x]

    def weight(self, x) -> int:
        return self.weights[x]

    def unit(self):
        return None  # non-unital by construction

    def basis(self, max_weight=None):
        return [x for x in sorted(self.degrees)
                if max_weight is None or self.weights[x] <= max_weight]

    def mu1(self, x) -> dict:
        return dict(self.differential.get(x, {}))

    def mu2(self, x2, x1) -> dict:
        sign = (-1) ** (self.degrees[x1] % 2)
        return {z: sign * c for z, c in self.product.get((x1, x2), {}).items()}

def random_dga(seed: int) -> TableDGA:
    """A random layered quiver dga: exact by construction.

    Vertices sit on a line; short edges (one step) carry random degrees
    and no differential, long edges differentiate into the sum of the
    two-step paths they cover, with degrees chosen so the differential
    raises degree by one.  Products concatenate composable paths and
    vanish otherwise, so associativity is automatic; Leibniz holds
    because the differential only feeds on differential-free edges.
    Generators are the edges; paths of length >= 2 are represented as
    product outputs among the generators when they happen to be edges,
    otherwise the product is zero (a length cap, itself associative).
    """
    rng = Random(seed)
    v = rng.choice((3, 4))
    degrees = {}
    # short edges i -> i+1
    for i in range(v - 1):
        name = f"e{i}{i + 1}"
        degrees[name] = rng.randint(-2, 1)
    # long edges i -> i+2
    for i in range(v - 2):
        name = f"e{i}{i + 2}"
        a = degrees[f"e{i}{i + 1}"]
        b = degrees[f"e{i + 1}{i + 2}"]
        degrees[name] = a + b - 1  # so the two-step path is one higher
    product = {}
    differential = {}
    for i in range(v - 2):
        long = f"e{i}{i + 2}"
        lam = rng.choice((-2, -1, 1, 2))
        # d(long) = lam * (short_i . short_{i+1}): realized by making the
        # two-step product land on a fresh degree-matched target
        target = f"p{i}{i + 2}"
        degrees[target] = degrees[f"e{i}{i + 1}"] + degrees[f"e{i + 1}{i + 2}"]
        product[(f"e{i}{i + 1}", f"e{i + 1}{i + 2}")] = {target: 1}
        differential[long] = {target: lam}
    return TableDGA(degrees, product, differential)


# -- morphisms and their cyclic extension ------------------------------------

class Morphism:
    """A multilinear morphism between two algebras.

    components[n] evaluates the n-ary piece on (x_n, ..., x_1), listed
    descending like mu arguments, and returns {element: coeff} in the
    target.  Missing components are zero.
    """

    def __init__(self, source, target, components: dict):
        self.source = source
        self.target = target
        self.components = dict(components)

    def apply(self, n: int, args) -> dict:
        fn = self.components.get(n)
        if fn is None:
            return {}
        return fn(tuple(args))


def identity_morphism(algebra) -> Morphism:
    return Morphism(algebra, algebra, {1: lambda args: {args[0]: 1}})


def cc_of_morphism(morphism: Morphism, word) -> dict:
    """Extension of a morphism to normalized cyclic bar words.

    Division points 0 <= s_1 < ... < s_k <= d-1 cut the word into k
    blocks.  The special output slot collects the wrapped block
    (a_{s_1}, ..., a_1, a_d, ..., a_{s_k + 1}); the remaining blocks
    follow in descending order.  The sign is the wrap exponent of the
    jump, signkoszul's bullet exponent over the source degrees.
    """
    algebra = morphism.source
    out = {}
    d = len(word)
    a = lambda i: word[d - i]
    degrees = tuple(algebra.degree(x) for x in reversed(word))  # |a_1| first

    for k in range(1, d + 1):
        for s in combinations(range(0, d), k):
            s1, sk = s[0], s[-1]
            sgn = (-1) ** (bullet_exponent(degrees, s1, sk) % 2)
            wrap_args = tuple(a(t) for t in range(s1, 0, -1)) + \
                tuple(a(t) for t in range(d, sk, -1))
            blocks = [morphism.apply(len(wrap_args), wrap_args)]
            for t in range(k - 1, 0, -1):
                args = tuple(a(x) for x in range(s[t], s[t - 1], -1))
                blocks.append(morphism.apply(len(args), args))
            # expand the tensor product of block vectors
            partial = [((), sgn)]
            for block in blocks:
                if not block:
                    partial = []
                    break
                partial = [(entries + (e,), c * cc)
                           for entries, c in partial
                           for e, cc in block.items()]
            for entries, c in partial:
                if is_degenerate(morphism.target, entries):
                    continue
                _add(out, entries, c)
    return out


# -- truncated homology -------------------------------------------------------

class TruncatedHomology(NamedTuple):
    degree: int
    max_weight: int
    summary: HomologySummary
    stabilized: bool


def bounded_words(letters, weight, max_weight: int,
                  max_len: int | None = None) -> list:
    """Every tuple of ``letters`` whose weights sum to at most
    ``max_weight``, of length at most ``max_len`` (uncapped when None),
    as a list.

    The words come in depth-first preorder over the letters in the order
    given: the empty tuple first, each word before its extensions, and
    the extensions by an earlier letter before those by a later one.  So
    the last shorter word listed is each word's prefix, which lets a
    caller carry a sum over a word's letters from its prefix.  Given
    sorted letters, the words come out sorted.  This is _graded_words
    with every grade zero.  Every weight must be >= 1, which keeps the
    set finite; a negative cap gives no words.
    """
    return _graded_words(letters, weight, lambda x: 0, max_weight,
                         max_len).get(0, [])


def _graded_words(letters, weight, grade, max_weight: int,
                  max_len: int | None = None) -> dict:
    """The words of bounded_words(letters, weight, max_weight, max_len),
    filed by the sum of ``grade`` over their letters: {grade sum: [words]}.

    Each list is the order-preserving restriction of bounded_words'
    preorder, and the grade sums come as keys in the order that preorder
    first meets them.  Each letter's weight and grade is looked up once,
    into a table that lists, for every room left under the cap, the
    letters that fit.  A node whose children are all leaves (its length
    is one short of ``max_len``, or its room is below twice the lightest
    weight) files them at once, split by grade before the walk and filed
    by one extend per grade.  Every weight must be >= 1; a negative cap
    gives no words.  It is the one walker of capped words: cyclic_words'
    tails, each alphabet's basis, the based loop complex, loop_words and
    G's words all come from it.
    """
    weighted = [(x, weight(x)) for x in letters]
    if any(w < 1 for _, w in weighted):
        raise ValueError("non-unit basis elements must have weight >= 1")
    if max_weight < 0:
        return {}
    if max_len is None:
        max_len = max_weight  # no word of weight <= max_weight is longer
    graded = [(x, w, grade(x)) for x, w in weighted]
    # fits[room]: the letters that fit as ((x,), room left after x, grade),
    # last letter first, so that the stack pops the first letter next
    fits = [[((x,), room - w, g) for x, w, g in reversed(graded) if w <= room]
            for room in range(max_weight + 1)]
    classes = []  # per room: (grade, leaves of that grade), first met first
    for children in fits:
        split = defaultdict(list)
        for x, _, g in reversed(children):
            split[g].append(x)
        classes.append(list(split.items()))
    # below this room, no child of a node has room for a letter
    leafy = 2 * min((w for _, w in weighted), default=max_weight + 1)
    out = defaultdict(list)
    stack = [((), max_weight, 0)]
    while stack:
        word, room, total = stack.pop()
        out[total].append(word)
        n = len(word) + 1  # the children's length
        if n < max_len and room >= leafy:
            stack.extend([(word + x, left, total + g)
                          for x, left, g in fits[room]])
        elif n <= max_len:
            for g, batch in classes[room]:
                out[total + g].extend(map(word.__add__, batch))
    return dict(out)


def _check_cap(max_weight: int) -> None:
    # bool is an int subclass, but True is no weight cap
    if not isinstance(max_weight, int) or isinstance(max_weight, bool):
        raise ValueError(f"weight cap must be an int, got {max_weight!r}")
    if max_weight < 0:
        raise ValueError(f"weight cap must be at least 0, got {max_weight}")


class _Memo(dict):
    """A dict that fills a missing key from ``rule(key)`` and keeps it."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(key)
        return value


def cyclic_words(algebra, max_weight: int, degree: int | range | None = None):
    """All normalized words of weight <= max_weight (and given degree),
    sorted by length and then by the words themselves.

    The special slot ranges over the basis and, when the algebra has
    one, the unit; the other slots exclude the unit.  Non-unit elements
    all have weight >= 1, so words are finite in number.  The basis is
    read once; the tails are enumerated once, at the cap, and bucketed
    by weight and by the degree they add; each special slot is joined to
    the buckets it has room for and whose words fall in the window.

    ``degree`` is one degree or a range of them, a window.  The words
    of every degree in the window come back in one list, sorted as
    above, and the tails are cut to the lengths that can reach its
    lowest degree n.  A tail slot x adds |x| - 1 <= M - 1 to the word
    degree, where M is the top basis degree, and the special slot gives
    at most H, the top degree over the basis and the unit.  So when
    M <= 0 a word of degree n or more has at most (H - n) // (1 - M)
    tail slots; when H < n that bound leaves only one-slot words, and
    the degree filter drops them.  When M >= 1 the tails are not cut and
    the window only filters: a slot of degree 2 or more raises the word
    degree, so a window above H can still hold words.  A negative cap is
    refused.
    """
    _check_cap(max_weight)
    basis = list(algebra.basis(max_weight))
    unit = algebra.unit()
    specials = basis if unit is None else basis + [unit]
    weight = {x: algebra.weight(x) for x in specials}
    degree_of = {x: algebra.degree(x) for x in specials}
    max_len = None
    if degree is not None:
        window = range(degree, degree + 1) if isinstance(degree, int) \
            else degree
        high = max(degree_of.values(), default=None)
        low = min(window, default=None)
        if high is None or low is None:
            return []
        top = max(map(degree_of.__getitem__, basis), default=0)
        if top <= 0:
            max_len = (high - low) // (1 - top)
    # rank[x] is x's place among the sorted slots
    rank = {x: i for i, x in enumerate(sorted(specials))}
    # the tails come in preorder over the sorted basis, so tails of one
    # length come sorted, and each tail's place in the preorder keys it.
    # The last shorter tail seen is each tail's prefix: weights[n] and
    # excess[n] hold the weight and the sum of |x| - 1 of the last tail
    # of length n
    buckets = {}  # (weight, excess) -> (length + 1, place, tail) triples
    weights = [0] * (max_weight + 1)
    excess = [0] * (max_weight + 1)
    for place, tail in enumerate(bounded_words(
            sorted(basis), weight.__getitem__, max_weight, max_len)):
        n = len(tail)
        if n:
            x = tail[-1]
            weights[n] = weights[n - 1] + weight[x]
            excess[n] = excess[n - 1] + degree_of[x] - 1
        buckets.setdefault((weights[n], excess[n]), []).append(
            (n + 1, place, tail))
    # word_degree is the special slot's degree plus the tail's excess.  A
    # word sorts by its length, then by its special slot's rank and then
    # by its tail's place; no two words share a key, so the sort never
    # compares the words themselves
    keyed = [((length, rank[first], place), (first,) + tail)
             for first in specials
             for (w, e), bucket in buckets.items()
             if w + weight[first] <= max_weight
             and (degree is None or degree_of[first] + e in window)
             for length, place, tail in bucket]
    keyed.sort()
    return [word for _, word in keyed]


def hh_truncated(algebra, degree: int, max_weight: int, *,
                 arity="argument_count") -> TruncatedHomology:
    """Homology of the weight-capped cyclic bar complex in one degree.

    The weight cap is a subcomplex, so this is the honest homology of a
    finite complex, not an approximation with leakage.  ``stabilized``
    records whether dropping the cap by one leaves the answer unchanged,
    a cheap signal that the cap has stopped biting.  One ``cyclic_words``
    call enumerates the window of degrees degree - 1, degree and
    degree + 1 at the cap, and one assembly builds the cap's complex.
    The lower cap's words are those of smaller weight, and its complex
    is the cap's restricted to them, so no boundary is computed twice;
    a lower cap that is not a subcomplex raises ``from_basis``' error.
    A negative cap is refused, and so is an ``arity`` that hochschild_b
    does not know.
    """
    _check_arity(arity)
    window = range(degree - 1, degree + 2)
    layers = {n: [] for n in window}
    lower = {n: [] for n in window}
    for word in cyclic_words(algebra, max_weight, degree=window):
        n = sum(map(algebra.degree, word)) - len(word) + 1  # word_degree
        layers[n].append(word)
        if sum(map(algebra.weight, word)) < max_weight:
            lower[n].append(word)
    complex_, summary = _hh_at(algebra, degree, layers, arity)
    if max_weight >= 1:
        previous = _summary(complex_.restrict(lower), degree)
        stabilized = (previous.rank, previous.torsion) == \
            (summary.rank, summary.torsion)
    else:
        stabilized = False
    return TruncatedHomology(degree=degree, max_weight=max_weight,
                             summary=summary, stabilized=stabilized)


def _hh_at(algebra, degree: int, layers, arity):
    """The three-term complex on ``layers``, which maps degree - 1,
    degree and degree + 1 to their words, and its homology in
    ``degree``."""
    complex_ = FreeComplex.from_basis(
        layers, lambda w: hochschild_b(algebra, w, arity=arity))
    return complex_, _summary(complex_, degree)


def _summary(complex_, degree: int) -> HomologySummary:
    return _homology(complex_).get(degree, HomologySummary(degree, 0, ()))
