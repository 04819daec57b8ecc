"""Based-loop chains of a collapsed complex, and the comparison map into
the normalized cyclic bar complex.

The loop algebra is generated by letters over vertex paths:

    ("tau", seq)        a path running through the vertices of a cell,
                        degree -(len(seq) - 2), weight len(seq) - 1
    ("pi2", A, B)       a pair of paths crossing a cell, with the
                        basepoint reached inside; degree -k for the
                        covered dimension k, weight k
    ("pi3", A, B, C)    corner terms produced by pair boundaries; they
                        are never differentiated again

A word is a unit-free tuple of letters; the empty word is the unit.
Words multiply by concatenation with the loop-composition twist
(mu2(x2, x1) = (-1)^|x1| x1.x2 under the certified ordering).  A path
that is degenerate (two cyclically adjacent vertices equal) gives the
zero letter; a path that is exactly a spanning-tree edge gives the unit.

Code words.  A collapsed complex's loop state lives in an alphabet
(Alphabet): the tau letters of its cells of dimension >= 1, sorted,
each coded by its rank as a small int, and every per-letter and
per-word fact the loop dga reads (grades, word tables, bases and
boundary tables).  The codes depend on the complex alone, so every
alphabet of a complex gives the same codes, and code words sort as the
words they stand for.  So the cyclic bar words of a loop algebra, which
hochschild.cyclic_words sorts by length and then by the words
themselves, come in the order of the decoded words.  A code word is a
word with each alphabet letter replaced by its code; any other letter
(a pair or corner letter, or a tau letter on a path that is not a cell,
such as the wrap path (2, 0, 1) of a T image) stays in it as it is.  A
code word holds no unit letter: the boundary table refuses it.

The loop operations (``loop_words``, ``word_boundary``,
``dga_differential``, ``LoopAlgebra``, ``based_loop_complex``,
``adams_T``, ``t_residual``, ``t_residuals`` and ``verify_T_chain_map``)
take an alphabet, or a collapsed complex to make a new one of, and take
and return code words: callers share loop state by passing alphabets.
A ``LoopAlgebra`` is a view of an alphabet under one conventions value
(``letters`` lists the codes); ``format_word`` and
``format_cyclic_word`` decode through the alphabet they are given.  The
letter functions (``make_tau``, ``letter_degree``, ``letter_weight``,
``word_degree``, ``mu2``, ``tau_boundary``, ``pi2_boundary`` and
``letter_boundary``) take and return letters: they define the tables an
alphabet codes.

Every sign and ordering choice is read off the Conventions value passed
in, so the resolution harness can flip entries one at a time.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations
from operator import attrgetter
from typing import NamedTuple

from .conventions import Conventions, DEFAULT
from .exactalg import FreeComplex, _add, _axpy
from .hochschild import (_Memo, _check_cap, _graded_words, bounded_words,
                         hochschild_b)
from .simpcx import CollapsedComplex

UNIT_LETTER = ("unit",)


class BoundaryUndefinedError(ValueError):
    """Raised when a corner (pi3) letter is differentiated."""


class TruncationError(ValueError):
    def __init__(self, max_weight: int, cells):
        self.max_weight = max_weight
        self.cells = tuple(cells)
        listed = ", ".join(str(c) for c in self.cells)
        super().__init__(
            f"weight cap {max_weight} cannot hold the comparison map's "
            f"image: cells {listed} produce words up to weight "
            f"dimension + 1")


# -- letters and words --------------------------------------------------------

def degenerate_path(seq, mode: str = "cyclic") -> bool:
    n = len(seq)
    if n == 0:
        return True
    pairs = range(n) if mode == "cyclic" else range(n - 1)
    return any(seq[i] == seq[(i + 1) % n] for i in pairs)


def make_tau(cc: CollapsedComplex, seq, conv: Conventions = DEFAULT):
    """The tau letter of a vertex path: None if degenerate, the unit
    letter if the path is a collapsed tree edge."""
    seq = tuple(seq)
    if degenerate_path(seq, conv.tau_degeneracy):
        return None
    if cc.is_tree_edge(seq):
        return UNIT_LETTER
    return ("tau", seq)


def letter_degree(letter) -> int:
    kind = letter[0]
    if kind == "unit":
        return 0
    if kind == "tau":
        return -(len(letter[1]) - 2)
    if kind == "pi2":
        return -((len(letter[1]) - 1) + (len(letter[2]) - 1) - 1)
    if kind == "pi3":
        return -(sum(len(v) - 1 for v in letter[1:]) - 2)
    raise ValueError(f"unknown letter kind {kind!r}")


def letter_weight(letter) -> int:
    """The edges along its paths, less one for a pair or corner letter:
    1 - degree for tau and corner letters, -degree for the others."""
    return (letter[0] in ("tau", "pi3")) - letter_degree(letter)


def word_degree(word) -> int:
    return sum(letter_degree(l) for l in word)


def normalize_word(letters):
    """The tuple ``letters`` with every unit letter dropped: a unit
    letter in a word is a unit factor, so the word is the same element
    without it.  A tuple without one is returned as it is."""
    if UNIT_LETTER not in letters:
        return letters
    return tuple(l for l in letters if l != UNIT_LETTER)


def mu2(x2, x1, conv: Conventions = DEFAULT):
    """(sign, product word).  The sign is the loop-composition twist
    (-1)^|x1|; the ordering is the convention under test."""
    return (-1) ** (word_degree(x1) % 2), _product(x2, x1, conv)


def _product(x2, x1, conv):
    return normalize_word(x1 + x2 if conv.mu2_order == "path" else x2 + x1)


# The conventions entries a letter's boundary terms (tau_degeneracy,
# mu2_order, pi2_bsplit_sign) and its Leibniz parity (leibniz_prefix)
# read: no other entry reaches the boundary code, so conventions that
# agree on these share a boundary table.
_boundary_key = attrgetter("tau_degeneracy", "mu2_order", "pi2_bsplit_sign",
                           "leibniz_prefix")

class _WordTable(_Memo):
    """A _Memo that keeps only what Alphabet.basis puts in it: any
    other word is graded at each lookup, so one-off words do not stay."""

    def __missing__(self, word):
        return self.rule(word)


class Alphabet:
    """The tau letters of a collapsed complex, each coded by its rank,
    and every fact the loop dga reads of them.

    ``letters`` holds the tau letters of the cells of dimension >= 1,
    sorted, so a code is an index into it and ``codes`` maps each letter
    back; ``degrees`` and ``weights`` hold each code's degree and weight.
    The codes depend on the complex alone, and so do each cap's basis
    (see basis) and ``word_degrees`` and ``word_weights``, the degree and
    weight tables of the basis words.  ``_tables`` holds the boundary
    tables (see _table_for), which the alphabet's holder may clear.  None
    of these refers back to the alphabet, so reference counting frees it.
    """

    def __init__(self, cc: CollapsedComplex):
        if not isinstance(cc, CollapsedComplex):
            raise TypeError(f"the loop dga needs a collapsed complex, not a "
                            f"{type(cc).__name__}: collapse it first")
        self.cc = cc
        self.letters = tuple(sorted(("tau", cell) for cell in cc.cells()
                                    if len(cell) > 1))
        self.codes = {letter: code for code, letter in enumerate(self.letters)}
        self.degrees = [letter_degree(l) for l in self.letters]
        self.weights = [letter_weight(l) for l in self.letters]
        self.word_degrees = _WordTable(
            partial(_code_sum, self.degrees, letter_degree))
        self.word_weights = _WordTable(
            partial(_code_sum, self.weights, letter_weight))
        self._bases = {}
        self._tables = {}

    def basis(self, max_weight: int):
        """The nonempty tau code words of weight <= max_weight, as a
        sorted tuple, enumerated once per cap by _graded_words, with the
        degree and weight of each and of the unit put in the word
        tables."""
        _check_cap(max_weight)  # first: True would find the cap-1 entry
        words = self._bases.get(max_weight)
        if words is None:
            by_degree = _graded_words(range(len(self.letters)),
                                      self.weights.__getitem__,
                                      self.degrees.__getitem__, max_weight)
            for degree, batch in by_degree.items():
                self.word_degrees.update(dict.fromkeys(batch, degree))
                # a tau letter weighs 1 - its degree
                self.word_weights.update(
                    {word: len(word) - degree for word in batch})
            words = self._bases[max_weight] = tuple(sorted(
                chain.from_iterable(by_degree.values())))[1:]  # past ()
        return words

    def _table_for(self, conv: Conventions):
        """The boundary table under conv, shared by every conventions
        value with the same entries of _boundary_key."""
        key = _boundary_key(conv)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _Boundaries(self, conv)
        return table

    def encode(self, word):
        """The code word of a word of letters: each letter of the
        alphabet replaced by its code, any other letter kept."""
        return tuple(map(self.codes.get, word, word))

    def decode(self, word):
        """The word of letters a code word stands for."""
        letters = self.letters
        return tuple(letters[x] if type(x) is int else x for x in word)


def _code_sum(per_code, per_letter, word) -> int:
    """The grade of a code word, the one rule of both word tables:
    per_code[x] for each code x, per_letter(x) for any other letter."""
    return sum([per_code[x] if type(x) is int else per_letter(x)
                for x in word])


# -- boundaries ---------------------------------------------------------------

def tau_boundary(cc, seq, conv: Conventions = DEFAULT) -> dict:
    """Inner faces with alternating signs, then splits into two subpaths
    multiplied together.  Degenerate pieces drop; tree-edge pieces turn
    into units and disappear from the word."""
    out = {}
    seq = tuple(seq)
    k = len(seq) - 1
    for j in range(1, k):
        t = make_tau(cc, seq[:j] + seq[j + 1:], conv)
        if t is not None:
            _add(out, normalize_word((t,)), (-1) ** j)
    for r in range(1, k):
        t1 = make_tau(cc, seq[:r + 1], conv)
        t2 = make_tau(cc, seq[r:], conv)
        if t1 is not None and t2 is not None:
            s, w = mu2((t2,), (t1,), conv)
            _add(out, w, s)
    return out


def pi2_vanishes(cc, A, B) -> bool:
    # the supporting cell is a collapsed tree edge
    return (len(A) - 1 + len(B) - 1 - 1 == 1
            and cc.is_tree_edge(tuple(sorted(set(A)))))


def pi2_boundary(cc, A, B, conv: Conventions = DEFAULT) -> dict:
    """Boundary of a pair letter: the basepoint face (unit word, only in
    the edge case), the two-path product face, inner faces of either
    path, and splits of either path into corner letters."""
    out = {}
    A, B = tuple(A), tuple(B)
    alpha, beta = len(A) - 1, len(B) - 1
    k = alpha + beta - 1
    if k == 1:
        _add(out, (), 1)
    tA = make_tau(cc, A, conv)
    tB = make_tau(cc, B, conv)
    if tA is not None and tB is not None:
        s, w = mu2((tB,), (tA,), conv)
        _add(out, w, s * (-1) ** beta)
    for p in range(1, alpha):
        sub = A[:p] + A[p + 1:]
        if not degenerate_path(sub, conv.tau_degeneracy) \
                and not pi2_vanishes(cc, sub, B):
            _add(out, (("pi2", sub, B),), (-1) ** p)
    for p in range(1, beta):
        sub = B[:p] + B[p + 1:]
        if not degenerate_path(sub, conv.tau_degeneracy) \
                and not pi2_vanishes(cc, A, sub):
            _add(out, (("pi2", A, sub),), (-1) ** (alpha + p + 1))
    for p in range(1, alpha):
        _add(out, (("pi3", A[:p + 1], A[p:], B),), (-1) ** (p + 1))
    for p in range(1, beta):
        if conv.pi2_bsplit_sign == "geometric":
            sgn = (-1) ** (alpha + p)
        else:  # the published exponent
            sgn = (-1) ** (p + 1)
        _add(out, (("pi3", A, B[:p + 1], B[p:]),), sgn)
    return out


def letter_boundary(cc, letter, conv: Conventions = DEFAULT) -> dict:
    kind = letter[0]
    if kind == "tau":
        return tau_boundary(cc, letter[1], conv)
    if kind == "pi2":
        return pi2_boundary(cc, letter[1], letter[2], conv)
    if kind == "unit":
        raise ValueError(f"a code word holds no unit letter {letter!r}: "
                         f"drop it (see normalize_word)")
    if kind == "pi3":
        raise BoundaryUndefinedError(
            "corner (pi3) letters have no boundary here: they only occur "
            "as terminal output terms")
    raise ValueError(f"unknown letter kind {kind!r}")


class _Boundaries:
    """The boundary table of an alphabet under one conventions value,
    which reads only the entries of _boundary_key.  It keeps the
    alphabet's per-code data, not the alphabet, which holds the table.

    ``entries`` maps a letter of a code word (a code, or a letter
    outside the alphabet) to its entry: the letter's boundary terms as
    code words with their signs, the same terms negated, and the parity
    (0 or 1) the letter adds to the Leibniz prefix exponent.  ``entry``
    makes a letter's entry on first use, and ``free`` collects the
    letters met whose boundary has no terms (edge letters): a word made
    of these alone has no boundary.  A letter whose boundary raises gets
    no entry: the unit letter, which no code word holds, is one.
    """

    def __init__(self, alphabet: Alphabet, conv: Conventions):
        self.cc, self.letters = alphabet.cc, alphabet.letters
        self.codes, self.degrees = alphabet.codes, alphabet.degrees
        self.conv = conv
        self.entries = {}
        self.free = set()

    def entry(self, x):
        """Make, keep and return the entry of a letter met first."""
        letters, conv = self.letters, self.conv
        if type(x) is int:
            if not 0 <= x < len(letters):
                raise ValueError(f"no letter has the code {x}")
            letter, degree = letters[x], self.degrees[x]
        else:
            letter, degree = x, letter_degree(x)
        code = self.codes.get  # encode, inline: this runs per table
        plus = tuple([(tuple([code(l, l) for l in t]), c) for t, c
                      in letter_boundary(self.cc, letter, conv).items()])
        minus = tuple((t, -c) for t, c in plus)
        parity = (degree + (conv.leibniz_prefix == "reduced")) % 2
        entry = self.entries[x] = plus, minus, parity
        if not plus:
            self.free.add(x)
        return entry


def _alphabet(source):
    """source if it is an alphabet, else a new alphabet of the collapsed
    complex source."""
    return source if isinstance(source, Alphabet) else Alphabet(source)


# The boundary table of the most recent complex passed bare to
# word_boundary or dga_differential, as (complex, conventions, table),
# matched by identity, so a loop of such calls on one pair makes one
# alphabet and fills one table.  It keeps the table, not its alphabet;
# a call given an alphabet uses the alphabet's table and leaves it.
_table = (None, None, None)


def _table_of(source, conv):
    """The boundary table of an alphabet under conv, or of a new
    alphabet of a bare complex, which becomes _table's."""
    global _table
    if isinstance(source, Alphabet):
        return source._table_for(conv)
    table = Alphabet(source)._table_for(conv)
    _table = (source, conv, table)
    return table


def _leibniz_into(out, word, scale, table):
    """Add scale * d(word) into out, term by term.

    The Leibniz loop of word_boundary and dga_differential, on a code
    word.  The terms of the letter in slot i carry the sign (-1)^e, where
    e is the degree of the prefix word[:i], plus its length under the
    reduced prefix convention; e is kept as a running parity, which picks
    the letter's terms with that sign out of its table entry.  The first
    letter to add terms to an empty out stores them without lookups: a
    letter's terms are distinct words, so none of them can meet another.
    A zero scale adds nothing, but the letters are still looked up, so a
    corner letter raises wherever it sits.
    """
    entries = table.entries
    odd = 0
    for i, letter in enumerate(word):
        try:
            entry = entries[letter]
        except KeyError:  # met first: rare, so the lookup stays cheap
            entry = table.entry(letter)
        terms = entry[odd]
        if terms and scale:
            head, tail = word[:i], word[i + 1:]
            if out:
                for t, c in terms:
                    w = head + t + tail
                    c = c * scale + out.get(w, 0)
                    if c:
                        out[w] = c
                    else:
                        del out[w]
            else:
                for t, c in terms:
                    out[head + t + tail] = c * scale
        odd ^= entry[2]


def word_boundary(cc, word, conv: Conventions = DEFAULT) -> dict:
    """Leibniz extension of the letter boundary to code words (see
    _boundary)."""
    table_cc, table_conv, table = _table
    if table_cc is not cc or table_conv is not conv:
        table = _table_of(cc, conv)
    return _boundary(table, word)


def _boundary(table, word) -> dict:
    """The boundary of a code word under a boundary table.  A word of
    letters the table knows to be boundary-free has none, and returns at
    once; any other word goes through the Leibniz loop that
    dga_differential shares (_leibniz_into)."""
    if table.free.issuperset(word):
        return {}
    out = {}
    _leibniz_into(out, word, 1, table)
    return out


def dga_differential(cc, vector, conv: Conventions = DEFAULT) -> dict:
    """The differential on a vector of code words.

    Every word that is not boundary-free adds its boundary, times its
    coefficient, straight into one output dict, through the Leibniz loop
    word_boundary shares: no dict per word.
    """
    if not vector:
        return {}
    table_cc, table_conv, table = _table
    if table_cc is not cc or table_conv is not conv:
        table = _table_of(cc, conv)
    free = table.free
    out = {}
    for word, c in vector.items():
        if not free.issuperset(word):
            _leibniz_into(out, word, c, table)
    return out


# -- the loop dga as a hochschild algebra -------------------------------------

class LoopAlgebra:
    """The based-loop dga of a collapsed complex, in the interface the
    cyclic bar machinery expects.  Elements are code words of its
    ``alphabet``; the basis words are built from its tau letters only
    (pair and corner letters occur in comparison-map images, and mu1
    handles them, but they are not part of the algebra's own basis).  It
    is a view of the alphabet: ``degree`` and ``weight`` are lookups in
    its word tables, which open no Python frame, ``decode`` and
    ``basis`` are the alphabet's, and mu1 reads its boundary table under
    conv."""

    def __init__(self, cc, conv: Conventions = DEFAULT):
        self.alphabet = alphabet = _alphabet(cc)
        self.cc = alphabet.cc
        self.conv = conv
        self._boundaries = alphabet._table_for(conv)
        self.degree = alphabet.word_degrees.__getitem__
        self.weight = alphabet.word_weights.__getitem__
        self.decode = alphabet.decode

    def unit(self):
        return ()

    def mu1(self, word) -> dict:
        return _boundary(self._boundaries, word)

    def mu2(self, x2, x1) -> dict:
        sign = -1 if self.degree(x1) % 2 else 1
        return {_product(x2, x1, self.conv): sign}

    def letters(self):
        """The codes of the alphabet, in order."""
        return list(range(len(self.alphabet.letters)))

    def basis(self, max_weight: int):
        """All nonempty tau words of weight <= max_weight, sorted: the
        alphabet's tuple (see Alphabet.basis)."""
        return self.alphabet.basis(max_weight)


# -- the loop complex, materialized -------------------------------------------

class LoopComplexModel(NamedTuple):
    complex: FreeComplex
    words_by_degree: dict  # degree -> sorted list of code words
    max_weight: int

    def word_count(self) -> int:
        return sum(len(ws) for ws in self.words_by_degree.values())


def loop_words(cc, max_weight: int, conv: Conventions = DEFAULT):
    """Every code word of the weight-capped loop dga, the unit included,
    sorted.  The words read no conventions entry."""
    _check_cap(max_weight)
    alphabet = _alphabet(cc)
    return bounded_words(range(len(alphabet.letters)),
                         alphabet.weights.__getitem__, max_weight)


def based_loop_complex(cc, max_weight: int,
                       conv: Conventions = DEFAULT) -> LoopComplexModel:
    """The weight-capped loop complex as an integer chain complex.

    The differential never raises weight, so the cap is a subcomplex and
    the complex is exact data, not an approximation.  Degrees are
    cohomological and nonpositive.

    The words are those of loop_words, filed by degree as the
    enumerator meets them (see _graded_words): each degree's list is
    sorted, and the degrees come in the order loop_words first meets
    them.
    """
    _check_cap(max_weight)
    alphabet = _alphabet(cc)
    by_degree = _graded_words(range(len(alphabet.letters)),
                              alphabet.weights.__getitem__,
                              alphabet.degrees.__getitem__, max_weight)
    complex_ = FreeComplex.from_basis(
        by_degree, partial(_boundary, alphabet._table_for(conv)))
    return LoopComplexModel(complex=complex_,
                            words_by_degree=by_degree, max_weight=max_weight)


# -- the comparison map into the cyclic bar complex ---------------------------

def _word_term_sign(conv, d, j1, jd, k) -> int:
    e = d + j1 * (k + 1) + jd
    if conv.t_word_sign == "corrected":
        e += k + 1
    return (-1) ** (e % 2)


def _pair_first_sign(j1, j2, k) -> int:
    return (-1) ** ((j1 * (k + 1) + j2 + 1) % 2)


def _pair_second_sign(conv, j1, j2, k) -> int:
    e = j1 + j2 * (k + 1) + k
    if conv.t_pair2_sign == "printed":
        e += 1
    return (-1) ** (e % 2)


def adams_T(cc, cell, conv: Conventions = DEFAULT) -> dict:
    """Image of a cell in the normalized cyclic bar complex of the loop
    dga.

    Word terms: for each division 0 <= j_1 < ... < j_d <= k of the
    cell's vertex list, the slots are the runs between consecutive
    division points, the last slot wrapping around through the end and
    the start; the output entry order is slots reversed, the wrap slot
    leftmost (special).  A degenerate slot path kills the term; a
    tree-edge slot becomes the unit word, which the normalized complex
    keeps in the special slot only.

    Pair terms: for each j_1 < j_2 both orientations of the cut pair of
    paths occur as single-entry words, when the pair is not supported on
    a collapsed edge.

    The entries are code words of the alphabet.
    """
    alphabet = _alphabet(cc)
    cc, code = alphabet.cc, alphabet.codes.get
    out = {}
    u = tuple(cell)
    k = len(u) - 1
    for d in range(1, k + 2):
        for js in combinations(range(k + 1), d):
            slots = []  # each slot's code word, first slot first
            ok = True
            for i in range(1, d + 1):
                if i < d:
                    seq = u[js[i - 1]:js[i] + 1]
                else:
                    seq = u[js[d - 1]:] + u[:js[0] + 1]
                letter = make_tau(cc, seq, conv)
                if letter is None:
                    ok = False
                    break
                slots.append(() if letter == UNIT_LETTER
                             else (code(letter, letter),))
            if not ok:
                continue
            ccw = tuple(reversed(slots))
            if () in ccw[1:]:
                continue
            _add(out, ccw, _word_term_sign(conv, d, js[0], js[d - 1], k))
    for j1, j2 in combinations(range(k + 1), 2):
        u1 = u[j1:j2 + 1]
        u2 = u[j2:] + u[:j1 + 1]
        if degenerate_path(u1, conv.tau_degeneracy) \
                or degenerate_path(u2, conv.tau_degeneracy):
            continue
        if not pi2_vanishes(cc, u1, u2):
            _add(out, ((("pi2", u1, u2),),), _pair_first_sign(j1, j2, k))
        if not pi2_vanishes(cc, u2, u1):
            _add(out, ((("pi2", u2, u1),),), _pair_second_sign(conv, j1, j2, k))
    return out


class TVerification(NamedTuple):
    cells: tuple
    residuals: dict      # cell -> residual vector, nonzero entries only
    corner_census: dict  # pi3-bearing code word -> (plus count, minus count)

    @property
    def corners_balanced(self) -> bool:
        return all(p == m for p, m in self.corner_census.values())

    @property
    def ok(self) -> bool:
        return not self.residuals and self.corners_balanced


def t_residual(cc, cell, conv: Conventions = DEFAULT) -> dict:
    """b(T(cell)) - T(cellular boundary of cell); zero iff T is a chain
    map at this cell."""
    return _t_residual(LoopAlgebra(cc, conv), cell, None)


def _t_residual(algebra, cell, census) -> dict:
    """t_residual in the loop algebra of its complex and conventions,
    which t_residuals shares across its cells.  When a census dict is
    passed, every corner-letter word produced by the bar differential is
    tallied there with its sign before any cancellation."""
    cc, conv, alphabet = algebra.cc, algebra.conv, algebra.alphabet
    out = {}
    for w, c in adams_T(alphabet, cell, conv).items():
        for t, c2 in hochschild_b(algebra, w, c,
                                  arity=conv.hochschild_arity).items():
            if census is not None and _has_corner(t):
                plus, minus = census.get(t, (0, 0))
                if c2 > 0:
                    census[t] = (plus + c2, minus)
                else:
                    census[t] = (plus, minus - c2)
            _add(out, t, c2)
    for face, cf in cc.boundary(cell).items():
        _axpy(out, adams_T(alphabet, face, conv), -cf)
    return out


def _has_corner(ccword) -> bool:
    return any(type(letter) is not int and letter[0] == "pi3"
               for entry in ccword for letter in entry)


def t_residuals(cc, conv: Conventions = DEFAULT, *,
                max_weight: int | None = None, census: dict | None = None):
    """Yield (cell, residual) for every surviving positive cell, lazily,
    in dimension order, zero residuals included.

    A caller that stops at the first nonzero residual computes no later
    cell.  The corner census, when passed, holds the tally of the cells
    yielded so far (see _t_residual).  The image of a k-cell reaches
    weight k + 1, so a weight cap below that cannot even hold the map's
    values: that raises a truncation error before any residual is
    computed.  A cap that is
    not an int, or is negative, is refused first.
    """
    algebra = LoopAlgebra(cc, conv)
    cc = algebra.cc
    cells = []
    top = cc.source.dimension()
    for dim in range(1, top + 1):
        cells.extend(cc.cells(dim=dim))
    if max_weight is not None:
        _check_cap(max_weight)
        overflow = [c for c in cells if len(c) > max_weight]
        if overflow:
            raise TruncationError(max_weight, overflow)
    for cell in cells:
        yield cell, _t_residual(algebra, cell, census)


def verify_T_chain_map(cc, conv: Conventions = DEFAULT, *,
                       max_weight: int | None = None) -> TVerification:
    """Residual of the comparison map on every surviving positive cell
    (see t_residuals); ok when every residual vanishes and the corner
    terms cancel in pairs."""
    cells = []
    residuals = {}
    census = {}
    for cell, r in t_residuals(cc, conv, max_weight=max_weight,
                               census=census):
        cells.append(cell)
        if r:
            residuals[cell] = r
    return TVerification(cells=tuple(cells), residuals=residuals,
                         corner_census=census)


# -- rendering ----------------------------------------------------------------

def format_letter(letter) -> str:
    kind = letter[0]
    if kind == "unit":
        return "1"
    body = "|".join(",".join(str(v) for v in seq) for seq in letter[1:])
    return {"tau": "t", "pi2": "p", "pi3": "q"}[kind] + "[" + body + "]"


def format_word(word, alphabet: Alphabet) -> str:
    """A code word of ``alphabet``, decoded and written out."""
    if not word:
        return "1"
    return "*".join(format_letter(l) for l in alphabet.decode(word))


def format_cyclic_word(ccword, alphabet: Alphabet) -> str:
    """A cyclic word of code words of ``alphabet``, written out."""
    return "(" + " ; ".join(format_word(w, alphabet) for w in ccword) + ")"
