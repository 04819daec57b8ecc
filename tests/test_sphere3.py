"""The 3-sphere as the boundary of the 4-simplex: a closed 3-manifold.

Every value here is a capped raw group or a verdict, decided on the
fixture; none of them is H_*(OmegaS^3) or H_*(LS^3), which need higher
caps or the image of one cap in the next.  The fixture is not among the
report's fixtures, so it moves no report bytes.
"""

from pathlib import Path

import pytest

from loopchains.cobarloop import (LoopAlgebra, based_loop_complex,
                                  dga_differential, loop_words,
                                  verify_T_chain_map, word_boundary)
from loopchains.conventions import CHOICES, DEFAULT
from loopchains.exactalg import homology
from loopchains.freeloop import verify_G_chain_map
from loopchains.hochschild import hh_truncated
from loopchains.simpcx import collapse, collapsed_chain_complex, load_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def sphere3():
    return collapse(load_complex(FIXTURES / "boundary_delta4.json"))


def _groups(complex_):
    return {n: (h.rank, h.torsion) for n, h in homology(complex_).items()}


def test_the_collapse_keeps_the_homology_of_the_sphere(sphere3):
    assert [len(sphere3.cells(dim=k)) for k in range(4)] == [1, 6, 10, 5]
    assert _groups(collapsed_chain_complex(sphere3)) == {
        0: (1, ()), -1: (0, ()), -2: (0, ()), -3: (1, ())}


def test_t_and_g_are_chain_maps(sphere3):
    t = verify_T_chain_map(sphere3, DEFAULT)
    assert t.ok and len(t.cells) == 21
    alg = LoopAlgebra(sphere3, DEFAULT)
    for max_len, words in ((2, 982), (3, 1198)):
        g = verify_G_chain_map(alg, DEFAULT, max_len=max_len, max_weight=3)
        assert (g.ok, g.words_checked) == (True, words)


def _d_squared_failures(cc, conv):
    """(words, words whose d^2 is not zero) at weight cap 4."""
    words = loop_words(cc, 4, conv)
    bad = sum(1 for w in words
              if dga_differential(cc, word_boundary(cc, w, conv), conv))
    return len(words), bad


# which checks each single ledger flip fails on the 3-sphere
FLIP_VERDICTS = {
    "leibniz_prefix": ("d2",),
    "mu2_order": ("G",),
    "hochschild_arity": ("T", "G"),
    "tau_degeneracy": ("T",),
    "pi2_bsplit_sign": ("T",),
    "t_word_sign": ("T",),
    "t_pair2_sign": ("T",),
    "wedge_sign_left": ("G",),
    "wedge_sign_right": ("G",),
    "wedge_sign_cat": ("G",),
    "wedge_sign_swap": ("G",),
    "g_parity_s": ("G",),
    "iota_twist": (),
}


def test_every_flip_but_the_twist_fails_a_check(sphere3):
    assert set(FLIP_VERDICTS) == set(CHOICES)
    assert _d_squared_failures(sphere3, DEFAULT) == (2930, 0)
    for entry, want in FLIP_VERDICTS.items():
        conv = DEFAULT.flip(entry)
        words, bad = _d_squared_failures(sphere3, conv)
        failed = tuple(name for name, ok in (
            ("d2", not bad),
            ("T", verify_T_chain_map(sphere3, conv).ok),
            ("G", verify_G_chain_map(LoopAlgebra(sphere3, conv), conv).ok))
            if not ok)
        assert failed == want, entry
        if entry == "leibniz_prefix":
            assert (words, bad) == (2930, 113)


def test_based_loop_complex_at_cap_four(sphere3):
    model = based_loop_complex(sphere3, 4)
    assert model.word_count() == 2930
    assert _groups(model.complex) == {0: (893, ()), -1: (384, ()),
                                      -2: (1, ())}


@pytest.mark.parametrize("degree, cap, rank, torsion", [
    (0, 2, 18, ()), (0, 3, 54, ()), (-1, 2, 17, ()), (-1, 3, 68, (2,) * 6),
])
def test_truncated_cyclic_homology_at_low_caps(sphere3, degree, cap, rank,
                                               torsion):
    summary = hh_truncated(LoopAlgebra(sphere3), degree, cap).summary
    assert (summary.rank, summary.torsion) == (rank, torsion)
