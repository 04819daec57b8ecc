import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from loopchains.exactalg import validate_complex
from loopchains.simpcx import (
    ParseError,
    SimplicialComplex,
    chain_complex,
    collapse,
    collapsed_homology,
    homology,
    load_complex,
    parse_complex,
    serialize_complex,
    spanning_tree,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return load_complex(FIXTURES / name)


# -- parsing ---------------------------------------------------------------

def test_parse_round_trip_is_identity():
    for name in ("s1_3.json", "boundary_delta3.json", "torus_7.json",
                 "rp2.json"):
        text = (FIXTURES / name).read_text()
        sc = parse_complex(text)
        assert serialize_complex(sc) == text
        assert parse_complex(serialize_complex(sc)) == sc


def test_parse_error_out_of_range_names_location():
    doc = {"name": "x", "vertices": [0, 1], "facets": [[0, 1], [1, 7]]}
    with pytest.raises(ParseError, match=r"facets\[1\]\[1\]: vertex 7 out of range"):
        parse_complex(json.dumps(doc))


def test_parse_error_not_increasing_names_location():
    doc = {"name": "x", "vertices": [0, 1, 2], "facets": [[2, 1]]}
    with pytest.raises(ParseError, match=r"facets\[0\]: entries not strictly increasing"):
        parse_complex(doc)


def test_parse_error_repeated_vertex_in_facet():
    doc = {"name": "x", "vertices": [0, 1], "facets": [[0, 0]]}
    with pytest.raises(ParseError, match="not strictly increasing"):
        parse_complex(doc)


def test_parse_error_empty_vertex_list():
    with pytest.raises(ParseError, match="empty vertex list"):
        parse_complex({"name": "x", "vertices": [], "facets": []})


def test_parse_error_missing_key():
    with pytest.raises(ParseError, match="missing key 'facets'"):
        parse_complex({"name": "x", "vertices": [0]})


def test_parse_error_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_complex("{not json")


# -- spanning tree and collapse --------------------------------------------

def test_tree_is_deterministic_bfs():
    sc = fixture("boundary_delta3.json")
    tree = spanning_tree(sc)
    # BFS from 0 with sorted neighbors reaches 1, 2, 3 directly
    assert tree == {frozenset((0, 1)), frozenset((0, 2)), frozenset((0, 3))}


def test_disconnected_rejected():
    sc = SimplicialComplex("two points", (0, 1), ())
    with pytest.raises(ValueError, match="not connected"):
        spanning_tree(sc)


def census(cc):
    """Surviving cell counts per dimension, dimension 0 first."""
    return tuple(len(cc.cells(dim=k))
                 for k in range(cc.source.dimension() + 1))


def test_collapse_census_boundary_delta3():
    assert census(collapse(fixture("boundary_delta3.json"))) == (1, 3, 4)


def test_collapse_census_torus():
    assert census(collapse(fixture("torus_7.json"))) == (1, 15, 14)


def test_collapsed_boundary_drops_tree_faces():
    cc = collapse(fixture("boundary_delta3.json"))
    # faces of (1,2,3) are (2,3), (1,3), (1,2); none is a tree edge
    assert cc.boundary((1, 2, 3)) == {(2, 3): 1, (1, 3): -1, (1, 2): 1}
    # faces of (0,1,2): (1,2) survives, (0,2) and (0,1) are tree edges
    assert cc.boundary((0, 1, 2)) == {(1, 2): 1}


# -- homology ---------------------------------------------------------------

def test_homology_circle():
    h = homology(fixture("s1_3.json"))
    assert (h[1].rank, h[1].torsion) == (1, ())


def test_homology_sphere():
    h = homology(fixture("boundary_delta3.json"))
    assert (h[0].rank, h[1].rank, h[2].rank) == (1, 0, 1)
    assert h[2].torsion == ()


def test_homology_torus():
    h = homology(fixture("torus_7.json"))
    assert (h[1].rank, h[1].torsion) == (2, ())
    assert (h[2].rank, h[2].torsion) == (1, ())


def test_homology_projective_plane():
    h = homology(fixture("rp2.json"))
    assert (h[1].rank, h[1].torsion) == (0, (2,))
    assert (h[2].rank, h[2].torsion) == (0, ())


def test_dual_path_agreement_on_fixtures():
    for name in ("s1_3.json", "boundary_delta3.json", "torus_7.json",
                 "rp2.json"):
        sc = fixture(name)
        full = homology(sc)
        collapsed = collapsed_homology(sc)
        top = sc.dimension()
        for n in range(1, top + 1):
            assert full[n] == collapsed[n], (name, n)


def test_chain_complexes_are_complexes():
    for name in ("torus_7.json", "rp2.json"):
        assert validate_complex(chain_complex(fixture(name))).ok


# -- random complexes: collapse preserves positive-degree homology ----------

@st.composite
def connected_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pool = list(range(n))
    count = draw(st.integers(min_value=1, max_value=7))
    facets = set()
    for _ in range(count):
        size = draw(st.integers(min_value=2, max_value=min(4, n)))
        start = draw(st.integers(min_value=0, max_value=n - size))
        facets.add(tuple(pool[start:start + size]))
    # chain edges keep the 1-skeleton connected
    for v in range(n - 1):
        facets.add((v, v + 1))
    return SimplicialComplex("random", tuple(pool), tuple(sorted(facets)))


@settings(max_examples=25, deadline=None)
@given(connected_complexes())
def test_collapse_preserves_positive_homology(sc):
    assume(len(sc.vertices) >= 2)

    def group(summaries, n):
        s = summaries.get(n)
        return (s.rank, s.torsion) if s else (0, ())

    full = homology(sc)
    collapsed = collapsed_homology(sc)
    for n in range(1, sc.dimension() + 1):
        assert group(full, n) == group(collapsed, n)
