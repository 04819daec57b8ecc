"""Finite simplicial complexes given by facet lists.

A complex document is JSON with keys "name", "vertices", "facets".
Vertices are distinct nonnegative integer labels; each facet is a
strictly increasing list of vertex labels.  The complex is the downward
closure of its facets.

Two homology pipelines are provided on purpose.  homology() runs over
the full simplicial chain complex; collapsed_homology() first collapses
a breadth-first spanning tree to a point and uses the much smaller
cellular complex.  For a connected complex the two agree in every
positive degree, and the test suite holds them to that.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .exactalg import (FreeComplex, HomologySummary, _add,
                       homology as _complex_homology)


class ParseError(ValueError):
    """Malformed complex document.  The message names the location."""


class SimplicialComplex(NamedTuple):
    name: str
    vertices: tuple
    facets: tuple

    def cells(self, dim: int | None = None):
        """All cells (nonempty faces of facets) as sorted tuples."""
        out = set()
        for f in self.facets:
            for r in range(1, len(f) + 1):
                out.update(combinations(f, r))
        for v in self.vertices:
            out.add((v,))
        if dim is not None:
            out = {c for c in out if len(c) == dim + 1}
        return sorted(out)

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=0)


def _decode(document):
    """A JSON string decoded, or an already-decoded document as it is."""
    if isinstance(document, (str, bytes)):
        try:
            return json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from None
    return document


def parse_complex(document) -> SimplicialComplex:
    """Parse a JSON string or already-decoded dict into a complex.

    Every rejection names where the problem sits: which key, which facet
    index, which entry.
    """
    document = _decode(document)
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    for key in ("name", "vertices", "facets"):
        if key not in document:
            raise ParseError(f"missing key {key!r}")
    name = document["name"]
    if not isinstance(name, str):
        raise ParseError("name: must be a string")
    raw_vertices = document["vertices"]
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices: must be a list")
    if not raw_vertices:
        raise ParseError("vertices: empty vertex list")
    seen = set()
    for pos, v in enumerate(raw_vertices):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ParseError(f"vertices[{pos}]: {v!r} is not a nonnegative integer")
        if v in seen:
            raise ParseError(f"vertices[{pos}]: duplicate vertex {v}")
        seen.add(v)
    vertices = tuple(sorted(seen))
    raw_facets = document["facets"]
    if not isinstance(raw_facets, list):
        raise ParseError("facets: must be a list")
    facets = []
    for fpos, facet in enumerate(raw_facets):
        if not isinstance(facet, list) or not facet:
            raise ParseError(f"facets[{fpos}]: must be a nonempty list")
        for epos, v in enumerate(facet):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"facets[{fpos}][{epos}]: {v!r} is not an integer")
            if v not in seen:
                raise ParseError(
                    f"facets[{fpos}][{epos}]: vertex {v} out of range "
                    f"(not in the vertex list)")
        for a, b in zip(facet, facet[1:]):
            if a >= b:
                raise ParseError(
                    f"facets[{fpos}]: entries not strictly increasing "
                    f"({a} before {b})")
        facets.append(tuple(facet))
    return SimplicialComplex(name=name, vertices=vertices,
                             facets=tuple(facets))


def serialize_complex(sc: SimplicialComplex) -> str:
    """Canonical document text: fixed key order, two-space indent."""
    doc = {"name": sc.name,
           "vertices": list(sc.vertices),
           "facets": [list(f) for f in sc.facets]}
    return json.dumps(doc, indent=2) + "\n"


def load_complex(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def spanning_tree(sc: SimplicialComplex):
    """Breadth-first spanning tree from the smallest vertex.

    Neighbors are visited in sorted order, so the tree is a function of
    the complex alone.  Returns a set of frozenset edges.  Raises
    ValueError when the 1-skeleton is disconnected: collapsing to a
    point needs one component.
    """
    adj = {v: set() for v in sc.vertices}
    for cell in sc.cells(dim=1):
        a, b = cell
        adj[a].add(b)
        adj[b].add(a)
    root = sc.vertices[0]
    tree = set()
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                tree.add(frozenset((v, w)))
                queue.append(w)
    if len(seen) != len(sc.vertices):
        missing = sorted(set(sc.vertices) - seen)
        raise ValueError(f"complex is not connected: vertex {missing[0]} "
                         f"unreachable from {root}")
    return tree


class CollapsedComplex(NamedTuple):
    """A complex with a spanning tree collapsed to the basepoint.

    Cells: the single basepoint in dimension 0, every non-tree edge in
    dimension 1, and every simplex of dimension >= 2 unchanged.  The
    cellular boundary is the simplicial boundary with tree edges deleted
    and all vertices identified (so edge boundaries vanish).
    """
    source: SimplicialComplex
    tree: frozenset

    def is_tree_edge(self, cell) -> bool:
        return len(cell) == 2 and frozenset(cell) in self.tree

    def surviving(self, cell) -> bool:
        if len(cell) == 1:
            return cell == (self.source.vertices[0],)
        return not self.is_tree_edge(cell)

    def cells(self, dim: int | None = None):
        out = [c for c in self.source.cells(dim) if self.surviving(c)]
        return out

    def boundary(self, cell):
        """Cellular boundary as {face: coefficient}.  Empty for dim <= 1."""
        out = {}
        if len(cell) <= 2:
            return out
        for j in range(len(cell)):
            face = cell[:j] + cell[j + 1:]
            if not self.is_tree_edge(face):
                _add(out, face, (-1) ** j)
        return out


def collapse(sc: SimplicialComplex) -> CollapsedComplex:
    return CollapsedComplex(source=sc, tree=frozenset(spanning_tree(sc)))


def chain_complex(sc: SimplicialComplex) -> FreeComplex:
    """Full simplicial chain complex, graded cohomologically (n-cells in
    degree -n)."""
    cells_by_degree = {}
    for cell in sc.cells():
        cells_by_degree.setdefault(1 - len(cell), []).append(cell)
    return FreeComplex.from_basis(
        cells_by_degree,
        lambda cell: {cell[:j] + cell[j + 1:]: (-1) ** j
                      for j in range(len(cell))})


def collapsed_chain_complex(cc: CollapsedComplex) -> FreeComplex:
    top = cc.source.dimension()
    return FreeComplex.from_basis(
        {-k: cc.cells(dim=k) for k in range(top + 1)}, cc.boundary)


def _positive_grading(summaries) -> dict:
    return {-n: HomologySummary(degree=-n, rank=s.rank, torsion=s.torsion)
            for n, s in summaries.items()}


def homology(sc: SimplicialComplex) -> dict:
    """Simplicial homology {n: HomologySummary}, n >= 0."""
    return _positive_grading(_complex_homology(chain_complex(sc)))


def collapsed_homology(sc: SimplicialComplex) -> dict:
    """Homology computed from the collapsed cellular complex."""
    return _positive_grading(_complex_homology(collapsed_chain_complex(collapse(sc))))
