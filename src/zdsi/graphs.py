"""Confusability graphs, exact chromatic numbers, and coloring extraction.

Two source symbols are confusable when some side-information symbol has
positive joint probability with both, i.e. when their SI supports meet; the
characteristic graph collects those pairs as edges.  ``_neighbor_masks`` is
the one place that rule is written, for single symbols, for the cells of
``induced_graph`` and for the quantizer cloud's RI instances.  Chromatic
numbers are computed exactly by branch-and-bound backtracking (greedy upper
bound, greedy clique lower bound) with a hard cap of 20 vertices so the
exactness contract stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleProtocol, InvalidArgument, TooLarge
from .probability import Alphabet, JointPMF, cell_labels

CHROMATIC_CAP = 20


@dataclass(frozen=True)
class CharacteristicGraph:
    """Simple graph on a vertex alphabet; edges are index pairs (i, j), i < j."""

    vertices: Alphabet
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def adjacent(self, u: int, v: int) -> bool:
        return self.adjacency[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def is_isolated(self, v: int) -> bool:
        return self.adjacency[v] == 0


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring; colors are 0..count-1 and all used."""

    colors: tuple[int, ...]
    count: int

    def __post_init__(self) -> None:
        if set(self.colors) != set(range(self.count)):
            raise InvalidArgument("colors must be exactly 0..count-1, all used")


def _neighbor_masks(si: list[int]) -> tuple[int, ...]:
    """Neighbor bitmask per symbol, given each symbol's SI-support bitmask:
    two symbols are confusable iff their SI supports meet."""
    return tuple(sum(1 << b for b, other in enumerate(si) if b != a and other & mask) for a, mask in enumerate(si))


def _graph(vertices: Alphabet, pmf: JointPMF, members) -> CharacteristicGraph:
    """Graph on the cells ``members`` (lists of source rows), each cell's SI
    support being the union of its members'."""
    si = [sum(1 << y for y in range(pmf.ncols) if any(pmf.probs[i][y] > 0 for i in ms)) for ms in members]
    adjacency = _neighbor_masks(si)
    edges = frozenset((u, v) for u, mask in enumerate(adjacency) for v in range(u + 1, len(si)) if mask >> v & 1)
    return CharacteristicGraph(vertices, edges)


def build_characteristic_graph(pmf: JointPMF) -> CharacteristicGraph:
    """Edge (x, x') iff some y has P(x,y) > 0 and P(x',y) > 0."""
    return _graph(pmf.source, pmf, [(x,) for x in range(pmf.nrows)])


def induced_graph(pmf: JointPMF, partition) -> CharacteristicGraph:
    """Characteristic graph of the cell index under a source partition.

    ``partition`` is either a Partition (anything with a ``cells`` attribute)
    or the cell-index sequence itself, cell indices contiguous from 0.
    """
    cells = getattr(partition, "cells", partition)
    members = [[i for i, c in enumerate(cells) if c == z] for z in range(max(cells) + 1)]
    return _graph(Alphabet("Z", cell_labels(pmf.source, members)), pmf, members)


def is_complete(g: CharacteristicGraph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def _search_order(g: CharacteristicGraph) -> list[int]:
    # degree descending, ties by index: deterministic witnesses
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _greedy_coloring(g: CharacteristicGraph, order: list[int]) -> list[int]:
    colors = [-1] * g.n
    for v in order:
        taken = 0
        mask = g.adjacency[v]
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
    return colors

def _greedy_clique(g: CharacteristicGraph, order: list[int]) -> int:
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~g.adjacency[v] == 0:
            clique_mask |= 1 << v
            size += 1
    return size


def _exact_k_coloring(g: CharacteristicGraph, order: list[int], k: int) -> list[int] | None:
    colors = [-1] * g.n

    def rec(pos: int, used: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        forbidden = 0
        mask = g.adjacency[v]
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if colors[u] >= 0:
                forbidden |= 1 << colors[u]
        for c in range(min(used + 1, k)):
            if not forbidden >> c & 1:
                colors[v] = c
                if rec(pos + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return colors if rec(0, 0) else None


def chromatic_number(g: CharacteristicGraph) -> tuple[int, Coloring]:
    """Exact chromatic number with a minimal witness coloring."""
    if g.n > CHROMATIC_CAP:
        raise TooLarge(f"{g.n} vertices exceeds the exact-coloring cap {CHROMATIC_CAP}")
    order = _search_order(g)
    greedy = _greedy_coloring(g, order)
    ub = max(greedy) + 1
    lb = max(_greedy_clique(g, order), 1)
    for k in range(lb, ub):
        witness = _exact_k_coloring(g, order, k)
        if witness is not None:
            return k, Coloring(tuple(witness), k)
    return ub, Coloring(tuple(greedy), ub)


def coloring_of_protocol(protocol, g: CharacteristicGraph) -> Coloring:
    """Color classes = equivalence classes of identical codewords.

    The protocol must be feasible for g; feasibility forbids equal codewords
    across edges, so the classes form a proper coloring.
    """
    from .ri_codes import check_feasible

    codewords = getattr(protocol, "codewords", protocol)
    if not check_feasible(codewords, g):
        raise InfeasibleProtocol("codeword assignment violates an edge constraint")
    index: dict[str, int] = {}
    colors = []
    for w in codewords:
        if w not in index:
            index[w] = len(index)
        colors.append(index[w])
    return Coloring(tuple(colors), len(index))


def export_edge_list(g: CharacteristicGraph) -> str:
    """One "u v" label pair per line, sorted by index pair."""
    lines = [
        f"{g.vertices.symbols[u]} {g.vertices.symbols[v]}"
        for u, v in sorted(g.edges)
    ]
    return "\n".join(lines)
