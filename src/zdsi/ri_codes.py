"""Restricted-input instantaneous codes and their exact optimal lengths.

An RI codeword assignment must keep the equal-or-prefix condition only across
edges of the characteristic graph: given the side information, the decoder
only ever disambiguates confusable symbols.  The empty codeword is therefore
legal exactly on isolated vertices.

The optimal total weighted length is first proved by a subset DP.  Strip the
first bit of every word: isolated vertices keep the empty word, and the
non-isolated set N splits into the words that start with 0 and those that
start with 1, each side an RI code of its induced subgraph.  So L(S) = 0 when
G[S] has no edge, and otherwise
    L(S) = w(N) + min over splits {A, N - A}, both nonempty, of L(A) + L(N - A)
with one fixed vertex of N kept in A, tabulated over bitmasks.  Words of
different connected components never meet, so L is the sum of its values on
the components, and each component is tabulated over its own symbols only:
the table grows with the largest component, not with the number of symbols.
When L(all) equals the Huffman cost, the Huffman words are returned.
Otherwise a depth-first search assigns symbols in decreasing-weight order
and stops at its first leaf: a symbol's candidate lengths are capped by
    committed + w(x) * len + bound(rest) <= L(all)
where the bound of the still-unassigned suffix is its DP value plus one bit
of weight for each of its vertices isolated within it but not in G.  The
bound is admissible, so the first leaf is the first optimal assignment of
the search order.  ``solve_ri_weights`` is that proof and search: it takes
integer symbol weights and neighbor bitmasks and returns the words with
their total weighted length, and ``verify_ri`` checks any words against the
same DP.  ``solve_ri`` wraps the kernel for a joint pmf, with the primitive
weights w = P * lcm(denominators of P) of the support, and converts to a
Fraction only on return; the quantizer cloud builds the weights and bitmasks
itself and calls the kernel once per distinct instance.

At each length a symbol tries one word per orbit of the binary-tree
automorphisms that fix every assigned word; such a map preserves all prefix
relations, so it carries feasible completions to feasible completions of
equal length.  With the assigned words' prefixes kept in a trie, the
candidates of length L are every trie node of length L plus, for each
shorter trie node (the root included) with an empty child, that child padded
with zeros (the 0-child only when both are empty).  Each is the
lexicographically least word of its orbit, so the search meets the first
optimal assignment of the plain lexicographic search and returns the same
protocol.  Since codeword design is NP-hard in general, the solver refuses
instances above a configurable symbol cap instead of silently falling back
to a heuristic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, InfeasibleProtocol, InvalidArgument, SuboptimalProtocol, TooLarge
from .graphs import CharacteristicGraph, build_characteristic_graph
from .probability import (
    Alphabet,
    JointPMF,
    TriplePMF,
    ZERO,
    format_rational,
    marginal_source,
    normalized_support,
)

DEFAULT_SYMBOL_CAP = 10


def codewords_conflict(a: str, b: str) -> bool:
    """True iff the codewords are equal or one is a prefix of the other."""
    return a.startswith(b) or b.startswith(a)


@dataclass(frozen=True)
class RIProtocol:
    """Codeword per symbol index plus the exact average length it achieves."""

    codewords: tuple[str, ...]
    average_length: Fraction


def check_feasible(assignment, g: CharacteristicGraph) -> bool:
    """Check the per-edge no-prefix condition for a total codeword assignment."""
    words = tuple(assignment)
    return all(not codewords_conflict(words[u], words[v]) for u, v in g.edges)


def avg_length(assignment, p_x) -> Fraction:
    """Exact expected codeword length sum(P(x) * |phi(x)|)."""
    return sum(
        (Fraction(p) * len(w) for p, w in zip(p_x, assignment)), ZERO
    )


def huffman_codes(weights) -> list[str]:
    """Huffman codewords for positive weights (Fraction or float).

    Ties merge the nodes whose subtree holds the lowest original symbol
    index; the first node popped becomes the 0-branch.  A single symbol gets
    the empty codeword.
    """
    n = len(weights)
    if n == 1:
        return [""]
    heap: list[tuple] = [(w, i, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    while len(heap) > 1:
        wa, ia, na = heapq.heappop(heap)
        wb, ib, nb = heapq.heappop(heap)
        heapq.heappush(heap, (wa + wb, min(ia, ib), (na, nb)))
    codes = [""] * n
    stack = [(heap[0][2], "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, int):
            codes[node] = prefix
        else:
            left, right = node
            stack.append((left, prefix + "0"))
            stack.append((right, prefix + "1"))
    return codes


def huffman(p) -> tuple[tuple[str, ...], Fraction]:
    """Optimal prefix-free code and its exact average length L(X)."""
    p = tuple(Fraction(v) for v in p)
    if any(v <= 0 for v in p):
        raise DomainError("huffman requires strictly positive probabilities")
    if sum(p, ZERO) != 1:
        raise DomainError("huffman requires probabilities summing to 1")
    codes = tuple(huffman_codes(p))
    return codes, avg_length(codes, p)


def _last_free_word(length: int, words) -> str | None:
    """Lexicographically greatest word of ``length`` bits conflicting with no word.

    Only paths inside the words' own prefix tree are explored: a prefix that
    no word extends completes with all ones.  None when every word of that
    length conflicts.
    """

    def descend(prefix: str) -> str | None:
        if any(prefix.startswith(u) for u in words):
            return None
        if not any(u.startswith(prefix) for u in words):
            return prefix + "1" * (length - len(prefix))
        if len(prefix) == length:
            return None
        return descend(prefix + "1") or descend(prefix + "0")

    return descend("")


def solve_ri(
    pmf: JointPMF, max_symbols: int = DEFAULT_SYMBOL_CAP
) -> tuple[RIProtocol, Fraction]:
    """Exact minimum-average-length RI protocol for P(x, y).

    Source symbols with zero marginal probability are isolated in the
    characteristic graph and receive the empty codeword, so the returned
    protocol is total on the input alphabet.  Raises TooLarge when the
    support exceeds ``max_symbols`` (raise it knowingly for bigger runs;
    worst-case time is exponential).
    """
    support, kept = normalized_support(pmf)
    p = marginal_source(support)
    scale = lcm(*(q.denominator for q in p))
    w = [q.numerator * (scale // q.denominator) for q in p]
    words, best = solve_ri_weights(w, build_characteristic_graph(support).adjacency, max_symbols)
    # re-embed onto the original alphabet; stripped symbols get the empty word
    value = Fraction(best, scale)
    out = [""] * pmf.nrows
    for local, original in enumerate(kept):
        out[original] = words[local]
    return RIProtocol(tuple(out), value), value


def _check_instance(weights, adjacency, max_symbols: int) -> None:
    """Raise InvalidArgument unless the weights are positive and the masks
    describe a simple undirected graph on range(len(weights)), and TooLarge
    above ``max_symbols`` symbols."""
    n = len(weights)
    if len(adjacency) != n:
        raise InvalidArgument(f"{n} weights but {len(adjacency)} neighbor masks")
    for v, (weight, mask) in enumerate(zip(weights, adjacency)):
        if weight <= 0:
            raise InvalidArgument(f"symbol {v} has non-positive weight {weight}")
        if mask >> n:
            raise InvalidArgument(f"symbol {v}'s neighbor mask {mask:#b} leaves range({n})")
        if mask >> v & 1:
            raise InvalidArgument(f"symbol {v} is its own neighbor")
        while mask:
            u = (mask & -mask).bit_length() - 1
            if not adjacency[u] >> v & 1:
                raise InvalidArgument(f"edge {v}-{u} is missing from symbol {u}'s mask")
            mask &= mask - 1
    if n > max_symbols:
        raise TooLarge(
            f"{n} supported symbols exceeds the exactness cap "
            f"{max_symbols}; pass max_symbols to raise it knowingly"
        )


def _subset_lengths(weights, adjacency) -> list[int]:
    """The optimal total weighted RI length L(S) of every subset S of the
    symbols, indexed by bitmask (see the module docstring).

    A subset with isolated vertices takes the value of its non-isolated
    part, a proper subset; otherwise each split {A, S - A} is counted once
    by keeping the lowest vertex of S in A.
    """
    n = len(weights)
    size = [0] * (1 << n)
    length = [0] * (1 << n)
    vertices = [(1 << v, mask) for v, mask in enumerate(adjacency)]
    for s in range(1, 1 << n):
        low = s & -s
        size[s] = size[s ^ low] + weights[low.bit_length() - 1]
        linked = 0  # the vertices of s with a neighbor in s
        for bit, mask in vertices:
            if s & bit and mask & s:
                linked |= bit
        if linked != s:
            length[s] = length[linked]
            continue
        rest = s ^ low
        sub = rest & (rest - 1)
        best = length[low | sub] + length[rest ^ sub]
        while sub:
            sub = (sub - 1) & rest
            split = length[low | sub] + length[rest ^ sub]
            if split < best:
                best = split
        length[s] = size[s] + best
    return length


def _component_lengths(weights, adjacency) -> list[tuple[list[int], list[int]]]:
    """The connected components of G on its non-isolated symbols, each as
    its symbols in index order and its ``_subset_lengths`` table, in which
    bit k stands for the k-th of those symbols."""
    n = len(weights)
    out = []
    rest = sum(1 << v for v in range(n) if adjacency[v])
    while rest:
        component, frontier = 0, rest & -rest
        while frontier:
            component |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~component
        rest ^= component
        if component == (1 << n) - 1:  # connected, no isolated symbol: bits stay
            out.append((list(range(n)), _subset_lengths(weights, adjacency)))
            break
        members = [u for u in range(n) if component >> u & 1]
        local = [
            sum(1 << k for k, x in enumerate(members) if adjacency[u] >> x & 1) for u in members
        ]
        out.append((members, _subset_lengths([weights[u] for u in members], local)))
    return out


def _suffix_bounds(weights, adjacency, order, components) -> list[int]:
    """Lower bounds on the total weighted length of each suffix of ``order``.

    ``order`` lists the non-isolated symbols and ``components`` is their
    ``_component_lengths``.  bound[i] is the DP value of order[i:], summed
    over the components, plus one bit of weight for each of its symbols
    isolated within it, since it still needs a nonempty word; bound[0] is
    the optimum and the last bound is 0.
    """
    place = {  # symbol -> its component and its bit there
        u: (c, 1 << k) for c, (members, _) in enumerate(components) for k, u in enumerate(members)
    }
    masks = [0] * len(components)
    bound = [0] * (len(order) + 1)
    suffix = 0
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        suffix |= 1 << v
        c, bit = place[v]
        masks[c] |= bit
        bound[i] = sum(table[mask] for (_, table), mask in zip(components, masks)) + sum(
            weights[u] for u in order[i:] if not adjacency[u] & suffix
        )
    return bound


def solve_ri_weights(
    weights, adjacency, max_symbols: int = DEFAULT_SYMBOL_CAP
) -> tuple[tuple[str, ...], int]:
    """Optimal RI words for positive integer symbol weights.

    ``adjacency[v]`` is the neighbor bitmask of symbol v in the
    characteristic graph.  Returns the words and their total weighted
    length sum(w * len); with primitive weights of a normalized pmf, L_Y is
    that total over sum(weights).  Isolated symbols get the empty word.
    Raises InvalidArgument for mismatched lengths, a non-positive weight or
    a mask that is not a simple undirected graph, and TooLarge above
    ``max_symbols`` symbols.
    """
    _check_instance(weights, adjacency, max_symbols)
    n = len(weights)
    w = weights
    order = sorted((v for v in range(n) if adjacency[v]), key=lambda v: (-w[v], v))
    if not order:  # no edge: every symbol takes the empty word
        return ("",) * n, 0
    components = _component_lengths(w, adjacency)
    opt = sum(table[-1] for _, table in components)

    # Huffman on the support, isolated vertices overridden to the empty
    # codeword (feasible: edges only involve non-isolated vertices)
    words = [""] * n
    huff = huffman_codes(w)
    if sum(w[v] * len(huff[v]) for v in order) == opt:
        for v in order:
            words[v] = huff[v]
        return tuple(words), opt

    bound = _suffix_bounds(w, adjacency, order, components)
    # the neighbors of order[i] that are already assigned when it is reached
    earlier = [[u for u in order[:i] if adjacency[v] >> u & 1] for i, v in enumerate(order)]
    # every nonempty prefix of an assigned word, with the number of words under it
    trie: dict[str, int] = {}

    def candidates(length: int) -> list[str]:
        """Least word of each orbit of the tree automorphisms fixing the trie."""
        out = []
        for t in ("", *trie):
            k = len(t)
            if k == length:
                out.append(t)
            elif k < length:
                if t + "0" not in trie:
                    out.append(t + "0" * (length - k))
                elif t + "1" not in trie:
                    out.append(t + "1" + "0" * (length - k - 1))
        out.sort()
        return out

    def search(pos: int, committed: int) -> int | None:
        """Total of the first leaf below this node within ``opt``, if any."""
        v = order[pos]
        weight = w[v]
        near = [words[u] for u in earlier[pos]]
        neighbor_span = max(map(len, near), default=0)
        last = pos == len(order) - 1
        for length in range(1, (opt - committed - bound[pos + 1]) // weight + 1):
            any_feasible = False
            if last:
                # the leaf value depends on the length alone; of the shortest
                # feasible words the greatest is kept
                word = _last_free_word(length, near)
                if word is not None:
                    words[v] = word
                    return committed + weight * length
            else:
                for word in candidates(length):
                    if any(word.startswith(u) or u.startswith(word) for u in near):
                        continue
                    any_feasible = True
                    words[v] = word
                    for k in range(1, length + 1):
                        trie[word[:k]] = trie.get(word[:k], 0) + 1
                    total = search(pos + 1, committed + weight * length)
                    if total is not None:
                        return total
                    for k in range(1, length + 1):
                        if trie[word[:k]] == 1:
                            del trie[word[:k]]
                        else:
                            trie[word[:k]] -= 1
            # once past every neighbor's length, conflicts come only from
            # neighbor words being prefixes; a fully blocked level stays
            # blocked at every longer length
            if not any_feasible and length >= neighbor_span:
                return None
        return None

    total = search(0, 0)
    if total is None:
        raise AssertionError("unreachable: the search missed the DP optimum")
    return tuple(words), total


def verify_ri(weights, adjacency, words) -> int:
    """Check that ``words`` is an optimal RI protocol and return its total.

    The instance is checked as by ``solve_ri_weights`` at the default symbol
    cap.  Raises InfeasibleProtocol when two neighbors' words are equal or
    one prefixes the other, and SuboptimalProtocol when the total weighted
    length differs from the subset DP's optimum.
    """
    _check_instance(weights, adjacency, DEFAULT_SYMBOL_CAP)
    n = len(weights)
    if len(words) != n or any(set(word) - {"0", "1"} for word in words):
        raise InvalidArgument(f"expected {n} binary words, got {words!r}")
    for v, mask in enumerate(adjacency):
        for u in range(v + 1, n):
            if mask >> u & 1 and codewords_conflict(words[u], words[v]):
                raise InfeasibleProtocol(
                    f"neighbors {v} and {u} have prefix-related words {words[v]!r} and {words[u]!r}"
                )
    total = sum(weight * len(word) for weight, word in zip(weights, words))
    opt = sum(table[-1] for _, table in _component_lengths(weights, adjacency))
    if total != opt:
        raise SuboptimalProtocol(f"total weighted length {total}, optimum {opt}")
    return total


def solve_ri_conditional(
    triple: TriplePMF, max_symbols: int = DEFAULT_SYMBOL_CAP
) -> Fraction:
    """L_Y(X|Z) for a triple distributed over axes (X, Y, Z).

    Exact expectation over z of the optimal RI length for the conditional
    (X, Y) joint; z symbols of zero probability contribute nothing.
    """
    out = ZERO
    for k, mass in enumerate(triple.marginal(2)):
        if mass > 0:
            _, value = solve_ri(triple.pair_joint_given(2, k), max_symbols)
            out += mass * value
    return out


def conditional_huffman(pmf: JointPMF) -> Fraction:
    """L(X|Z) for a pair pmf over (X, Z): per-z Huffman, averaged exactly."""
    out = ZERO
    for k in range(pmf.ncols):
        col = [pmf.probs[i][k] for i in range(pmf.nrows)]
        mass = sum(col, ZERO)
        if mass > 0:
            weights = [v / mass for v in col if v > 0]
            _, length = huffman(weights)
            out += mass * length
    return out


def export_protocol(source: Alphabet, p_x, protocol: RIProtocol) -> str:
    """Text lines "symbol codeword length probability"; empty word shown as ε."""
    lines = []
    for sym, p, w in zip(source.symbols, p_x, protocol.codewords):
        shown = w if w else "ε"
        lines.append(f"{sym} {shown} {len(w)} {format_rational(Fraction(p))}")
    return "\n".join(lines)
