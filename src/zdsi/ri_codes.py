"""Restricted-input instantaneous codes and their exact optimal lengths.

An RI codeword assignment must keep the equal-or-prefix condition only across
edges of the characteristic graph: given the side information, the decoder
only ever disambiguates confusable symbols.  The empty codeword is therefore
legal exactly on isolated vertices.

The optimal average length L_Y is found by depth-first branch-and-bound:
symbols are assigned in decreasing-probability order, the incumbent starts at
the (always feasible) Huffman code, and a symbol's candidate lengths are
capped by the exact remaining budget
    w(x) * len < incumbent - committed - sum of 1-bit reservations
for the still-unassigned non-isolated symbols.  ``solve_ri_weights`` is
that search: it takes integer symbol weights and neighbor bitmasks and
returns the words with their total weighted length.  ``solve_ri`` wraps it
for a joint pmf, with the primitive weights w = P * lcm(denominators of P)
of the support, and converts to a Fraction only on return; the quantizer
cloud builds the weights and bitmasks itself and calls the kernel once per
distinct instance.

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

from .errors import DomainError, TooLarge
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


def solve_ri_weights(
    weights, adjacency, max_symbols: int = DEFAULT_SYMBOL_CAP
) -> tuple[tuple[str, ...], int]:
    """Optimal RI words for positive integer symbol weights.

    ``adjacency[v]`` is the neighbor bitmask of symbol v in the
    characteristic graph.  Returns the words and their total weighted
    length sum(w * len); with primitive weights of a normalized pmf, L_Y is
    that total over sum(weights).  Isolated symbols get the empty word.
    Raises TooLarge above ``max_symbols`` symbols.
    """
    n = len(weights)
    if n > max_symbols:
        raise TooLarge(
            f"{n} supported symbols exceeds the exactness cap "
            f"{max_symbols}; pass max_symbols to raise it knowingly"
        )
    w = weights
    order = sorted((v for v in range(n) if adjacency[v]), key=lambda v: (-w[v], v))
    if not order:  # no edge: every symbol takes the empty word
        return ("",) * n, 0
    # the neighbors of order[i] that are already assigned when it is reached
    earlier = [[u for u in order[:i] if adjacency[v] >> u & 1] for i, v in enumerate(order)]

    # incumbent: Huffman on the support, isolated vertices overridden to the
    # empty codeword (feasible: edges only involve non-isolated vertices)
    words = [""] * n
    huff = huffman_codes(w)
    best_words = list(words)
    for v in order:
        best_words[v] = huff[v]
    best = sum(w[v] * len(huff[v]) for v in order)

    # 1-bit reservation for each unassigned non-isolated symbol
    reserve = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        reserve[i] = reserve[i + 1] + w[order[i]]

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

    def recurse(pos: int, committed: int) -> None:
        nonlocal best, best_words
        v = order[pos]
        weight = w[v]
        rest = reserve[pos + 1]
        near = [words[u] for u in earlier[pos]]
        neighbor_span = max(map(len, near), default=0)
        last = pos == len(order) - 1
        length = 1
        while True:
            # strict improvement only: committed + weight * length + rest < best
            if length > (best - committed - rest - 1) // weight:
                return
            any_feasible = False
            if last:
                # the leaf value depends on the length alone; of the shortest
                # feasible words the greatest is kept
                word = _last_free_word(length, near)
                if word is not None:
                    best = committed + weight * length
                    best_words = list(words)
                    best_words[v] = word
                    return
            else:
                for word in candidates(length):
                    if any(word.startswith(u) or u.startswith(word) for u in near):
                        continue
                    any_feasible = True
                    words[v] = word
                    for k in range(1, length + 1):
                        trie[word[:k]] = trie.get(word[:k], 0) + 1
                    recurse(pos + 1, committed + weight * length)
                    for k in range(1, length + 1):
                        if trie[word[:k]] == 1:
                            del trie[word[:k]]
                        else:
                            trie[word[:k]] -= 1
            # once past every neighbor's length, conflicts come only from
            # neighbor words being prefixes; a fully blocked level stays
            # blocked at every longer length
            if not any_feasible and length >= neighbor_span:
                return
            length += 1

    recurse(0, 0)
    return tuple(best_words), best


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
