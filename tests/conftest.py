"""Shared test helpers: random exact-rational instances and independent oracles.

The oracles deliberately avoid the library's solver paths: confusability,
feasibility, and optimality are recomputed from first principles so the
equality tests mean something.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from zdsi.errors import SyncLoss, TooLarge
from zdsi.probability import (
    Alphabet,
    JointPMF,
    TriplePMF,
    _generator,
    aggregate_rows,
    entropy_bits,
    integer_alphabet,
    sample_iid,
)
from zdsi.quantizers import enumerate_partitions, optimal_decoder
from zdsi.ri_codes import DEFAULT_SYMBOL_CAP, huffman_codes, solve_ri
from zdsi.sequential import (
    PrefixUniquenessEstimate,
    SchemeReport,
    SchemeResult,
    _sampler,
    rd_function,
)
from zdsi.streaming import SimReport, StreamDecoder, StreamEncoder


def rand_joint_pmf(rng: random.Random, nx: int, ny: int, max_weight: int = 3) -> JointPMF:
    """Random exact-rational joint pmf; every source row has positive mass."""
    while True:
        weights = [
            [rng.choice([0, 0, 1, 2, max_weight]) for _ in range(ny)]
            for _ in range(nx)
        ]
        if all(any(row) for row in weights):
            break
    total = sum(map(sum, weights))
    probs = [[Fraction(w, total) for w in row] for row in weights]
    return JointPMF(
        integer_alphabet("X", nx), integer_alphabet("Y", ny), tuple(map(tuple, probs))
    )


def rand_triple_pmf(
    rng: random.Random, na: int, nb: int, nc: int, max_weight: int = 3
) -> TriplePMF:
    """Random exact-rational triple pmf over axes (A, B, C)."""
    while True:
        weights = [
            [[rng.choice([0, 1, 1, 2, max_weight]) for _ in range(nc)] for _ in range(nb)]
            for _ in range(na)
        ]
        if sum(v for p in weights for r in p for v in r) > 0:
            break
    total = sum(v for p in weights for r in p for v in r)
    probs = tuple(
        tuple(tuple(Fraction(v, total) for v in row) for row in plane)
        for plane in weights
    )
    alphabets = (
        integer_alphabet("A", na),
        integer_alphabet("B", nb),
        integer_alphabet("C", nc),
    )
    return TriplePMF(alphabets, probs)


def oracle_confusability(pmf: JointPMF) -> list[list[bool]]:
    n = pmf.nrows
    conf = [[False] * n for _ in range(n)]
    for j in range(pmf.ncols):
        support = [i for i in range(n) if pmf.probs[i][j] > 0]
        for a in support:
            for b in support:
                if a != b:
                    conf[a][b] = True
    return conf


def _conflict(a: str, b: str) -> bool:
    return a.startswith(b) or b.startswith(a)


def oracle_optimal_ri_length(pmf: JointPMF, max_len: int = 3) -> Fraction:
    """Exhaustive minimum average RI length over codewords of length <= max_len.

    The empty codeword is offered only where no confusability constraint
    exists.  Partial assignments that already violate an edge are pruned;
    that keeps the search exhaustive over feasible completions.  Length 3
    suffices for optimality up to 4 symbols; 5-symbol instances can need
    length 4 (a skewed complete graph forces Huffman depth 4).
    """
    support_rows = [i for i in range(pmf.nrows) if sum(pmf.probs[i], Fraction(0)) > 0]
    sub = JointPMF(
        Alphabet("S", tuple(str(i) for i in support_rows)),
        pmf.si,
        tuple(pmf.probs[i] for i in support_rows),
    )
    n = sub.nrows
    p = [sum(row, Fraction(0)) for row in sub.probs]
    conf = oracle_confusability(sub)
    isolated = [not any(conf[v]) for v in range(n)]
    pool = [
        "".join(bits)
        for length in range(1, max_len + 1)
        for bits in product("01", repeat=length)
    ]
    # heaviest symbols first makes the running-total cut bite early; the
    # enumeration stays exhaustive over feasible assignments
    order = sorted(range(n), key=lambda v: (-p[v], v))
    best: list[Fraction | None] = [None]
    words: dict[int, str] = {}

    def rec(i: int, total: Fraction) -> None:
        if best[0] is not None and total >= best[0]:
            return
        if i == n:
            best[0] = total
            return
        v = order[i]
        candidates = ([""] if isolated[v] else []) + pool
        for w in candidates:
            if any(conf[v][u] and _conflict(w, wu) for u, wu in words.items()):
                continue
            words[v] = w
            rec(i + 1, total + p[v] * len(w))
            del words[v]

    rec(0, Fraction(0))
    assert best[0] is not None, "oracle found no feasible assignment"
    return best[0]


def _oracle_last_free_word(length: int, words) -> str | None:
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


def oracle_solve_ri_weights(
    weights, adjacency, max_symbols: int = DEFAULT_SYMBOL_CAP
) -> tuple[tuple[str, ...], int]:
    """The branch-and-bound RI kernel that preceded the subset DP, kept as an
    oracle: Huffman incumbent, 1-bit reservations, and the full search.

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
                word = _oracle_last_free_word(length, near)
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


def oracle_best_decoder_distortion(pmf: JointPMF, cells, dmat) -> Fraction:
    """Minimum expected distortion over ALL decoder rules for a partition.

    Enumerates every mapping (cell, y) -> reproduction on positive pairs;
    exponential, for tiny instances only.
    """
    k = max(cells) + 1
    members = [[i for i, c in enumerate(cells) if c == c_] for c_ in range(k)]
    pairs = []
    for z in range(k):
        for y in range(pmf.ncols):
            if sum((pmf.probs[x][y] for x in members[z]), Fraction(0)) > 0:
                pairs.append((z, y))
    nrep = len(dmat.reproduction)
    best = None
    for choice in product(range(nrep), repeat=len(pairs)):
        total = Fraction(0)
        for (z, y), rep in zip(pairs, choice):
            total += sum(
                (pmf.probs[x][y] * dmat(x, rep) for x in members[z]), Fraction(0)
            )
        if best is None or total < best:
            best = total
    return best


def oracle_rd_points(pmf: JointPMF, dmat) -> list[tuple]:
    """The Fraction route to a quantizer cloud, one partition at a time.

    Per partition: ``aggregate_rows`` merges the rows with Fraction sums,
    ``solve_ri`` derives the support, weights and graph from that joint, and
    ``optimal_decoder`` builds its own cost table.  Returns (partition,
    induced, decoder, distortion, protocol) tuples in enumeration order.
    """
    out = []
    for partition in enumerate_partitions(pmf.source):
        induced = aggregate_rows(pmf, partition.cells)
        protocol, _ = solve_ri(induced)
        decoder, distortion = optimal_decoder(pmf, partition, dmat)
        out.append((partition, induced, decoder, distortion, protocol))
    return out


def oracle_feasible_mixture(vectors, target) -> list[Fraction] | None:
    """Phase-1 simplex over a Fraction tableau with Bland's rule.

    Weights lambda >= 0 with sum 1 and mix <= target, or None.  Columns are
    the lambdas, 4 slacks, 5 artificials and the rhs; rows with a negative
    rhs are negated before the artificials are set.  The entering column is
    the first negative reduced cost and ratio ties leave the row with the
    lower basis index, so the library's integer tableau must return the same
    basic solution.
    """
    one, zero = Fraction(1), Fraction(0)
    n = len(vectors)
    rows = 5
    art0, rhs_col = n + 4, n + 9
    tableau = []
    for k in range(4):
        row = [Fraction(v[k]) for v in vectors]
        row += [one if j == k else zero for j in range(4)]
        row += [zero] * 5
        row.append(Fraction(target[k]))
        tableau.append(row)
    tableau.append([one] * n + [zero] * 9 + [one])
    for r in range(rows):
        if tableau[r][rhs_col] < 0:
            tableau[r] = [-v for v in tableau[r]]
        tableau[r][art0 + r] = one
    basis = [art0 + r for r in range(rows)]
    obj = [-sum((tableau[r][j] for r in range(rows)), zero) for j in range(rhs_col + 1)]
    for r in range(rows):
        obj[art0 + r] = zero
    while True:
        enter = next((j for j in range(art0) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(rows):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][rhs_col] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        assert leave is not None, "phase 1 is bounded below by 0"
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for r in range(rows):
            if r != leave and tableau[r][enter] != 0:
                f = tableau[r][enter]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter
    if obj[rhs_col] != 0:
        return None
    weights = [zero] * n
    for r, b in enumerate(basis):
        if b < n:
            weights[b] = tableau[r][rhs_col]
    return weights


def oracle_pareto_surface(points) -> list:
    """Points no other point dominates coordinate-wise, by an all-pairs scan.

    A point with the same coordinates as an earlier one counts as dominated,
    so of equal points only the first is kept; output is in input order.
    """
    out = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            if all(qc <= pc for qc, pc in zip(q.coords, p.coords)) and (
                q.coords != p.coords or j < i
            ):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def oracle_stream_report(pmf: JointPMF, plan, n: int, seed: int, trace: bool = False) -> SimReport:
    """`run_simulation` as a step loop over the per-step codec API.

    Each step encodes x_t onto the growing bitstream, lets the decoder parse
    from its cursor, and stops at the first step whose consumed bits differ
    from the emitted ones; the distortion is a running sum in step order.
    """
    pairs = sample_iid(pmf, n, seed)
    encoder = StreamEncoder(plan, n)
    decoder = StreamDecoder(plan, n)
    dmat = plan.point1.dmat
    stream: list[str] = []
    total_bits = 0
    dist_sum = 0.0
    rows = []
    for t in range(n):
        x, y = int(pairs[t, 0]), int(pairs[t, 1])
        word = encoder.encode_step(x)
        stream.extend(word)
        total_bits += len(word)
        xhat, used = decoder.decode_step(stream, y)
        if used != len(word) or decoder.cursor != total_bits:
            raise SyncLoss(f"decoder consumed {used} bits of {len(word)} at t={t}")
        dist_sum += float(dmat.values[x][xhat])
        rows.append(
            (t, pmf.source.symbols[x], pmf.si.symbols[y], word, dmat.reproduction.symbols[xhat])
        )
    return SimReport(n, total_bits, total_bits / n, dist_sum / n, 0, tuple(rows) if trace else None)


def oracle_prefix_uniqueness(prior, n: int, r: float, alpha: float, trials: int, seed: int):
    """`simulate_prefix_uniqueness` as one loop step per trial.

    Trial k draws its reference prefix, then its book, from a fresh
    generator keyed by (seed, k) (`SeedSequence` hashing, one key at a time).
    """
    count = math.ceil(2.0 ** (n * r))
    prefix_len = max(1, math.ceil(n * alpha))
    draw = _sampler(prior)
    clean = 0
    for k in range(trials):
        rng = _generator(seed, k)
        reference = draw(rng.random(prefix_len))
        book = draw(rng.random((count, prefix_len)))
        if not (book == reference).all(axis=1).any():
            clean += 1
    estimate = clean / trials
    return PrefixUniquenessEstimate(estimate, math.sqrt(estimate * (1.0 - estimate) / trials), trials)


def oracle_scheme(p_x, d, target_d, n, epsilon, alpha, mode, trials, seed, delta):
    """`simulate_scheme` with an explicit alpha, one whole book per trial.

    Trial k draws from a fresh generator keyed by (seed, k).  Every word's
    distortion is the mean of its gathered row, the first typical word is
    the first index at or below the threshold, and a word shares the prefix
    when all of its first ceil(n alpha) symbols are equal.  Returns the
    report and each trial's first typical index (None when there is none).
    """
    target_d = float(target_d)
    rate_d, prior = rd_function(p_x, d).rate_and_prior(target_d)
    codebook_rate = rate_d + epsilon
    count = math.ceil(2.0 ** (n * codebook_rate))
    prefix_len = min(n, max(1, math.ceil(n * alpha)))
    nrep = len(d.reproduction)
    support = [j for j in range(nrep) if prior[j] > 0.0]
    bits_per_rep = np.zeros(nrep, dtype=int)
    if mode == "fixed":
        bits_per_rep[:] = math.ceil(math.log2(nrep)) if nrep > 1 else 0
    elif len(support) > 1:
        for j, w in zip(support, huffman_codes([prior[j] for j in support])):
            bits_per_rep[j] = len(w)
    draw_source, draw_prior = _sampler(p_x), _sampler(prior)
    dmat = np.array([[float(v) for v in row] for row in d.values], dtype=float)
    results, first_hits = [], []
    for k in range(trials):
        rng = _generator(seed, k)
        source = draw_source(rng.random(n))
        book = draw_prior(rng.random((count, n)))
        word_dist = dmat[source][np.arange(n), book].mean(axis=1)
        hits = np.nonzero(word_dist <= target_d + delta)[0]
        if hits.size == 0:
            results.append(SchemeResult(False, False, 0, math.nan))
            first_hits.append(None)
            continue
        idx = int(hits[0])
        word = book[idx]
        matches = int((book[:, :prefix_len] == word[:prefix_len]).all(axis=1).sum())
        bits = int(bits_per_rep[word[:prefix_len]].sum())
        results.append(SchemeResult(True, matches == 1, bits, float(word_dist[idx])))
        first_hits.append(idx)
    report = SchemeReport(
        tuple(results), n, alpha, codebook_rate, entropy_bits([p for p in prior if p > 0])
    )
    return report, first_hits
