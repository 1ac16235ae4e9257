"""Shared test helpers: random exact-rational instances and independent oracles.

The oracles deliberately avoid the library's solver paths: confusability,
feasibility, and optimality are recomputed from first principles so the
equality tests mean something.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from zdsi.errors import SyncLoss
from zdsi.probability import Alphabet, JointPMF, TriplePMF, integer_alphabet, sample_iid
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
