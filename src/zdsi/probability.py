"""Exact-rational probability primitives.

Joint distributions over finite source x side-information alphabets, their
marginals and conditionals, distortion matrices, the named generators used
throughout (typewriter and fully-connected channels), and seeded i.i.d.
sampling.  Everything on the analytic path is a `fractions.Fraction`; floats
appear only in entropy evaluation and Monte Carlo sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConditionOnZero, DomainError, InvalidArgument, NegativeEntry, SumNotOne

ZERO = Fraction(0)
ONE = Fraction(1)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den" ("num" when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Alphabet:
    """Named, ordered finite alphabet; a symbol's index is its identity."""

    name: str
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise InvalidArgument(f"alphabet {self.name!r} is empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidArgument(f"alphabet {self.name!r} has duplicate symbols")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


def integer_alphabet(name: str, size: int, start: int = 1) -> Alphabet:
    """Alphabet labelled start..start+size-1, matching the usual 1-based figures."""
    return Alphabet(name, tuple(str(i) for i in range(start, start + size)))


@dataclass(frozen=True)
class JointPMF:
    """Joint distribution P(x, y) over source rows and side-information columns."""

    source: Alphabet
    si: Alphabet
    probs: tuple[tuple[Fraction, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.source)

    @property
    def ncols(self) -> int:
        return len(self.si)


def joint_pmf(source: Alphabet, si: Alphabet, rows) -> JointPMF:
    """Build a JointPMF from any nested iterable of Fraction-convertibles."""
    probs = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if len(probs) != len(source) or any(len(r) != len(si) for r in probs):
        raise InvalidArgument("pmf shape does not match alphabets")
    return JointPMF(source, si, probs)


def validate(pmf: JointPMF) -> None:
    """Check nonnegativity and exact unit total.

    Raises NegativeEntry or SumNotOne naming the offending cell or total.
    Positivity of source marginals is not checked here; it is established by
    `normalized_support` before any solver runs.
    """
    total = ZERO
    for i, row in enumerate(pmf.probs):
        for j, v in enumerate(row):
            if v < 0:
                raise NegativeEntry(
                    f"P({pmf.source.symbols[i]},{pmf.si.symbols[j]}) = {v} < 0"
                )
            total += v
    if total != 1:
        raise SumNotOne(f"entries sum to {format_rational(total)}, expected 1")


def marginal_source(pmf: JointPMF) -> tuple[Fraction, ...]:
    return tuple(sum(row, ZERO) for row in pmf.probs)


def marginal_si(pmf: JointPMF) -> tuple[Fraction, ...]:
    return tuple(
        sum((pmf.probs[i][j] for i in range(pmf.nrows)), ZERO)
        for j in range(pmf.ncols)
    )


def conditional_given_si(pmf: JointPMF, j: int) -> tuple[Fraction, ...]:
    """P(x | y = j).  Raises ConditionOnZero when column j has no mass."""
    col = marginal_si(pmf)[j]
    if col == 0:
        raise ConditionOnZero(f"SI symbol {pmf.si.symbols[j]!r} has zero probability")
    return tuple(pmf.probs[i][j] / col for i in range(pmf.nrows))


def normalized_support(pmf: JointPMF) -> tuple[JointPMF, tuple[int, ...]]:
    """Strip source symbols of zero marginal probability.

    Returns the stripped pmf and the tuple of kept original row indices
    (the index remap solvers report alongside their results).
    """
    keep = tuple(i for i, m in enumerate(marginal_source(pmf)) if m > 0)
    if len(keep) == pmf.nrows:
        return pmf, keep
    source = Alphabet(pmf.source.name, tuple(pmf.source.symbols[i] for i in keep))
    probs = tuple(pmf.probs[i] for i in keep)
    return JointPMF(source, pmf.si, probs), keep


def cell_labels(source: Alphabet, members) -> tuple[str, ...]:
    """Labels of merged cells: each joins its members' labels with '+'.

    ``members[z]`` lists the source indices of cell z.  When a source label
    containing '+' makes two cell labels equal, every label is prefixed with
    its cell index ("z:").
    """
    labels = tuple("+".join(source.symbols[i] for i in ms) for ms in members)
    if len(set(labels)) != len(labels):
        labels = tuple(f"{z}:{label}" for z, label in enumerate(labels))
    return labels


def aggregate_rows(pmf: JointPMF, cells) -> JointPMF:
    """Joint of (cell index, y) induced by merging source rows.

    ``cells[i]`` is the cell index of source symbol i; cell indices must be
    contiguous from 0.  Cell labels join their members' labels with '+'.
    """
    k = max(cells) + 1
    members: list[list[int]] = [[] for _ in range(k)]
    for i, c in enumerate(cells):
        members[c].append(i)
    labels = cell_labels(pmf.source, members)
    probs = tuple(
        tuple(
            sum((pmf.probs[i][j] for i in ms), ZERO) for j in range(pmf.ncols)
        )
        for ms in members
    )
    return JointPMF(Alphabet("Z", labels), pmf.si, probs)


def transpose(pmf: JointPMF) -> JointPMF:
    """Swap the roles of source and side information."""
    probs = tuple(
        tuple(pmf.probs[i][j] for i in range(pmf.nrows)) for j in range(pmf.ncols)
    )
    return JointPMF(pmf.si, pmf.source, probs)


@dataclass(frozen=True)
class TriplePMF:
    """Joint distribution over three finite alphabets, indexed [a][b][c]."""

    alphabets: tuple[Alphabet, Alphabet, Alphabet]
    probs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def marginal(self, axis: int) -> tuple[Fraction, ...]:
        sizes = tuple(len(a) for a in self.alphabets)
        out = [ZERO] * sizes[axis]
        for i in range(sizes[0]):
            for j in range(sizes[1]):
                for k in range(sizes[2]):
                    out[(i, j, k)[axis]] += self.probs[i][j][k]
        return tuple(out)

    def pair_joint_given(self, axis: int, value: int) -> JointPMF:
        """Conditional joint of the two remaining axes given {axis = value}."""
        mass = self.marginal(axis)[value]
        if mass == 0:
            sym = self.alphabets[axis].symbols[value]
            raise ConditionOnZero(f"symbol {sym!r} on axis {axis} has zero probability")
        rest = [a for a in range(3) if a != axis]
        rows, cols = (self.alphabets[a] for a in rest)
        probs = []
        for i in range(len(rows)):
            row = []
            for j in range(len(cols)):
                idx = [0, 0, 0]
                idx[axis] = value
                idx[rest[0]] = i
                idx[rest[1]] = j
                row.append(self.probs[idx[0]][idx[1]][idx[2]] / mass)
            probs.append(tuple(row))
        return JointPMF(rows, cols, tuple(probs))


def triple_pmf(alphabets, cube) -> TriplePMF:
    probs = tuple(
        tuple(tuple(Fraction(v) for v in row) for row in plane) for plane in cube
    )
    a, b, c = alphabets
    if len(probs) != len(a) or any(
        len(p) != len(b) or any(len(r) != len(c) for r in p) for p in probs
    ):
        raise InvalidArgument("triple pmf shape does not match alphabets")
    total = sum((v for p in probs for r in p for v in r), ZERO)
    if total != 1:
        raise SumNotOne(f"entries sum to {format_rational(total)}, expected 1")
    for p in probs:
        for r in p:
            for v in r:
                if v < 0:
                    raise NegativeEntry(f"entry {v} < 0")
    return TriplePMF((a, b, c), probs)


@dataclass(frozen=True)
class DistortionMatrix:
    """d(x, xhat) >= 0 over source rows and reproduction columns."""

    source: Alphabet
    reproduction: Alphabet
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if v < 0:
                    raise NegativeEntry(
                        f"d({self.source.symbols[i]},{self.reproduction.symbols[j]})"
                        f" = {v} < 0"
                    )

    def __call__(self, i: int, j: int) -> Fraction:
        return self.values[i][j]


def distortion_matrix(source: Alphabet, reproduction: Alphabet, rows) -> DistortionMatrix:
    values = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if len(values) != len(source) or any(len(r) != len(reproduction) for r in values):
        raise InvalidArgument("distortion shape does not match alphabets")
    return DistortionMatrix(source, reproduction, values)


def hamming(alphabet: Alphabet) -> DistortionMatrix:
    """0/1 distortion with reproduction alphabet equal to the source alphabet."""
    n = len(alphabet)
    values = tuple(
        tuple(ZERO if i == j else ONE for j in range(n)) for i in range(n)
    )
    return DistortionMatrix(alphabet, alphabet, values)


def typewriter(m: int) -> JointPMF:
    """Cyclic-successor side information on m >= 3 symbols.

    P_X is uniform and P(y|x) puts weight 1/2 on each of y = x and
    y = x+1 (mod m).  Only the support and P_X matter downstream (rates and
    the characteristic graph ignore the conditional weights), so the 1/2
    split is a fixed, documented convention.
    """
    if m < 3:
        raise InvalidArgument(f"typewriter needs m >= 3, got {m}")
    source = integer_alphabet("X", m)
    si = integer_alphabet("Y", m)
    w = Fraction(1, 2 * m)
    probs = []
    for x in range(m):
        row = [ZERO] * m
        row[x] = w
        row[(x + 1) % m] = w
        probs.append(tuple(row))
    return JointPMF(source, si, tuple(probs))


def fully_connected(m: int, p: Fraction) -> JointPMF:
    """Uniform source with symmetric-error side information channel.

    P(y=x|x) = 1-p and every other column gets p/(m-1).  For p in (0,1) all
    cells are positive, so the characteristic graph is complete.
    """
    p = Fraction(p)
    if m < 2:
        raise DomainError(f"fully_connected needs m >= 2, got {m}")
    if not 0 <= p < 1:
        raise DomainError(f"fully_connected needs 0 <= p < 1, got {p}")
    source = integer_alphabet("X", m)
    si = integer_alphabet("Y", m)
    diag = Fraction(1, m) * (1 - p)
    off = Fraction(1, m) * p / (m - 1)
    probs = tuple(
        tuple(diag if i == j else off for j in range(m)) for i in range(m)
    )
    return JointPMF(source, si, probs)


def _stream_key(seed, *stream) -> np.ndarray:
    entropy = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.SeedSequence(entropy=entropy).generate_state(2, np.uint64)


# numpy's SeedSequence hash constants (bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits entropy."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_keys(seed, start: int, count: int) -> np.ndarray:
    """`_stream_key(seed, k)` for k = start, ..., start + count - 1 (k < 2^64).

    Row i is `SeedSequence(entropy=(seed, start + i)).generate_state(2,
    np.uint64)`: the same 32-bit hash-and-mix steps, run as uint32 array
    arithmetic over all k at once (the hash constants do not depend on the
    data).  An index k >= 2^32 adds a second entropy word, so a range across
    2^32 is computed in two parts.
    """
    stop = start + count
    if start < 1 << 32 < stop:
        return np.concatenate(
            [_stream_keys(seed, start, (1 << 32) - start), _stream_keys(seed, 1 << 32, stop - (1 << 32))]
        )
    k = np.arange(start, stop, dtype=np.uint64)
    entropy = [np.full(count, w, dtype=np.uint32) for w in _uint32_words(int(seed))]
    entropy.append((k & np.uint64(_MASK32)).astype(np.uint32))
    if start >= 1 << 32:
        entropy.append((k >> np.uint64(32)).astype(np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for value in pool:  # generate_state: 4 words, read as 2 little-endian uint64
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1)


def _generator(seed, *stream) -> np.random.Generator:
    """Counter-based Philox generator; streams keyed by (seed, *stream)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, *stream)))


_KEY_BLOCK = 256


def _trial_generators(seed):
    """Yield the generators `_generator(seed, k)` for k = 0, 1, 2, ...

    One Philox is re-keyed in place for each trial, so every item is the same
    Generator object: finish trial k's draws before advancing.  That halves
    the per-trial cost, because a fresh Philox also seeds itself from OS
    entropy that the explicit key then overrides.  The keys come from
    `_stream_keys` in blocks of `_KEY_BLOCK` trials, bit for bit the keys
    `_generator` hashes one at a time, so every draw is unchanged.
    """
    bitgen = np.random.Philox(key=_stream_key(seed, 0))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # counter, buffer and key of a fresh generator
    for start in itertools.count(0, _KEY_BLOCK):
        for key in _stream_keys(seed, start, _KEY_BLOCK):
            state["state"]["key"] = key
            bitgen.state = state
            yield rng


class InverseCDF:
    """Inverse-CDF sampler over binary64 cell weights that sum to about 1.

    A uniform u in [0, 1) draws cell sum_j [u >= cum_j], the count of
    cumulative weights at or below u, which is what
    `np.searchsorted(cum, u, side="right")` returns; on the few cells used
    here the sum of comparisons is several times faster.  Cells of zero
    weight repeat the cumulative weight before them, so their comparisons
    are made once and counted as a step of several cells, and their empty
    intervals are never drawn.  The CDF is 1.0 from the last positive
    weight on, above every u: a rounded sum just below 1 cannot hand the
    remainder to a zero-weight cell after it.
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        cells = np.flatnonzero(weights > 0)
        self._first = int(cells[0])
        # past the cumulative weight of each positive cell but the last,
        # the draw steps on to the next positive cell
        cuts = np.cumsum(weights)[cells[:-1]]
        self._steps = list(zip(cuts.tolist(), np.diff(cells).tolist()))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Cell index of each uniform in u, with u's shape."""
        idx = np.full(u.shape, self._first, dtype=np.intp)
        for cut, step in self._steps:
            idx += u >= cut if step == 1 else step * (u >= cut)
        return idx


def sample_iid(pmf: JointPMF, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. (x, y) index pairs; shape (n, 2), deterministic per seed.

    Inverse-CDF over binary64-converted cumulative cell weights, so identical
    seeds reproduce identical sequences across platforms.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    sampler = InverseCDF([float(v) for row in pmf.probs for v in row])
    idx = sampler(_generator(seed).random(n))
    return np.stack([idx // pmf.ncols, idx % pmf.ncols], axis=1)


def entropy_bits(weights) -> float:
    """Shannon entropy in bits of a (not necessarily normalized) weight vector."""
    total = float(sum(weights))
    h = 0.0
    for w in weights:
        w = float(w)
        if w > 0.0:
            q = w / total
            h -= q * math.log2(q)
    return h


def conditional_entropy_source_given_si(pmf: JointPMF) -> float:
    """H(X|Y) in bits, binary64."""
    h = 0.0
    for j in range(pmf.ncols):
        col = [pmf.probs[i][j] for i in range(pmf.nrows)]
        mass = float(sum(col))
        if mass > 0.0:
            h += mass * entropy_bits(col)
    return h
