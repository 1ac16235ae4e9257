"""Sequential prefix-identification scheme: bound, threshold, Monte Carlo.

A rate-distortion codebook is drawn i.i.d. from the RD-achieving output
prior.  The encoder streams the reproduction symbols of the first
distortion-typical codeword; once the first ceil(n * alpha) symbols are out,
the decoder identifies the codeword whenever no other entry shares that
prefix.  The collision-free probability obeys the closed-form lower bound
    P_c >= (1 - 2^(-n alpha H))^(2^(n R)),
which tends to one double exponentially fast when alpha * H > R, i.e. beyond
the threshold alpha = R / H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoConvergence, TooLarge
from .probability import DistortionMatrix, InverseCDF, _trial_generators, entropy_bits
from .ri_codes import huffman_codes

CODEBOOK_CAP = 1 << 20
BLOCK_CAP = 1 << 14
WORK_CAP = 1 << 30  # uniforms one Monte Carlo call may draw, over all its trials
PREFIX_BLOCK_UNIFORMS = 1 << 16  # uniforms per block of prefix-uniqueness trials
SCAN_UNIFORMS = 1 << 14  # uniforms per chunk of the typical-word scan
DEFAULT_TYPICALITY_SLACK = 0.02


def pc_lower_bound(n: int, alpha: float, h: float, r: float) -> float:
    """Closed-form collision-free bound, evaluated in log space.

    Stable for huge 2^(nR): when either factor overflows binary64 the
    product 2^(nR) * 2^(-n alpha H) is formed directly in the exponent.
    """
    if n < 1 or not 0 < alpha <= 1 or h <= 0 or r < 0:
        raise DomainError(
            f"need n >= 1, 0 < alpha <= 1, H > 0, R >= 0; got "
            f"n={n}, alpha={alpha}, H={h}, R={r}"
        )
    t = n * alpha * h
    log2_count = n * r
    miss = 2.0 ** (-t) if t < 1074 else 0.0
    if miss > 0.0 and log2_count < 1023:
        return math.exp(2.0**log2_count * math.log1p(-miss))
    # extreme regime: log P_c ~ -2^(nR - n alpha H)
    exponent = log2_count - t
    if exponent > 60:
        return 0.0
    return math.exp(-(2.0**exponent))


def threshold_alpha(r: float, h: float) -> float:
    """Prefix fraction R / H above which the bound converges to one.

    Values above 1 mean no prefix fraction suffices at this rate.
    """
    if h <= 0 or r < 0:
        raise DomainError(f"need H > 0 and R >= 0; got H={h}, R={r}")
    return r / h


def _sampler(prior) -> InverseCDF:
    """Sampler of the normalized prior."""
    weights = np.array([float(p) for p in prior], dtype=float)
    if weights.min() < 0 or weights.sum() <= 0:
        raise DomainError("prior must be nonnegative with positive total")
    return InverseCDF(weights / weights.sum())


def _codebook_size(n: int, r: float) -> int:
    """ceil(2^(nR)) entries, checked against both caps before it is formed."""
    if math.isnan(r) or r < 0:
        raise DomainError(f"need codebook rate R >= 0, got R={r}")
    if n > BLOCK_CAP:
        raise TooLarge(f"n={n} exceeds the block cap {BLOCK_CAP}")
    if n * r > math.log2(CODEBOOK_CAP):
        raise TooLarge(f"codebook of 2^{n * r:g} entries exceeds the cap {CODEBOOK_CAP}")
    return math.ceil(2.0 ** (n * r))


def _check_work(trials: int, per_trial: int) -> None:
    """Refuse a call whose trials would draw more than WORK_CAP uniforms."""
    if trials * per_trial > WORK_CAP:
        raise TooLarge(f"{trials} trials of {per_trial} uniforms each exceed the work cap {WORK_CAP}")


@dataclass(frozen=True)
class PrefixUniquenessEstimate:
    estimate: float
    half_width: float  # one binomial standard error
    trials: int


def simulate_prefix_uniqueness(
    prior, n: int, r: float, alpha: float, trials: int, seed: int
) -> PrefixUniquenessEstimate:
    """Monte Carlo P_c: no codebook entry shares the reference's prefix.

    The reference word is drawn separately from the codebook, so it never
    competes with itself.  Trial k uses the RNG stream keyed by (seed, k);
    results are identical under any execution order.

    Trials run in blocks of at most `PREFIX_BLOCK_UNIFORMS` uniforms.  Trial
    k's reference and book are consecutive draws from its stream, so one
    `random(out=...)` fills its slice of the block with exactly the uniforms
    of `random(prefix_len)` followed by `random((count, prefix_len))`; the
    inverse CDF and the prefix comparison then run once per block.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 0 < alpha <= 1:
        raise DomainError(f"need 0 < alpha <= 1, got {alpha}")
    count = _codebook_size(n, r)
    prefix_len = max(1, math.ceil(n * alpha))
    _check_work(trials, (count + 1) * prefix_len)
    draw = _sampler(prior)
    block = min(trials, max(1, PREFIX_BLOCK_UNIFORMS // ((count + 1) * prefix_len)))
    uniforms = np.empty((block, count + 1, prefix_len))  # per trial: reference, then book
    streams = _trial_generators(seed)
    clean = 0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        for t in range(size):
            next(streams).random(out=uniforms[t])
        words = draw(uniforms[:size])
        shared = (words[:, 1:] == words[:, :1]).all(axis=2).any(axis=1)
        clean += size - int(np.count_nonzero(shared))
    estimate = clean / trials
    half_width = math.sqrt(estimate * (1.0 - estimate) / trials)
    return PrefixUniquenessEstimate(estimate, half_width, trials)


class RateDistortionFunction:
    """R(D) with the rate-achieving output prior at each distortion.

    Exactly uniform sources under exactly Hamming distortion (compared as
    `Fraction`s) use the closed form R(D) = log2(M) - h(D) - D log2(M-1)
    with a uniform prior; everything else runs alternating-minimization
    over a bisected slope.
    """

    def __init__(self, p_x, d: DistortionMatrix, tol: float = 1e-10, max_sweeps: int = 100_000):
        probs = [Fraction(v) for v in p_x]
        self.p = np.array([float(v) for v in probs], dtype=float)
        if abs(self.p.sum() - 1.0) > 1e-12 or self.p.min() <= 0:
            raise DomainError("source distribution must be positive and sum to 1")
        self.dmat = np.array(
            [[float(v) for v in row] for row in d.values], dtype=float
        )
        self.tol = tol
        self.max_sweeps = max_sweeps
        n, m = self.dmat.shape
        consts = self.p @ self.dmat  # E d(X, rep) per constant reproduction
        self.best_constant = int(np.argmin(consts))
        self.d_max = float(consts[self.best_constant])
        uniform = len(set(probs)) == 1
        hamming = n == m and all(
            v == (0 if i == j else 1)
            for i, row in enumerate(d.values)
            for j, v in enumerate(row)
        )
        self._closed_form = uniform and hamming

    def _closed_rate(self, d: float) -> float:
        m = len(self.p)
        if d <= 0.0:
            return math.log2(m)
        h = -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)
        extra = d * math.log2(m - 1) if m > 1 else 0.0
        return math.log2(m) - h - extra

    def _blahut_arimoto(self, beta: float) -> tuple[float, float, np.ndarray]:
        """Converged (rate bits, distortion, output prior) at slope beta."""
        n, m = self.dmat.shape
        q = np.full(m, 1.0 / m)
        kernel = np.exp(-beta * self.dmat)
        prev = math.inf
        for _ in range(self.max_sweeps):
            w = kernel * q
            w /= w.sum(axis=1, keepdims=True)
            q = self.p @ w
            dist = float(self.p @ (w * self.dmat).sum(axis=1))
            if abs(dist - prev) < self.tol:
                ratio = np.divide(w, q, out=np.ones_like(w), where=w > 0)
                logs = np.log2(ratio, out=np.zeros_like(ratio), where=ratio > 0)
                rate = float(self.p @ (w * logs).sum(axis=1))
                return max(rate, 0.0), dist, q
            prev = dist
        raise NoConvergence(
            f"alternating minimization did not reach {self.tol} in "
            f"{self.max_sweeps} sweeps at slope {beta}"
        )

    def rate_and_prior(self, d: float) -> tuple[float, tuple[float, ...]]:
        d = float(d)
        if d < 0:
            raise DomainError(f"distortion must be >= 0, got {d}")
        m = self.dmat.shape[1]
        if d >= self.d_max:
            prior = tuple(1.0 if j == self.best_constant else 0.0 for j in range(m))
            return 0.0, prior
        if self._closed_form:
            return self._closed_rate(d), tuple([1.0 / m] * m)
        lo, hi = 0.0, 1.0
        while self._blahut_arimoto(hi)[1] > d:
            hi *= 2.0
            if hi > 1e6:
                raise NoConvergence(f"no slope reaches distortion {d}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._blahut_arimoto(mid)[1] > d:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        rate, _, q = self._blahut_arimoto(hi)
        return rate, tuple(float(v) for v in q)

    def rate(self, d: float) -> float:
        return self.rate_and_prior(d)[0]

    def output_prior(self, d: float) -> tuple[float, ...]:
        return self.rate_and_prior(d)[1]


def rd_function(p_x, d: DistortionMatrix) -> RateDistortionFunction:
    return RateDistortionFunction(p_x, d)


@dataclass(frozen=True)
class SchemeResult:
    """One trial: whether a typical codeword existed, whether its prefix was
    unique in the codebook, the bits actually sent, and its distortion."""

    found_typical: bool
    prefix_unique: bool
    bits_sent: int
    distortion: float


@dataclass(frozen=True)
class SchemeReport:
    """Aggregate over trials; bits and distortion average the typical trials."""

    results: tuple[SchemeResult, ...]
    n: int
    alpha: float
    codebook_rate: float
    prior_entropy: float

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def typical_fail_rate(self) -> float:
        return sum(1 for r in self.results if not r.found_typical) / self.trials

    @property
    def prefix_fail_rate(self) -> float:
        found = [r for r in self.results if r.found_typical]
        if not found:
            return 0.0
        return sum(1 for r in found if not r.prefix_unique) / len(found)

    @property
    def pc_estimate(self) -> float:
        return 1.0 - self.prefix_fail_rate

    @property
    def ci_half_width(self) -> float:
        found = sum(1 for r in self.results if r.found_typical)
        if found == 0:
            return 0.0
        e = self.pc_estimate
        return math.sqrt(e * (1.0 - e) / found)

    @property
    def bits_per_symbol(self) -> float:
        found = [r for r in self.results if r.found_typical]
        if not found:
            return math.nan
        return sum(r.bits_sent for r in found) / (len(found) * self.n)

    @property
    def distortion(self) -> float:
        found = [r for r in self.results if r.found_typical]
        if not found:
            return math.nan
        return sum(r.distortion for r in found) / len(found)

    def csv_row(self) -> str:
        bound = pc_lower_bound(self.n, self.alpha, self.prior_entropy, self.codebook_rate) \
            if self.prior_entropy > 0 else 1.0
        cells = [
            f"{self.alpha!r}",
            str(self.n),
            f"{self.codebook_rate!r}",
            f"{bound!r}",
            f"{self.pc_estimate!r}",
            f"{self.ci_half_width!r}",
            f"{self.bits_per_symbol!r}",
            f"{self.distortion!r}",
            f"{self.typical_fail_rate!r}",
            f"{self.prefix_fail_rate!r}",
        ]
        return ",".join(cells)


SCHEME_CSV_HEADER = (
    "alpha,n,R,pc_bound,pc_estimate,ci_halfwidth,bits_per_symbol,"
    "distortion,typical_fail_rate,prefix_fail_rate"
)


def simulate_scheme(
    p_x,
    d: DistortionMatrix,
    target_d,
    n: int,
    epsilon: float,
    alpha: float | None = None,
    mode: str = "fixed",
    trials: int = 500,
    seed: int = 0,
    delta: float = DEFAULT_TYPICALITY_SLACK,
) -> SchemeReport:
    """Monte Carlo of the streaming-reproduction scheme.

    Per trial: draw a source word, draw ceil(2^(n (R(D)+epsilon))) codebook
    words from the RD-achieving prior, scan in index order for the first word
    whose per-letter distortion is within delta of the target, and transmit
    its first ceil(n alpha) reproduction symbols -- at ceil(log2 |Xhat|) bits
    each in fixed mode, or Huffman-coded against the prior in variable mode.
    Trials with no distortion-typical codeword are tallied separately.
    alpha=None streams 0.1 past the threshold (R(D) + epsilon) / H(prior),
    capped at 1, and everything when the prior is a point mass (H = 0).

    Every trial draws all of its uniforms, so the streams are those of a
    whole-book evaluation, but the scan works out word distortions only in
    chunks of about `SCAN_UNIFORMS` symbols and stops at the first chunk
    that holds a typical word.  A word's distortion is the mean of its own
    row, so it is the same float in a chunk as in the whole book.
    """
    if mode not in ("fixed", "variable"):
        raise DomainError(f"mode must be 'fixed' or 'variable', got {mode!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if alpha is not None and not 0 < alpha <= 1:
        raise DomainError(f"need 0 < alpha <= 1, got {alpha}")
    target_d = float(target_d)
    rdf = rd_function(p_x, d)
    rate_d, prior = rdf.rate_and_prior(target_d)
    codebook_rate = rate_d + epsilon
    prior_entropy = entropy_bits([p for p in prior if p > 0])
    if alpha is None:
        alpha = (
            min(1.0, threshold_alpha(codebook_rate, prior_entropy) + 0.1)
            if prior_entropy > 0 else 1.0
        )
    count = _codebook_size(n, codebook_rate)
    _check_work(trials, (count + 1) * n)
    prefix_len = min(n, max(1, math.ceil(n * alpha)))

    nrep = len(d.reproduction)
    support = [j for j in range(nrep) if prior[j] > 0.0]
    if mode == "fixed":
        bits_per_rep = np.full(nrep, math.ceil(math.log2(nrep)) if nrep > 1 else 0)
    else:
        lengths = np.zeros(nrep, dtype=int)
        if len(support) > 1:
            codes = huffman_codes([prior[j] for j in support])
            for j, w in zip(support, codes):
                lengths[j] = len(w)
        bits_per_rep = lengths

    draw_source = _sampler(p_x)
    draw_prior = _sampler(prior)
    dmat = np.array([[float(v) for v in row] for row in d.values], dtype=float)
    threshold = target_d + delta

    results = []
    offsets = np.arange(n) * nrep  # letter t's row in the flattened (n, reps) table
    chunk = max(1, SCAN_UNIFORMS // n)
    source_uniforms = np.empty(n)
    book_uniforms = np.empty((count, n))
    # a word's prefix as one opaque item: equal items are equal prefixes
    prefix_item = np.dtype((np.void, prefix_len * np.dtype(np.intp).itemsize))
    for _, rng in zip(range(trials), _trial_generators(seed)):
        source = draw_source(rng.random(out=source_uniforms))
        book = draw_prior(rng.random(out=book_uniforms))
        per_letter = dmat[source].ravel()  # d(source[t], rep) at t * nrep + rep
        for lo in range(0, count, chunk):
            word_dist = per_letter.take(book[lo:lo + chunk] + offsets).mean(axis=1)
            hits = np.flatnonzero(word_dist <= threshold)
            if hits.size:
                break
        if hits.size == 0:
            results.append(SchemeResult(False, False, 0, math.nan))
            continue
        idx = lo + int(hits[0])
        prefixes = book[:, :prefix_len].view(prefix_item)
        matches = int(np.count_nonzero(prefixes == prefixes[idx]))
        bits = int(bits_per_rep[book[idx, :prefix_len]].sum())
        results.append(
            SchemeResult(True, matches == 1, bits, float(word_dist[hits[0]]))
        )
    return SchemeReport(
        results=tuple(results),
        n=n,
        alpha=alpha,
        codebook_rate=codebook_rate,
        prior_entropy=prior_entropy,
    )
