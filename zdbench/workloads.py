"""The seeded workloads: each is a fixed list of jobs built from --seed.

A job calls the library functions of one CLI command in that command's
order, export step included, on inputs generated here.  Inputs reach the
library either as a built-in example (as `--example` does) or as a JSON
problem file parsed by `cli.load_problem` (as `--file` does).  Every library
call goes through a module attribute (`Q.rd_points`, not a name imported
into this module), so the tracer's wrappers see it.

Job sizes come from costs measured on the seed code (2-CPU Xeon).  Each
job's latency is its mean over many runs, so a pass over the job list is
kept to about 2-5 s: typewriter(6) `rd_points` 0.39 s, fully_connected(5)
0.34 s, random 5-symbol joints 0.05-0.85 s, random 4-symbol joints
0.01-0.02 s, 3x3 `build_region` 0.03 s plus ~0.015 s per query, 4x4
0.64 s plus 0.02-0.45 s per query, `run_simulation` n=1e5 0.17 s.
typewriter(7) (10 s), random 6-symbol joints (0.3-30 s), fully_connected(6)
(12.6 s), typewriter(8) (over 10 min) and `simulate_scheme` at the CLI
defaults (12.3 s) are too slow to repeat within a run.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from zdsi import cli, fixtures
from zdsi import multiterminal as MT
from zdsi import probability as P
from zdsi import quantizers as Q
from zdsi import sequential as SQ
from zdsi import streaming as ST

import checks as C
from checks import require

WHY = {
    "zd-envelope": "rd_points -> envelope -> build_plan -> CSV on cycle, complete, split-cell, "
    "encoder-SI and random 4-5 symbol joints: the RI branch-and-bound does most of the work",
    "mt-region": "build_region on 3x3..4x4 joints plus achievable and certified-unachievable "
    "queries: the only workload using multiterminal and its exact simplex",
    "monte-carlo": "run_simulation (n=1e5) on one- and two-quantizer plans plus sequential "
    "scheme and prefix-uniqueness trials: no exact arithmetic in the timed phase",
}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    counts: Callable[[object], dict]
    # fingerprint of the output; for exact jobs a digest of values that are
    # mathematically unique, compared against digests.json on the default seed
    fingerprint: Callable[[object], str]
    exact: bool


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _fmt(v) -> str:
    return P.format_rational(Fraction(v))


# ------------------------------------------------------------------- inputs


def random_weights(rng: random.Random, n: int, m: int, per_row: int) -> list[list[int]]:
    """Integer weights with exactly per_row positive cells per row, no empty column."""
    w = [[0] * m for _ in range(n)]
    for row in w:
        for y in rng.sample(range(m), per_row):
            row[y] = rng.randint(1, 9)
    for y in range(m):
        if not any(row[y] for row in w):
            w[rng.randrange(n)][y] = rng.randint(1, 9)
    return w


def relabel(rng: random.Random, weights) -> list[list[int]]:
    """The same joint with its source and SI symbols permuted."""
    rows = rng.sample(range(len(weights)), len(weights))
    cols = rng.sample(range(len(weights[0])), len(weights[0]))
    return [[weights[i][j] for j in cols] for i in rows]


def problem_doc(weights) -> dict:
    """Problem file for a joint given by integer weights, Hamming distortion."""
    total = sum(map(sum, weights))
    n, m = len(weights), len(weights[0])
    return {
        "source_alphabet": [str(i + 1) for i in range(n)],
        "si_alphabet": [str(j + 1) for j in range(m)],
        "pmf": [[str(Fraction(v, total)) for v in row] for row in weights],
    }


def encoder_si_weights(rng: random.Random, supported: int) -> list:
    """Integer weights on axes (S, X, Y), |S| = 2, |X| = |Y| = 3, with
    `supported` (x, s) pairs, each with 1-2 positive y cells."""
    pairs = rng.sample([(s, x) for s in range(2) for x in range(3)], supported)
    cube = [[[0] * 3 for _ in range(3)] for _ in range(2)]
    for s, x in pairs:
        for y in rng.sample(range(3), rng.randint(1, 2)):
            cube[s][x][y] = rng.randint(1, 9)
    return cube


def relabel_cube(rng: random.Random, cube) -> list:
    """The same (S, X, Y) weights with each alphabet permuted."""
    ss, xs, ys = (rng.sample(range(n), n) for n in (len(cube), len(cube[0]), len(cube[0][0])))
    return [[[cube[s][x][y] for y in ys] for x in xs] for s in ss]


def encoder_si_doc(cube) -> dict:
    total = sum(v for plane in cube for row in plane for v in row)
    return {
        "source_alphabet": ["1", "2", "3"],
        "si_alphabet": ["1", "2", "3"],
        "encoder_si_alphabet": ["a", "b"],
        "pmf_sxy": [[[str(Fraction(v, total)) for v in row] for row in plane] for plane in cube],
    }


def single_cell_distortion(rows, dvals) -> Fraction:
    """Distortion of the one-cell quantizer: a Bayes decoder on y alone."""
    nrep = len(dvals[0])
    return sum(
        (
            min(sum((rows[i][y] * dvals[i][r] for i in range(len(rows))), Fraction(0)) for r in range(nrep))
            for y in range(len(rows[0]))
        ),
        Fraction(0),
    )


def least_distortion(rows, dvals) -> Fraction:
    """Distortion of the all-singletons quantizer: each row reproduced at its best."""
    return sum((sum(row, Fraction(0)) * min(d) for row, d in zip(rows, dvals)), Fraction(0))


def seeded_target(rng: random.Random, rows, dvals) -> Fraction:
    """A distortion between the least achievable one and the one-cell one."""
    lo = least_distortion(rows, dvals)
    hi = single_cell_distortion(rows, dvals)
    return lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)


class Inputs:
    """Writes problem files under workdir and parses them like `--file`."""

    def __init__(self, workdir):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def load(self, name: str, doc: dict):
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return cli.load_problem(str(path))


def product_rows(triple, d):
    """Supported (x, s) rows of an (S, X, Y) triple and d lifted to them."""
    s_n, x_n, y_n = (len(a) for a in triple.alphabets)
    rows, dvals = [], []
    for x in range(x_n):
        for s in range(s_n):
            row = tuple(triple.probs[s][x][y] for y in range(y_n))
            if any(row):
                rows.append(row)
                dvals.append(d.values[x])
    return rows, dvals


# ----------------------------------------------------------------- zd jobs


def zd_job(name, rows, dvals, target, design) -> Job:
    """`design()` returns the point cloud; the rest is the rd-curve pipeline."""

    def run():
        cloud = design()
        curve = Q.lower_convex_envelope(cloud)
        plan = ST.build_plan(curve, cloud, target)
        return cloud, curve, plan, Q.export_curve_csv(curve, exact=True)

    check_point = C.QuantizerCheck(rows, dvals)

    def check(out):
        cloud, curve, plan, csv = out
        parts = {p.partition.cells for p in cloud}
        require(len(parts) == len(cloud) == bell(len(rows)), "cloud is not one point per partition")
        for p in cloud:
            check_point(p)
        C.check_envelope(curve.vertices, [(p.distortion, p.rate) for p in cloud])
        C.check_plan(plan, curve.vertices, target)
        C.check_curve_csv(csv, curve.vertices)

    def fingerprint(out):
        cloud, curve, plan, _ = out
        lines = sorted(f"{p.partition.to_string()},{_fmt(p.rate)},{_fmt(p.distortion)}" for p in cloud)
        lines += [f"V{_fmt(d)},{_fmt(r)}" for d, r in curve.vertices]
        lines.append(f"plan {_fmt(plan.distortion)},{_fmt(plan.rate)}")
        return C.digest(lines)

    return Job(
        name,
        run,
        check,
        lambda out: {"points": len(out[0]), "vertices": len(out[1].vertices)},
        fingerprint,
        True,
    )


def single_user_zd(name, pmf, d, rng) -> Job:
    target = seeded_target(rng, pmf.probs, d.values)
    return zd_job(name, pmf.probs, d.values, target, lambda: Q.rd_points(pmf, d))


def build_zd(seed: int, inputs: Inputs):
    # Each job draws from its own stream, so the job list can change without
    # changing the inputs of the jobs that stay.
    def rng(name):
        return random.Random(f"zd-envelope:{seed}:{name}")

    jobs = [
        single_user_zd(name, pmf, d, rng(name))
        for name, (pmf, d) in (
            ("tw5", fixtures.pentagon()),
            ("tw6", fixtures.c6()),
            ("fc5", fixtures.fully_connected_example(5, "3/10")),
            ("split-a", fixtures.split_cell_channel("1/4")),
            ("split-b", fixtures.split_cell_channel("1/4")),
        )
    ]
    # Branch-and-bound time is heavy-tailed in the input (one random 6-symbol
    # joint took 30 s, 5-symbol ones 0.05-0.85 s, one 5-pair encoder-SI
    # problem 1.6 s), so the encoder-SI problems and random joints come from a
    # fixed catalogue and the seed permutes their symbols: a seed changes the
    # inputs, not their cost class.
    catalogue = random.Random("zd-envelope catalogue")
    for k, supported in enumerate((5, 5, 4)):
        name, r = f"esi{k}", rng(f"esi{k}")
        spec = inputs.load(name, encoder_si_doc(relabel_cube(r, encoder_si_weights(catalogue, supported))))
        triple, d = spec.triple, spec.distortion
        rows, dvals = product_rows(triple, d)
        target = seeded_target(r, rows, dvals)
        jobs.append(zd_job(name, rows, dvals, target, lambda t=triple, d=d: Q.encoder_si_points(t, d)))
    for n, per_row, count in ((5, 2, 3), (5, 3, 3), (5, 4, 2), (4, 2, 6), (4, 3, 6)):
        for k in range(count):
            name = f"rand{n}-r{per_row}-{k}"
            r = rng(name)
            spec = inputs.load(name, problem_doc(relabel(r, random_weights(catalogue, n, n, per_row))))
            jobs.append(single_user_zd(name, spec.pmf, spec.distortion, r))
    warmup = next(j for j in jobs if j.name == "split-a")
    return jobs, warmup


# ----------------------------------------------------------------- mt jobs


def mt_targets(rng: random.Random, region, count: int):
    """Alternate achievable targets and certified-unachievable ones.

    Achievable: a convex mix of 1-3 base points plus slack >= 0.
    Unachievable: for a seeded c >= 0, the target sits 1/64 below the least
    value of c.p over the base points, so c.t < min c.p certifies "no".
    """
    # in coordinate order, so a relabeled joint gets the same targets
    points = sorted(p.coords for p in region.points)

    def mix():
        chosen = [rng.choice(points) for _ in range(rng.randint(1, 3))]
        weights = [rng.randint(1, 5) for _ in chosen]
        total = sum(weights)
        return [
            sum((Fraction(w, total) * p[k] for w, p in zip(weights, chosen)), Fraction(0))
            + Fraction(rng.randint(0, 3), 64)
            for k in range(4)
        ]

    out = []
    for q in range(count):
        if q % 2 == 0:
            out.append((tuple(mix()), None))
            continue
        c = [0, 0, 0, 0]
        while not any(c):
            c = [rng.randint(0, 3) for _ in range(4)]
        values = [sum(ck * pk for ck, pk in zip(c, p)) for p in points]
        low = min(values)
        base = [v + Fraction(rng.randint(0, 3), 64) for v in points[values.index(low)]]
        s = (sum(ck * bk for ck, bk in zip(c, base)) - low + Fraction(1, 64)) / sum(ck * ck for ck in c)
        out.append((tuple(bk - s * ck for bk, ck in zip(base, c)), tuple(c)))
    return out


def mt_job(name, pmf, dx, dy, queries) -> Job:
    expected_points = 2 * bell(pmf.nrows) * bell(pmf.ncols)

    def run():
        region = MT.build_region(pmf, dx, dy)
        lines = [MT.export_region_csv(region)]
        results, latency = [], []
        for target, _ in queries:
            start = time.perf_counter()
            result = MT.is_achievable(region, target)
            lines.append(f"achievable: {'yes' if result.achievable else 'no'}")
            if result.witness:
                lines.append(MT.export_witness_csv(result.witness))
            latency.append(time.perf_counter() - start)
            results.append(result)
        return region, results, latency, "\n".join(lines)

    def check(out):
        region, results, _, text = out
        require(len(region.points) == expected_points, f"{len(region.points)} base points, expected {expected_points}")
        require(text.count("\n") >= expected_points, "region CSV is short")
        for (target, c), result in zip(queries, results):
            if c is None:
                C.check_witness(result, target, region)
            else:
                C.check_certificate(result, target, c, region)

    def fingerprint(out):
        region, results = out[0], out[1]
        lines = sorted(
            f"{p.order},{p.partition_x.to_string()},{p.partition_y.to_string()},"
            + ",".join(_fmt(v) for v in p.coords)
            for p in region.points
        )
        lines += ["yes" if r.achievable else "no" for r in results]
        return C.digest(lines)

    return Job(
        name,
        run,
        check,
        lambda out: {
            "points": len(out[0].points),
            "pareto": len(MT.pareto_surface(out[0])),
            "queries": len(queries),
        },
        fingerprint,
        True,
    )


def build_mt(seed: int, inputs: Inputs):
    # as in zd-envelope: seeded joints moved wall_s by 1.5x between seeds, so
    # the joints come from a fixed catalogue that the seed relabels
    catalogue = random.Random("mt-region catalogue")
    jobs = []
    # (shape, jobs, queries per job): 3x3 jobs take ~0.05 s, 3x4 ~0.3 s and
    # the 4x4 ~1.5 s (0.6 s to build, 0.4-0.95 s per query), so the list stays
    # short enough to repeat many times in a run
    for (nx, ny), count, n_queries in (((3, 3), 24, 2), ((3, 4), 2, 4), ((4, 3), 1, 4), ((4, 4), 1, 2)):
        for k in range(count):
            name = f"mt{nx}x{ny}-{k}"
            weights = random_weights(catalogue, nx, ny, catalogue.randint(2, ny - 1))
            # the 4x4 job's query cost moved by 30 % with the symbol order
            # (the simplex meets the base points in another order), so its
            # joint stays as drawn
            if (nx, ny) != (4, 4):
                weights = relabel(random.Random(f"mt-region:{seed}:{name}"), weights)
            spec = inputs.load(name, problem_doc(weights))
            pmf, dx = spec.pmf, spec.distortion
            dy = spec.distortion_y or P.hamming(pmf.si)
            region = MT.build_region(pmf, dx, dy)
            queries = mt_targets(random.Random(f"mt-region targets:{name}"), region, n_queries)
            jobs.append(mt_job(name, pmf, dx, dy, queries))
    return jobs, jobs[0]


# ----------------------------------------------------------- monte-carlo jobs


def stream_job(name, pmf, plan, n: int, seed: int) -> Job:
    def run():
        report = ST.run_simulation(pmf, plan, n, seed)
        return report, report.csv_row()

    return Job(
        name,
        run,
        lambda out: C.check_stream(out[0], plan, pmf, n),
        lambda out: {"symbols": out[0].n, "bits": out[0].total_bits},
        lambda out: out[1],
        False,
    )


def scheme_job(name, spec, target, n, trials, mode, seed, epsilon=0.15) -> Job:
    """The `simulate-seq` command with its default alpha rule and delta."""
    pmf, d = spec.pmf, spec.distortion

    def run():
        p_x = P.marginal_source(pmf)
        rdf = SQ.rd_function(p_x, d)
        rate_d, prior = rdf.rate_and_prior(float(target))
        h = P.entropy_bits([q for q in prior if q > 0])
        alpha = min(1.0, SQ.threshold_alpha(rate_d + epsilon, h) + 0.1) if h > 0 else 1.0
        report = SQ.simulate_scheme(
            p_x, d, target, n=n, epsilon=epsilon, alpha=alpha, mode=mode,
            trials=trials, seed=seed, delta=0.02,
        )
        return report, prior, SQ.SCHEME_CSV_HEADER + "\n" + report.csv_row()

    def check(out):
        report, prior, _ = out
        require(report.trials == trials, "trial count")
        require(abs(sum(prior) - 1.0) < 1e-9 and min(prior) >= 0, "output prior is not a distribution")
        found = sum(1 for r in report.results if r.found_typical)
        if found == 0:
            return
        bound = SQ.pc_lower_bound(n, report.alpha, report.prior_entropy, report.codebook_rate)
        C.check_sequential(report.pc_estimate, report.ci_half_width, found, bound)
        if mode == "fixed":
            prefix = min(n, max(1, math.ceil(n * report.alpha)))
            per_rep = math.ceil(math.log2(len(d.reproduction)))
            require(report.bits_per_symbol == prefix * per_rep / n, "fixed-mode bits per symbol")

    def counts(out):
        report = out[0]
        words = math.ceil(2.0 ** (n * report.codebook_rate))
        return {"trials": trials, "codebook_words": words * trials}

    return Job(name, run, check, counts, lambda out: out[2], False)


def prefix_job(name, n, rate, alpha, trials, seed) -> Job:
    """The `pc-estimate` command."""

    def run():
        est = SQ.simulate_prefix_uniqueness([0.5, 0.5], n, rate, alpha, trials, seed)
        return est, f"estimate={est.estimate!r} half_width={est.half_width!r}"

    def check(out):
        est = out[0]
        require(est.trials == trials, "trial count")
        C.check_sequential(est.estimate, est.half_width, trials, SQ.pc_lower_bound(n, alpha, 1.0, rate))

    return Job(
        name,
        run,
        check,
        lambda out: {"trials": trials, "codebook_words": math.ceil(2.0 ** (n * rate)) * trials},
        lambda out: out[1],
        False,
    )


def build_mc(seed: int, inputs: Inputs):
    rng = random.Random(f"monte-carlo:{seed}")
    seeds = [rng.randrange(1 << 30) for _ in range(64)]

    def plan_for(pmf, d, pick):
        cloud = Q.rd_points(pmf, d)
        curve = Q.lower_convex_envelope(cloud)
        return ST.build_plan(curve, cloud, pick(curve.vertices))

    pent, pent_d = fixtures.pentagon()
    pent_plan = plan_for(pent, pent_d, lambda v: Fraction(0))
    split, split_d = fixtures.split_cell_channel("1/4")
    split_plan = plan_for(split, split_d, lambda v: (v[0][0] + v[1][0]) / 2)
    binary = inputs.load("binary", problem_doc([[3, 1], [1, 3]]))
    skewed = inputs.load("skewed", problem_doc([[3, 3], [2, 2], [1, 1]]))

    jobs = []
    for k in range(2):
        jobs.append(stream_job(f"stream-pentagon-{k}", pent, pent_plan, 100_000, seeds.pop()))
        jobs.append(stream_job(f"stream-split-{k}", split, split_plan, 100_000, seeds.pop()))
    # codebook sizes 2^(n(R+eps)) from ~150 (n=12) to ~4500 (n=20) words;
    # more copies of the cheap sizes keep the job count up and the pass short
    for n, trials, copies in ((12, 200, 4), (16, 100, 2), (16, 200, 1), (20, 100, 1)):
        for k in range(copies):
            for mode in ("fixed", "variable"):
                jobs.append(scheme_job(f"seq-{mode}-n{n}-t{trials}-{k}", binary, Fraction(1, 8), n, trials, mode, seeds.pop()))
    for n, trials in ((10, 200), (12, 100)):
        for mode in ("fixed", "variable"):
            jobs.append(scheme_job(f"seq-skewed-{mode}-n{n}", skewed, Fraction(1, 10), n, trials, mode, seeds.pop()))
    for k in range(2):
        jobs.append(prefix_job(f"pc-n24-{k}", 24, 0.25, 0.5, 2000, seeds.pop()))
    for k in range(4):
        jobs.append(prefix_job(f"pc-n20-{k}", 20, 0.3, 0.5, 1000, seeds.pop()))
    return jobs, jobs[-1]


BUILDERS = {
    "zd-envelope": build_zd,
    "mt-region": build_mt,
    "monte-carlo": build_mc,
}
