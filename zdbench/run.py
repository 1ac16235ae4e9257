"""zdsi benchmark: one closed-loop client runs a workload's seeded job list.

    python3 zdbench/run.py --workload zd-envelope --seed 0 --seconds 30 --trace 0

One process, one client, no threads: the next job starts when the previous
one returns, and BLAS/OpenMP pools are pinned to one thread.  The timed phase
repeats the whole job list until the jobs have run for about --seconds, and
at least MIN_PASSES times.  Before each job a fixed speed probe that uses no
zdsi code is timed, and the time metrics are scaled by how fast the probe ran
(see speed_scale).  Every output is checked outside the timed window: in full on the
first pass, against the first pass's fingerprint afterwards, and on the
default seed against the digests in digests.json.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then installs the tracer and repeats set-up and the passes; it prints the
per-layer metrics.  Both write a detailed report to .zdbench/ and the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".zdbench"
DEFAULT_SEED = 0
# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed; setup_s takes the median, as it does over START_PROBES starts
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
START_PROBES = 5
# every job is timed at least this often, one pass apart
MIN_PASSES = 3
MAX_REPEATS = 4
# least time of speed_probe() seen on the 2-CPU Xeon VM the benchmark was
# built on, that is, at its speed when no other tenant slows it; scaled times
# read as seconds at that speed (its mean there was 3-4 ms)
PROBE_NOMINAL_S = 0.0025
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if not (ROOT / "src" / "zdsi" / "__init__.py").is_file():
    print(f"error: no zdsi sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import zdsi  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class Attempt:
    __slots__ = ("job", "latency", "cpu", "output", "error")

    def __init__(self, job, latency, cpu, output, error):
        self.job, self.latency, self.cpu, self.output, self.error = job, latency, cpu, output, error


def cpu_now() -> float:
    """User + system seconds of this process and its children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(job, tracer=None, job_id=-1) -> Attempt:
    if tracer is not None:
        tracer.job_id = job_id
        span = tracer.open("bench.job")
    c0 = cpu_now()
    t0 = time.perf_counter()
    try:
        output, error = job.run(), None
    except Exception as exc:  # a raising job is a failed attempt, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    cpu = cpu_now() - c0
    if tracer is not None:
        tracer.close(span)
        tracer.job_id = -1
    return Attempt(job, latency, cpu, output, error)


def start_and_import():
    """Wall times of fresh interpreters that start, import what a run imports
    and exit: the part of set-up that one process cannot repeat."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import numpy, zdsi, checks, workloads, tracer"
    times = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def setup(workload, seed, tracer=None):
    """Generate inputs, parse problem files, build plans, run one warm-up job."""
    start = time.perf_counter()
    span = tracer.open("bench.setup") if tracer is not None else None
    jobs, warmup = workloads.BUILDERS[workload](seed, workloads.Inputs(OUT / "problems" / workload))
    # A fixed shuffle spreads each kind of job over the whole pass, so CPU
    # speed drift during a pass reaches every kind alike (see NOTES.md).
    random.Random(workload).shuffle(jobs)
    warm = run_job(warmup)
    if span is not None:
        tracer.close(span)
    if warm.error:
        raise SystemExit(f"error: warm-up job {warmup.name} failed: {warm.error}")
    return jobs, time.perf_counter() - start


class Verifier:
    """Checks each attempt outside the timed window and tallies failures."""

    def __init__(self, workload, seed):
        self.tracer = None
        self.first: dict[str, str] = {}
        self.failures: list[str] = []
        self.digests = None
        table = json.loads((HERE / "digests.json").read_text()) if (HERE / "digests.json").is_file() else {}
        if seed == DEFAULT_SEED:
            self.digests = table.get(workload)
        self.recorded: dict[str, str] = {}
        # deterministic work counts of each job's first checked output, and
        # the membership-query latencies inside it
        self.counts: dict[str, dict] = {}
        self.query_s: list[float] = []

    def __call__(self, attempt) -> bool:
        job = attempt.job
        if attempt.error is not None:
            self.failures.append(f"{job.name}: raised {attempt.error}")
            return False
        if self.tracer is not None:
            self.tracer.recording = False
        try:
            fingerprint = job.fingerprint(attempt.output)
            if job.name not in self.first:
                job.check(attempt.output)
                self.first[job.name] = fingerprint
                self.counts[job.name] = counts = job.counts(attempt.output)
                if "queries" in counts:
                    self.query_s.extend(attempt.output[2])
                if job.exact:
                    self.recorded[job.name] = fingerprint
                    if self.digests is not None:
                        want = self.digests.get(job.name)
                        checks.require(want == fingerprint, f"digest {fingerprint} != recorded {want}")
            else:
                checks.require(fingerprint == self.first[job.name], "output differs from the first pass")
        except checks.CheckFailed as exc:
            self.failures.append(f"{job.name}: {exc}")
            return False
        except Exception as exc:  # a check that crashes on the output fails the job
            self.failures.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
            return False
        finally:
            if self.tracer is not None:
                self.tracer.recording = True
        return True


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter, Fraction, dict and numpy
    work that calls no zdsi code, so no change to the program moves it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x, tally = Fraction(0), {}
    for i in range(1, 400):
        x += Fraction(1, i)
        tally[i % 37] = tally.get(i % 37, 0) + i
    a = np.arange(20000, dtype=np.float64)
    float((a * a).sum())
    return time.perf_counter() - t0


def speed_scale(probes) -> float:
    """PROBE_NOMINAL_S over the probe's mean time in this run.

    The host that runs this benchmark is shared: other tenants slow this CPU
    by 1.5x or more in phases of milliseconds, and the share of slow phases
    drifts over minutes, so one run's job times move by 20-40 % against the
    next.  The probe runs before every job, so it samples the same phases as
    the jobs, and a time multiplied by this scale reads as it would at the
    probe's nominal speed.  A change to the program moves the jobs and not
    the probe, so it moves the scaled times as it moves the raw ones."""
    return PROBE_NOMINAL_S / statistics.fmean(probes)


def repeat_short(jobs, attempts):
    """Pass order after the first pass: a job faster than the first pass's
    75th-percentile job runs up to MAX_REPEATS times a pass, about as often
    as makes up that job's time, spread over the pass in a fixed shuffle.
    Short jobs carry job_p50_s and job_tail_s; more runs of them steady their
    means at little cost in time."""
    first = {a.job.name: a.latency for a in attempts}
    cut = sorted(first.values())[3 * len(first) // 4]
    order = []
    for job in jobs:
        order += [job] * min(MAX_REPEATS, max(1, round(cut / max(first[job.name], 1e-9))))
    random.Random(len(order)).shuffle(order)
    return order


def timed_passes(jobs, seconds, verify, tracer=None, min_passes=1, repeat=False):
    """Whole passes over the job list, at least `min_passes`, until the jobs
    have run for about `seconds`: a pass that would end more than half a pass
    past it is not started.  With `repeat`, passes after the first use
    repeat_short's order.  Returns the attempts, the pass count and the
    speed-probe times, one before each job."""
    ids = {job.name: j for j, job in enumerate(jobs)}
    attempts, probes, passes, busy, last = [], [], 0, 0.0, 0.0
    order = jobs
    while passes < min_passes or busy + last / 2 < seconds:
        start = busy
        for job in order:
            probes.append(speed_probe())
            attempt = run_job(job, tracer, ids[job.name])
            busy += attempt.latency
            attempt.error = attempt.error if verify(attempt) else (attempt.error or "check failed")
            # the verifier keeps what it needs; holding outputs would count toward peak RSS
            attempt.output = None
            attempts.append(attempt)
        if repeat and passes == 0:
            order = repeat_short(jobs, attempts)
        passes += 1
        last = busy - start
    return attempts, passes, probes


def per_job(attempts, field, scale=1.0):
    """Each job's mean over its runs, times `scale`."""
    by_job: dict[str, list[float]] = {}
    for a in attempts:
        by_job.setdefault(a.job.name, []).append(getattr(a, field))
    return {name: statistics.fmean(v) * scale for name, v in by_job.items()}


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def work_counts(verify):
    """Deterministic work per pass, from each job's first checked output."""
    total: dict[str, int] = {}
    for counts in verify.counts.values():
        for k, v in counts.items():
            total[k] = total.get(k, 0) + v
    return total


def kind_rates(verify, latency, scale):
    """Rates that exist on some workloads only: points, symbols, trials, queries;
    from scaled times, like the metrics."""
    rates = {}
    for metric, key in (
        ("points_per_s", "points"),
        ("symbols_per_s", "symbols"),
        ("trials_per_s", "trials"),
    ):
        picked = [(name, c) for name, c in verify.counts.items() if key in c]
        secs = sum(latency[name] for name, _ in picked)
        if secs > 0:
            rates[metric] = sum(c[key] for _, c in picked) / secs
    if verify.query_s:
        rates["query_p50_s"] = statistics.median(verify.query_s) * scale
    return rates


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_pinning": {v: os.environ[v] for v in THREAD_VARS},
    }


def count_warnings(caught):
    tally: dict[str, int] = {}
    for w in caught:
        key = f"{Path(w.filename).name}:{w.lineno} {w.category.__name__}: {w.message}"
        tally[key] = tally.get(key, 0) + 1
    return tally


# ----------------------------------------------------------------- per layer


def stat_key(name: str) -> str:
    """Span name to metric stem: methods drop their class (`streaming.encode_step`)."""
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


PER_FUNCTION = {
    "ri_codes.solve_ri": ("calls", "self_s", "max_call_s"),
    "graphs.build_characteristic_graph": ("calls", "self_s"),
    "quantizers.optimal_decoder": ("calls", "self_s"),
    "quantizers.rd_points": ("self_s",),
    "quantizers.encoder_si_points": ("self_s",),
    "quantizers.lower_convex_envelope": ("self_s",),
    "quantizers.export_curve_csv": ("self_s",),
    "probability.aggregate_rows": ("calls", "self_s"),
    "probability.transpose": ("self_s",),
    "probability.sample_iid": ("self_s",),
    "multiterminal.enumerate_mt_points": ("self_s",),
    "multiterminal.is_achievable": ("calls", "self_s"),
    "streaming.encode_step": ("self_s",),
    "streaming.decode_step": ("self_s",),
    "streaming.run_simulation": ("self_s",),
    "streaming.build_plan": ("self_s",),
    "sequential.rate_and_prior": ("self_s",),
    "sequential.simulate_scheme": ("self_s",),
    "sequential.simulate_prefix_uniqueness": ("self_s",),
}
COUNTERS = {
    "ri_codes.solve_ri.support_symbols": "ri_codes.solve_ri.support_symbols",
    "quantizers.enumerate_partitions.partitions": "quantizers.enumerate_partitions.items",
    "probability.sample_iid.draws": "probability.sample_iid.draws",
    "multiterminal.build_region.points": "multiterminal.build_region.points",
    "multiterminal.is_achievable.columns": "multiterminal.is_achievable.columns",
    "streaming.bits": "streaming.run_simulation.bits",
    "streaming.symbols": "streaming.run_simulation.symbols",
    "sequential.simulate_scheme.trials": "sequential.simulate_scheme.trials",
    "sequential.simulate_scheme.codebook_words": "sequential.simulate_scheme.codebook_words",
    "sequential.simulate_prefix_uniqueness.trials": "sequential.simulate_prefix_uniqueness.trials",
}
LAYERS = ("probability", "graphs", "ri_codes", "quantizers", "multiterminal", "streaming", "sequential", "cli")


def _hooks():
    def support(args, kwargs, result):
        return {"ri_codes.solve_ri.support_symbols": sum(1 for row in args[0].probs if any(row))}

    def envelope(args, kwargs, result):
        return {
            "quantizers.lower_convex_envelope.points": len(args[0]),
            "quantizers.lower_convex_envelope.vertices": len(result.vertices),
        }

    def scheme(args, kwargs, result):
        words = math.ceil(2.0 ** (result.n * result.codebook_rate))
        typical = sum(1 for r in result.results if r.found_typical)
        return {
            "sequential.simulate_scheme.trials": result.trials,
            "sequential.simulate_scheme.codebook_words": words * result.trials,
            "sequential.simulate_scheme.typical": typical,
        }

    return {
        "ri_codes.solve_ri": support,
        "quantizers.lower_convex_envelope": envelope,
        "probability.sample_iid": lambda a, k, r: {"probability.sample_iid.draws": len(r)},
        "multiterminal.build_region": lambda a, k, r: {"multiterminal.build_region.points": len(r.points)},
        "multiterminal.is_achievable": lambda a, k, r: {
            "multiterminal.is_achievable.columns": len(a[0].points)
        },
        "streaming.run_simulation": lambda a, k, r: {
            "streaming.run_simulation.bits": r.total_bits,
            "streaming.run_simulation.symbols": r.n,
        },
        "sequential.simulate_scheme": scheme,
        "sequential.simulate_prefix_uniqueness": lambda a, k, r: {
            "sequential.simulate_prefix_uniqueness.trials": r.trials
        },
    }


def layer_metrics(tracer, passes, counts, untraced_pass_s, warning_count):
    spans = tracer.arrays()
    names = tracer.names
    timed = spans["job"] >= 0
    out: dict[str, float] = {}

    def by_name(mask, values):
        return np.bincount(spans["name"][mask], weights=values[mask], minlength=len(names))

    calls = by_name(timed, np.ones(len(spans["dur"])))
    self_t = by_name(timed, spans["self"])
    setup_calls = by_name(~timed, np.ones(len(spans["dur"])))
    setup_self = by_name(~timed, spans["self"])
    max_dur: dict[str, float] = {}
    stem_calls: dict[str, float] = {}
    stem_self: dict[str, float] = {}
    for i, name in enumerate(names):
        stem = stat_key(name)
        stem_calls[stem] = stem_calls.get(stem, 0.0) + calls[i]
        stem_self[stem] = stem_self.get(stem, 0.0) + self_t[i]
        picked = spans["dur"][timed & (spans["name"] == i)]
        if picked.size:
            max_dur[stem] = max(max_dur.get(stem, 0.0), float(picked.max()))
    for stem, stats in PER_FUNCTION.items():
        for stat in stats:
            if stat == "calls":
                out[f"{stem}.calls"] = stem_calls.get(stem, 0.0) / passes
            elif stat == "self_s":
                out[f"{stem}.self_s"] = stem_self.get(stem, 0.0) / passes
            else:
                out[f"{stem}.max_call_s"] = max_dur.get(stem, 0.0)
    for metric, counter in COUNTERS.items():
        out[metric] = tracer.counters.get(counter, 0) / passes
    out["setup.ri_codes.solve_ri.support_symbols"] = float(
        tracer.setup_counters.get("ri_codes.solve_ri.support_symbols", 0)
    )
    # problem files are parsed during set-up only
    load = names.index("cli.load_problem") if "cli.load_problem" in names else None
    out["cli.load_problem.calls"] = float(setup_calls[load]) if load is not None else 0.0
    out["cli.load_problem.self_s"] = float(setup_self[load]) if load is not None else 0.0
    env_points = tracer.counters.get("quantizers.lower_convex_envelope.points", 0)
    out["quantizers.envelope.vertex_share"] = (
        tracer.counters.get("quantizers.lower_convex_envelope.vertices", 0) / env_points if env_points else 0.0
    )
    trials = tracer.counters.get("sequential.simulate_scheme.trials", 0)
    out["sequential.typical_share"] = (
        tracer.counters.get("sequential.simulate_scheme.typical", 0) / trials if trials else 0.0
    )
    out["sequential.warnings"] = warning_count / passes
    out["multiterminal.pareto_share"] = counts["pareto"] / counts["points"] if "pareto" in counts else 0.0
    for layer in LAYERS + ("fixtures", "bench"):
        members = [i for i, n in enumerate(names) if n.split(".")[0] == layer]
        out[f"{layer}.self_s"] = float(sum(self_t[i] for i in members)) / passes
        out[f"setup.{layer}.self_s"] = float(sum(setup_self[i] for i in members))
        if layer in LAYERS:
            out[f"{layer}.errors"] = float(sum(tracer.errors.get(names[i], 0) for i in members))
    job_total = float(spans["dur"][timed & (spans["parent"] < 0)].sum())
    correction = float(spans["correction"][timed].sum())
    out["trace.job_s"] = job_total / passes
    # share of the traced job time spent inside zdsi calls, wrapper costs included
    out["trace.layer_share"] = 1.0 - out["bench.self_s"] * passes / job_total if job_total else 0.0
    out["trace.span_cost_s"] = tracer.child_cost + tracer.inside_cost
    out["trace.correction_s"] = correction / passes
    out["trace.untraced_s"] = untraced_pass_s
    out["trace.overhead_s"] = job_total / passes - untraced_pass_s
    out["trace.spans"] = float(timed.sum()) / passes
    out["trace.passes"] = float(passes)
    return out


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return _run(args, caught)


def _run(args, caught) -> int:
    workload, seed = args.workload, args.seed
    details = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
               "why": workloads.WHY[workload], "machine": machine()}
    tracer = None
    if args.trace == 0:
        start_times = start_and_import()
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            jobs, elapsed = setup(workload, seed)
            setup_times.append(elapsed)
        raw_setup_s = statistics.median(start_times) + statistics.median(setup_times)
        details["setup"] = {"start_and_import_s": start_times, "repeats_s": setup_times, "raw_setup_s": raw_setup_s}
        verify = Verifier(workload, seed)
        warn0 = len(caught)
        attempts, passes, probes = timed_passes(jobs, args.seconds, verify, min_passes=MIN_PASSES, repeat=True)
    else:
        jobs, _ = setup(workload, seed)
        verify = Verifier(workload, seed)
        untraced, _, _ = timed_passes(jobs, 0, verify)
        untraced_pass_s = sum(a.latency for a in untraced)
        tracer = Tracer(_hooks())
        tracer.calibrate()
        tracer.install(zdsi)
        tracer.recording = True
        jobs, _ = setup(workload, seed, tracer)
        verify.tracer = tracer
        warn0 = len(caught)
        attempts, passes, probes = timed_passes(jobs, args.seconds, verify, tracer)
        tracer.recording = False
        failed_untraced = sum(1 for a in untraced if a.error is not None)

    warn_tally = count_warnings(caught[warn0:])
    scale = speed_scale(probes)
    raw = per_job(attempts, "latency")
    latency = per_job(attempts, "latency", scale)
    cpu = per_job(attempts, "cpu", scale)
    failed = sum(1 for a in attempts if a.error is not None)
    attempted = len(attempts)
    if args.trace == 1:
        failed += failed_untraced
        attempted += len(untraced)
    job_tail, tail_pct = tail(latency.values())
    counts = work_counts(verify)
    details.update(
        jobs=len(jobs), passes=passes, attempted=attempted, failed=failed,
        error_rate=failed / attempted, failures=verify.failures[:50],
        tail_percentile=tail_pct, tail_samples=len(latency),
        work_per_pass=counts, workload_rates=kind_rates(verify, latency, scale),
        warnings=warn_tally, per_job_latency_s=latency,
        speed={"probe_nominal_s": PROBE_NOMINAL_S, "probe_mean_s": statistics.fmean(probes),
               "probes": len(probes), "scale": scale},
        raw_wall_s=sum(raw.values()), raw_job_p50_s=statistics.median(raw.values()),
        raw_per_job_latency_s=raw,
        latency_samples_s={name: [a.latency for a in attempts if a.job.name == name] for name in latency},
        queueing="none: one closed-loop client, nothing queues or retries, so no wait time exists",
    )
    if args.trace == 0:
        metrics = {
            # set-up runs just before the timed phase, so the run's scale fits it
            "setup_s": (raw_setup_s * scale, "s"),
            "wall_s": (sum(latency.values()), "s"),
            "cpu_s": (sum(cpu.values()), "s"),
            "job_p50_s": (statistics.median(latency.values()), "s"),
            "job_tail_s": (job_tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layer = layer_metrics(tracer, passes, counts, untraced_pass_s, sum(warn_tally.values()))
        metrics = {k: (v, "s" if k.endswith("_s") else ("share" if k.endswith("share") else "count"))
                   for k, v in layer.items()}
        details["errors_by_function"] = {n: c for n, c in sorted(tracer.errors.items()) if c}
        tracer.write(OUT / f"spans-{workload}.npz")
        tracer.uninstall()
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    # exact-job fingerprints of this run; on the default seed they are what
    # digests.json holds, and re-recording means copying them there by hand
    details["fingerprints"] = dict(sorted(verify.recorded.items()))
    (OUT / f"result-{workload}-trace{args.trace}.json").write_text(json.dumps(details, indent=1, default=str))

    for line in verify.failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    for key, n in warn_tally.items():
        print(f"warning x{n}: {key}", file=sys.stderr)
    print("# machine " + json.dumps(details["machine"]))
    print(f"# {workload} seed={seed} jobs={len(jobs)} passes={passes} "
          f"tail=p{tail_pct:.1f} of {len(latency)} speed_scale={scale:.4f} raw_wall_s={details['raw_wall_s']:.4f} "
          f"work/pass={counts} "
          f"rates={details['workload_rates']} error_rate={details['error_rate']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
