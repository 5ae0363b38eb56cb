"""Closed-loop benchmark of the qadic command line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; qadic is imported from ./src.  One
client runs one job at a time in this process (`qadic.cli.main(argv)` with
stdout captured in memory, QADIC_THREADS unset).  The first pass runs whole
rounds until a third of --seconds of job time has passed; two more passes
run the same jobs again, each from an empty witness cache.  Between rounds
the runner times a fixed piece of bigint work of its own (`reference`), and
each pass's times are scaled to a host on which that work takes
REF_NOMINAL_S, so that the speed of a shared host, which can halve within
minutes, largely cancels out.  A job's latency is the median of its three
scaled times.  Every output is then checked by the oracles in oracles.py,
outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 then replays the same
rounds twice, plain and with spans around qadic's public functions (spans.py),
checks that every job prints the same bytes in every pass and lane, and
prints the per-layer metrics.  The last stdout line is the JSON result; a
stamp (backend, Python, host) and a readable summary go to stderr.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREADS_ENV = os.environ.pop("QADIC_THREADS", None)

if not os.path.isfile(os.path.join(SRC, "qadic", "cli.py")):
    print(f"run.py: no qadic sources under {SRC}; run from a qadic checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import zlib  # noqa: E402

import qadic  # noqa: E402
import qadic.certificates  # noqa: E402
import qadic.cli  # noqa: E402
import qadic.expansion  # noqa: E402
import qadic.kernels  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402

MIN_JOBS = 100  # per run: p90 needs at least ten samples beyond it
# Every job runs in each of PASSES passes spread over the run, and its
# latency is the median of them.
PASSES = 3
# Timings are scaled to a host on which reference() takes this long: about
# what it takes on an idle core of the 2-vCPU x86-64 virtual machine (Python
# 3.11) where the baseline was taken.
REF_NOMINAL_S = 0.008
_REF_MODULUS = 3**700 + 10
_REF_FACTORS = (3**60000, 7**40000)
# reference() is timed after a round once this much job time has passed
# since the last time it was.
REF_EVERY_S = 0.4
# Set-up time is what a CLI user pays on every call: importing qadic and
# qadic.cli in a fresh interpreter.  It is sampled in bursts, one before the
# first pass and one after each; a burst's sample is its fastest import,
# scaled by the median of the passes' reference times, and setup_s is the
# median over the bursts.
SETUP_BURST = 4
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qadic, qadic.cli; print(time.perf_counter() - t)"
)

# A zero call count here means a binding site was missed, not a fast layer.
DOMINANT = {
    "scan": ("kernels.scan_allowed",),
    "orders": ("orders.coset_decomposition", "rational.factorize"),
    "certify": ("certificates.make_certificate", "certificates.verify_certificate"),
    "expand": ("kernels.digit_cycle", "expansion.value"),
}

END_TO_END = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "ok_frac", "setup_s", "peak_rss_mb")

PER_LAYER = (
    "kernels.scan_allowed.calls", "kernels.scan_allowed.s", "kernels.scan_allowed.true_frac",
    "kernels.scan_allowed.den_bits", "kernels.digit_cycle.calls", "kernels.digit_cycle.s",
    "kernels.digit_cycle.digits", "kernels.digit_mask.calls", "kernels.digit_mask.s",
    "expansion.expand.calls", "expansion.expand.s", "expansion.expand.self_s",
    "expansion.value.calls", "expansion.value.s", "expansion.validate.s",
    "expansion.shift_digits.calls", "expansion.shift_digits.s",
    "expansion.digit_set.calls", "expansion.digit_set.s",
    "cantor.contains.calls", "cantor.contains.s", "cantor.contains.self_s", "cantor.contains.true_frac",
    "orders.mult_order.calls", "orders.mult_order.s", "orders.mult_order.self_s",
    "orders.coset_decomposition.calls", "orders.coset_decomposition.s",
    "orders.coset_decomposition.self_s", "orders.coset_decomposition.residues",
    "orders.orbit_of.calls", "orders.orbit_of.s",
    "orders.order_stabilization.calls", "orders.order_stabilization.s",
    "rational.factorize.calls", "rational.factorize.s", "rational.euler_phi.calls", "rational.euler_phi.s",
    "rational.split_coprime_part.calls", "rational.split_coprime_part.s",
    "rational.is_prime.calls", "rational.is_prime.s",
    "certificates.exclusion_bound.calls", "certificates.exclusion_bound.s",
    "certificates.exclusion_bound.self_s",
    "certificates.make_certificate.calls", "certificates.make_certificate.s",
    "certificates.make_certificate.self_s",
    "certificates.verify_certificate.calls", "certificates.verify_certificate.s",
    "certificates.verify_certificate.self_s", "certificates.verify_certificate.true_frac",
    "certificates.witness_cache.hits", "certificates.witness_cache.misses",
    "certificates.witness_cache.hit_frac",
    "enumeration.exceptional_geometric.s", "enumeration.exceptional_geometric.self_s",
    "enumeration.exceptional_lattice.s", "enumeration.exceptional_lattice.self_s",
    "enumeration.dp_intersection.s", "enumeration.dp_intersection.self_s", "enumeration.par.items",
    "cli.main.calls", "cli.main.s", "cli.self_s", "cli.out_bytes",
    *(f"{layer}.raised" for layer in spans.LAYERS),
    "trace.overhead",
)


class OutputStore:
    """Job outputs, compressed, in a file: kept out of memory so that stored
    outputs do not count in the run's peak RSS."""

    def __init__(self, path: str):
        self._fh = open(path, "w+b")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def put(self, data: bytes) -> tuple[int, int]:
        z = zlib.compress(data, 1)
        offset = self._fh.seek(0, os.SEEK_END)
        self._fh.write(z)
        return offset, len(z)

    def get(self, where: tuple[int, int]) -> str:
        self._fh.seek(where[0])
        return zlib.decompress(self._fh.read(where[1])).decode()


class Record:
    """One executed job: what ran, how long it took, and a digest of what it
    printed; the output itself goes to the store, when one is given."""

    __slots__ = ("kind", "argv", "params", "latency", "error", "digest", "out_bytes", "where")

    def __init__(self, kind, argv, params, latency, error, out: str, store: OutputStore | None):
        self.kind, self.argv, self.params = kind, argv, params
        self.latency, self.error = latency, error
        data = out.encode()
        self.digest = hashlib.sha256(data).digest()
        self.out_bytes = len(data)
        self.where = store.put(data) if store is not None else None


def _resolve(job: jobs.Job, ctx: dict):
    """Fill the placeholders of chained certify jobs from earlier outputs."""
    params = dict(job.params)
    argv = list(job.argv)
    if job.kind == "certify":
        params["k"] = [max(ctx["k_alpha"], k) for k in params["k"]]
        argv[argv.index(jobs.K_SLOT)] = ",".join(map(str, params["k"]))
    elif job.kind == "verify":
        argv[argv.index(jobs.CERT_SLOT)] = os.path.join(ctx["dir"], f"cert-{params['slot']}.json")
    return argv, params


def run_job(job: jobs.Job, ctx: dict, store: OutputStore | None = None) -> Record:
    if job.kind in ("certify", "verify") and "k_alpha" not in ctx:
        return Record(job.kind, list(job.argv), dict(job.params), 0.0, "the round's bound job failed", "", store)
    argv, params = _resolve(job, ctx)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qadic.cli.main(argv)
            if rc == 0 and job.kind == "expand":
                doc = json.loads(out.getvalue())
                params["value"] = qadic.expansion.ExpansionQ.from_dict({"base": params["q"], **doc}).value()
        if rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code}): {err.getvalue().strip()[:200]}"
    except Exception as exc:  # a crashing job is a failed job; the loop goes on
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    latency = time.perf_counter() - start
    text = out.getvalue()
    if error is None and job.kind == "bound":
        ctx["k_alpha"] = json.loads(text)["k_alpha"]
    elif error is None and job.kind == "certify":
        with open(os.path.join(ctx["dir"], f"cert-{params['slot']}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return Record(job.kind, argv, params, latency, error, text, store)


def reference() -> float:
    """Seconds a fixed piece of work takes: a modular power with a 1110-bit
    modulus and a product of a 95000-bit and a 112000-bit number, bigint
    arithmetic of the kinds qadic's jobs spend their time in.  Of the
    references tried, this pair tracked the host's speed best on every
    workload.  It is the benchmark's own code, so a change to qadic does not
    move it; it measures how fast the host runs such code at the moment."""
    start = time.perf_counter()
    pow(12345, _REF_MODULUS - 1, _REF_MODULUS)
    _REF_FACTORS[0] * _REF_FACTORS[1]
    return time.perf_counter() - start


def run_rounds(rounds, seconds: float | None, workdir: str, store: OutputStore | None = None,
               refs: list[float] | None = None) -> tuple[list, list[Record]]:
    """Run whole rounds until `seconds` of job time and MIN_JOBS jobs are
    done (or every round given, when seconds is None).  Certificates go to
    files in `workdir`.  With `refs`, a reference() time is appended to it
    after a round whenever REF_EVERY_S of job time has passed since the last
    one."""
    done, records, timed, last_ref = [], [], 0.0, 0.0
    for jobs_in_round in rounds:
        ctx = {"dir": workdir}
        for job in jobs_in_round:
            rec = run_job(job, ctx, store)
            records.append(rec)
            timed += rec.latency
        done.append(jobs_in_round)
        if refs is not None and timed - last_ref >= REF_EVERY_S:
            refs.append(reference())
            last_ref = timed
        if seconds is not None and timed >= seconds and len(records) >= MIN_JOBS:
            break
    return done, records


def check(records: list[Record], store: OutputStore) -> list[str | None]:
    """Oracle verdict per record: None, or why the job failed."""
    # imported here, after the timed loop, so that sympy is not in peak RSS
    import oracles

    verdicts = []
    for rec in records:
        if rec.error is not None:
            verdicts.append(rec.error)
            continue
        try:
            verdicts.append(oracles.CHECKS[rec.kind](rec.params, store.get(rec.where)))
        except Exception as exc:  # unparsable output is a wrong answer
            verdicts.append(f"oracle could not read the output: {type(exc).__name__}: {exc}")
    return verdicts


def setup_burst() -> float:
    """The fastest of SETUP_BURST import times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_BURST):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC], capture_output=True,
                              text=True, check=True, timeout=60, cwd=ROOT)
        samples.append(float(proc.stdout))
    return min(samples)


def run_passes(rounds, seconds: float, workdir: str, store: OutputStore):
    """The timed run.  Returns the rounds run, the first pass's records, each
    job's scaled latency, one scaled set-up sample per burst, the reference
    time of each pass, and the jobs whose output changed between passes."""
    setup = [setup_burst()]
    done, passes, ref_s = [], [], []
    for n in range(PASSES):
        # each pass starts from an empty witness cache, as the first one does
        qadic.certificates._witness_base.cache_clear()
        refs = [reference()]
        if n == 0:
            done, records = run_rounds(rounds, seconds / PASSES, workdir, store, refs)
        else:
            records = run_rounds(done, None, workdir, refs=refs)[1]
        passes.append(records)
        ref_s.append(statistics.median(refs))
        setup.append(setup_burst())
    run_ref = statistics.median(ref_s)
    setup = [t * REF_NOMINAL_S / run_ref for t in setup]
    latencies = [
        statistics.median(rec.latency * REF_NOMINAL_S / ref for rec, ref in zip(recs, ref_s))
        for recs in zip(*passes)
    ]
    unstable = [
        f"job {i} ({' '.join(rec.argv)[:80]}): stdout differs between passes"
        for i, (rec, *again) in enumerate(zip(*passes))
        if any(other.digest != rec.digest for other in again)
    ]
    return done, passes[0], latencies, setup, ref_s, unstable


def stamp() -> dict:
    try:
        # the ceiling keeps git from searching the directories above ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                             env=env, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    src = os.path.join(SRC, "qadic")
    for name in sorted(os.listdir(src)):
        path = os.path.join(src, name)
        if os.path.isfile(path):
            digest.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "backend": qadic.kernels.backend(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "QADIC_THREADS": THREADS_ENV,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def end_to_end(latencies, verdicts, peak_rss_kb, setup) -> dict:
    """The end-to-end metrics from each job's scaled latency and its oracle
    verdict."""
    ok = sum(v is None for v in verdicts)
    lat_ms = [t * 1000 for t in latencies]
    return {
        "jobs_per_s": (ok / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "ok_frac": (ok / len(verdicts), "frac"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(workload, done, records, workdir) -> tuple[dict, list[str]]:
    """Replay the rounds of the timed run twice, interleaved round by round:
    a plain lane and a traced lane.  Each lane has its own witness cache,
    starting empty as in the timed run, so both lanes do the same work, and
    a slow spell of the machine slows both alike; the overhead is the traced
    lane's job time over the plain lane's.  The sieve of small primes is warm
    in both lanes.  Returns the metrics and any problems found."""
    original = qadic.certificates._witness_base
    lane_cache = {lane: functools.lru_cache(original.cache_parameters()["maxsize"])(original.__wrapped__)
                  for lane in ("plain", "traced")}
    tracer = spans.Tracer()
    lanes = {"plain": [], "traced": []}
    try:
        for round_ in done:
            qadic.certificates._witness_base = lane_cache["plain"]
            lanes["plain"] += run_rounds([round_], None, workdir)[1]
            qadic.certificates._witness_base = lane_cache["traced"]
            tracer.install()
            try:
                lanes["traced"] += run_rounds([round_], None, workdir)[1]
            finally:
                tracer.remove()
    finally:
        qadic.certificates._witness_base = original
    problems = [
        f"job {i} ({' '.join(a.argv)[:80]}): stdout differs {'under tracing' if lane == 'traced' else 'on replay'}"
        for lane, replay in lanes.items()
        for i, (a, b) in enumerate(zip(records, replay))
        if a.digest != b.digest
    ]
    traced = lanes["traced"]
    metrics = tracer.metrics()
    info = lane_cache["traced"].cache_info()
    lookups = info.hits + info.misses
    metrics["certificates.witness_cache.hits"] = (info.hits, "count")
    metrics["certificates.witness_cache.misses"] = (info.misses, "count")
    metrics["certificates.witness_cache.hit_frac"] = (info.hits / lookups if lookups else 0.0, "frac")
    metrics["cli.self_s"] = metrics["cli.main.self_s"]
    metrics["cli.out_bytes"] = (sum(r.out_bytes for r in traced), "bytes")
    metrics["trace.overhead"] = (sum(r.latency for r in traced) / sum(r.latency for r in lanes["plain"]), "ratio")
    for name in DOMINANT[workload]:
        if metrics[f"{name}.calls"][0] == 0:
            problems.append(f"{name} was never called under tracing: a binding site was missed")
    return {name: metrics[name] for name in PER_LAYER}, problems


def _summary(workload, seed, metrics, records, verdicts, problems):
    lines = [f"# {workload} seed {seed}: {len(records)} jobs, {sum(v is not None for v in verdicts)} failed"]
    for name, (value, unit) in metrics.items():
        lines.append(f"#   {name:<44} {value:>14.6g} {unit}")
    for rec, why in zip(records, verdicts):
        if why is not None:
            lines.append(f"# FAIL {' '.join(rec.argv)[:120]}: {why}")
    lines += [f"# FAIL {p}" for p in problems]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="closed-loop qadic CLI benchmark")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    phases = {}
    # scratch files stay inside the checkout, in a directory of this run's own
    with (
        tempfile.TemporaryDirectory(prefix=".work-", dir=os.path.join(ROOT, "perfbench")) as work,
        OutputStore(os.path.join(work, "outputs.bin")) as store,
    ):
        rounds = jobs.rounds(args.workload, args.seed)
        done, records, latencies, setup, ref_s, problems = run_passes(rounds, args.seconds, work, store)
        phases["passes"] = lap()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            metrics, replay_problems = per_layer(args.workload, done, records, work)
            problems += replay_problems
            phases["replays"] = lap()
        verdicts = check(records, store)
        phases["oracles"] = lap()
    if not args.trace:
        metrics = end_to_end(latencies, verdicts, peak_rss_kb, statistics.median(setup))

    failed = sum(v is not None for v in verdicts)
    correct = failed == 0 and not problems
    print(json.dumps({"stamp": stamp()}), file=sys.stderr)
    print(_summary(args.workload, args.seed, metrics, records, verdicts, problems), file=sys.stderr)
    print(f"# reference: {', '.join(f'{r * 1000:.3f}' for r in ref_s)} ms in the passes, "
          f"{REF_NOMINAL_S * 1000:.3f} ms nominal; unscaled job time of the first pass "
          f"{sum(r.latency for r in records):.2f} s", file=sys.stderr)
    print("# wall seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
