"""dppkit benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): dimension-tree, psi-window, sample-chain,
lcs-growth.  The library runs with threads=1 and BLAS pinned to one thread.
A run repeats the workload's job list for a number of cycles fixed by
``--seconds`` and the workload's cycle time at the seed commit, so every run
of a workload does the same work.  Every job's output is checked outside the
timed region.

``--trace 0`` reports the end-to-end metrics: units_per_s, job_p50_s,
job_tail_s, setup_s (median of fresh-interpreter set-ups) and peak_rss_mb.
Times are scaled to a reference machine speed (see REFERENCE_LOOP_S).
``--trace 1`` runs half the cycles untraced, then the same cycles with spans
around every public dppkit function (tracer.py), and reports per-layer call
counts, self-time shares and the tracing overhead; it fails when the traced
counts disagree with the work computed from the inputs.

The last line of stdout is one JSON object; failures of jobs or checks count
in ``failed`` against ``attempted``.
"""
import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
# Reported times are scaled to a reference machine speed.  On a shared
# machine the speed of a core drifts by up to +-20% over tens of seconds, with
# the load of other tenants.  A fixed pure-Python loop runs right before and
# right after every job and set-up probe and sees the same drift; a latency
# is scaled by REFERENCE_LOOP_S over the loop's mean time around it.  On a
# shared 2-CPU Xeon this cut the spread of 20 s medians from 17% to 6%.
# The raw times are in the provenance line.
REFERENCE_LOOP_S = 0.004


def loop_time() -> float:
    """Median time of three runs of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(elapsed: float, loop_before: float, loop_after: float) -> float:
    return elapsed * 2.0 * REFERENCE_LOOP_S / (loop_before + loop_after)


def timed(fn):
    """(result, raw seconds, seconds at the reference speed) of fn()."""
    before = loop_time()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed, to_reference(elapsed, before, loop_time())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable"


def provenance(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "library_threads": 1,
        "git_describe": git_describe(),
        "seed": seed,
    }


def setup_time(workload: str) -> tuple:
    """(raw, reference-speed) seconds from spawning a fresh interpreter to
    its ``ready``."""
    before = loop_time()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed, to_reference(elapsed, before, loop_time())


class Runner:
    """Runs cycles of a plan's jobs, checks outputs and records latencies."""

    def __init__(self, plan, seed: int):
        self.plan = plan
        self.seed = seed
        self.first = {}          # job index -> (fingerprint, output) of its first run
        self.failures = []
        self.attempted = 0

    def order(self, cycle: int):
        return np.random.default_rng([self.seed % 2 ** 63, cycle]).permutation(len(self.plan.jobs))

    def cycle(self, cycle: int, tracer=None) -> list:
        """Run every job once; return (job index, raw latency, scaled latency)
        of the jobs that passed."""
        done = []
        for j in self.order(cycle):
            job = self.plan.jobs[j]
            self.attempted += 1
            # every job starts from an empty collector, so its latency does
            # not depend on the garbage the jobs before it left behind
            gc.collect()
            run = job.run if tracer is None else functools.partial(tracer.run_job, int(j), job.run)
            try:
                out, latency, scaled = timed(run)
                problem = self.verify(int(j), out)
            except Exception as exc:  # a job that raises counts as failed; the run goes on
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{job.key}: {problem}")
            else:
                done.append((int(j), latency, scaled))
        return done

    def verify(self, j: int, out):
        job = self.plan.jobs[j]
        fp = job.fingerprint(out)
        if j in self.first:
            return None if fp == self.first[j][0] else "output differs from its first run"
        self.first[j] = (fp, out)
        return job.check(out)

    def final_failures(self) -> list:
        if len(self.first) < len(self.plan.jobs):
            return ["some jobs never produced an output"]
        return self.plan.final_check([self.first[j][1] for j in range(len(self.plan.jobs))])

    def digest(self) -> str:
        """Hash of every job's first output, in job order."""
        h = hashlib.sha256()
        for j, job in enumerate(self.plan.jobs):
            h.update(job.key.encode())
            h.update(self.first[j][0] if j in self.first else b"missing")
        return h.hexdigest()[:16]


def tail(latencies: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def throughput(plan, done: list) -> float:
    """Units of one cycle over the sum of each job's median latency across
    the cycles; a burst of outside load moves it less than a mean would."""
    by_job = {}
    for j, lat in done:
        by_job.setdefault(j, []).append(lat)
    return sum(plan.jobs[j].units for j in by_job) / sum(statistics.median(v) for v in by_job.values())


def timing_run(name: str, runner: Runner, cycles: int, info: dict) -> dict:
    setup = [setup_time(name) for _ in range(SETUP_PROBES)]
    done = []
    for c in range(cycles):
        done += runner.cycle(c)
    if not done:
        raise RuntimeError("every job failed: " + "; ".join(runner.failures[:3]))
    raw = [lat for _, lat, _ in done]
    scaled = [lat for _, _, lat in done]
    tail_value, tail_pct = tail(scaled)
    info.update(p50_samples=len(scaled), tail_percentile=tail_pct,
                tail_jobs_beyond=min(TAIL_BEYOND, len(scaled) - 1),
                raw_units_per_s=throughput(runner.plan, [(j, lat) for j, lat, _ in done]),
                raw_job_p50_s=statistics.median(raw), raw_job_tail_s=tail(raw)[0],
                raw_setup_s=statistics.median(r for r, _ in setup), raw_job_wall_s=sum(raw))
    return {
        "units_per_s": metric(throughput(runner.plan, [(j, lat) for j, _, lat in done]), "units/s"),
        "job_p50_s": metric(statistics.median(scaled), "s"),
        "job_tail_s": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_run(spec, runner: Runner, cycles: int, info: dict) -> dict:
    from tracer import LAYERS, MODULES, Tracer
    import workloads

    plain = sum(lat for c in range(cycles) for _, _, lat in runner.cycle(c))
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(lat for c in range(cycles) for _, _, lat in runner.cycle(c, tracer))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    wall = summary["job"]["by_job"].sum()

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(summary[layer]["calls"], "count")
    for key, value in tracer.work.items():
        metrics[key] = metric(value, "count")
    calls = summary["dimension.s_n_q_table"]["calls"]
    metrics["dimension.s_n_q_table.distinct_ratio"] = metric(len(tracer.trees) / calls if calls else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = metric(100.0 * summary[layer]["self_s"] / wall, "%")
    for module in MODULES:
        share = sum(summary[layer]["self_s"] for layer in LAYERS if layer.startswith(module + "."))
        metrics[f"{module}.self_pct"] = metric(100.0 * share / wall, "%")
    metrics["trace.overhead_ratio"] = metric(traced / plain, "ratio")

    # count self-check: traced counts against the work computed from the inputs
    counted = {"measure.extend.calls": summary["measure.extend"]["calls"],
               "mixing.psi_finite_window.pairs": tracer.work["mixing.psi_finite_window.pairs"],
               "lcs.lcs_length.chars": tracer.work["lcs.lcs_length.chars"]}
    for key in workloads.COUNTED:
        expected = cycles * sum(job.expect.get(key, 0) for job in runner.plan.jobs)
        if counted[key] != expected:
            runner.failures.append(f"count self-check: {key} = {counted[key]}, inputs give {expected}")

    info.update(traced_wall_s=traced, untraced_wall_s=plain, spans=len(tracer.start),
                per_call=per_call_costs(summary, spec, runner.plan))
    return metrics


def per_call_costs(summary: dict, spec, plan) -> dict:
    """Cost of the workload's focus layer per call and per work unit, for
    each value of the input property its jobs are tagged with (inclusive
    times), plus the self time per call of the prefix extension."""
    out = {}
    ext = summary["measure.extend"]
    if ext["calls"]:
        out["measure.extend.us_per_call"] = 1e6 * ext["self_s"] / ext["calls"]
    focus = summary[spec.focus]
    cycles = summary["job"]["calls"] // len(plan.jobs)
    groups = {}
    for j, job in enumerate(plan.jobs):
        seconds, calls, units = groups.get(job.tag, (0.0, 0, 0))
        groups[job.tag] = (seconds + focus["by_job"][j], calls + focus["calls_by_job"][j],
                           units + cycles * job.units)
    for tag, (seconds, calls, units) in groups.items():
        out[f"{spec.focus}.{tag}.s_per_call"] = seconds / calls if calls else None
        out[f"{spec.focus}.{tag}.ns_per_unit"] = 1e9 * seconds / units
    return out


def cycles_for(spec, seconds: float, trace: bool) -> int:
    share = 2.0 if trace else 1.0   # a traced run runs its cycles twice
    wanted = round(seconds / (share * spec.cycle_s))
    return max(1 if trace else spec.min_cycles, wanted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dppkit" / "__init__.py").is_file():
        print(f"error: no dppkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    from dppkit.symbol import require_range

    plan = spec.build(args.seed)
    for sym in plan.symbols:
        require_range(sym)
    plan.warm_up()

    runner = Runner(plan, args.seed)
    cycles = cycles_for(spec, args.seconds, bool(args.trace))
    info = provenance(args.seed)
    info.update(workload=args.workload, trace=args.trace, cycles=cycles, jobs_per_cycle=len(plan.jobs),
                unit=spec.unit)
    if args.trace:
        metrics = trace_run(spec, runner, cycles, info)
    else:
        metrics = timing_run(args.workload, runner, cycles, info)
    runner.failures += runner.final_failures()
    info.update(attempted=runner.attempted, failed=len(runner.failures),
                fail_ratio=len(runner.failures) / runner.attempted, output_digest=runner.digest())

    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"# {args.workload}: seed {args.seed}, {cycles} cycles x {len(plan.jobs)} jobs, "
          f"fail_ratio {len(runner.failures)}/{runner.attempted}")
    for key, m in metrics.items():
        print(f"{key:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"provenance": info}))
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
