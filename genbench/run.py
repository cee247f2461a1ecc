"""Benchmark of genpi: one workload of three queries, asked in a closed loop
of rounds by one single-threaded process.

    python3 genbench/run.py --workload codim --seed 1 --seconds 36 --trace 0

An untimed warm-up round comes first; then whole rounds of q1, q2, q3 run
until the next round would end past --seconds.  Every answer is checked
against oracles computed before the loop (oracle.py, in a child process so
that its memory stays out of peak_rss_mb).

--trace 0 reports the end-to-end metrics: setup_s (median of cold starts),
q1_s, q2_s, q3_s (median latency over the rounds), both scaled to a
reference host speed (see hostspeed.py), and peak_rss_mb.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones by query (raw seconds), the hostspeed kernel
time and the tracing overhead.  The last line of stdout is the JSON result;
README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import genpi  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 9
CHILD_TIMEOUT_S = 120


def cold_starts(workload: str) -> list[tuple[float, float]]:
    """(raw seconds, kernel time around it) of each cold start."""
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would round every sample up to that grid
    samples = []
    ref = hostspeed.around_s()
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "coldstart.py"), workload],
                       cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        after = hostspeed.around_s()
        samples.append((dt, (ref + after) / 2))
        ref = after
    return samples


def start_oracle(workload: str, seed: int, inp: dict) -> subprocess.Popen:
    gens = {"ut2full": inp.get("gens_ut2full"), "ut2D": inp.get("gens_ut2D")}
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "oracle.py"), workload, str(seed), json.dumps(gens)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


def oracle_values(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle exited with {proc.returncode}")
    return json.loads(out)


class Round:
    """Asks the queries once, in order, and checks each answer.  Answers
    given before the checker exists are checked when it is set."""

    def __init__(self, queries):
        self.queries = queries
        self.checker = None
        self.pending: list[tuple] = []
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0

    def set_checker(self, checker):
        self.checker = checker
        for name, answer in self.pending:
            self._check(name, answer)
        self.pending = []

    def _check(self, name, answer):
        if self.checker is None:
            self.pending.append((name, answer))
        else:
            self.problems.extend(f"{name}: {p}" for p in self.checker.problems(name, answer))

    def __call__(self, tracer=None):
        """Net query times, per-layer values if traced, and the kernel time
        that scales each query.  Untraced queries run under a
        hostspeed.Sampler, whose own time is taken out of theirs."""
        times, layers, host = {}, {}, {}
        ref = hostspeed.around_s()
        if tracer is not None:
            tracer.install()
        try:
            for name, call in self.queries:
                if tracer is not None:
                    tracer.reset()
                sampler = hostspeed.Sampler()
                self.attempted += 1
                answer, failed = None, False
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        with sampler:
                            answer = call()
                    else:
                        answer = call()
                except Exception as exc:  # counted as failed; the run goes on
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    failed = True
                times[name] = time.perf_counter() - t0 - sampler.busy_s
                after = hostspeed.around_s()
                if len(sampler.samples) >= hostspeed.MIN_SAMPLES:
                    host[name] = hostspeed.typical_s(sampler.samples)
                else:
                    host[name] = (ref + after) / 2
                ref = after
                if failed:
                    continue
                if tracer is not None:
                    layers[name] = tracer.snapshot(times[name])
                self._check(name, answer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times, layers, host


def timed_rounds(seconds: float, one):
    """Whole rounds until the next one would end past `seconds`."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(one())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print(f"genpi {genpi.__file__}")
    if not os.path.abspath(genpi.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit("genpi was not imported from this checkout's src/")
    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}); "
          f"python {platform.python_version()}; numpy {np.__version__}; "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')}")
    print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds}; trace {args.trace}")

    if args.workload == "codim":
        workloads.write_dense_action(ROOT)
        print(workloads.describe_dense_basis(workloads.BASIS_SEED))
    setup = [] if args.trace else cold_starts(args.workload)

    inp = workloads.load(args.workload, ROOT)
    one = Round(workloads.queries(args.workload, inp))
    oracle_proc = start_oracle(args.workload, args.seed, inp)  # runs during the warm-up
    try:
        one()  # warm-up, untimed
        orc = oracle_values(oracle_proc)
    finally:
        if oracle_proc.poll() is None:
            oracle_proc.kill()
            oracle_proc.wait()
    one.set_checker(workloads.Checker(args.workload, inp, orc))
    one.attempted = 0
    errors_before = len(one.errors)

    if args.trace:
        tracer = tracing.Tracer()

        def traced_pair():
            return one(), one(tracer)

        pairs = timed_rounds(args.seconds, traced_pair)
        metrics = {}
        for q, _ in one.queries:
            for m in tracing.LAYER_METRICS:
                vals = [layers[q][m] for _, (_, layers, _) in pairs if q in layers]
                metrics[f"{q}.{m}"] = (statistics.median(vals) if vals else 0.0, tracing.UNITS[m])
        kernel = [r for (_, _, host), _ in pairs for r in host.values()]
        metrics["host.ref_loop_s"] = (statistics.median(kernel), "s")
        plain_total = statistics.median(sum(p[0].values()) for p, _ in pairs)
        traced_total = statistics.median(sum(t[0].values()) for _, t in pairs)
        metrics["trace.overhead_s"] = (traced_total - plain_total, "s")
        for name in tracer.absent:
            print(f"absent: {name} (its metrics read 0)")
        print(f"rounds {len(pairs)} untraced + {len(pairs)} traced")
    else:
        rounds = timed_rounds(args.seconds, one)
        setup_scaled = [hostspeed.scaled(*s) for s in setup]
        metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
        kernel = statistics.median(h for _, _, hs in rounds for h in hs.values())
        print(f"rounds {len(rounds)}; kernel median {kernel:.6f} s, "
              f"{hostspeed.NOMINAL_S} s nominal")
        print(f"setup raw {[round(t, 4) for t, _ in setup]} "
              f"scaled {[round(x, 4) for x in setup_scaled]}")
        for q, _ in one.queries:
            raw = [t[q] for t, _, _ in rounds]
            latencies = [hostspeed.scaled(t[q], h[q]) for t, _, h in rounds]
            metrics[f"{q}_s"] = (statistics.median(latencies), "s")
            print(f"{q} raw median {statistics.median(raw):.4f} s; "
                  f"raw {[round(x, 4) for x in raw]} scaled {[round(x, 4) for x in latencies]}")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (peak_mb, "MB")

    for msg in one.errors:
        print(f"FAILED {msg}")
    for msg in one.problems:
        print(f"WRONG {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not one.problems,
        "attempted": one.attempted,
        "failed": len(one.errors) - errors_before,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
