"""Run one workload of the betaforge benchmark and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from `src/`.  Each
invocation is a fresh interpreter, one client, closed loop: every op starts
when the previous one ends.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0: set up the program five times (fresh import, preset registry,
warm-up pass over the workload's own inputs) and report the median as
`setup_s`; then run whole cycles of ops for about `--seconds` seconds of op
time at reference speed (below), and for at least 100 ops; then check
every output with the reference code in `checks.py`.  Reports the
end-to-end metrics; the two rates are medians over the cycles of the run.

Times are taken at reference speed: an op's wall time is divided by the
time of a fixed reference pass (`reference_ms`, about 1 ms) run just before
and just after it, and reported in ref_ms.  On a machine shared with other
work the speed of fixed code swings by up to 2x over tens of seconds and
moves raw op times with it; the ratio stays put, while a change to
betaforge still moves it.  Small-number Python work and big-integer
multiplication slow down by different amounts, so ops that spend their time
in big powers (the stream converter's) are divided by a big-integer
reference and all others by a Fraction loop.  `setup_s` is scaled the same
way, to seconds at the speed where one reference pass takes 1 ms.  Raw
times are printed on the summary line.

--trace 1: same set-up, then a fixed list of ops (the first cycles of the
seed's schedule), each op run once untraced and once under the tracer, back
to back, so that the per-layer counts repeat exactly for a seed; then the
bounded-failure probes run.  Reports the per-layer metrics, the tracing
overhead (traced op time over untraced op time) and the number of probes
that did not fail cleanly.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
from launch import TRACE_MARK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

# end-to-end metric name -> unit; the order is the order of BENCHMARK.json.
# ref_ms is the time of one pass of `reference_ms` taken next to the op, so
# these times and rates do not move with the speed of a shared machine
E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ref_ms",
    "op_ms.p90": "ref_ms",
    "ops_per_s": "1/ref_s",
    "digits_per_s": "1/ref_s",
    "peak_rss_mb": "MB",
}
# sizes of the two reference passes, each about 1 ms on one core of the
# machine the benchmark was tuned on
REFERENCE_STEPS = 200
REFERENCE_INT = (1 << 70000) // 3
MIN_OPS = 100  # so that op_ms.p90 has at least ten samples beyond it
# the rates are medians over cycles; the first cycle after the warm-up can
# run slower than later ones (convert-mix's first big powers grow the heap),
# so no run is left with that cycle alone
MIN_CYCLES = 2
SETUPS = 5
TRACE_CYCLES = {"denoise-long": 1, "convert-mix": 1, "prefix-sets": 2, "cli-mix": 1}
CHILD_TIMEOUT = 120

# Inputs the CLI accepts that must end, within bounded time and memory, in
# exit status 1 and an "error:" line.  Neither does at the seed commit.
PROBES = (
    ["canonicalize", "--beta", '{"minpoly":[3,2,-4,1],"isolating":["3/2","5/3"]}', "--bits", "011"],
    ["enumerate", "--beta", "3/2", "--s", "1/2", "--n", "14", "--pairing"],
)
PROBE_MEMORY = 512 << 20  # address-space cap of each probe child, bytes
PROBE_SECONDS = 5


def child_env(**extra):
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **extra)


def fresh_betaforge():
    """Import betaforge from scratch, dropping any copy loaded before."""
    for name in [n for n in sys.modules if n == "betaforge" or n.startswith("betaforge.")]:
        del sys.modules[name]
    return importlib.import_module("betaforge")


class Launcher:
    """Runs one CLI invocation per call in a child process; when `traced`,
    merges each child's trace summary and start-up measurements."""

    def __init__(self):
        self.traced = False
        self.summary = {}
        self.startup_ms = []
        self.bits = {}
        self.stdout_bytes = 0

    def __call__(self, argv):
        env = child_env(BENCH_SPAWN=repr(time.time()), BENCH_TRACE="1" if self.traced else "0")
        p = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), *argv],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        err = p.stderr
        if self.traced:
            cut = err.rfind(TRACE_MARK)
            if cut < 0:
                raise RuntimeError(f"traced child left no trace: {err[-300:]}")
            payload = json.loads(err[cut + len(TRACE_MARK):])
            err = err[:cut]
            tracer.merge(self.summary, payload["summary"])
            self.startup_ms.append(payload["startup_ms"])
            for phase in ("cold", "warm"):
                for key, v in payload[phase].items():
                    self.bits[f"{key}.{phase}"] = max(self.bits.get(f"{key}.{phase}", 0), v)
            self.stdout_bytes += len(p.stdout.encode())
        return p.returncode, p.stdout, err


def reference_ms(bigint=False):
    """Time of a fixed piece of work, in ms, with the cycle collector off: a
    probe of how fast the machine runs that kind of work right now.  The
    Python reference is a loop of small Fraction arithmetic; the big-integer
    reference squares a 70000-bit integer, the kind of work that dominates
    the stream converter's schedule."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    if bigint:
        REFERENCE_INT * REFERENCE_INT
    else:
        a = Fraction(1, 3)
        for i in range(REFERENCE_STEPS):
            a = a * Fraction(7, 5) - Fraction(i % 7, 11)
            if a.denominator > 1 << 200:
                a = Fraction(1, 3)
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt * 1e3


def run_ops(ops, handle):
    """Records (op, output, exception, seconds, ref_ms): ref_ms is the op's
    time over the mean of its reference passes just before and after it."""
    records = []
    for op in ops:
        before = reference_ms(op.bigint)
        t0 = perf_counter()
        try:
            out, exc = op.run(handle), None
        except Exception as e:  # a raising op counts as failed; the run goes on
            out, exc = None, e
        dt = perf_counter() - t0
        after = reference_ms(op.bigint)
        records.append((op, out, exc, dt, dt * 1e3 / ((before + after) / 2)))
    return records


def check_records(records):
    """(failed, digits of passing outputs); the first failure goes to stderr."""
    failed = digits = 0
    for op, out, exc, *_ in records:
        if exc is None:
            try:
                digits += op.check(out)
                continue
            except Exception as e:  # Mismatch, or output the checker could not read
                exc = e
        if not failed:
            print(f"first failed op ({op.kind}):", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        failed += 1
    return failed, digits


def setup(wl, launcher):
    """Set up SETUPS times; returns (handle, median set-up time in s at
    reference speed, state bits cold and after warm-up, warm-up records of
    the last set-up)."""
    warm_ops = wl.warmup()
    times = []
    for _ in range(SETUPS):
        if not wl.in_process:
            records = run_ops(warm_ops, launcher)
            times.append(ref_ms(records) / 1e3)
            continue
        before = reference_ms()
        t0 = perf_counter()
        bf = fresh_betaforge()
        bf.builtin_presets()
        t1 = perf_counter()
        cold = tracer.state_bits(bf)
        t2 = perf_counter()
        records = run_ops(warm_ops, bf)
        t3 = perf_counter()
        times.append((t1 - t0 + t3 - t2) / ((before + reference_ms()) / 2))
    if not wl.in_process:
        return launcher, statistics.median(times), {}, records
    warm = tracer.state_bits(bf)
    bits = {f"{k}.cold": v for k, v in cold.items()} | {f"{k}.warm": v for k, v in warm.items()}
    return bf, statistics.median(times), bits, records


def timed_loop(wl, handle, seconds):
    """Whole cycles until about `seconds` of op time at reference speed, at
    least MIN_OPS ops and MIN_CYCLES cycles; a cycle starts only if it should
    end within half a cycle of the deadline.  Measuring the deadline in
    reference time keeps the number of cycles, and so the mix of ops, the
    same on a slow or a fast machine."""
    cycles, loop_s, cycle_s, ops_done = [], 0.0, 0.0, 0
    while ops_done < MIN_OPS or len(cycles) < MIN_CYCLES or loop_s + cycle_s / 2 < seconds:
        records = run_ops(wl.cycle(), handle)
        cycle_s = ref_ms(records) / 1e3
        cycles.append(records)
        loop_s += cycle_s
        ops_done += len(records)
    return cycles


def traced_pairs(wl, ops, handle, launcher, tr):
    """Run each op untraced and traced back to back, so that both timings see
    the same machine load; which of the two goes first alternates, so that
    neither gains from running second.  Returns (untraced, traced) records."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        for on in (i % 2, 1 - i % 2):
            if not on:
                plain += run_ops([op], handle)
                continue
            if wl.in_process:
                tr.install()
            launcher.traced = True
            try:
                traced += run_ops([op], handle)
            finally:
                tr.uninstall()
                launcher.traced = False
    return plain, traced


def run_probes():
    """Number of PROBES that did not end in exit 1 with an "error:" line,
    each run under its own memory cap and timeout."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY, PROBE_MEMORY))

    unbounded = 0
    for argv in PROBES:
        try:
            p = subprocess.run(
                [sys.executable, str(HERE / "launch.py"), *argv], env=child_env(BENCH_TRACE="0"),
                capture_output=True, text=True, timeout=PROBE_SECONDS, preexec_fn=cap,
            )
            ok = p.returncode == 1 and any(line.startswith("error:") for line in p.stderr.splitlines())
            outcome = f"exit {p.returncode}, last stderr line {p.stderr.strip().splitlines()[-1:]!r}"
        except subprocess.TimeoutExpired:
            ok, outcome = False, f"killed after {PROBE_SECONDS} s"
        unbounded += not ok
        print(f"probe {'bounded' if ok else 'UNBOUNDED'}: {' '.join(argv[:3])} ...: {outcome}")
    return unbounded


def ref_ms(records):
    return sum(r[4] for r in records)


def median_ref_ms(records, field):
    times = [r[4] for r in records if r[0].field == field]
    return statistics.median(times) if times else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "betaforge" / "__init__.py").is_file():
        sys.exit(f"error: no betaforge sources under {SRC}; run from the root of a checkout")

    wl = WORKLOADS[args.workload](args.seed)
    launcher = Launcher()
    handle, setup_s, bits, warm_records = setup(wl, launcher)
    warm_failed, _ = check_records(warm_records)

    if not args.trace:
        cycles = timed_loop(wl, handle, args.seconds)
        checked = [check_records(records) for records in cycles]
        records = [r for rs in cycles for r in rs]
        failed = sum(f for f, _ in checked)
        q = statistics.quantiles([r[4] for r in records], n=10)
        raw = statistics.quantiles([r[3] * 1e3 for r in records], n=10)
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        values = {
            "setup_s": setup_s,
            "op_ms.p50": q[4],
            "op_ms.p90": q[8],
            # rates are medians over cycles of ops (digits) per 1000 reference passes
            "ops_per_s": statistics.median(len(rs) * 1e3 / ref_ms(rs) for rs in cycles),
            "digits_per_s": statistics.median(d * 1e3 / ref_ms(rs) for (_, d), rs in zip(checked, cycles)),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(f"{wl.name} seed {args.seed}: samples={len(records)} failed_ratio={failed / len(records):.6g} "
              f"cycles={len(cycles)} loop_s={sum(r[3] for r in records):.3f} "
              f"digits={sum(d for _, d in checked)} setups={SETUPS} warmup_failed={warm_failed} "
              f"raw_p50_ms={raw[4]:.4g} raw_p90_ms={raw[8]:.4g} "
              f"raw_ops_per_s={len(records) / sum(r[3] for r in records):.4g}")
        if bits:
            print(" ".join(f"{k}={v}" for k, v in sorted(bits.items())))
    else:
        ops = [op for _ in range(TRACE_CYCLES[wl.name]) for op in wl.cycle()]
        tr = tracer.Tracer()
        plain, traced = traced_pairs(wl, ops, handle, launcher, tr)
        if wl.in_process:
            summary = tr.summary()
        else:
            summary, bits = launcher.summary, launcher.bits
        records = plain + traced
        failed, _ = check_records(records)
        overhead = ref_ms(traced) / ref_ms(plain)
        extra = dict(bits)
        extra.update({
            "cli.startup_ms": statistics.mean(launcher.startup_ms) if launcher.startup_ms else 0.0,
            "cli.stdout_bytes": launcher.stdout_bytes,
            "ops.field_op_ms": median_ref_ms(plain, True),
            "ops.rational_op_ms": median_ref_ms(plain, False),
            "trace.overhead": overhead,
            "probes.unbounded": run_probes(),
        })
        metrics = tracer.layer_metrics(summary, extra)
        print(f"{wl.name} seed {args.seed}: traced {len(ops)} ops, overhead {overhead:.3f}x; "
              f"failed {failed} of {len(records)}; warm-up failures {warm_failed}")
    failed += warm_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records) + len(warm_records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
