"""Run every workload once, each in its own interpreter, and print every
end-to-end metric with its unit and sample count, the failed ratio, and the
bounded-failure probe count.

    python3 bench/suite.py [--seed N] [--seconds S] [--trace]

With --trace the per-layer metrics of a traced run of each workload follow.
Run from the root of a checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_workload(name, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True,
    )
    if p.returncode != 0:
        sys.exit(f"{name} failed:\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        info.update(field.split("=", 1) for field in line.split() if "=" in field)
    return json.loads(lines[-1]), info


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    print(f"{'workload':14s} {'metric':40s} {'value':>14s} {'unit':6s} samples")
    for w in spec["workloads"]:
        result, info = run_workload(w["name"], args.seed, args.seconds, False)
        samples = int(info["samples"])
        cycles = int(info["cycles"])  # the rates are medians over cycles
        per_metric = {"setup_s": int(info["setups"]), "peak_rss_mb": 1, "ops_per_s": cycles, "digits_per_s": cycles}
        for name, m in result["metrics"].items():
            print(f"{w['name']:14s} {name:40s} {m['value']:14.6g} {m['unit']:6s} {per_metric.get(name, samples)}")
        print(f"{w['name']:14s} {'failed_ratio':40s} {float(info['failed_ratio']):14.6g} {'1':6s} {samples}")
        for key in sorted(k for k in info if k.endswith((".cold", ".warm"))):
            print(f"{w['name']:14s} {key:40s} {int(info[key]):14d} {'bits':6s} 1")
    print(f"{'probes':14s} {'probes.unbounded':40s} {run.run_probes():14d} {'count':6s} {len(run.PROBES)}")
    if args.trace:
        for w in spec["workloads"]:
            result, _ = run_workload(w["name"], args.seed, args.seconds, True)
            for name, m in result["metrics"].items():
                print(f"{w['name']:14s} {name:40s} {m['value']:14.6g} {m['unit']:6s} traced")


if __name__ == "__main__":
    main()
