"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_reference_arithmetic():
    golden = checks.zbeta("golden")
    assert golden.word("011") == golden.word("100")  # beta^2 = beta + 1
    assert golden.word("0101") != golden.word("1000")
    assert golden.sign(golden.word("100")) == 1
    assert golden.sign([x - y for x, y in zip(golden.word("0110"), golden.word("1001"))]) < 0
    assert checks.in_tail(golden, Fraction(1), "1100")
    assert not checks.in_tail(golden, Fraction(1), "1110")
    assert checks.in_tail(Fraction(3, 2), Fraction(3, 4), checks.TABLE1["3/2"])
    assert checks.random_expand(Fraction(3, 2), Fraction(3, 4), 4, "1111") == ("1000", "1")
    assert checks.random_expand(golden, Fraction(1), 6, "101011")[0] == "101011"


def test_corrupted_output_counts_as_failed():
    bf = run.fresh_betaforge()
    op = workloads.DenoiseLong(1).op("golden", 24)
    good = run.run_ops([op], bf)[0]
    assert run.check_records([good]) == (0, 24)
    res = good[1]
    flipped = res.canonical[:-1] + "01"[res.canonical[-1] == "0"]
    corrupted = (op, dataclasses.replace(res, canonical=flipped), None, 0.0)
    raised = (op, None, RuntimeError("op raised"), 0.0)
    assert run.check_records([good, corrupted, raised])[0] == 2

    wl = workloads.PrefixSets(1)
    trip = wl.round_trip("3/2", 12)
    word, consumed, words, extracted = trip.run(bf)
    assert trip.check((word, consumed, words, extracted)) > 0
    swapped = list(extracted)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert run.check_records([(trip, (word, consumed, words, swapped), None, 0.0)])[0] == 1

    readme = workloads.CliMix(1).readme()
    lazy = next(op for op in readme if op.kind == "cli:lazy")
    assert run.check_records([(lazy, (0, "1011\n", ""), None, 0.0)]) == (0, 4)
    assert run.check_records([(lazy, (0, "1010\n", ""), None, 0.0)])[0] == 1
    assert run.check_records([(lazy, (1, "", "error: boom"), None, 0.0)])[0] == 1


def test_self_time_is_duration_minus_covered_child_time():
    # root [0, 10] with children a [1, 4] and the overlapping b [5, 7], c [6, 9];
    # a has one child [2, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 7.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracer.self_times(start, end, parent) == [10 - 3 - 4, 3 - 1, 1, 2, 3]


def test_tracer_self_time_excludes_wrapped_children():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda x: x + 1, lambda a, r, dt: {"n": a[0]})
    outer = tr.span("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    spans = tr.summary()["spans"]
    assert spans["inner"]["calls"] == 2 and spans["inner"]["n"] == 1 + 2
    assert spans["outer"]["calls"] == 1
    assert abs(spans["outer"]["self_s"] - (spans["outer"]["total_s"] - spans["inner"]["total_s"])) < 1e-9


def test_install_wraps_every_alias_and_uninstall_restores():
    bf = run.fresh_betaforge()
    original = bf.multivalued.enumerate_expansions
    tr = tracer.Tracer()
    tr.install()
    try:
        assert bf.enumerate_expansions is bf.multivalued.enumerate_expansions is bf.cli.enumerate_expansions
        assert bf.enumerate_expansions is not original
        bf.enumerate_expansions(bf.get_preset("golden").beta, Fraction(1), 4)
    finally:
        tr.uninstall()
    assert bf.enumerate_expansions is original and bf.cli.enumerate_expansions is original
    summary = tr.summary()
    assert summary["spans"]["multivalued.enumerate_expansions"]["words"] == 5
    assert summary["counts"]["multivalued.exact_cmp"] > 0


COUNT_SNIPPET = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run, tracer, workloads
bf = run.fresh_betaforge()
p = workloads.PrefixSets(5)
c = workloads.ConvertMix(5)
ops = [workloads.DenoiseLong(5).op("tribonacci", 40), p.round_trip("golden", 12), p.window("golden", 12),
       p.measure("3/2", 12), c.rational(c.RATIONAL[1]), c.stream("7/4", 2)]
run.run_ops(ops, bf)
tr = tracer.Tracer()
tr.install()
records = run.run_ops(ops, bf)
tr.uninstall()
assert run.check_records(records)[0] == 0
s = tr.summary()
print(json.dumps({{"spans": {{n: {{k: v for k, v in d.items() if not k.endswith("_s")}} for n, d in s["spans"].items()}},
                  "counts": s["counts"]}}, sort_keys=True))
"""


def test_counts_repeat_exactly_for_a_seed():
    code = COUNT_SNIPPET.format(bench=str(BENCH), src=str(ROOT / "src"))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    counts = json.loads(outs[0])
    assert counts["spans"]["numerics.sign"]["calls"] > 0
    assert counts["spans"]["canonical.m_beta_fast"]["steps"] > 0
    assert counts["counts"]["multivalued.exact_cmp"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prefix-sets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
