"""Spans and counts around calls into betaforge, installed at run time.

A `Tracer` replaces public functions and methods of the loaded betaforge
modules with wrappers; nothing in the package source changes.  A function is
replaced under every module name that holds it, so calls between modules go
through the wrapper too.  Each wrapped call appends one span (name, start,
end, parent) to in-memory arrays; very hot calls (field multiplication and
the comparisons made from `multivalued`) are only counted.  `summary()`
folds the spans into per-name totals that can be merged across processes,
and `layer_metrics()` turns merged totals into the per-layer metrics.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

from checks import rational_schedule


def self_times(start, end, parent):
    """Self time of every span: its duration minus the part of it that the
    union of its direct children covers."""
    order = sorted(range(len(start)), key=start.__getitem__)
    covered = [0.0] * len(start)
    reach = list(start)
    for c in order:
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def merge(into: dict, other: dict) -> dict:
    """Add per-name totals of `other` into `into`; keys ending in `_max` keep
    the larger value."""
    for group in ("spans", "counts"):
        dst = into.setdefault(group, {})
        for name, vals in other.get(group, {}).items():
            if group == "counts":
                dst[name] = dst.get(name, 0) + vals
                continue
            slot = dst.setdefault(name, {})
            for key, v in vals.items():
                slot[key] = max(slot.get(key, v), v) if key.endswith("_max") else slot.get(key, 0) + v
    return into


def coeff_bits(x) -> int:
    """Largest numerator-plus-denominator bit size among the coefficients of
    a field element; 0 for anything else."""
    coeffs = getattr(x, "coeffs", None)
    if not coeffs:
        return 0
    return max(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)


def _sweep(args, result, dt):
    n = len(args[1])
    counts = result[1].per_level_class_counts
    out = {"digits": n, "steps": result[1].total_steps, "kept": sum(counts), "classes_max": max(counts, default=0)}
    if n <= 512:
        out.update(short_digits=n, short_s=dt)
    elif n >= 2048:
        out.update(long_digits=n, long_s=dt)
    return out


def _convert_rational(args, result, dt):
    _, sigma = rational_schedule(result.params.beta)
    return {"chunks": args[2], "binary_bits": sigma(args[2])}


# (module, attribute, span name, measure(args, result, seconds) -> totals)
SPANS = (
    ("numerics", "NumberFieldContext.sign_of_coeffs", "numerics.sign", None),
    ("numerics", "NumberFieldContext.refine", "numerics.refine", None),
    ("expand", "greedy_prefix", "expand.greedy_prefix",
     lambda a, r, dt: {"digits": a[2], "coeff_bits_max": coeff_bits(r[1])}),
    ("expand", "greedy_expand", "expand.greedy_expand", None),
    ("expand", "lazy_expand", "expand.lazy_expand", None),
    ("expand", "random_expand", "expand.random_expand", lambda a, r, dt: {"digits": a[2]}),
    ("canonical", "m_beta_fast", "canonical.m_beta_fast", _sweep),
    ("tosses_adc", "adc_run", "tosses_adc.adc_run",
     lambda a, r, dt: {"digits": a[3], "switch": len(r.switch_indices), "coeff_bits_max": coeff_bits(r.residual)}),
    ("tosses_adc", "extract_tosses", "tosses_adc.extract_tosses", lambda a, r, dt: {"words": 1}),
    ("tosses_adc", "denoise_pipeline", "tosses_adc.denoise_pipeline", None),
    ("multivalued", "enumerate_expansions", "multivalued.enumerate_expansions", lambda a, r, dt: {"words": len(r)}),
    ("multivalued", "g_beta_window", "multivalued.g_beta_window",
     lambda a, r, dt: {"words": sum(len(c.members) for c in r.classes)}),
    ("multivalued", "nu_measure", "multivalued.nu_measure", None),
    ("algebraic", "partition_words", "algebraic.partition_words",
     lambda a, r, dt: {"classes": len(r.classes), "coeff_bits_max": max((coeff_bits(c.value) for c in r.classes), default=0)}),
    ("convert", "convert_rational", "convert.convert_rational", _convert_rational),
    ("convert", "convert_stream", "convert.convert_stream",
     lambda a, r, dt: {"chunks": a[2], "beta_bits": r.params.lam(a[2] + 1), "binary_bits": r.sigmas[a[2]]}),
    ("convert", "params_stream", "convert.params_stream", None),
    ("convert", "stream_from_exact", "convert.stream_from_exact", None),
    ("cli", "run_command", "cli.run_command", None),
)

# (module, attribute, counter name, patch only inside that module)
COUNTERS = (
    ("numerics", "NumberFieldElement.__mul__", "numerics.field_mul", False),
    ("multivalued", "exact_cmp", "multivalued.exact_cmp", True),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.totals: dict[str, dict] = {}
        self._patched: list[tuple] = []

    def span(self, name, fn, measure=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack
        totals = self.totals.setdefault(name, {})

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = end[i] = perf_counter()
                stack.pop()
            if measure is not None:
                for key, v in measure(args, result, t1 - t0).items():
                    totals[key] = max(totals.get(key, v), v) if key.endswith("_max") else totals.get(key, 0) + v
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every entry of SPANS and COUNTERS in the loaded betaforge modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "betaforge" or n.startswith("betaforge.")]
        for mod, attr, name, measure in SPANS:
            self._replace(mod, attr, lambda fn: self.span(name, fn, measure), modules)
        for mod, attr, name, local in COUNTERS:
            owner = sys.modules["betaforge." + mod]
            self._replace(mod, attr, lambda fn: self.counter(name, fn), [owner] if local else modules)

    def _replace(self, mod, attr, make, modules):
        owner = sys.modules["betaforge." + mod]
        if "." in attr:  # a method: replace it, and its aliases, on the class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            wrapped = make(original)
            for key, v in list(cls.__dict__.items()):
                if v is original:
                    self._patched.append((cls, key, v))
                    setattr(cls, key, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for m in modules:
            for key, v in list(vars(m).items()):
                if v is original:
                    self._patched.append((m, key, v))
                    setattr(m, key, wrapped)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-name calls, total and self seconds plus the measured totals,
        and the counters: the mergeable form of this trace."""
        selfs = self_times(self.start, self.end, self.parent)
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **self.totals.get(name, {})} for name in self.names}
        for i, nid in enumerate(self.name_of):
            slot = spans[self.names[nid]]
            slot["calls"] += 1
            slot["total_s"] += self.end[i] - self.start[i]
            slot["self_s"] += selfs[i]
        return {"spans": spans, "counts": dict(self.counts)}


def state_bits(bf) -> dict:
    """Bit sizes that depend on what already ran in the process: the largest
    denominator in each preset context's cached root enclosure, then the
    brackets that `stream_from_exact` gives golden (which refines that
    enclosure to at least 48 bits)."""
    out = {}
    for name in ("golden", "tribonacci"):
        lo, hi = bf.get_preset(name).beta.ctx.enclosure()
        out[f"numerics.enclosure_bits.{name}"] = max(lo.denominator.bit_length(), hi.denominator.bit_length())
    stream = bf.stream_from_exact(bf.get_preset("golden").beta)
    out["convert.stream_bracket_bits"] = max(stream.lo.denominator.bit_length(), stream.hi.denominator.bit_length())
    return out


def _ratio(a, b):
    return a / b if b else 0.0


# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "numerics.sign_calls": "count",
    "numerics.sign_self_ms": "ms",
    "numerics.refine_calls": "count",
    "numerics.field_mul_calls": "count",
    "numerics.enclosure_bits.golden.cold": "bits",
    "numerics.enclosure_bits.golden.warm": "bits",
    "numerics.enclosure_bits.tribonacci.cold": "bits",
    "numerics.enclosure_bits.tribonacci.warm": "bits",
    "numerics.coeff_bits_max": "bits",
    "expand.greedy_us_per_digit": "us",
    "expand.random_us_per_digit": "us",
    "canonical.sweep_us_per_digit.short": "us",
    "canonical.sweep_us_per_digit.long": "us",
    "canonical.steps": "count",
    "canonical.classes_max": "count",
    "canonical.keep_ratio": "ratio",
    "tosses_adc.adc_us_per_digit": "us",
    "tosses_adc.switch_share": "ratio",
    "tosses_adc.extract_us_per_word": "us",
    "tosses_adc.extract_self_ms": "ms",
    "multivalued.words": "count",
    "multivalued.cmp_calls": "count",
    "multivalued.yield_ratio": "ratio",
    "multivalued.us_per_word": "us",
    "multivalued.enumerate_self_ms": "ms",
    "multivalued.window_self_ms": "ms",
    "multivalued.nu_self_ms": "ms",
    "algebraic.partition_self_ms": "ms",
    "algebraic.classes": "count",
    "convert.rational_us_per_chunk": "us",
    "convert.stream_ms_per_chunk": "ms",
    "convert.params_stream_ms": "ms",
    "convert.stream_bracket_bits.cold": "bits",
    "convert.stream_bracket_bits.warm": "bits",
    "convert.beta_bits_read": "bits",
    "convert.binary_bits_read": "bits",
    "cli.startup_ms": "ms",
    "cli.parse_format_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "ops.field_op_ms": "ref_ms",
    "ops.rational_op_ms": "ref_ms",
    "trace.overhead": "ratio",
    "probes.unbounded": "count",
}


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Per-layer metrics from a merged trace summary.  `extra` carries what
    the run measured outside the spans: enclosure and bracket bits, CLI
    start-up and stdout totals, per-kind op latency, tracing overhead and
    the probe count."""
    spans = summary.get("spans", {})
    counts = summary.get("counts", {})

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0)

    def per(name, key, scale, sel="total_s"):
        return _ratio(get(name, sel) * scale, get(name, key))

    sweep = spans.get("canonical.m_beta_fast", {})
    words = get("multivalued.enumerate_expansions", "words") + get("multivalued.g_beta_window", "words")
    cmps = counts.get("multivalued.exact_cmp", 0)
    mv_self = get("multivalued.enumerate_expansions", "self_s") + get("multivalued.g_beta_window", "self_s")
    children = get("cli.run_command", "calls")
    values = {
        "numerics.sign_calls": get("numerics.sign", "calls"),
        "numerics.sign_self_ms": get("numerics.sign", "self_s") * 1e3,
        "numerics.refine_calls": get("numerics.refine", "calls"),
        "numerics.field_mul_calls": counts.get("numerics.field_mul", 0),
        "numerics.coeff_bits_max": max(
            get(n, "coeff_bits_max") for n in ("expand.greedy_prefix", "tosses_adc.adc_run", "algebraic.partition_words")
        ),
        "expand.greedy_us_per_digit": per("expand.greedy_prefix", "digits", 1e6),
        "expand.random_us_per_digit": per("expand.random_expand", "digits", 1e6),
        "canonical.sweep_us_per_digit.short": _ratio(sweep.get("short_s", 0) * 1e6, sweep.get("short_digits", 0)),
        "canonical.sweep_us_per_digit.long": _ratio(sweep.get("long_s", 0) * 1e6, sweep.get("long_digits", 0)),
        "canonical.steps": sweep.get("steps", 0),
        "canonical.classes_max": sweep.get("classes_max", 0),
        "canonical.keep_ratio": _ratio(sweep.get("kept", 0), sweep.get("steps", 0)),
        "tosses_adc.adc_us_per_digit": per("tosses_adc.adc_run", "digits", 1e6),
        "tosses_adc.switch_share": _ratio(get("tosses_adc.adc_run", "switch"), get("tosses_adc.adc_run", "digits")),
        "tosses_adc.extract_us_per_word": per("tosses_adc.extract_tosses", "words", 1e6),
        "tosses_adc.extract_self_ms": get("tosses_adc.extract_tosses", "self_s") * 1e3,
        "multivalued.words": words,
        "multivalued.cmp_calls": cmps,
        "multivalued.yield_ratio": _ratio(words, cmps),
        "multivalued.us_per_word": _ratio(mv_self * 1e6, words),
        "multivalued.enumerate_self_ms": get("multivalued.enumerate_expansions", "self_s") * 1e3,
        "multivalued.window_self_ms": get("multivalued.g_beta_window", "self_s") * 1e3,
        "multivalued.nu_self_ms": get("multivalued.nu_measure", "self_s") * 1e3,
        "algebraic.partition_self_ms": get("algebraic.partition_words", "self_s") * 1e3,
        "algebraic.classes": get("algebraic.partition_words", "classes"),
        "convert.rational_us_per_chunk": per("convert.convert_rational", "chunks", 1e6),
        "convert.stream_ms_per_chunk": per("convert.convert_stream", "chunks", 1e3),
        "convert.params_stream_ms": per("convert.params_stream", "calls", 1e3),
        "convert.beta_bits_read": get("convert.convert_stream", "beta_bits"),
        "convert.binary_bits_read": get("convert.convert_rational", "binary_bits")
        + get("convert.convert_stream", "binary_bits"),
        "cli.parse_format_ms": _ratio(get("cli.run_command", "self_s") * 1e3, children),
    }
    values.update(extra)
    missing = set(LAYER_UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
