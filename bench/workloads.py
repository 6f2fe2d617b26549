"""The four workloads: seeded inputs, the op each input drives, and the
check each output must pass.

Inputs come from `random.Random` and `Fraction` alone; nothing here calls
betaforge while inputs are made, so making them warms nothing in the
program.  An op's `run` receives the freshly imported `betaforge` package
(or, for `cli-mix`, the child-process launcher) and looks every entry point
up at call time, so tracing wrappers installed later are seen.  A workload
hands out its ops in cycles; every cycle has the same mix of kinds and
sizes, and only the seeded values inside it change.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks
from checks import expect


class Op:
    __slots__ = ("kind", "field", "run", "check", "bigint")

    def __init__(self, kind, field, run, check, bigint=False):
        self.kind = kind  # label of the op
        self.field = field  # True when the base is an algebraic preset
        self.run = run  # handle -> output
        self.check = check  # output -> digits in the output words; raises Mismatch
        self.bigint = bigint  # True when big-integer powers dominate its time


def rand_bits(rng, n):
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def rand_fraction(rng, lo, hi, den_bits=20):
    den = rng.randrange(1, 1 << den_bits)
    return lo + (hi - lo) * Fraction(rng.randrange(0, den + 1), den)


def sound_band(rng, preset):
    """Seeded quantizer (t, eps) whose band [t - eps, t + eps] lies inside the
    switch region [1/beta, 1/(beta(beta-1))], from rational brackets of beta."""
    zb = checks.zbeta(preset)
    lo_beta, hi_beta = zb.lower_beta(), zb.upper_beta()
    lo, hi = 1 / lo_beta, 1 / (hi_beta * (hi_beta - 1))
    grid = 10**6
    a = lo + (hi - lo) * Fraction(rng.randrange(0, 250), 1000)
    b = hi - (hi - lo) * Fraction(rng.randrange(0, 250), 1000)
    band_lo = Fraction(-(-a.numerator * grid // a.denominator), grid)
    band_hi = Fraction(b.numerator * grid // b.denominator, grid)
    return (band_lo + band_hi) / 2, (band_hi - band_lo) / 2


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def warmup(self) -> list:
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError


class DenoiseLong(Workload):
    """Device loop then level sweep on long words of the two Pisot presets."""

    name = "denoise-long"
    PRESETS = ("golden", "tribonacci")
    STRATA = 10  # word lengths: one per stratum of log-uniform [128, 4096]
    LO, HI = 128, 4096

    def op(self, preset, n):
        rng = self.rng
        s = rand_fraction(rng, Fraction(1, 100), Fraction(99, 100))
        t, eps = sound_band(rng, preset)
        tosses = rand_bits(rng, n)

        def run(bf):
            p = bf.get_preset(preset)
            return bf.denoise_pipeline(p.beta, bf.Quantizer(t, eps), s, n, bf.BitStream.from_bits(tosses), p.bounds)

        def check(res):
            return checks.denoise(preset, s, n, res.raw, res.canonical, res.record.fault)

        return Op("pipeline", True, run, check)

    def warmup(self):
        return [self.op(p, self.LO) for p in self.PRESETS]

    def cycle(self):
        rng = self.rng
        ops = []
        for p in self.PRESETS:
            for j in range(self.STRATA):
                u = (j + rng.random()) / self.STRATA
                ops.append(self.op(p, min(self.HI, round(self.LO * (self.HI / self.LO) ** u))))
        rng.shuffle(ops)
        return ops


class ConvertMix(Workload):
    """Binary-to-beta conversion: rational chunks, exact-bracket streams, and
    preset streams whose brackets depend on what ran before in the process."""

    name = "convert-mix"
    RATIONAL = (Fraction(3, 2), Fraction(9, 5), Fraction(7, 4))
    PRESETS = ("golden", "tribonacci")
    # per base and cycle: 57 convert_rational ops and 9 rational-stream ops
    # (3 at each chunk count); with the 2 preset-stream ops a cycle has 200
    # ops, so op_ms.p90 falls inside the faster (3/2, 7/4) stream ops rather
    # than on the gap between them and the 9/5 ones
    RATIONAL_OPS = 57
    STREAM_CHUNKS = (2, 3, 4)

    def rational(self, b):
        prefix = rand_bits(self.rng, 128)

        def run(bf):
            return bf.convert_rational(bf.RationalBeta(b), prefix, 50).bits

        return Op("convert_rational", False, run, lambda bits: checks.rational_conversion(b, prefix, 50, bits))

    def stream(self, name, chunks):
        base = checks.base_of(name)
        prefix = rand_bits(self.rng, 600)

        def run(bf):
            spec = bf.get_preset(name).beta if name in checks.MONIC else bf.RationalBeta(base)
            return bf.convert_stream(bf.stream_from_exact(spec), prefix, chunks)

        def check(res):
            return checks.stream_conversion(base, prefix, chunks, res.params.N, res.sigmas, res.bits)

        field = name in checks.MONIC
        # params_stream raises the upper bracket to the power 65536
        return Op("convert_stream_preset" if field else "convert_stream", field, run, check, bigint=True)

    def warmup(self):
        return [self.rational(Fraction(3, 2)), self.stream("3/2", 2)] + [self.stream(p, 4) for p in self.PRESETS]

    def cycle(self):
        ops = [self.stream(p, 4) for p in self.PRESETS]
        for b in self.RATIONAL:
            ops += [self.rational(b) for _ in range(self.RATIONAL_OPS)]
            ops += [self.stream(checks.fmt_rational(b), c) for c in self.STREAM_CHUNKS for _ in range(3)]
        self.rng.shuffle(ops)
        return ops


class PrefixSets(Workload):
    """Prefix-set enumeration, toss extraction, windows and measures on a
    field base and a rational base with the same op mix."""

    name = "prefix-sets"
    BASES = ("golden", "3/2")
    ROUND_TRIP_N = range(12, 23)
    # f_1_to_all returns iota*(M-iota+1) sorted unions of M singleton classes
    # at 3/2, so its output grows with the cube of M: 17 s per op at n = 20
    # (M = 922), and at n = 15 (M up to 230) a seed-dependent 10 MB that
    # sets the run's peak memory; the rational window ops stop at n = 14
    WINDOW_N = {"golden": (12, 14, 16, 18, 20, 22), "3/2": (12, 13, 14)}
    NU_M = range(12, 19)
    TOP = Fraction(2)  # above 1/(beta-1) - beta^-m/(beta-1) for both bases

    def spec(self, bf, name):
        return bf.get_preset(name).beta if name in checks.MONIC else bf.RationalBeta(Fraction(name))

    def round_trip(self, name, n):
        rng = self.rng
        base = checks.base_of(name)
        s = rand_fraction(rng, Fraction(0), Fraction(1))
        tosses = rand_bits(rng, n)

        def run(bf):
            spec = self.spec(bf, name)
            stream = bf.BitStream.from_bits(tosses)
            word, _ = bf.random_expand(spec, s, n, stream)
            words = bf.enumerate_expansions(spec, s, n)
            return word, tosses[: stream.consumed], words, [bf.extract_tosses(spec, words, y) for y in words]

        return Op("round_trip", name in checks.MONIC, run, lambda out: checks.toss_round_trip(base, s, n, *out))

    def window(self, name, n):
        base = checks.base_of(name)
        x = rand_bits(self.rng, n)

        def run(bf):
            spec = self.spec(bf, name)
            part = bf.g_beta_window(spec, x)
            cands = bf.f_1_to_all(spec, x)
            return part, len(cands), cands[0], cands[-1]

        def check(out):
            part, count, first, last = out
            classes = [c.members for c in part.classes]
            digits = n * checks.check_partition(base, n, classes, x)
            iota = next(k for k, c in enumerate(classes) if x in c)
            expect(count == (iota + 1) * (len(classes) - iota), "candidate count differs from iota*(M-iota+1)")
            expect(list(first) == sorted(w for c in classes[: iota + 1] for w in c), "first candidate set wrong")
            expect(list(last) == sorted(w for c in classes[iota:] for w in c), "last candidate set wrong")
            return digits

        return Op("window", name in checks.MONIC, run, check)

    def measure(self, name, m):
        cuts = sorted(rand_fraction(self.rng, Fraction(1, 100), Fraction(8, 5)) for _ in range(3))
        points = [Fraction(0)] + cuts + [self.TOP]

        def run(bf):
            spec = self.spec(bf, name)
            parts = [bf.nu_measure(spec, m, bf.Interval(a, b)) for a, b in zip(points, points[1:])]
            return parts, [bf.nu_measure(spec, m, bf.Interval(c, c)) for c in cuts]

        def check(out):
            parts, atoms = out
            expect(all(0 <= v <= 1 and (v * (1 << m)).denominator == 1 for v in parts + atoms), "mass off the 2^-m grid")
            expect(sum(parts) - sum(atoms) == 1, "measure of the full domain is not 1")
            return 0

        return Op("nu_measure", name in checks.MONIC, run, check)

    def warmup(self):
        return [op(b, 12) for b in self.BASES for op in (self.round_trip, self.window, self.measure)]

    def cycle(self):
        ops = []
        for b in self.BASES:
            ops += [self.round_trip(b, n) for n in self.ROUND_TRIP_N]
            ops += [self.window(b, n) for n in self.WINDOW_N[b]]
            ops += [self.measure(b, m) for m in self.NU_M]
        self.rng.shuffle(ops)
        return ops


def _cli_ok(res):
    """Stdout of a successful invocation without its final newline; `main`
    prints nothing at all for an empty result."""
    code, out, err = res
    expect(code == 0, f"exit status {code}: {err.strip()[-200:]}")
    expect(err == "", "unexpected stderr")
    expect(out == "" or out.endswith("\n"), "stdout not newline-terminated")
    return out[:-1]


class CliMix(Workload):
    """One child process per op through the console-script entry point."""

    name = "cli-mix"
    in_process = False

    def cli(self, argv, check, field=False):
        # both subcommands spend most of their time in params_stream's big powers
        bigint = argv[0] in ("convert-stream", "bounds")
        return Op("cli:" + argv[0], field, lambda launch: launch(argv), lambda res: check(_cli_ok(res)), bigint)

    def pinned(self, argv, expected, field=False, digits=None):
        def check(out):
            expect(out == expected, f"{argv[0]} output differs from the pinned one")
            return len(expected) if digits is None else digits

        return self.cli(argv, check, field)

    def c01_rows(self):
        return [
            self.pinned(["expand", "--mode", "greedy", "--beta", b, "--s", "3/4", "--n", "50"], row)
            for b, row in checks.TABLE1.items()
        ]

    def readme(self):
        golden = checks.zbeta("golden")
        words4 = ["0111", "1001", "1010", "1011", "1100"]
        adc_args = ["--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", "3/4"]

        def classes(out):
            lines = [line.split(" ") for line in out.split("\n")]
            expect(lines[2] == ["1011", "1100"], "README class line differs")
            return checks.check_partition(golden, 4, lines, "1100")

        def adc(out):
            expect(checks.is_word(out, 10) and checks.in_tail(golden, Fraction(3, 4), out), "adc word invalid")
            return 10

        def pipeline(out):
            raw, canonical = out.split("\n")
            return checks.denoise("golden", Fraction(3, 4), 24, raw, canonical, False)

        def bounds(out):
            sep = Fraction(38, 100) / Fraction(1_618_034, 10**6) ** 3
            lines = dict(line.split("=", 1) for line in out.split("\n"))
            expect(lines.get("separation") == f'"{checks.fmt_rational(sep)}"', "separation bound differs")
            params = checks.json_object(lines.get("stream_params", ""))
            expect(all(isinstance(params.get(k), int) and params[k] > 0 for k in ("N", "L")), "stream params missing")
            return 0

        def expand_json(out):
            obj = checks.json_object(out)
            expect(obj == {"bits": checks.TABLE1["3/2"], "mode": "greedy"}, "expand --json differs")
            return 50

        def enumerate_json(out):
            expect(checks.json_object(out) == {"count": 5, "words": words4}, "enumerate --json differs")
            return 20

        return [
            self.pinned(["expand", "--beta", "3/2", "--s", "3/4", "--mode", "greedy", "--n", "50"], checks.TABLE1["3/2"]),
            self.cli(["expand", "--beta", "3/2", "--s", "3/4", "--mode", "greedy", "--n", "50", "--json"], expand_json),
            self.pinned(["lazy", "--beta", "2", "--s", "3/4", "--n", "4"], "1011"),
            self.pinned(["random", "--beta", "golden", "--s", "1", "--n", "6", "--tosses", "101011"], "101011", True),
            self.pinned(["convert", "--beta", "3/2", "--binary", "110", "--chunks", "1"], "10"),
            self.pinned(["canonicalize", "--beta", "golden", "--bits", "011"], "100", True),
            self.pinned(["enumerate", "--beta", "golden", "--s", "1", "--n", "4"], "\n".join(words4), True, 20),
            self.cli(["enumerate", "--beta", "golden", "--s", "1", "--n", "4", "--json"], enumerate_json, True),
            self.pinned(["enumerate", "--beta", "golden", "--s", "1", "--n", "4", "--pairing"],
                        checks.encode_pairing(words4), True, 20),
            self.cli(["classes", "--beta", "golden", "--bits", "1100"], classes, True),
            self.pinned(["tosses", "--beta", "golden", "--s", "1", "--x", "101011"], "101011", True),
            self.cli(["adc"] + adc_args + ["--n", "10", "--tosses", "zeros"], adc, True),
            self.cli(["pipeline"] + adc_args + ["--n", "24", "--tosses", "seed:7"], pipeline, True),
            self.cli(["bounds", "--beta", "golden", "--n", "3"], bounds, True),
            self.pinned(["measure", "--beta", "golden", "--m", "2", "--lo", "1", "--hi", "1"], "1/4", True, 0),
            self.pinned(["encode", "0", "1"], "1001", digits=4),
            self.pinned(["decode", "--raw", "1001"], "0 1", digits=2),
        ]

    def seeded(self):
        rng = self.rng
        golden = checks.zbeta("golden")
        word = rand_bits(rng, 1000)
        binary = rand_bits(rng, 600)
        s_pipe = rand_fraction(rng, Fraction(1, 100), Fraction(99, 100))
        # both bases every cycle, at small n, so that the seeded set sizes
        # move the cycle's output digits little
        enums = [(b, rand_fraction(rng, Fraction(0), Fraction(1)), rng.randrange(10, 13)) for b in ("golden", "3/2")]
        s_toss = rand_fraction(rng, Fraction(0), Fraction(1))
        x_toss, consumed = checks.random_expand(Fraction(3, 2), s_toss, rng.randrange(12, 19), rand_bits(rng, 18))
        window_word = rand_bits(rng, rng.randrange(8, 13))
        n_sep = rng.randrange(3, 13)
        # tribonacci twins of the two big-power calls, so that op_ms.p90 falls
        # inside the group of slowest calls rather than on its lower edge
        binary_trib = rand_bits(rng, 600)
        n_sep_trib = rng.randrange(3, 13)
        m_full = rng.randrange(8, 15)
        items = [rand_bits(rng, 4) for _ in range(3)]
        json_run = []  # result of the --json twin of the plain convert-stream op

        def canonical(out):
            expect(checks.is_word(out, 1000) and out >= word, "canonical word invalid")
            expect(golden.word(out) == golden.word(word), "canonical word changes the value")
            return 1000

        def stream_json(out):
            obj = checks.json_object(out)
            return checks.stream_conversion(golden, binary, 4, obj["params"]["N"], obj["sigma"], obj["bits"])

        def stream_plain(out):
            bits = checks.json_object(_cli_ok(json_run[-1])).get("bits")
            expect(out == bits, "plain convert-stream differs from its --json bits")
            return len(out)

        def pipeline(out):
            raw, canonical = out.split("\n")
            return checks.denoise("golden", s_pipe, 500, raw, canonical, False)

        def enumerate_check(base, s, n):
            return lambda out: checks.expansion_set(checks.base_of(base), s, n, out.split("\n"))

        def tosses(out):
            expect(out == consumed, "extracted tosses differ from the consumed ones")
            return len(x_toss)

        def bounds_check(sep):
            def check(out):
                expect(out.split("\n")[0] == f'separation="{checks.fmt_rational(sep)}"', "separation bound differs")
                return 0

            return check

        def stream_trib(out):
            obj = checks.json_object(out)
            trib = checks.zbeta("tribonacci")
            return checks.stream_conversion(trib, binary_trib, 4, obj["params"]["N"], obj["sigma"], obj["bits"])

        def full_measure(out):
            expect(out == "1", "measure of the full domain is not 1")
            return 0

        def classes(out):
            return checks.check_partition(golden, len(window_word), [c.split(" ") for c in out.split("\n")], window_word)

        enc = checks.encode_pairing(items)
        stream_argv = ["convert-stream", "--beta", "golden", "--binary", binary, "--chunks", "4"]

        def run_json(launch):
            json_run.append(launch(stream_argv + ["--json"]))
            return json_run[-1]

        return [
            self.cli(["canonicalize", "--beta", "golden", "--bits", word], canonical, True),
            Op("cli:convert-stream", True, run_json, lambda res: stream_json(_cli_ok(res)), bigint=True),
            self.cli(stream_argv, stream_plain, True),
            self.cli(["pipeline", "--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", checks.fmt_rational(s_pipe),
                      "--n", "500", "--tosses", f"seed:{rng.getrandbits(64)}"], pipeline, True),
            *(self.cli(["enumerate", "--beta", b, "--s", checks.fmt_rational(s), "--n", str(n)],
                       enumerate_check(b, s, n), b == "golden") for b, s, n in enums),
            self.cli(["tosses", "--beta", "3/2", "--s", checks.fmt_rational(s_toss), "--x", x_toss], tosses),
            self.cli(["classes", "--beta", "golden", "--bits", window_word], classes, True),
            self.cli(["bounds", "--beta", "golden", "--n", str(n_sep)],
                     bounds_check(Fraction(38, 100) / Fraction(1_618_034, 10**6) ** n_sep), True),
            self.cli(["bounds", "--beta", "tribonacci", "--n", str(n_sep_trib)],
                     bounds_check(Fraction(68, 1000) / Fraction(184, 100) ** n_sep_trib), True),
            self.cli(["convert-stream", "--beta", "tribonacci", "--binary", binary_trib, "--chunks", "4", "--json"],
                     stream_trib, True),
            self.cli(["measure", "--beta", "golden", "--m", str(m_full), "--lo", "0", "--hi", "2"], full_measure, True),
            self.pinned(["encode"] + items, enc, digits=len(enc)),
            self.pinned(["decode", "--raw", enc], " ".join(items), digits=12),
        ]

    def warmup(self):
        return self.c01_rows()[:1]

    def cycle(self):
        ops = self.c01_rows() + self.readme() + self.seeded()
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (DenoiseLong, ConvertMix, PrefixSets, CliMix)}
