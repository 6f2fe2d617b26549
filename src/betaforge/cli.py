"""Command-line front end.

One subcommand per capability: expansion generators, the two binary-to-base
converters, canonicalization, window/class/expansion-set enumeration, toss
extraction, the comparator simulator and denoising pipeline, bound and
schedule reports, empirical measures, and the self-delimiting pairing codec
of `betaforge.pairing`.  Each subcommand is one `COMMANDS` entry, declared by
`_command` on its handler.  `run_command` parses `--beta` once and formats
`--json` once; a handler returns the JSON object and the plain text, either
of them deferred as a function when only its own mode needs the work.

Bases are accepted as a preset name, a rational "p/q" or decimal literal, an
algebraic JSON object {"minpoly": [...], "isolating": ["p/q", "r/s"]}, or a
stream JSON object {"bits": "0101...", "lo": "p/q", "hi": "r/s"}; operations
needing an exact base reject stream bases with a clear message.  Values are
accepted as "p/q", decimal literals, or "bits:0101..." for a binary-encoded
fraction.  Toss streams are inline bits, "seed:<u64>" (xorshift64* bit
stream), or one of ones/zeros/alternating.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage error.
Outputs are byte-identical across repeated invocations; --json switches every
subcommand to structured output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .numerics import (
    BetaForgeError,
    BetaSpec,
    DomainError,
    Interval,
    RationalBeta,
    beta_from_json,
    exact_float,
    format_rational,
    parse_rational,
)
from .expand import (
    BitStream,
    greedy_expand,
    lazy_expand,
    random_expand,
    _delta2,
)
from .convert import (
    convert_rational,
    convert_stream,
    params_rational,
    params_stream,
    stream_from_exact,
)
from .algebraic import Preset, builtin_presets, separation_bound, _preset
from .canonical import m_beta_bruteforce, m_beta_fast
from .multivalued import enumerate_expansions, g_beta_window, nu_measure
from .pairing import decode_pairing, encode_pairing
from .tosses_adc import Quantizer, adc_run, denoise_pipeline, replay_tosses, validate_quantizer

__all__ = ["run_command", "main"]

PRESETS_ENV = "BETA_FORGE_PRESETS"


def _xorshift64star_bits(seed: int):
    state = seed & ((1 << 64) - 1)
    if state == 0:
        state = 0x9E3779B97F4A7C15
    while True:
        state ^= (state >> 12)
        state ^= (state << 25) & ((1 << 64) - 1)
        state ^= (state >> 27)
        yield ((state * 0x2545F4914F6CDD1D) >> 63) & 1


def parse_tosses(text: str) -> BitStream:
    if text == "ones":
        return BitStream.constant(1)
    if text == "zeros":
        return BitStream.constant(0)
    if text == "alternating":
        return BitStream.alternating(1)
    if text.startswith("seed:"):
        try:
            seed = int(text[5:], 0)
        except ValueError:
            raise DomainError(f"toss seed must be an integer, got {text[5:]!r}") from None
        return BitStream(lambda: _xorshift64star_bits(seed), label=text)
    return BitStream.from_bits(text)


def parse_value(text: str) -> Fraction:
    if text.startswith("bits:"):
        bits = text[5:]
        if bits.strip("01"):
            raise DomainError(f"not a bitstring: {bits!r}")
        return _delta2(bits)
    return parse_rational(text)


def _load_env_presets() -> dict[str, Preset]:
    path = os.environ.get(PRESETS_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"{PRESETS_ENV} file {path!r} does not load: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{PRESETS_ENV} file {path!r} must hold a JSON object of presets")
    out = {}
    for name, obj in data.items():
        try:
            out[name] = _preset(name, obj, "user")
        except BetaForgeError as exc:
            raise DomainError(f"{PRESETS_ENV} preset {name!r}: {exc}") from exc
    return out


def registry() -> dict[str, Preset]:
    return {**builtin_presets(), **_load_env_presets()}


def parse_beta(text: str) -> tuple[BetaSpec, Optional[Preset]]:
    preset = registry().get(text)
    if preset is not None:
        return preset.beta, preset
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"base is not valid JSON: {exc}") from exc
        return beta_from_json(obj), None
    return RationalBeta(parse_rational(text)), None


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _req(flag, **kwargs):
    return flag, dict(kwargs, required=True)


# argument specs: (flag, add_argument keywords)
BETA, S, N, TOSSES, BITS = _req("--beta"), _req("--s"), _req("--n", type=int), _req("--tosses"), _req("--bits")
CONVERTER = (BETA, _req("--binary"), _req("--chunks", type=int))
DEVICE = (BETA, _req("--t"), _req("--eps"), S, N, TOSSES)
MODE = ("--mode", {"choices": ("greedy", "lazy"), "default": "greedy"})
METHOD = ("--method", {"choices": ("fast", "bruteforce"), "default": "fast"})
SET_PAIRING = ("--pairing", {"action": "store_true", "help": "emit the set in pairing form"})
CLASS_PAIRING = ("--pairing", {"action": "store_true", "help": "emit each class in pairing form"})

# subcommand name -> (help text, handler, argument specs in --help order, default overrides)
COMMANDS: dict[str, tuple] = {}


def _command(name, help_text, *specs, **defaults):
    def register(handler):
        COMMANDS[name] = (help_text, handler, specs, defaults)
        return handler

    return register


# decorators apply bottom-up, so each pair below declares its lower entry first
@_command("lazy", "lazy expansion prefix", BETA, S, N, mode="lazy")
@_command("expand", "greedy or lazy expansion prefix", BETA, S, N, MODE)
def _expand(args, beta, preset):
    fn = greedy_expand if args.mode == "greedy" else lazy_expand
    bits = fn(beta, parse_value(args.s), args.n)
    return {"bits": bits, "mode": args.mode}, bits


@_command("random", "toss-driven expansion prefix", BETA, S, N, TOSSES)
def _random(args, beta, preset):
    word, trace = random_expand(beta, parse_value(args.s), args.n, parse_tosses(args.tosses))
    return lambda: {
        "bits": word,
        "trace": [
            {
                "index": t.index,
                "residual": exact_float(t.residual_before),
                "bit": t.emitted_bit,
                "in_switch": t.in_switch,
                "toss": t.toss_consumed,
            }
            for t in trace
        ],
    }, word


@_command("convert", "binary prefix to expansion chunks, rational base", *CONVERTER)
def _convert(args, beta, preset):
    if not isinstance(beta, RationalBeta):
        raise DomainError("convert needs a rational base; use convert-stream otherwise")
    res = convert_rational(beta, args.binary, args.chunks)
    return lambda: {
        "beta": format_rational(res.params.beta),
        "params": {"N": res.params.N, "sigma": res.params.sigmas(args.chunks)},
        "steps": [format_rational(r) for r in res.residuals],
        "bits": res.bits,
    }, res.bits


@_command("convert-stream", "binary prefix to expansion chunks, stream base", *CONVERTER)
def _convert_stream(args, beta, preset):
    res = convert_stream(stream_from_exact(beta), args.binary, args.chunks)
    # exact step values can run to thousands of digits; the session JSON
    # carries float views, the library API keeps them exact
    return lambda: {
        "params": {"N": res.params.N, "L": res.params.L, "C_lower": format_rational(res.params.C_lower)},
        "sigma": list(res.sigmas),
        "approximants": [format_rational(a) for a in res.approximants],
        "steps": [
            {
                "i": d.index,
                "beta_i": format_rational(d.beta_i),
                "sigma_i": d.sigma_i,
                "R": float(d.residual),
                "s": float(d.injected),
                "eps": float(d.correction),
            }
            for d in res.diagnostics
        ],
        "bits": res.bits,
    }, res.bits


@_command("canonicalize", "lexicographically maximal equal-value word", BETA, BITS, METHOD)
def _canonicalize(args, beta, preset):
    if args.method == "bruteforce":
        word = m_beta_bruteforce(beta, args.bits)
        return {"bits": word}, word
    word, stats = m_beta_fast(beta, args.bits, preset.bounds if preset else None)
    return lambda: {
        "bits": word,
        "stats": {
            "per_level_class_counts": list(stats.per_level_class_counts),
            "total_steps": stats.total_steps,
            "pisot_width_bound": None if stats.pisot_width_bound is None else format_rational(stats.pisot_width_bound),
        },
    }, word


@_command("enumerate", "all expansion prefixes of a value", BETA, S, N, SET_PAIRING)
def _enumerate(args, beta, preset):
    words = enumerate_expansions(beta, parse_value(args.s), args.n)
    # only the plain text builds a pairing code, which may exceed its cap
    return {"count": len(words), "words": words}, lambda: encode_pairing(words) if args.pairing else "\n".join(words)


@_command("classes", "value classes in the window around a word", BETA, BITS, CLASS_PAIRING)
def _classes(args, beta, preset):
    part = g_beta_window(beta, args.bits)
    join = encode_pairing if args.pairing else " ".join
    return lambda: {
        "word_length": part.word_length,
        "classes": [{"value": exact_float(c.value), "members": list(c.members)} for c in part.classes],
    }, lambda: "\n".join(join(list(c.members)) for c in part.classes)


@_command("tosses", "extract the tosses behind an expansion prefix", BETA, S, _req("--x"))
def _tosses(args, beta, preset):
    w = replay_tosses(beta, parse_value(args.s), args.x)
    return {"tosses": w}, w


@_command("pipeline", "comparator run followed by canonicalization", *DEVICE)
@_command("adc", "imperfect-comparator conversion run", *DEVICE)
def _device(args, beta, preset):
    q = Quantizer(parse_value(args.t), parse_value(args.eps))
    s, tosses = parse_value(args.s), parse_tosses(args.tosses)
    if args.command == "pipeline":
        res = denoise_pipeline(beta, q, s, args.n, tosses, preset.bounds if preset else None)
        return {"raw": res.raw, "canonical": res.canonical}, res.raw + "\n" + res.canonical
    rec = adc_run(beta, q, s, args.n, tosses)
    return lambda: {
        "bits": rec.bits,
        "switch_indices": list(rec.switch_indices),
        "consumed_tosses": rec.consumed_tosses,
        "residual": exact_float(rec.residual),
        "fault": rec.fault,
        "fault_indices": list(rec.fault_indices),
        "quantizer_valid": validate_quantizer(beta, q).valid,
    }, rec.bits


@_command("bounds", "separation bound and converter schedules", BETA, ("--n", {"type": int}))
def _bounds(args, beta, preset):
    if isinstance(beta, RationalBeta) and beta.value == 2:
        # not a preset, and both converter schedules need beta < 2
        raise DomainError("bounds: base 2 has no separation bound and no converter schedule")
    lines = {}
    if preset is not None and args.n is not None:
        lines["separation"] = format_rational(separation_bound(preset.bounds, args.n))
    if isinstance(beta, RationalBeta):
        n = 4 if args.n is None else args.n
        if n < 0:
            raise DomainError("bounds: --n must be nonnegative")
        pr = params_rational(beta)
        lines["rational_params"] = {"N": pr.N, "sigma": pr.sigmas(n)}
    ps = params_stream(stream_from_exact(beta))
    lines["stream_params"] = {"N": ps.N, "L": ps.L, "C_lower": format_rational(ps.C_lower)}
    return lines, lambda: "\n".join(f"{k}={_json_dump(v)}" for k, v in sorted(lines.items()))


@_command(
    "measure", "empirical digit-sum measure of an interval", BETA, _req("--m", type=int), _req("--lo"), _req("--hi")
)
def _measure(args, beta, preset):
    mass = format_rational(nu_measure(beta, args.m, Interval(parse_value(args.lo), parse_value(args.hi))))
    return {"mass": mass}, mass


@_command("encode", "pairing-encode bitstrings", ("items", {"nargs": "+"}))
def _encode(args, *_):
    enc = encode_pairing(list(args.items))
    return {"encoded": enc}, enc


@_command(
    "decode", "decode a pairing-encoded string",
    _req("--raw"), ("--arity", {"type": int}), ("--item-length", {"type": int}),
)
def _decode(args, *_):
    items = decode_pairing(args.raw, args.arity, args.item_length)
    return {"items": items}, " ".join(items)


def _build_parser(chosen: Optional[str]) -> argparse.ArgumentParser:
    """The top-level parser with every subcommand registered by name and
    help text; only the `chosen` one gets its arguments, as a call runs one."""
    top = argparse.ArgumentParser(prog="betaforge", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, specs, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != chosen:
            continue
        p.add_argument("--json", action="store_true", help="structured output")
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, **defaults)
    return top


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Execute one CLI invocation; returns (exit status, stdout, stderr)."""
    # the top-level parser takes no option with a value, so its first
    # non-option token is the subcommand
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2, "", "")
    try:
        beta, preset = parse_beta(args.beta) if "beta" in vars(args) else (None, None)
        payload, text = args.handler(args, beta, preset)
        out = payload if args.json else text
        if callable(out):
            out = out()
        return 0, _json_dump(out) if args.json else out, ""
    except BetaForgeError as exc:
        return 1, "", f"error: {exc}"


def main(argv: Optional[list[str]] = None) -> int:
    status, out, err = run_command(sys.argv[1:] if argv is None else argv)
    if out:
        print(out)
    if err:
        print(err, file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
