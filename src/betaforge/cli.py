"""Command-line front end.

One subcommand per capability: expansion generators, the two binary-to-base
converters, canonicalization, window/class/expansion-set enumeration, toss
extraction, the comparator simulator and denoising pipeline, bound and
schedule reports, empirical measures, and the self-delimiting pairing codec.

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
    AlgebraicBeta,
    BetaForgeError,
    BetaSpec,
    DomainError,
    Interval,
    RationalBeta,
    SizeGuardError,
    beta_from_json,
    exact_float,
    format_rational,
    parse_rational,
    _json_rational,
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
from .algebraic import Preset, ConjugateBounds, MinPolyData, builtin_presets, separation_bound
from .canonical import m_beta_bruteforce, m_beta_fast
from .multivalued import enumerate_expansions, g_beta_window, nu_measure
from .tosses_adc import Quantizer, adc_run, denoise_pipeline, replay_tosses, validate_quantizer

__all__ = ["encode_pairing", "decode_pairing", "MalformedEncodingError", "run_command", "main"]

PRESETS_ENV = "BETA_FORGE_PRESETS"
PAIRING_CAP = 1 << 24  # longest pairing code, in characters, that encode_pairing builds


class MalformedEncodingError(BetaForgeError):
    """A pairing-encoded string failed to decode."""


def _bar(x: str) -> str:
    return "1" * len(x) + "0" + x


def encode_pairing(items: list[str]) -> str:
    """Left-nested self-delimiting encoding of a nonempty list of bitstrings.

    A single item is emitted in its prefix-free form 1^|x| 0 x; longer lists
    fold left, each level prefixing the previous encoding.  The two-item code
    has length 2|x| + |y| + 1.
    """
    if not items:
        raise DomainError("cannot encode an empty list")
    for it in items:
        if it.strip("01"):
            raise DomainError(f"items must be bitstrings, got {it!r}")
    # the code's length, folded like the code itself and saturated past the cap
    length = 2 * len(items[0]) + 1 + sum(len(it) for it in items[1:2])
    for it in items[2:]:
        length = min(2 * length + 1 + len(it), PAIRING_CAP + 1)
    if length > PAIRING_CAP:
        raise SizeGuardError(f"pairing code of {len(items)} items exceeds the {PAIRING_CAP}-character cap")
    if len(items) == 1:
        return _bar(items[0])
    enc = _bar(items[0]) + items[1]
    for it in items[2:]:
        enc = _bar(enc) + it
    return enc


def _split_bar(raw: str):
    m = 0
    while m < len(raw) and raw[m] == "1":
        m += 1
    if m >= len(raw) or raw[m] != "0":
        return None
    body = raw[m + 1 : m + 1 + m]
    if len(body) != m:
        return None
    return body, raw[2 * m + 1 :]


def _try_decode(raw: str, arity: int, item_length: Optional[int]):
    if arity == 1:
        parts = _split_bar(raw)
        if parts is None or parts[1]:
            return None
        if item_length is not None and len(parts[0]) != item_length:
            return None
        return [parts[0]]
    parts = _split_bar(raw)
    if parts is None:
        return None
    inner, last = parts
    if item_length is not None and len(last) != item_length:
        return None
    if arity == 2:
        if item_length is not None and len(inner) != item_length:
            return None
        return [inner, last]
    head = _try_decode(inner, arity - 1, item_length)
    return None if head is None else head + [last]


def decode_pairing(raw: str, arity: Optional[int] = None, item_length: Optional[int] = None) -> list[str]:
    """Inverse of encode_pairing.

    With `arity` given, the left-nested structure is unfolded exactly that
    many times.  Without it, the arity is inferred by requiring all items to
    share one length (the canonical use for encoded prefix sets); for
    nonempty items this parse is unique, and the degenerate collisions caused
    by empty items resolve to the fewest items.
    """
    if raw.strip("01"):
        raise MalformedEncodingError("encoding must be a bitstring")
    if arity is not None:
        got = _try_decode(raw, arity, item_length)
        if got is None:
            raise MalformedEncodingError(f"{raw!r} is not a valid {arity}-item encoding")
        return got
    total = len(raw)
    parses = []
    lengths = [item_length] if item_length is not None else range(total + 1)
    for ln in lengths:
        # total lengths: 2L+1 for one item, (2^k - 1)L + 2^(k-1) - 1 for k >= 2
        if total == 2 * ln + 1:
            got = _try_decode(raw, 1, ln)
            if got is not None:
                parses.append(got)
        k = 2
        while ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 <= total:
            if ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 == total:
                got = _try_decode(raw, k, ln)
                if got is not None:
                    parses.append(got)
            k += 1
            if ln == 0 and k > total + 2:
                break
    unique = {tuple(p) for p in parses}
    if not unique:
        raise MalformedEncodingError(f"{raw!r} does not decode as an equal-length pairing")
    if len(unique) > 1:
        nonempty = {p for p in unique if all(p)}
        if len(nonempty) == 1:
            return list(nonempty.pop())
        min_arity = min(len(p) for p in unique)
        shortest = {p for p in unique if len(p) == min_arity}
        if len(shortest) == 1:
            return list(shortest.pop())
        raise MalformedEncodingError(f"{raw!r} is ambiguous; pass an explicit arity")
    return list(unique.pop())


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
            beta = beta_from_json(obj)
            if not isinstance(beta, AlgebraicBeta):
                raise DomainError("a preset needs minpoly and isolating")
            k_beta = parse_rational(str(obj.get("k_beta", 0)))
            if k_beta.denominator != 1:
                raise DomainError("k_beta must be an integer")
            bounds = ConjugateBounds(
                _json_rational(obj, "pi_lower"),
                _json_rational(obj, "bplus_upper"),
                int(k_beta),
                bool(obj.get("pisot", False)),
                provenance="user",
            )
        except BetaForgeError as exc:
            raise DomainError(f"{PRESETS_ENV} preset {name!r}: {exc}") from exc
        out[name] = Preset(name, beta, MinPolyData(beta.ctx.minpoly), bounds)
    return out


def registry() -> dict[str, Preset]:
    merged = dict(builtin_presets())
    merged.update(_load_env_presets())
    return merged


def parse_beta(text: str) -> tuple[BetaSpec, Optional[Preset]]:
    presets = registry()
    if text in presets:
        p = presets[text]
        return p.beta, p
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"base is not valid JSON: {exc}") from exc
        return beta_from_json(obj), None
    return RationalBeta(parse_rational(text)), None


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="betaforge", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    p = cmd("expand", "greedy or lazy expansion prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["greedy", "lazy"], default="greedy")

    p = cmd("lazy", "lazy expansion prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(mode="lazy")

    p = cmd("random", "toss-driven expansion prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tosses", required=True)

    p = cmd("convert", "binary prefix to expansion chunks, rational base")
    p.add_argument("--beta", required=True)
    p.add_argument("--binary", required=True)
    p.add_argument("--chunks", type=int, required=True)

    p = cmd("convert-stream", "binary prefix to expansion chunks, stream base")
    p.add_argument("--beta", required=True)
    p.add_argument("--binary", required=True)
    p.add_argument("--chunks", type=int, required=True)

    p = cmd("canonicalize", "lexicographically maximal equal-value word")
    p.add_argument("--beta", required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--method", choices=["fast", "bruteforce"], default="fast")

    p = cmd("enumerate", "all expansion prefixes of a value")
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairing", action="store_true", help="emit the set in pairing form")

    p = cmd("classes", "value classes in the window around a word")
    p.add_argument("--beta", required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--pairing", action="store_true", help="emit each class in pairing form")

    p = cmd("tosses", "extract the tosses behind an expansion prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--x", required=True)

    p = cmd("adc", "imperfect-comparator conversion run")
    p.add_argument("--beta", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tosses", required=True)

    p = cmd("pipeline", "comparator run followed by canonicalization")
    p.add_argument("--beta", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tosses", required=True)

    p = cmd("bounds", "separation bound and converter schedules")
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, default=None)

    p = cmd("measure", "empirical digit-sum measure of an interval")
    p.add_argument("--beta", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)

    p = cmd("encode", "pairing-encode bitstrings")
    p.add_argument("items", nargs="+")

    p = cmd("decode", "decode a pairing-encoded string")
    p.add_argument("--raw", required=True)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--item-length", type=int, default=None)

    return top


def _run(args) -> str:
    cmd = args.command
    if cmd in ("expand", "lazy"):
        beta, _ = parse_beta(args.beta)
        fn = greedy_expand if args.mode == "greedy" else lazy_expand
        bits = fn(beta, parse_value(args.s), args.n)
        return _json_dump({"bits": bits, "mode": args.mode}) if args.json else bits
    if cmd == "random":
        beta, _ = parse_beta(args.beta)
        word, trace = random_expand(beta, parse_value(args.s), args.n, parse_tosses(args.tosses))
        if args.json:
            return _json_dump(
                {
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
                }
            )
        return word
    if cmd == "convert":
        beta, _ = parse_beta(args.beta)
        if not isinstance(beta, RationalBeta):
            raise DomainError("convert needs a rational base; use convert-stream otherwise")
        res = convert_rational(beta, args.binary, args.chunks)
        if args.json:
            return _json_dump(
                {
                    "beta": format_rational(res.params.beta),
                    "params": {"N": res.params.N, "sigma": [res.params.sigma(i) for i in range(args.chunks + 1)]},
                    "steps": [format_rational(r) for r in res.residuals],
                    "bits": res.bits,
                }
            )
        return res.bits
    if cmd == "convert-stream":
        stream = stream_from_exact(parse_beta(args.beta)[0])
        res = convert_stream(stream, args.binary, args.chunks)
        if args.json:
            # exact step values can run to thousands of digits; the session
            # JSON carries float views, the library API keeps them exact
            return _json_dump(
                {
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
                }
            )
        return res.bits
    if cmd == "canonicalize":
        beta, preset = parse_beta(args.beta)
        if args.method == "bruteforce":
            word = m_beta_bruteforce(beta, args.bits)
            return _json_dump({"bits": word}) if args.json else word
        word, stats = m_beta_fast(beta, args.bits, preset.bounds if preset else None)
        if args.json:
            return _json_dump(
                {
                    "bits": word,
                    "stats": {
                        "per_level_class_counts": list(stats.per_level_class_counts),
                        "total_steps": stats.total_steps,
                        "pisot_width_bound": None
                        if stats.pisot_width_bound is None
                        else format_rational(stats.pisot_width_bound),
                    },
                }
            )
        return word
    if cmd == "enumerate":
        beta, _ = parse_beta(args.beta)
        words = enumerate_expansions(beta, parse_value(args.s), args.n)
        if args.json:
            return _json_dump({"count": len(words), "words": words})
        if args.pairing:
            return encode_pairing(words)
        return "\n".join(words)
    if cmd == "classes":
        beta, _ = parse_beta(args.beta)
        part = g_beta_window(beta, args.bits)
        if args.json:
            return _json_dump(
                {
                    "word_length": part.word_length,
                    "classes": [
                        {"value": exact_float(c.value), "members": list(c.members)} for c in part.classes
                    ],
                }
            )
        if args.pairing:
            return "\n".join(encode_pairing(list(c.members)) for c in part.classes)
        return "\n".join(" ".join(c.members) for c in part.classes)
    if cmd == "tosses":
        beta, _ = parse_beta(args.beta)
        w = replay_tosses(beta, parse_value(args.s), args.x)
        return _json_dump({"tosses": w}) if args.json else w
    if cmd in ("adc", "pipeline"):
        beta, preset = parse_beta(args.beta)
        q = Quantizer(parse_value(args.t), parse_value(args.eps))
        s = parse_value(args.s)
        tosses = parse_tosses(args.tosses)
        if cmd == "adc":
            rec = adc_run(beta, q, s, args.n, tosses)
            if args.json:
                return _json_dump(
                    {
                        "bits": rec.bits,
                        "switch_indices": list(rec.switch_indices),
                        "consumed_tosses": rec.consumed_tosses,
                        "residual": exact_float(rec.residual),
                        "fault": rec.fault,
                        "fault_indices": list(rec.fault_indices),
                        "quantizer_valid": validate_quantizer(beta, q).valid,
                    }
                )
            return rec.bits
        res = denoise_pipeline(beta, q, s, args.n, tosses, preset.bounds if preset else None)
        if args.json:
            return _json_dump({"raw": res.raw, "canonical": res.canonical})
        return res.raw + "\n" + res.canonical
    if cmd == "bounds":
        beta, preset = parse_beta(args.beta)
        if isinstance(beta, RationalBeta) and beta.value == 2:
            # not a preset, and both converter schedules need beta < 2
            raise DomainError("bounds: base 2 has no separation bound and no converter schedule")
        lines = {}
        if preset is not None and args.n is not None:
            lines["separation"] = format_rational(separation_bound(preset.data, preset.bounds, args.n))
        if isinstance(beta, RationalBeta):
            pr = params_rational(beta)
            upto = (args.n or 4) + 1
            lines["rational_params"] = {"N": pr.N, "sigma": [pr.sigma(i) for i in range(upto)]}
        ps = params_stream(stream_from_exact(beta))
        lines["stream_params"] = {"N": ps.N, "L": ps.L, "C_lower": format_rational(ps.C_lower)}
        if args.json:
            return _json_dump(lines)
        return "\n".join(f"{k}={_json_dump(v)}" for k, v in sorted(lines.items()))
    if cmd == "measure":
        beta, _ = parse_beta(args.beta)
        mass = nu_measure(beta, args.m, Interval(parse_value(args.lo), parse_value(args.hi)))
        return _json_dump({"mass": format_rational(mass)}) if args.json else format_rational(mass)
    if cmd == "encode":
        enc = encode_pairing(list(args.items))
        return _json_dump({"encoded": enc}) if args.json else enc
    if cmd == "decode":
        items = decode_pairing(args.raw, args.arity, args.item_length)
        return _json_dump({"items": items}) if args.json else " ".join(items)
    raise DomainError(f"unknown command {cmd!r}")


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Execute one CLI invocation; returns (exit status, stdout, stderr)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2, "", "")
    try:
        return 0, _run(args), ""
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
