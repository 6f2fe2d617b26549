import argparse
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge import cli
from betaforge.algebraic import _BUILTIN
from betaforge.cli import COMMANDS, parse_tosses, run_command
from betaforge.pairing import PAIRING_CAP, decode_pairing, encode_pairing
from oracles import decode_pairing_by_lengths

TABLE1 = {
    "2": "11000000000000000000000000000000000000000000000000",
    "101/100": "00000000000000000000000000001000000000000000000000",
    "6/5": "01000000000000010000000000000000000100000000000000",
    "3/2": "10000010010010100000000010000001000010000001001001",
    "9/5": "10100010101000000110101000011000011010011000010000",
    "199/100": "10111110001001001001010001100011010000100000111010",
}


class TestPairing:
    def test_pinned_pair(self):
        assert encode_pairing(["0", "1"]) == "1001"

    def test_decode_inverse(self):
        assert decode_pairing("1001") == ["0", "1"]

    @settings(max_examples=100, deadline=None)
    @given(x=st.text(alphabet="01", max_size=16), y=st.text(alphabet="01", max_size=16))
    def test_length_law(self, x, y):
        assert len(encode_pairing([x, y])) == 2 * len(x) + len(y) + 1

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_round_trip_equal_lengths(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        k = data.draw(st.integers(min_value=1, max_value=6))
        items = [data.draw(st.text(alphabet="01", min_size=n, max_size=n)) for _ in range(k)]
        assert decode_pairing(encode_pairing(items)) == items

    def test_empty_item_collisions_take_fewest(self):
        # "0" encodes both [""] and ["", ""]; the arity-free decode picks the
        # fewest items, and an explicit arity recovers the other reading
        assert decode_pairing(encode_pairing([""])) == [""]
        assert decode_pairing("0", arity=2) == ["", ""]

    def test_round_trip_unequal_with_arity(self):
        items = ["100", "1"]
        assert decode_pairing(encode_pairing(items), arity=2) == items

    def test_length_cap(self):
        # k equal items of length L encode to (2^k - 1) L + 2^(k-1) - 1 characters
        assert len(encode_pairing(["01"] * 18)) == (2**18 - 1) * 2 + 2**17 - 1 <= PAIRING_CAP
        with pytest.raises(bf.SizeGuardError):
            encode_pairing(["0"] * 40)
        with pytest.raises(bf.SizeGuardError):
            encode_pairing(["1" * (PAIRING_CAP // 2)])

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_refused_exactly_past_the_cap(self, arity):
        """A code of PAIRING_CAP characters is built and one of PAIRING_CAP + 1
        refused, for two and three items.  One item codes to the odd length
        2L + 1, so its two sides of the cap are PAIRING_CAP - 1 and + 1."""

        def items(extra):
            if arity == 1:
                return ["1" * (PAIRING_CAP // 2 - 1 + extra)]
            # the last item follows a code of 2001 or 63 characters
            head, fixed = (["1" * 1000], 2001) if arity == 2 else (["1" * 10, "0" * 10], 63)
            return head + ["0" * (PAIRING_CAP - fixed + extra)]

        assert len(encode_pairing(items(0))) == PAIRING_CAP - (arity == 1)
        with pytest.raises(bf.SizeGuardError, match=f"^pairing code of {arity} items exceeds the {PAIRING_CAP}-"):
            encode_pairing(items(1))

    def test_malformed(self):
        with pytest.raises(bf.MalformedEncodingError):
            decode_pairing("111")
        with pytest.raises(bf.DomainError):
            encode_pairing([])
        with pytest.raises(bf.DomainError, match="^items must be bitstrings, got '012'$"):
            encode_pairing(["01", "012"])
        with pytest.raises(bf.MalformedEncodingError, match="^encoding must be a bitstring$"):
            decode_pairing("10a1")

    def test_negative_item_length(self):
        # no (2^k - 1) L + 2^(k-1) - 1 reaches the code length for L < 0
        with pytest.raises(bf.MalformedEncodingError, match="nonnegative"):
            decode_pairing("1001", item_length=-1)

    def test_peel_chain_matches_the_search_over_lengths(self):
        """Every code of up to 12 characters, with every arity and item
        length around them: the same parse or the same error message."""

        def outcome(decode, *args):
            try:
                return decode(*args)
            except bf.MalformedEncodingError as exc:
                return str(exc)

        for n in range(13):
            for k in range(1 << n):
                raw = format(k, f"0{n}b") if n else ""
                for arity in (None, 0, 1, 2, 3, 4, 5):
                    for item_length in (None, -1, 0, 1, 2, 3, 4):
                        args = (raw, arity, item_length)
                        assert outcome(decode_pairing, *args) == outcome(decode_pairing_by_lengths, *args), args


class TestSubcommands:
    def test_table_one_rows(self):
        for beta, expect in TABLE1.items():
            status, out, err = run_command(["expand", "--beta", beta, "--s", "3/4", "--mode", "greedy", "--n", "50"])
            assert status == 0 and err == ""
            assert out == expect

    def test_lazy_subcommand(self):
        status, out, _ = run_command(["lazy", "--beta", "2", "--s", "3/4", "--n", "4"])
        assert status == 0 and out == "1011"

    def test_random_subcommand(self):
        status, out, _ = run_command(["random", "--beta", "golden", "--s", "1", "--n", "6", "--tosses", "101011"])
        assert status == 0 and out == "101011"

    def test_canonicalize(self):
        status, out, _ = run_command(["canonicalize", "--beta", "golden", "--bits", "011"])
        assert status == 0 and out == "100"
        status, out, _ = run_command(["canonicalize", "--beta", "golden", "--bits", "011", "--method", "bruteforce"])
        assert out == "100"

    def test_convert(self):
        status, out, _ = run_command(["convert", "--beta", "3/2", "--binary", "110", "--chunks", "1"])
        assert status == 0 and out == "10"

    def test_convert_stream(self):
        status, out, _ = run_command(
            ["convert-stream", "--beta", "3/2", "--binary", "1" * 120, "--chunks", "1", "--json"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["params"]["N"] == 28 and payload["params"]["L"] == 8

    def test_enumerate(self):
        status, out, _ = run_command(["enumerate", "--beta", "golden", "--s", "1", "--n", "4"])
        assert status == 0
        assert out.splitlines() == ["0111", "1001", "1010", "1011", "1100"]

    def test_enumerate_pairing_round_trip(self):
        status, out, _ = run_command(["enumerate", "--beta", "golden", "--s", "1", "--n", "4", "--pairing"])
        assert status == 0
        assert decode_pairing(out) == ["0111", "1001", "1010", "1011", "1100"]

    def test_classes(self):
        status, out, _ = run_command(["classes", "--beta", "golden", "--bits", "1100"])
        assert status == 0
        assert out.splitlines()[2] == "1011 1100"

    def test_tosses(self):
        status, out, _ = run_command(["tosses", "--beta", "golden", "--s", "1", "--x", "101011"])
        assert status == 0 and out == "101011"

    def test_tosses_long_word(self):
        n = 400
        stream = parse_tosses("seed:5")
        word, _ = bf.random_expand(bf.get_preset("golden").beta, Fraction(1, 3), n, stream)
        replay = parse_tosses("seed:5")
        consumed = "".join(str(replay.next_bit()) for _ in range(stream.consumed))
        status, out, _ = run_command(["tosses", "--beta", "golden", "--s", "1/3", "--x", word])
        assert status == 0 and out == consumed

    def test_enumerate_pairing_over_cap(self):
        # 61 words of length 14 would encode to (2^61 - 1) * 14 + 2^60 - 1 characters
        status, out, err = run_command(["enumerate", "--beta", "3/2", "--s", "1/2", "--n", "14", "--pairing"])
        assert status == 1 and out == ""
        assert err.startswith("error:") and "cap" in err

    def test_adc_and_pipeline(self):
        args = ["--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", "3/4", "--n", "10", "--tosses", "zeros"]
        status, out, _ = run_command(["adc"] + args)
        assert status == 0 and len(out) == 10
        status, out, _ = run_command(["pipeline"] + args)
        assert status == 0
        raw, canonical = out.splitlines()
        assert canonical >= raw

    def test_bounds(self):
        status, out, _ = run_command(["bounds", "--beta", "golden", "--n", "3", "--json"])
        assert status == 0
        payload = json.loads(out)
        expect = Fraction(38, 100) / Fraction(1_618_034, 10 ** 6) ** 3
        assert payload["separation"] == f"{expect.numerator}/{expect.denominator}"

    def test_bounds_base_two_is_an_error(self):
        for extra in ([], ["--n", "3"], ["--json"]):
            status, out, err = run_command(["bounds", "--beta", "2"] + extra)
            assert status == 1 and out == ""
            assert err.startswith("error:") and "base 2" in err

    def test_bounds_rational_schedule_length(self):
        """--n is the last index of the rational schedule: 0 prints sigma(0)
        alone, and a negative --n is a domain error."""
        for extra in ([], ["--json"]):
            status, out, err = run_command(["bounds", "--beta", "3/2", "--n", "0"] + extra)
            assert status == 0 and err == "" and '"sigma":[0]}' in out
            status, out, err = run_command(["bounds", "--beta", "3/2", "--n", "-3"] + extra)
            assert status == 1 and out == ""
            assert err.startswith("error:") and "--n must be nonnegative" in err

    @pytest.mark.parametrize("beta", ["3/2", "9/5", "7/4", "101/100"])
    def test_schedules_list_sigma_of_every_index(self, beta, rng):
        """The sigma lists of `bounds` and `convert --json`, built from
        running products, against sigma(i) from its own power.  On 101/100
        (N = 70) the powers run to 10^6 bits, so every 17th index and the
        last three stand for the whole list there."""
        p = bf.params_rational(bf.RationalBeta(Fraction(beta)))
        for n in (0, 1, 4, 12, 1020):
            status, out, err = run_command(["bounds", "--beta", beta, "--n", str(n), "--json"])
            got = json.loads(out)["rational_params"]["sigma"]
            indices = range(n + 1) if p.N < 50 else sorted({*range(0, n + 1, 17), *range(max(0, n - 2), n + 1)})
            assert (status, err, len(got)) == (0, "", n + 1)
            assert [got[i] for i in indices] == [p.sigma(i) for i in indices]
        # the exact residuals of 101/100 pass the digit limit from about 30 chunks
        for n in (0, 1, 4, 12) + (() if p.N > 50 else (300, 1020)):
            bits = format(rng.getrandbits(p.sigma(n) + 1), "b").zfill(p.sigma(n) + 1)
            status, out, err = run_command(["convert", "--beta", beta, "--binary", bits, "--chunks", str(n), "--json"])
            assert (status, err) == (0, "")
            assert json.loads(out)["params"]["sigma"] == [p.sigma(i) for i in range(n + 1)]
        if p.N > 50:
            status, out, err = run_command(["bounds", "--beta", beta, "--n", "1021"])
            assert (status, out, err) == (1, "", "error: a^71470 would exceed the 1000000-bit budget")

    def test_bounds_near_two(self):
        """19999/10000 lies 1/10000 below 2, so its schedule still exists."""
        status, out, err = run_command(["bounds", "--beta", "19999/10000"])
        assert (status, err) == (0, "")
        assert out.splitlines()[-1] == 'stream_params={"C_lower":"1/59994","L":46,"N":103}'

    def test_canonicalize_non_pisot_sweep_cap(self):
        status, out, err = run_command(["canonicalize", "--beta", "cbrt2", "--bits", "001011110010110110010000101001"])
        assert status == 1 and out == ""
        assert err.startswith("error:") and "sweep cap" in err

    def test_measure(self):
        status, out, _ = run_command(["measure", "--beta", "golden", "--m", "2", "--lo", "1", "--hi", "1"])
        assert status == 0 and out == "1/4"

    def test_encode_decode(self):
        status, out, _ = run_command(["encode", "0", "1"])
        assert status == 0 and out == "1001"
        status, out, _ = run_command(["decode", "--raw", "1001"])
        assert status == 0 and out == "0 1"

    def test_decode_negative_item_length(self):
        status, out, err = run_command(["decode", "--raw", "1001", "--item-length", "-1"])
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "nonnegative" in err

    def test_value_forms(self):
        for s in ("3/4", "0.75", "bits:11"):
            _, out, _ = run_command(["expand", "--beta", "3/2", "--s", s, "--n", "10"])
            assert out == TABLE1["3/2"][:10]

    def test_beta_json_forms(self):
        algebraic = json.dumps({"minpoly": [-1, -1, 1], "isolating": ["3/2", "5/3"]})
        _, out, _ = run_command(["expand", "--beta", algebraic, "--s", "1", "--n", "4"])
        assert out == "1100"

    def test_stream_beta_rejected_where_exact_needed(self):
        stream = json.dumps({"bits": "1000", "lo": "3/2", "hi": "3/2"})
        status, out, err = run_command(["expand", "--beta", stream, "--s", "1/2", "--n", "4"])
        assert status == 1
        assert "stream" in err

    def test_exit_codes(self):
        status, _, _ = run_command(["expand", "--beta", "3/2"])  # missing args
        assert status == 2
        status, _, err = run_command(["expand", "--beta", "3/2", "--s", "9/2", "--n", "4"])  # outside domain
        assert status == 1 and err

    def test_determinism(self):
        argv = ["classes", "--beta", "golden", "--bits", "1100", "--json"]
        assert run_command(argv) == run_command(argv)

    def test_seeded_tosses_deterministic(self):
        a = parse_tosses("seed:42")
        b = parse_tosses("seed:42")
        assert [a.next_bit() for _ in range(32)] == [b.next_bit() for _ in range(32)]

    @pytest.mark.parametrize(
        "text, bits",
        [
            ("ones", "1" * 24),
            ("zeros", "0" * 24),
            ("alternating", "10" * 12),
            # xorshift has no zero state: seed 0 starts from 0x9E3779B97F4A7C15
            ("seed:0", "001011101101010000101110"),
            ("seed:0x9E3779B97F4A7C15", "001011101101010000101110"),
        ],
    )
    def test_named_toss_streams(self, text, bits):
        stream = parse_tosses(text)
        assert "".join(str(stream.next_bit()) for _ in bits) == bits

    def test_env_presets(self, tmp_path):
        presets = {
            "plastic": {
                "minpoly": [-1, -1, 0, 1],
                "isolating": ["13/10", "7/5"],
                "pi_lower": "1/10",
                "bplus_upper": "3/2",
                "k_beta": 0,
                "pisot": True,
            }
        }
        path = tmp_path / "presets.json"
        path.write_text(json.dumps(presets))
        old = os.environ.get("BETA_FORGE_PRESETS")
        os.environ["BETA_FORGE_PRESETS"] = str(path)
        try:
            status, out, _ = run_command(["expand", "--beta", "plastic", "--s", "1/2", "--n", "8"])
            assert status == 0 and len(out) == 8
        finally:
            if old is None:
                del os.environ["BETA_FORGE_PRESETS"]
            else:
                os.environ["BETA_FORGE_PRESETS"] = old


PLASTIC = {"minpoly": [-1, -1, 0, 1], "isolating": ["13/10", "4/3"], "pi_lower": "1/100", "bplus_upper": "3/2"}


class TestMalformedInput:
    """Input from outside the program ends in an `error:` line and exit 1,
    never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--beta", '{"minpoly": [-1,-1,1]}', "--s", "1", "--n", "4"],
            ["expand", "--beta", '{"minpoly', "--s", "1", "--n", "4"],
            ["expand", "--beta", '{"bits": "0101", "hi": "3/2"}', "--s", "1", "--n", "4"],
            ["expand", "--beta", '{"minpoly": "ab", "isolating": ["3/2", "5/3"]}', "--s", "1", "--n", "4"],
            ["expand", "--beta", '{"minpoly": [-1,-1,1], "isolating": ["3/2"]}', "--s", "1", "--n", "4"],
            ["random", "--beta", "golden", "--s", "1", "--n", "4", "--tosses", "seed:xyz"],
            ["expand", "--beta", "golden", "--s", "1", "--n", "-1"],
        ],
        ids=["no-isolating", "bad-json", "bits-without-lo", "minpoly-not-a-list", "one-item-isolating",
             "bad-seed", "negative-n"],
    )
    def test_domain_error(self, argv):
        status, out, err = run_command(argv)
        assert (status, out) == (1, "")
        assert err.startswith("error: ")

    def _with_presets(self, monkeypatch, path):
        monkeypatch.setenv("BETA_FORGE_PRESETS", str(path))
        status, out, err = run_command(["expand", "--beta", "3/2", "--s", "3/4", "--n", "4"])
        assert (status, out) == (1, "")
        assert err.startswith("error: BETA_FORGE_PRESETS")
        return err

    def test_presets_file_missing(self, monkeypatch, tmp_path):
        self._with_presets(monkeypatch, tmp_path / "absent.json")

    def test_preset_without_isolating(self, monkeypatch, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"plastic": {"minpoly": [-1, -1, 0, 1], "pi_lower": "1/10", "bplus_upper": "3/2"}}))
        self._with_presets(monkeypatch, path)

    @pytest.mark.parametrize(
        "presets, error",
        [
            ({"plastic": dict(PLASTIC, k_beta="1/2")}, "preset 'plastic': k_beta must be an integer"),
            ({"plastic": dict(PLASTIC, k_beta=-1)}, "preset 'plastic': k_beta must be nonnegative"),
            ({"plastic": {"bits": "0101", "lo": "3/2", "hi": "3/2", "pi_lower": "1/10", "bplus_upper": "2"}},
             "preset 'plastic': a preset needs minpoly and isolating"),
            ({"plastic": {k: v for k, v in PLASTIC.items() if k != "pi_lower"}},
             "preset 'plastic': missing key 'pi_lower'"),
            ({"plastic": dict(PLASTIC, pi_lower="0")}, "preset 'plastic': pi_lower must be positive"),
            ({"plastic": dict(PLASTIC, bplus_upper="1/2")}, "preset 'plastic': bplus_upper must be at least 1"),
            ({"plastic": [-1, -1, 0, 1]}, "preset 'plastic': a base object must be a JSON object"),
            ([PLASTIC], "file {path!r} must hold a JSON object of presets"),
            ({"three-halves": dict(PLASTIC, minpoly=[-3, 2], isolating=["5/4", "7/4"])},
             "preset 'three-halves': minimal polynomial must have degree >= 2; give a rational base as p/q"),
        ],
        ids=["k-beta-fraction", "k-beta-negative", "stream-entry", "no-pi-lower", "zero-pi-lower",
             "bplus-below-one", "entry-not-an-object", "top-level-list", "linear-entry"],
    )
    def test_preset_entry_errors(self, monkeypatch, tmp_path, presets, error):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps(presets))
        assert self._with_presets(monkeypatch, path) == "error: BETA_FORGE_PRESETS " + error.format(path=str(path))


class TestOnePresetBuilder:
    """Built-in and BETA_FORGE_PRESETS bases come from one builder, so a
    built-in declared again in a presets file prints what the built-in
    prints."""

    # a sound quantizer (t, eps) per built-in, so that every pipeline call runs to the end
    QUANTIZERS = {"golden": ("0.809016994", "0.19"), "sqrt2": ("6/5", "2/5"), "cbrt2": ("19/10", "1"),
                  "tribonacci": ("3/5", "1/25")}

    def test_builtins_declared_again_print_the_same(self, monkeypatch, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"user-" + name: obj for name, obj in _BUILTIN.items()}))
        monkeypatch.setenv("BETA_FORGE_PRESETS", str(path))
        for name, (t, eps) in self.QUANTIZERS.items():
            # each bounds call derives the stream schedule afresh (about 0.25 s), so the
            # CLI prints two lengths; equal records below fix the bound at every length
            argvs = [["bounds", "--n", "1"], ["bounds", "--n", "12", "--json"]]
            argvs += [["canonicalize", "--bits", bits, "--json"] for bits in ("011", "1011", "0110110", "100111011")]
            argvs.append(["pipeline", "--t", t, "--eps", eps, "--s", "3/4", "--n", "10", "--tosses", "seed:3",
                          "--json"])
            for argv in argvs:
                builtin = run_command(argv + ["--beta", name])
                assert builtin[0] == 0
                assert run_command(argv + ["--beta", "user-" + name]) == builtin
            user, preset = cli.registry()["user-" + name], bf.get_preset(name)
            assert user.bounds == dataclasses.replace(preset.bounds, provenance="user")
            ctx = preset.beta.ctx
            assert (user.beta.ctx.minpoly, user.beta.ctx.isolating) == (ctx.minpoly, ctx.isolating)

    def test_user_golden_overrides_the_builtin_in_the_cli(self, monkeypatch, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"golden": dict(_BUILTIN["golden"], pi_lower="1/10", bplus_upper="2")}))
        monkeypatch.setenv("BETA_FORGE_PRESETS", str(path))
        status, out, err = run_command(["bounds", "--beta", "golden", "--n", "3"])
        assert (status, err) == (0, "")
        assert out.splitlines()[0] == 'separation="1/80"'
        assert bf.get_preset("golden").bounds.pi_lower == Fraction(38, 100)


class TestPresetPisotFlag:
    """`pisot` in a BETA_FORGE_PRESETS entry is a JSON boolean; it decides
    whether canonicalize prints a width bound."""

    def _canonicalize(self, monkeypatch, tmp_path, pisot):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"plastic": dict(PLASTIC, pisot=pisot)}))
        monkeypatch.setenv("BETA_FORGE_PRESETS", str(path))
        return run_command(["canonicalize", "--beta", "plastic", "--bits", "1011", "--json"])

    def test_string_is_an_error(self, monkeypatch, tmp_path):
        status, out, err = self._canonicalize(monkeypatch, tmp_path, "false")
        assert (status, out) == (1, "")
        assert err.startswith("error: BETA_FORGE_PRESETS preset 'plastic': ") and "JSON boolean" in err

    def test_false_prints_no_bound(self, monkeypatch, tmp_path):
        status, out, err = self._canonicalize(monkeypatch, tmp_path, False)
        assert (status, err) == (0, "")
        assert json.loads(out)["stats"]["pisot_width_bound"] is None

    def test_true_prints_the_bound(self, monkeypatch, tmp_path):
        status, out, err = self._canonicalize(monkeypatch, tmp_path, True)
        assert (status, err) == (0, "")
        assert json.loads(out)["stats"]["pisot_width_bound"] == "3145728000/10214743"


# Outputs as printed before the CLI became table-driven; most --json payloads
# are pinned nowhere else.  Each entry: argv, then the sha256 of stdout plain
# and with --json (both exit 0 with an empty stderr).
STREAM_BASE = json.dumps({"bits": "1000", "lo": "3/2", "hi": "3/2"})
DEVICE_ARGS = ["--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", "3/4", "--n", "10"]
PINNED_OUTPUTS = {
    "expand": (
        ["expand", "--beta", "3/2", "--s", "3/4", "--n", "20"],
        "512e7d0deffe621ebfcfec7301fc8dd3577e4299b6b71bdceebaff02e78a2afc",
        "4f98d183144f0302856b45f13114cc433bc420e14595d15b8d4ee1afebc385a2",
    ),
    "lazy": (
        ["lazy", "--beta", "golden", "--s", "1/2", "--n", "10"],
        "160da5e470d41278347568b99d58b5c3aa054171a91d29bdbce175c6e25e9242",
        "bf938bab40b623881d3269b88e384fed6d4722b6897e62f787977e285e346f4f",
    ),
    "random": (
        ["random", "--beta", "3/2", "--s", "1/2", "--n", "12", "--tosses", "seed:7"],
        "e5694fff01b6c5d8b90c9339ebe1d4a6c93a6290d79dd1f9d7b1ca9ddfe49cd7",
        "3c090cfac48ecd9fa1f2dff797f1f2c534726456356c844b9628ce0e95f456d2",
    ),
    "convert": (
        ["convert", "--beta", "6/5", "--binary", "1" * 40, "--chunks", "2"],
        "505d684e5b4054d664db281967c980a7f2cde71aef2980d13cb8a07043f1c762",
        "de5120491e6f2bfd1f161d80ca9679db14e2479a57aa8ab0c2a92895c58b39b0",
    ),
    "convert-stream": (
        ["convert-stream", "--beta", "golden", "--binary", "1" * 60, "--chunks", "1"],
        "1e54d0cc2539fe168efc7a87e0647ee463f6f9dc1fe55899c7728fbf089a7dcf",
        "ebdd61d1eed4c273a7e05be86f0e6a49b8635b551ec8fa4a0271bc96deaf2ed6",
    ),
    "canonicalize": (
        ["canonicalize", "--beta", "tribonacci", "--bits", "0111011"],
        "83aa458467497705612ae6a256797d6bdf391938279cc4a1c6f12d81cd7f6be7",
        "133e23c4bd46fda2e60820e4b8b597a14b9db3cec5ed302c20e4918809d5776f",
    ),
    "canonicalize-bruteforce": (
        ["canonicalize", "--beta", "golden", "--bits", "011", "--method", "bruteforce"],
        "ad57366865126e55649ecb23ae1d48887544976efea46a48eb5d85a6eeb4d306",
        "e9bb9a7f9b7005f048ca3315414305be3a18c5b01f9deea0325fcc7df1b26a7b",
    ),
    "enumerate": (
        ["enumerate", "--beta", "golden", "--s", "1", "--n", "4"],
        "4b542c5b3353f7ed8bfc3c32cef32284d23f7054a8b9eb8e3c8f47d3ec41b592",
        "7520e37b992981af4de4ce3dd0395a0818bd76f3aab166c66fae57c3e3cc55eb",
    ),
    "enumerate-pairing": (
        ["enumerate", "--beta", "golden", "--s", "1", "--n", "4", "--pairing"],
        "ed3554ad7c9a8d52bc1a35d6d0fa0eb14af313fc817ef0a91d4c041415f7a501",
        "7520e37b992981af4de4ce3dd0395a0818bd76f3aab166c66fae57c3e3cc55eb",
    ),
    "classes": (
        ["classes", "--beta", "golden", "--bits", "1100"],
        "10e7507e67493797a3a705beb2c44503b388e869789516228fcc76345936327f",
        "31efe52da9f68d800af1e25a33eafe53380ae9dc9c59b92c76e9314e48bc2378",
    ),
    "classes-pairing": (
        ["classes", "--beta", "golden", "--bits", "1100", "--pairing"],
        "80430ec26d44ef07598b7e5d108784d26abdf0f7ff6f084cff72b1d376772ead",
        "31efe52da9f68d800af1e25a33eafe53380ae9dc9c59b92c76e9314e48bc2378",
    ),
    "tosses": (
        ["tosses", "--beta", "golden", "--s", "1", "--x", "101011"],
        "f08f388091e1784c01710b8aa51ca3a009071c61900c280b30c2634a90e2edd7",
        "c1c0b3a9c4693888e90743ab74c5282a241c143c7c01d7026469e2ad42289f19",
    ),
    "adc": (
        ["adc"] + DEVICE_ARGS + ["--tosses", "seed:3"],
        "0c6d7a8b9e6b1065b1d034a17aa0f3b72db4be5f8b51d41fcdd2b845118f54d5",
        "7b4ebf09db7abea002782def9f6d948bafc264dce1e873b965f268d9eaa56ac4",
    ),
    "pipeline": (
        ["pipeline"] + DEVICE_ARGS + ["--tosses", "zeros"],
        "4fd7bbcb69bfbd6781047c8d31326356fda8764b76fd9f074b9edc58d49f09d3",
        "07616c354b9cdaef59451dbe1a8fa03c80c0bd0ea01e6fba3ed208d0c43bdae3",
    ),
    "bounds": (
        ["bounds", "--beta", "golden", "--n", "3"],
        "997ead78cb4d7ec452e84004580e0e1e78628f3c4124234a8c294db825e1fa87",
        "3fdf06b9399319827cc616921485bd8ca18f71e3835f1fde23c510062c8beb29",
    ),
    "bounds-rational": (
        ["bounds", "--beta", "3/2"],
        "e7a1366e449dc6f7ca2ac2bdae33d9f69d68bf25092789a5fd8f48de1be6705e",
        "e005f7d52814d1e52ce2712babceb3a8920af8873d7e676cefdee8d44d926739",
    ),
    "measure": (
        ["measure", "--beta", "golden", "--m", "2", "--lo", "1", "--hi", "1"],
        "f70b94aeb67de2a5eb4bd8c2ea85128f13776cb545a661abe422b378a6cf3099",
        "839826fc05c7c053e281bb041f3f16e54df83abb8af2cba83252ca0e189736d1",
    ),
    "encode": (
        ["encode", "01", "10", "11"],
        "94cb071ea4d0c6ed11d6385b0971538a5f7a8b625c53dfb07a821b4ac067c7d6",
        "0f18c0e312ef727d66b82fe3cc7f261039f14b218b1de0ef16d3ec429de709d3",
    ),
    "decode": (
        ["decode", "--raw", "1001", "--arity", "2"],
        "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0",
        "91ebbfac1f2699e84162bd48fdf2092deac89f5bd3eb41bf0d8243d46c86bb68",
    ),
}
# argv -> stderr of a call that exits 1 with an empty stdout
NEAR_TWO = "error: brackets leave no room for the schedule; hi too close to 2"
PINNED_ERRORS = {
    "stream-base-error": (
        ["expand", "--beta", STREAM_BASE, "--s", "1/2", "--n", "4"],
        "error: base given as a bit stream has no exact value; use the stream converter",
    ),
    "domain-error": (["expand", "--beta", "3/2", "--s", "9/2", "--n", "4"], "error: value outside [0, 1/(beta-1)]"),
    "value-not-bitstring": (["enumerate", "--beta", "golden", "--s", "bits:012", "--n", "3"],
                            "error: not a bitstring: '012'"),
    "convert-non-rational": (["convert", "--beta", "golden", "--binary", "0101", "--chunks", "1"],
                             "error: convert needs a rational base; use convert-stream otherwise"),
    "base-two-error": (
        ["bounds", "--beta", "2"],
        "error: bounds: base 2 has no separation bound and no converter schedule",
    ),
    # an upper bracket within 2^-16 of 2, where the dyadic bound on log2 reaches 1
    "near-two-bounds": (["bounds", "--beta", "99999/50000"], NEAR_TWO),
    "near-two-convert-stream": (
        ["convert-stream", "--beta", "1999999/1000000", "--binary", "1011", "--chunks", "1"],
        NEAR_TWO,
    ),
    "near-two-stream-base": (
        ["convert-stream", "--beta", json.dumps({"bits": "1111111111", "lo": "3/2", "hi": "99999/50000"}),
         "--binary", "1011", "--chunks", "1"],
        NEAR_TWO,
    ),
    # golden's switch region ends at 1/(beta(beta - 1)) = 1, a rational
    # element, which prints as the rational 9/5's end 25/36 does
    "unsound-band-golden": (
        ["pipeline", "--beta", "golden", "--t", "1", "--eps", "1/10", "--s", "1/2", "--n", "8", "--tosses", "ones"],
        "error: pipeline requires a sound quantizer: band upper end 11/10 exceeds the switch region end 1",
    ),
    "unsound-band-9/5": (
        ["pipeline", "--beta", "9/5", "--t", "1", "--eps", "1/10", "--s", "1/2", "--n", "8", "--tosses", "ones"],
        "error: pipeline requires a sound quantizer: band upper end 11/10 exceeds the switch region end 25/36",
    ),
}


@pytest.mark.parametrize("mode", ["plain", "json"])
@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_pinned_output(name, mode):
    argv, plain_sha256, json_sha256 = PINNED_OUTPUTS[name]
    status, out, err = run_command(argv + (["--json"] if mode == "json" else []))
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (json_sha256 if mode == "json" else plain_sha256)


@pytest.mark.parametrize("name", list(PINNED_ERRORS))
def test_pinned_error(name):
    argv, stderr = PINNED_ERRORS[name]
    assert run_command(argv) == (1, "", stderr)


# the arguments besides --beta of every subcommand that takes one
BETA_ARGS = {
    "expand": ["--s", "1/2", "--n", "4"], "lazy": ["--s", "1/2", "--n", "4"],
    "random": ["--s", "1/2", "--n", "4", "--tosses", "seed:1"],
    "convert": ["--binary", "0101", "--chunks", "1"], "convert-stream": ["--binary", "0101", "--chunks", "1"],
    "canonicalize": ["--bits", "011"], "enumerate": ["--s", "1/2", "--n", "4"], "classes": ["--bits", "011"],
    "tosses": ["--s", "1/2", "--x", "1"], "adc": DEVICE_ARGS[2:] + ["--tosses", "ones"],
    "pipeline": DEVICE_ARGS[2:] + ["--tosses", "ones"], "bounds": [],
    "measure": ["--m", "3", "--lo", "0", "--hi", "1/2"],
}


def test_every_beta_subcommand_is_listed():
    assert set(BETA_ARGS) == {name for name, (_, _, specs, _) in COMMANDS.items() if ("--beta", {"required": True}) in specs}


LINEAR = "error: minimal polynomial must have degree >= 2; give a rational base as p/q"


# a rational base is written p/q, and a root 0 makes the polynomial reducible
@pytest.mark.parametrize("command", list(BETA_ARGS))
@pytest.mark.parametrize(
    "base, stderr",
    [
        ({"minpoly": [-3, 2], "isolating": ["5/4", "7/4"]}, LINEAR),
        ({"minpoly": [-9, 5], "isolating": ["7/4", "19/10"]}, LINEAR),
        ({"minpoly": [0, -1, -1, 1], "isolating": ["3/2", "5/3"]},
         "error: minimal polynomial has the root 0, so it is reducible"),
    ],
    ids=["3/2", "9/5", "zero-constant"],
)
def test_refused_base_objects_end_in_one_error_line(command, base, stderr):
    base = json.dumps(base)
    for extra in ([], ["--json"]):
        assert run_command([command, "--beta", base, *BETA_ARGS[command], *extra]) == (1, "", stderr)


CHILD_MEMORY = 512 << 20


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def _python_dash_m(argv, module="betaforge"):
    """`python -m <module> argv` in a child limited to CHILD_MEMORY bytes
    of address space where the platform can set one, so a call that
    outgrows it fails its test instead of exhausting the machine."""
    src = os.path.dirname(os.path.dirname(bf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_memory if os.name == "posix" else None,
    )


def test_python_dash_m_entry_point():
    done = _python_dash_m(["lazy", "--beta", "2", "--s", "3/4", "--n", "4"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "1011\n", "")


def test_python_dash_m_cli_module_prints_no_warning():
    # `import betaforge` leaves `betaforge.cli` unloaded, so runpy runs it
    # as __main__ without warning that it is already in sys.modules
    done = _python_dash_m(["lazy", "--beta", "2", "--s", "3/4", "--n", "4"], "betaforge.cli")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1011\n", "")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        # a separation bound of more digits than the interpreter prints
        (["bounds", "--beta", "golden", "--n", "800"], "error: number too long to print: more than {limit} digits\n"),
        (["convert", "--beta", "3/2", "--binary", "0101", "--chunks", "30000"],
         "error: insufficient binary bits: need at least 35099\n"),
        # an orbit of more digits than the shared cap, before any is made
        (["random", "--beta", "golden", "--s", "1", "--n", "3000000", "--tosses", "seed:1"],
         "error: 3000000 digits exceed the orbit cap ORBIT_CAP = 16384\n"),
        (["expand", "--beta", "3/2", "--s", "3/4", "--mode", "greedy", "--n", "80000"],
         "error: 80000 digits exceed the orbit cap ORBIT_CAP = 16384\n"),
        # beta^(N*n) of a base near 1 over the bit budget, before any power is built
        (["convert", "--beta", "101/100", "--binary", "0101", "--chunks", "2000"],
         "error: a^140000 would exceed the 1000000-bit budget\n"),
        # the stream converter's sigma(26) on golden (N = 27) under the same budget
        (["convert-stream", "--beta", "golden", "--binary", "0101", "--chunks", "26"],
         "error: a^702 would exceed the 1000000-bit budget\n"),
        # a listing of words past its digit guard, and a walk past the orbit cap
        (["enumerate", "--beta", "golden", "--s", "1/2", "--n", "10000"],
         "error: expansion enumeration exceeded guard 8388608 digits\n"),
        (["enumerate", "--beta", "golden", "--s", "1/2", "--n", "1000000"],
         "error: 1000000 digits exceed the orbit cap ORBIT_CAP = 16384\n"),
        (["classes", "--beta", "golden", "--bits", format(random.Random(8000).getrandbits(8000), "08000b")],
         "error: window enumeration exceeded guard 8388608 digits\n"),
        (["classes", "--beta", "golden", "--bits", format(random.Random(20000).getrandbits(20000), "020000b")],
         "error: 20000 digits exceed the orbit cap ORBIT_CAP = 16384\n"),
        # the separation bound's bplus_upper^n under the bit budget
        (["bounds", "--beta", "golden", "--n", "3000000"], "error: a^3000000 would exceed the 1000000-bit budget\n"),
        # a user preset claiming more conjugates on the unit circle than it has
        (["bounds", "--beta", "big", "--n", "12"],
         "error: BETA_FORGE_PRESETS preset 'big': k_beta must be at most 1, the degree minus 1\n"),
        # a walk whose table of weights outgrows its bit budget on a base near 1
        (["enumerate", "--beta", "101/100", "--s", "1/2", "--n", "16384"],
         "error: expansion walk table exceeded 2147483648 bits\n"),
        (["enumerate", "--beta", "1001/1000", "--s", "1/2", "--n", "16384"],
         "error: expansion walk table exceeded 2147483648 bits\n"),
        # a chunk size past the orbit cap on a base near 1: the rational
        # converter's N, and the stream schedule's N from 1 + (lo - 1)/10
        (["convert", "--beta", "100001/100000", "--binary", "1", "--chunks", "0"],
         "error: least power exceeds the orbit cap ORBIT_CAP = 16384\n"),
        (["bounds", "--beta", "10001/10000"], "error: least power exceeds the orbit cap ORBIT_CAP = 16384\n"),
        (["bounds", "--beta", '{"bits": "0000000001", "lo": "100001/100000", "hi": "3/2"}'],
         "error: least power exceeds the orbit cap ORBIT_CAP = 16384\n"),
        # a least power whose base holds 2,000 bits passes the budget first
        (["convert", "--beta", f"{10**300 + 1}/{10**300}", "--binary", "1", "--chunks", "0"],
         "error: a^502 would exceed the 1000000-bit budget\n"),
        # a base whose chunk size N = 16,983 passes the cap by 4%: the least
        # power refuses after 16 exact powers
        (["convert", "--beta", "24501/24500", "--binary", "1", "--chunks", "1"],
         "error: least power exceeds the orbit cap ORBIT_CAP = 16384\n"),
        (["bounds", "--beta", "24501/24500"], "error: least power exceeds the orbit cap ORBIT_CAP = 16384\n"),
        # the stream converter's budget refuses a_(n+1)^(N*n) while the base
        # digits are drawn, at the first 1 that gives a_(n+1) too many bits
        (["convert-stream", "--beta", "golden", "--binary", "0101", "--chunks", "2000"],
         "error: a^54000 would exceed the 1000000-bit budget\n"),
        (["convert-stream", "--beta", "3/2", "--binary", "0101", "--chunks", "20000"],
         "error: a^560000 would exceed the 1000000-bit budget\n"),
        (["convert-stream", "--beta", "golden", "--binary", "0101", "--chunks", "1000000"],
         "error: a^27000000 would exceed the 1000000-bit budget\n"),
        # the largest count the budget admits for 3/2, refused on its binary
        # prefix before the approximants past the last are built
        (["convert-stream", "--beta", "3/2", "--binary", "0101", "--chunks", "8928"],
         "error: insufficient binary bits: need at least 146235\n"),
    ],
)
def test_oversized_inputs_end_in_one_error_line(argv, stderr, monkeypatch, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if "{limit}" in stderr and not limit:
        pytest.skip("this interpreter prints integers of any length")
    if argv[2] == "big":
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"big": dict(_BUILTIN["golden"], k_beta=10**9)}))
        monkeypatch.setenv("BETA_FORGE_PRESETS", str(path))
    t0 = time.perf_counter()
    done = _python_dash_m(argv)
    assert time.perf_counter() - t0 < 5
    assert (done.returncode, done.stdout, done.stderr) == (1, "", stderr.format(limit=limit))


def test_convert_json_passes_the_print_limit_where_plain_answers():
    """`convert --json` prints each residual as an exact fraction.  On
    101/100 (N = 70) the residual after i chunks has a denominator of about
    140 i digits, 4,208 after 30 and 4,350 after 31: the default print limit
    of 4,300 digits lies between, and the plain output of 31 chunks still
    prints its 31 * 70 digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    bits = format(random.Random(31).getrandbits(31), "031b")
    argv = ["convert", "--beta", "101/100", "--binary", bits, "--chunks"]
    assert run_command([*argv, "30", "--json"])[0] == 0
    status, out, err = run_command([*argv, "31"])
    assert (status, len(out), set(out) <= {"0", "1"}, err) == (0, 2170, True, "")
    error = f"error: number too long to print: more than {limit} digits"
    assert run_command([*argv, "31", "--json"]) == (1, "", error)


def test_long_listing_of_one_word_answers():
    # the digit guard admits 2^23 / 12000 words here, and 0 has one expansion
    done = _python_dash_m(["enumerate", "--beta", "golden", "--s", "0", "--n", "12000"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "0" * 12000 + "\n", "")


def test_huge_exponent_ends_in_one_error_line():
    # Fraction("1e-100000000") alone builds a power of 10^8 digits first
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter parses integers of any length")
    t0 = time.perf_counter()
    done = _python_dash_m(["expand", "--beta", "3/2", "--s", "1e-100000000", "--n", "3"])
    assert time.perf_counter() - t0 < 2
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: number too long to parse: more than {limit} digits\n"


def test_rationals_at_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter parses integers of any length")
    error = f"error: number too long to parse: more than {limit} digits"
    # a denominator of `limit` digits parses, one more digit does not
    assert run_command(["expand", "--beta", "3/2", "--s", f"1e-{limit - 1}", "--n", "3"]) == (0, "000", "")
    assert run_command(["expand", "--beta", "3/2", "--s", f"1e-{limit}", "--n", "3"]) == (1, "", error)
    # a digit run int() would refuse, decided from the text
    assert run_command(["expand", "--beta", "3/2", "--s", "1/" + "1" * (limit + 1), "--n", "3"]) == (1, "", error)
    assert bf.parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert bf.parse_rational("0e-100000000") == 0
    base = json.dumps({"minpoly": [-1, -1, 1], "isolating": ["3/2", f"5e{limit}"]})
    assert run_command(["expand", "--beta", base, "--s", "1", "--n", "4"]) == (1, "", error)


# Help and usage output as printed when every subparser carried its
# arguments on every call: sha256 of stdout and stderr at 80 columns.
HELP_ARGVS = [["--help"]] + [[name, "--help"] for name in COMMANDS]
PINNED_HELP = {
    "--help": "f9a5b42176dceaed4cf64bc4e0371a8a5e11dfad8566e5d1e3a151fa9377cc78",
    "expand": "e462d4b1006af9cb3264a9524d89cc7dd14a73d7c334fbae80ddc8f2288ce9a3",
    "lazy": "7bd4dc4cb7653d4a828d1993aa3d6f5562fee28ea618899cddb9fb0adfa6c550",
    "random": "14159b1c2a2b6c88f4259e0cb39dd3c993746a191d32a7ec9d4dd973d8107b7f",
    "convert": "a3dfaa369f0ba852b198c211ae65c3b1aff8af455fd737732b7a7d2e0457a28c",
    "convert-stream": "c9c13b29eacd570fff5fed30122fc8f8bfb22842c575d3ed61298053f2d6bac4",
    "canonicalize": "a8af174b2960dc014584b3d71ead0746dbef3544badae48c92164b43e96ab129",
    "enumerate": "7965360cf2a04d54a4c4d40e5ac04cb5a56ec19152125192d79419ccc7780388",
    "classes": "8f931e53d035fb4498ff7f05f7a6ec29d8bad5942d428e33c629d4aa2241ee8e",
    "tosses": "3f6793103575cf8398a0e9228b005bc80bb5086ac9f46ff2d0586bed43546b7b",
    "adc": "3b4220ea09b9b825d5d6e13bcdef305232b32957e4b51f0e33e264983f39629b",
    "pipeline": "7c864fa095668ecf497729fa52d1e2870d34d8f0f9deee3694e7a6733e2dc323",
    "bounds": "cdff5b35a588ef7bf294582356eb52313f9c175871dab0a99c764a65fa3d9b2d",
    "measure": "74d5cc92ead1870b7b974ee3ef57abe497055aac8b8025fcbf839314ada132b6",
    "encode": "eb1f81cf525254d77b6baee2ae9b11aa6246f17db9b2028f4e2263559b9f00a2",
    "decode": "d1d5b6bf5adc3ad2c1419797ea24df5ddf5aba52c8b39324175423eee7bb1c4e",
}
# usage errors: argv -> sha256 of stderr (exit 2, empty stdout)
USAGE_ERRORS = [["expand", "--beta", "2"], [], ["nosuch"], ["expand", "--s"]]
PINNED_USAGE = [
    "933c19fd30fa69ddddfb8ce35b275edbf5d9ef151ef3361e6f6a9e8dab00d426",
    "dc590177bb4a38b7eb794f77991a83aff9069a9d2115355f4faef3237a9c944d",
    "0a36d8f36ba4f88931bd912ff91a42c30b8f0be0d73dad817c351e66881d3a2f",
    "9d15983420dcf434d84fe3fb2e31a32f0b4842fa6c72903458f999e386dd93cc",
]


def _argparse_exit(capsys, monkeypatch, argv, build=None):
    """(status, stdout, stderr) of a call that argparse ends itself."""
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    if build is None:
        status = run_command(argv)[0]
    else:
        with pytest.raises(SystemExit) as exc:
            build().parse_args(argv)
        status = exc.value.code
    out, err = capsys.readouterr()
    return status, out, err


def _parser_with_every_subcommand():
    """The parser as built when every subcommand got its arguments."""
    top = argparse.ArgumentParser(prog="betaforge", description=cli.__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, specs, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, **defaults)
    return top


@pytest.mark.parametrize("argv", HELP_ARGVS + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_match_the_full_parser(capsys, monkeypatch, argv):
    got = _argparse_exit(capsys, monkeypatch, argv)
    assert got == _argparse_exit(capsys, monkeypatch, argv, _parser_with_every_subcommand)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse formats help differently from Python 3.13")
def test_pinned_help_and_usage(capsys, monkeypatch):
    for argv in HELP_ARGVS:
        status, out, err = _argparse_exit(capsys, monkeypatch, argv)
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[argv[0]]
    for argv, digest in zip(USAGE_ERRORS, PINNED_USAGE):
        status, out, err = _argparse_exit(capsys, monkeypatch, argv)
        assert (status, out) == (2, "")
        assert hashlib.sha256(err.encode()).hexdigest() == digest
