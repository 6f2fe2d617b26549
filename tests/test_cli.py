import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.cli import PAIRING_CAP, decode_pairing, encode_pairing, parse_tosses, run_command

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

    def test_malformed(self):
        with pytest.raises(bf.MalformedEncodingError):
            decode_pairing("111")
        with pytest.raises(bf.DomainError):
            encode_pairing([])


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

    def test_presets_file_missing(self, monkeypatch, tmp_path):
        self._with_presets(monkeypatch, tmp_path / "absent.json")

    def test_preset_without_isolating(self, monkeypatch, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"plastic": {"minpoly": [-1, -1, 0, 1], "pi_lower": "1/10", "bplus_upper": "3/2"}}))
        self._with_presets(monkeypatch, path)


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(bf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "betaforge", "lazy", "--beta", "2", "--s", "3/4", "--n", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "1011\n", "")
