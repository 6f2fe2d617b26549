"""What each entry point loads.  `import betaforge` loads no module;
`import betaforge.cli` loads the modules that parsing needs; each CLI
subcommand adds only its own.  The first lookup of a public name binds the
package's whole namespace at once.  The set of loaded modules is process
state, so every check runs in a fresh child interpreter."""

import json
import os
import subprocess
import sys

import pytest

import betaforge as bf

# module -> the names the package binds from it
NAMES = {
    "numerics": "AlgebraicBeta BetaForgeError BetaSpec BudgetExceededError DomainError ExactnessRequiredError "
    "ExactReal Interval MalformedContextError NumberFieldContext NumberFieldElement RationalBeta SizeGuardError "
    "StreamBeta beta_from_json beta_value ceil_log2 exact_cmp exact_float exact_floor exact_log2_bounds exact_sign "
    "floor_log2 in_approx parse_rational",
    "expand": "BitStream LandingInfo StreamExhaustedError TraceStep delta_finite expansion_domain_max greedy_expand "
    "greedy_prefix landing_threshold lazy_expand random_expand switch_region tail_bound",
    "algebraic": "ClassPartition ConjugateBounds Preset ValueClass builtin_presets equiv equiv_class get_preset "
    "is_generalized_garsia partition_words separation_bound",
    "canonical": "FastRunStats PisotWidthError canonicalize_prefixwise m_beta_bruteforce m_beta_fast",
    "multivalued": "CandidateSet WrongLengthError base_length enumerate_expansions f_1_to_all f_2_to_beta "
    "f_beta_to_2 g_beta_window nu_measure",
    "convert": "InsufficientBitsError InvariantViolation RationalConvParams RationalConversion StepDiagnostics "
    "StreamConvParams StreamConversion convert_rational convert_stream params_rational params_stream "
    "stream_from_exact",
    "tosses_adc": "PipelineResult Quantizer QuantizerCheck RunRecord adc_run branch_indices denoise_pipeline "
    "extract_tosses replay_tosses validate_quantizer",
    "pairing": "MalformedEncodingError decode_pairing encode_pairing",
    "cli": "run_command",
}
PUBLIC = set(NAMES) | {name for names in NAMES.values() for name in names.split()}
CLI = {"numerics", "expand", "algebraic", "multivalued", "cli"}


def _child(code):
    """Run `code` in a fresh interpreter; returns its JSON result (the
    variable `out`) with the betaforge modules it left loaded."""
    src = os.path.dirname(os.path.dirname(bf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tail = "\nimport json, sys\nprint(json.dumps([out, sorted(m[10:] for m in sys.modules if m.startswith('betaforge.'))]))"
    done = subprocess.run([sys.executable, "-c", "out = None\n" + code + tail], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    out, loaded = json.loads(done.stdout.splitlines()[-1])
    return out, set(loaded)


def test_import_loads_no_module():
    out, loaded = _child("import betaforge\nout = hasattr(betaforge, 'nosuch'), hasattr(betaforge, '_nosuch')")
    assert out == [False, False]
    assert loaded == set()


@pytest.mark.parametrize(
    "module, want",
    [("cli", CLI), ("multivalued", {"numerics", "expand", "algebraic", "multivalued"}), ("pairing", {"numerics", "pairing"})],
)
def test_importing_a_module_loads_only_its_imports(module, want):
    assert _child(f"import betaforge.{module}") == (None, want)


# argv -> the modules it loads past those of betaforge.cli
SUBCOMMANDS = [
    (["lazy", "--beta", "2", "--s", "3/4", "--n", "4"], set()),
    (["expand", "--beta", "3/2", "--s", "3/4", "--n", "8"], set()),
    (["random", "--beta", "golden", "--s", "1", "--n", "6", "--tosses", "101011"], set()),
    (["convert", "--beta", "3/2", "--binary", "110", "--chunks", "1"], {"convert"}),
    (["convert-stream", "--beta", "golden", "--binary", "10" * 50, "--chunks", "4"], {"convert"}),
    (["canonicalize", "--beta", "golden", "--bits", "011"], {"canonical"}),
    (["enumerate", "--beta", "golden", "--s", "1", "--n", "4"], set()),
    (["enumerate", "--beta", "golden", "--s", "1", "--n", "4", "--pairing"], {"pairing"}),
    (["classes", "--beta", "golden", "--bits", "1100"], set()),
    (["classes", "--beta", "golden", "--bits", "1100", "--pairing"], {"pairing"}),
    (["tosses", "--beta", "golden", "--s", "1", "--x", "101011"], {"tosses_adc", "canonical"}),
    (["adc", "--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", "3/4", "--n", "10", "--tosses", "zeros"],
     {"tosses_adc", "canonical"}),
    (["pipeline", "--beta", "golden", "--t", "0.809016994", "--eps", "0.19", "--s", "3/4", "--n", "24",
      "--tosses", "seed:7"], {"tosses_adc", "canonical"}),
    (["bounds", "--beta", "golden", "--n", "3"], {"convert"}),
    (["measure", "--beta", "golden", "--m", "2", "--lo", "1", "--hi", "1"], set()),
    (["encode", "0", "1"], {"pairing"}),
    (["decode", "--raw", "1001"], {"pairing"}),
]


@pytest.mark.parametrize("argv, extra", SUBCOMMANDS, ids=[" ".join(argv[:1] + argv[-1:]) for argv, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_its_modules(argv, extra):
    out, loaded = _child(f"from betaforge.cli import run_command\nout = run_command({argv!r})[0]")
    assert (out, loaded) == (0, CLI | extra)


@pytest.mark.parametrize("name", ["get_preset", "run_command", "AlgebraicBeta", "pairing"])
def test_one_lookup_binds_every_public_name(name):
    code = f"""
import betaforge
betaforge.{name}
names = {NAMES!r}
bound = {{n for n in vars(betaforge) if not n.startswith('_')}}
same = all(vars(betaforge)[n] is getattr(sys.modules['betaforge.' + m], n) for m in names for n in names[m].split())
out = sorted(bound), same
"""
    (bound, same), loaded = _child("import sys\n" + code)
    assert set(bound) == PUBLIC and same
    assert loaded == set(NAMES)


def test_star_import_gives_every_public_name():
    (names, same), loaded = _child(
        "import betaforge\nns = {}\nexec('from betaforge import *', ns)\n"
        "out = sorted(set(ns) - {'__builtins__'}), all(ns[n] is getattr(betaforge, n) for n in ns if n != '__builtins__')"
    )
    assert set(names) == PUBLIC and same
    assert loaded == set(NAMES)
