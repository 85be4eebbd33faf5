import math
import os
import re

import numpy as np
import pytest
from oracles import weights_from_lists

from neartag.analysis import WEIGHTING_RECIPROCAL, AnalysisConfig, initial_synsets, top_n
from neartag.annotator import EngineParams, select_top
from neartag.cli import _resolve_config, build_parser, main
from neartag.config import (
    KEYS,
    PRESETS,
    EngineConfig,
    apply_config_values,
    apply_preset,
    load_engine_config,
    parse_config_file,
    parse_relations,
)
from neartag.errors import EngineError, FormatError
from neartag.index import MODE_EXACT, MODE_PERM_PREFIX, IndexConfig, build_index_from_arrays
from neartag.lexicon import ALL_RELATIONS, Lexicon, RelationType
from neartag.synth import SynthConfig, generate_corpus


def write(tmp_path, text):
    path = tmp_path / "engine.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_lines(tmp_path, lines, end):
    path = tmp_path / "engine.conf"
    path.write_bytes("".join(line + end for line in lines).encode())
    return str(path)


def test_parse_config_file(tmp_path):
    path = write(tmp_path, "k = 25\n# comment\nalpha = 0.7  # trailing\n\nm=7\n")
    assert parse_config_file(path) == {"k": "25", "alpha": "0.7", "m": "7"}
    lines = ["k = 25", "", " \t ", "# comment", "  # indented", "alpha = 0.7  # trailing", "m=7"]
    for end in ("\n", "\r\n", "\r"):
        assert parse_config_file(write_lines(tmp_path, lines, end)) == {"k": "25", "alpha": "0.7", "m": "7"}


def test_parse_config_rejects_junk_line(tmp_path):
    with pytest.raises(FormatError, match="line 2"):
        parse_config_file(write(tmp_path, "k = 25\nwhat is this\n"))
    for end in ("\n", "\r\n", "\r"):
        path = write_lines(tmp_path, ["k = 25", "", "# comment", "what is this"], end)
        with pytest.raises(FormatError, match="expected 'key = value'") as exc:
            parse_config_file(path)
        assert (exc.value.path, exc.value.line) == (path, 4)


def test_parse_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(FormatError, match="duplicate"):
        parse_config_file(write(tmp_path, "k = 25\nk = 30\n"))


def test_load_engine_config_types_and_paths(tmp_path):
    path = write(tmp_path, "\n".join([
        "dataset.features = refs.fvec",
        "dataset.keywords = kw.tsv",
        "lexicon = lex.tsv",
        "concepts = con.tsv",
        "output = out.tsv",
        "k = 25",
        "alpha = 0.7",
        "weighting = reciprocal-rank",
        "relations = hypernym,hyponym",
        "lambda.hypernym = 2.0",
        "index.mode = perm-prefix",
        "index.pivots = 32",
    ]))
    cfg = load_engine_config(path)
    analysis = cfg.params.analysis
    assert cfg.params.k == 25
    assert analysis.alpha == 0.7
    assert analysis.neighbor_weighting == WEIGHTING_RECIPROCAL
    assert analysis.relation_set == frozenset({RelationType.HYPERNYM, RelationType.HYPONYM})
    assert analysis.lambdas[RelationType.HYPERNYM] == 2.0
    assert analysis.lambdas[RelationType.MERONYM] == 1.0
    assert cfg.index == {"mode": "perm-prefix", "num_pivots": 32}
    # relative paths resolve against the config file's directory
    assert cfg.feature_paths == (str(tmp_path / "refs.fvec"),)
    assert cfg.lexicon_path == str(tmp_path / "lex.tsv")


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(EngineError, match="frobnicate"):
        load_engine_config(write(tmp_path, "frobnicate = 9\n"))


def test_dim_is_refused_as_an_unknown_key(tmp_path, capsys):
    # The feature files state their dimensionality; a config file that still sets it is refused.
    path = write(tmp_path, "k = 25\ndim = 16\n")
    assert main(["annotate", "--config", path, "--queries", "q.fvec"]) == 2
    assert capsys.readouterr().err == f"error: unknown config file {path} key 'dim'\n"


def test_bad_value_names_key(tmp_path):
    with pytest.raises(EngineError, match="'k'"):
        load_engine_config(write(tmp_path, "k = banana\n"))


def test_unknown_relation_rejected():
    with pytest.raises(EngineError, match="sibling"):
        parse_relations("hypernym,sibling")


def test_relations_none():
    assert parse_relations("none") == frozenset()
    assert parse_relations("") == frozenset()


def test_preset_decaf_style():
    params = apply_preset(EngineConfig(), "decaf-style").params
    assert (params.k, params.analysis.n, params.m, params.analysis.s) == (70, 100, 5, 7)
    assert params.analysis.relation_set == ALL_RELATIONS


def test_preset_mpeg7_style():
    params = apply_preset(EngineConfig(), "mpeg7-style").params
    assert (params.k, params.analysis.n, params.m, params.analysis.s) == (25, 200, 7, 7)
    assert params.analysis.relation_set == ALL_RELATIONS


def test_preset_unknown():
    with pytest.raises(EngineError, match="unknown preset"):
        apply_preset(EngineConfig(), "espresso")


def test_overrides_stack_file_then_preset_then_flags(tmp_path):
    cfg = load_engine_config(write(tmp_path, "k = 10\nm = 3\nalpha = 0.9\n"))
    cfg = apply_preset(cfg, "mpeg7-style")  # k=25 m=7, alpha untouched
    assert (cfg.params.k, cfg.params.m, cfg.params.analysis.alpha) == (25, 7, 0.9)
    cfg = apply_config_values(cfg, {"k": "40"}, source="flag")
    assert (cfg.params.k, cfg.params.m) == (40, 7)


def test_multi_dataset_lists(tmp_path):
    cfg = load_engine_config(write(
        tmp_path, "dataset.features = a.fvec, b.fvec\ndataset.keywords = a.tsv, b.tsv\n"))
    assert len(cfg.feature_paths) == 2
    assert cfg.feature_paths[1].endswith("b.fvec")


def test_analysis_and_index_config_assembly():
    cfg = apply_config_values(EngineConfig(), {
        "s": "3", "n": "50", "alpha": "0.4", "tol": "1e-10",
        "index.mode": "perm-prefix", "index.pivots": "4", "index.prefix_len": "2",
        "index.budget": "10", "seed": "42",
    })
    analysis = cfg.params.analysis
    assert (analysis.s, analysis.n, analysis.alpha, analysis.tol) == (3, 50, 0.4, 1e-10)
    index = IndexConfig(dim=8, **cfg.index)
    assert (index.dim, index.mode, index.num_pivots, index.rng_seed) == (8, "perm-prefix", 4, 42)


def test_split_index_settings_are_checked_once_combined(tmp_path):
    cfg = load_engine_config(write(tmp_path, "index.mode = perm-prefix\nindex.pivots = 4\n"))
    cfg = apply_config_values(cfg, {"index.prefix_len": "2"}, source="flag")
    index = IndexConfig(dim=8, **cfg.index)
    assert (index.num_pivots, index.prefix_len) == (4, 2)
    cfg = apply_config_values(cfg, {"index.prefix_len": "5"}, source="flag")
    with pytest.raises(ValueError, match="prefix_len"):
        IndexConfig(dim=8, **cfg.index)


def _field(cls, name, **others):
    return lambda value: cls(**{**others, name: value})


_INDEX = build_index_from_arrays(["a", "b"], np.eye(2), IndexConfig(dim=2))
_LEXICON = Lexicon(["cat.n.1"], {"cat": ["cat.n.1"]}, set())
_WEIGHTS = weights_from_lists([[("cat", 1.0)]])
_PERM = dict(dim=2, mode=MODE_PERM_PREFIX, prefix_len=1)
_SYNTH_COUNTS = {"rng_seed": 0, "dim": 1, "num_concepts": 2, "refs_per_concept": 1, "num_queries": 1,
                 "lexicon_depth": 1, "group_size": 1, "variants_per_concept": 0, "candidates_per_query": 2}

# Where each count enters: (the name its refusal gives, the call that takes it, its floor).
COUNTS = {
    "EngineParams.k": ("k", _field(EngineParams, "k"), 1),
    "EngineParams.m": ("m", _field(EngineParams, "m"), 1),
    **{f"AnalysisConfig.{name}": (name, _field(AnalysisConfig, name), 1) for name in ("s", "n", "max_iters")},
    "AnalysisConfig.expansion_depth": ("expansion_depth", _field(AnalysisConfig, "expansion_depth"), 0),
    "IndexConfig.dim": ("dim", _field(IndexConfig, "dim"), 1),
    "IndexConfig.rng_seed": ("rng_seed", _field(IndexConfig, "rng_seed", dim=2), 0),
    **{f"IndexConfig.{name}{label}": (name, _field(IndexConfig, name, **dict(_PERM, mode=mode)), 1)
       for mode, label in ((MODE_PERM_PREFIX, ""), (MODE_EXACT, ".exact"))
       for name in ("num_pivots", "prefix_len", "candidate_budget")},
    **{f"SynthConfig.{name}": (name, _field(SynthConfig, name), low) for name, low in _SYNTH_COUNTS.items()},
    "VectorIndex.knn": ("k", lambda k: _INDEX.knn([0.0, 0.0], k), 1),
    "VectorIndex.knn_batch": ("k", lambda k: _INDEX.knn_batch(np.zeros((2, 2)), k), 1),
    "initial_synsets": ("s", lambda s: initial_synsets(_WEIGHTS, _LEXICON, s), 1),
    "top_n": ("n", lambda n: top_n(_WEIGHTS, n), 1),
    "select_top": ("m", lambda m: select_top(_WEIGHTS, m), 1),
    "Lexicon.senses": ("s", lambda s: _LEXICON.senses("cat", s), 1),
}
# Where each real value enters: (name, call, low, high, whether low itself is refused).
REALS = {
    "AnalysisConfig.alpha": ("alpha", _field(AnalysisConfig, "alpha"), 0, 1, True),
    "AnalysisConfig.tol": ("tol", _field(AnalysisConfig, "tol"), 0, math.inf, True),
    **{f"AnalysisConfig.lambdas.{rel.value}": (
        f"lambda.{rel.value}", lambda w, rel=rel: AnalysisConfig(lambdas={**AnalysisConfig().lambdas, rel: w}),
        0, math.inf, False) for rel in RelationType},
    "SynthConfig.cluster_noise_sigma": ("cluster_noise_sigma", _field(SynthConfig, "cluster_noise_sigma"),
                                        0, math.inf, False),
    **{f"SynthConfig.{name}": (name, _field(SynthConfig, name), 0, 1, False)
       for name in ("label_noise", "synonym_rate", "part_rate", "category_rate", "ambiguous_fraction")},
}


def _refused(name, call, values):
    for value in values:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as exc:
            call(value)
        assert str(exc.value).endswith(f", got {value!r}"), value


@pytest.mark.parametrize("where", [*COUNTS, *REALS])
def test_every_parameter_is_refused_where_it_enters(where):
    """A count takes an integer (a numpy one too, never a bool) at or over its floor; a real value
    takes a finite number (not a bool) in its range."""
    if where in COUNTS:
        name, call, low = COUNTS[where]
        _refused(name, call, [low + 0.5, float(low + 1), True, False, low - 1, "2", None])
        call(np.int64(low + 1))
    else:
        name, call, low, high, low_open = REALS[where]
        bad = [math.nan, math.inf, -math.inf, True, "0.5", low - 1, *[low] * low_open]
        _refused(name, call, bad + ([high + 1] if high < math.inf else []))
        call(np.float32(0.5))
        call(np.int64(1 if low_open else low))


# The settings surface as the flat EngineConfig had it: every config key, each
# engine flag with the key it sets (--lam sets lambda.<rel>), and the presets.
SURFACE_KEYS = {
    "dataset.features", "dataset.keywords", "dataset.index", "lexicon", "concepts", "output",
    "k", "m", "s", "n", "weighting", "relations", "alpha", "expansion_depth", "max_iters", "tol",
    "lambda.hypernym", "lambda.hyponym", "lambda.meronym", "lambda.holonym",
    "index.mode", "index.pivots", "index.prefix_len", "index.budget", "seed",
}
# flag -> (config key, a value to set it to)
SURFACE_FLAGS = {
    "--features": ("dataset.features", "a.fvec"), "--keywords": ("dataset.keywords", "a.tsv"),
    "--index": ("dataset.index", "a.index"), "--lexicon": ("lexicon", "lex.tsv"),
    "--concepts": ("concepts", "con.tsv"), "--output": ("output", "out.tsv"),
    "--k": ("k", "3"), "--m": ("m", "2"), "--s": ("s", "2"), "--n": ("n", "9"),
    "--weighting": ("weighting", "reciprocal-rank"), "--relations": ("relations", "hypernym,meronym"),
    "--alpha": ("alpha", "0.25"), "--expansion-depth": ("expansion_depth", "0"),
    "--max-iters": ("max_iters", "7"), "--tol": ("tol", "1e-06"),
    "--index-mode": ("index.mode", "perm-prefix"), "--pivots": ("index.pivots", "16"),
    "--prefix-len": ("index.prefix_len", "4"), "--budget": ("index.budget", "300"),
    "--seed": ("seed", "5"),
}
SURFACE_PRESETS = {"decaf-style", "mpeg7-style"}
COMMAND_FLAGS = {"--queries", "--candidates", "--annotations", "--truth", "--no-per-concept", "--ablation", "--json"}


def _engine_flags(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return {a.option_strings[-1]: a.dest for a in sub._actions
            if a.option_strings[-1] not in COMMAND_FLAGS | {"--help", "--config", "--preset"}}


def test_settings_surface_is_unchanged():
    assert set(KEYS) == SURFACE_KEYS
    assert set(PRESETS) == SURFACE_PRESETS
    expected = {flag: key for flag, (key, _) in SURFACE_FLAGS.items()} | {"--lam": "lam"}
    for command in ("build", "annotate", "evaluate", "bench"):
        assert _engine_flags(command) == expected, command
    lambda_keys = {f"lambda.{rel.value}" for rel in RelationType}
    assert set(expected.values()) - {"lam"} | lambda_keys == SURFACE_KEYS


@pytest.mark.parametrize("flag", sorted(SURFACE_FLAGS))
def test_each_flag_sets_its_key(flag):
    key, value = SURFACE_FLAGS[flag]
    args = build_parser().parse_args(["bench", "--queries", "q.fvec", flag, value])
    assert _resolve_config(args) == apply_config_values(EngineConfig(), {key: value}, base_dir=os.getcwd())
    assert _resolve_config(args) != EngineConfig()


@pytest.mark.parametrize("rel", [rel.value for rel in RelationType])
def test_lam_sets_the_lambda_keys(rel):
    args = build_parser().parse_args(["bench", "--queries", "q.fvec", "--lam", f"{rel}=2.5"])
    assert _resolve_config(args) == apply_config_values(EngineConfig(), {f"lambda.{rel}": "2.5"})
    assert _resolve_config(args).params.analysis.lambdas[RelationType(rel)] == 2.5


def test_each_default_is_stated_once():
    assert EngineConfig().params == EngineParams()
    assert EngineConfig().index == {}  # every index setting takes IndexConfig's default
    assert apply_preset(EngineConfig(), "decaf-style") == EngineConfig()


def test_generate_defaults_are_synth_config_defaults(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    generate_corpus(SynthConfig(), str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_parse_config_rejects_an_empty_key(tmp_path):
    path = write(tmp_path, "k = 25\n = 30\n")
    with pytest.raises(FormatError, match="line 2: empty key$") as exc:
        parse_config_file(path)
    assert exc.value.path == path
