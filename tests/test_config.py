import os

import pytest

from neartag.analysis import WEIGHTING_RECIPROCAL
from neartag.annotator import EngineParams
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
from neartag.index import IndexConfig
from neartag.lexicon import ALL_RELATIONS, RelationType
from neartag.synth import SynthConfig, generate_corpus


def write(tmp_path, text):
    path = tmp_path / "engine.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_file(tmp_path):
    path = write(tmp_path, "k = 25\n# comment\nalpha = 0.7  # trailing\n\nm=7\n")
    assert parse_config_file(path) == {"k": "25", "alpha": "0.7", "m": "7"}


def test_parse_config_rejects_junk_line(tmp_path):
    with pytest.raises(FormatError, match="line 2"):
        parse_config_file(write(tmp_path, "k = 25\nwhat is this\n"))


def test_parse_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(FormatError, match="duplicate"):
        parse_config_file(write(tmp_path, "k = 25\nk = 30\n"))


def test_load_engine_config_types_and_paths(tmp_path):
    path = write(tmp_path, "\n".join([
        "dim = 16",
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
    assert cfg.dim == 16
    assert cfg.params.k == 25
    assert analysis.alpha == 0.7
    assert analysis.neighbor_weighting == WEIGHTING_RECIPROCAL
    assert analysis.relation_set == frozenset({RelationType.HYPERNYM, RelationType.HYPONYM})
    assert analysis.lambdas[RelationType.HYPERNYM] == 2.0
    assert analysis.lambdas[RelationType.MERONYM] == 1.0
    assert cfg.index_config().mode == "perm-prefix"
    assert cfg.index_config().num_pivots == 32
    # relative paths resolve against the config file's directory
    assert cfg.feature_paths == (str(tmp_path / "refs.fvec"),)
    assert cfg.lexicon_path == str(tmp_path / "lex.tsv")


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(EngineError, match="frobnicate"):
        load_engine_config(write(tmp_path, "frobnicate = 9\n"))


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
        "dim": "8", "s": "3", "n": "50", "alpha": "0.4", "tol": "1e-10",
        "index.mode": "perm-prefix", "index.pivots": "4", "index.prefix_len": "2",
        "index.budget": "10", "seed": "42",
    })
    analysis = cfg.params.analysis
    assert (analysis.s, analysis.n, analysis.alpha, analysis.tol) == (3, 50, 0.4, 1e-10)
    index = cfg.index_config()
    assert (index.dim, index.mode, index.num_pivots, index.rng_seed) == (8, "perm-prefix", 4, 42)


def test_split_index_settings_are_checked_once_combined(tmp_path):
    cfg = load_engine_config(write(tmp_path, "dim = 8\nindex.mode = perm-prefix\nindex.pivots = 4\n"))
    cfg = apply_config_values(cfg, {"index.prefix_len": "2"}, source="flag")
    assert (cfg.index_config().num_pivots, cfg.index_config().prefix_len) == (4, 2)
    cfg = apply_config_values(cfg, {"index.prefix_len": "5"}, source="flag")
    with pytest.raises(ValueError, match="prefix_len"):
        cfg.index_config()


# The settings surface as the flat EngineConfig had it: every config key, each
# engine flag with the key it sets (--lam sets lambda.<rel>), and the presets.
SURFACE_KEYS = {
    "dim", "dataset.features", "dataset.keywords", "dataset.index", "lexicon", "concepts", "output",
    "k", "m", "s", "n", "weighting", "relations", "alpha", "expansion_depth", "max_iters", "tol",
    "lambda.hypernym", "lambda.hyponym", "lambda.meronym", "lambda.holonym",
    "index.mode", "index.pivots", "index.prefix_len", "index.budget", "seed",
}
# flag -> (config key, a value to set it to)
SURFACE_FLAGS = {
    "--features": ("dataset.features", "a.fvec"), "--keywords": ("dataset.keywords", "a.tsv"),
    "--index": ("dataset.index", "a.index"), "--lexicon": ("lexicon", "lex.tsv"),
    "--concepts": ("concepts", "con.tsv"), "--output": ("output", "out.tsv"),
    "--dim": ("dim", "8"), "--k": ("k", "3"), "--m": ("m", "2"), "--s": ("s", "2"), "--n": ("n", "9"),
    "--weighting": ("weighting", "reciprocal-rank"), "--relations": ("relations", "hypernym,meronym"),
    "--alpha": ("alpha", "0.25"), "--expansion-depth": ("expansion_depth", "0"),
    "--max-iters": ("max_iters", "7"), "--tol": ("tol", "1e-06"),
    "--index-mode": ("index.mode", "perm-prefix"), "--pivots": ("index.pivots", "16"),
    "--prefix-len": ("index.prefix_len", "4"), "--budget": ("index.budget", "300"),
    "--seed": ("seed", "5"),
}
SURFACE_PRESETS = {"decaf-style", "mpeg7-style"}
COMMAND_FLAGS = {"--queries", "--candidates", "--annotations", "--truth", "--no-per-concept", "--ablation"}


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
    assert EngineConfig(dim=8).index_config() == IndexConfig(dim=8)
    assert apply_preset(EngineConfig(), "decaf-style") == EngineConfig()


def test_generate_defaults_are_synth_config_defaults(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    generate_corpus(SynthConfig(), str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
