"""Engine configuration from ``key = value`` files, presets, and flags.

Precedence, lowest to highest: built-in defaults, config file, preset,
explicit command-line flags. Every layer is a ``key = value`` dict laid
over the one before by ``apply_config_values``; ``KEYS`` says which
setting each key sets and how its text is read. Relative paths in a
config file resolve against the file's own directory, so a generated
corpus directory is self-contained.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .analysis import AnalysisConfig
from .annotator import EngineParams
from .errors import EngineError, FormatError
from .lexicon import RelationType
from .tsv import lines


@dataclass(frozen=True)
class EngineConfig:
    """Paths, the engine parameters, and the index settings other than
    ``dim``, which the commands read from the feature files (unset ones take
    IndexConfig's defaults)."""

    feature_paths: tuple[str, ...] = ()
    keyword_paths: tuple[str, ...] = ()
    index_paths: tuple[str, ...] = ()
    lexicon_path: str = ""
    concepts_path: str = ""
    output_path: str = ""
    params: EngineParams = field(default_factory=EngineParams)
    index: dict[str, object] = field(default_factory=dict)


_RELATION_NAMES = {r.value: r for r in RelationType}


def parse_relations(text: str) -> frozenset[RelationType]:
    """Parse 'hypernym,hyponym,...' (or 'none'/'' for the empty set)."""
    text = text.strip().lower()
    if text in ("", "none"):
        return frozenset()
    out = set()
    for token in text.split(","):
        token = token.strip()
        if token not in _RELATION_NAMES:
            raise EngineError(f"unknown relation {token!r} (expected {sorted(_RELATION_NAMES)} or 'none')")
        out.add(_RELATION_NAMES[token])
    return frozenset(out)


def _path(text: str, base_dir: str) -> str:
    return text if os.path.isabs(text) else os.path.normpath(os.path.join(base_dir, text))


def _paths(text: str, base_dir: str) -> tuple[str, ...]:
    return tuple(_path(p.strip(), base_dir) for p in text.split(",") if p.strip())


# Config key -> (section, field, parser). The sections are EngineConfig
# itself, its params, their analysis config, the analysis lambdas (keyed
# by relation) and the index settings. Path parsers also take the
# directory relative paths resolve against.
KEYS = {
    "dataset.features": ("config", "feature_paths", _paths),
    "dataset.keywords": ("config", "keyword_paths", _paths),
    "dataset.index": ("config", "index_paths", _paths),
    "lexicon": ("config", "lexicon_path", _path),
    "concepts": ("config", "concepts_path", _path),
    "output": ("config", "output_path", _path),
    "k": ("params", "k", int),
    "m": ("params", "m", int),
    "s": ("analysis", "s", int),
    "n": ("analysis", "n", int),
    "weighting": ("analysis", "neighbor_weighting", str),
    "relations": ("analysis", "relation_set", parse_relations),
    "alpha": ("analysis", "alpha", float),
    "expansion_depth": ("analysis", "expansion_depth", int),
    "max_iters": ("analysis", "max_iters", int),
    "tol": ("analysis", "tol", float),
    **{f"lambda.{rel.value}": ("lambdas", rel, float) for rel in RelationType},
    "index.mode": ("index", "mode", str),
    "index.pivots": ("index", "num_pivots", int),
    "index.prefix_len": ("index", "prefix_len", int),
    "index.budget": ("index", "candidate_budget", int),
    "seed": ("index", "rng_seed", int),
}


def _sections(cfg: EngineConfig) -> dict[str, dict]:
    """Each section's settings as a fresh dict; a nested section is the
    same dict as its entry in the section holding it."""
    top = dict(vars(cfg), index=dict(cfg.index))
    analysis = dict(vars(cfg.params.analysis), lambdas=dict(cfg.params.analysis.lambdas))
    return {"config": top, "params": dict(vars(cfg.params)), "analysis": analysis,
            "lambdas": analysis["lambdas"], "index": top["index"]}


def apply_config_values(base: EngineConfig, values: dict[str, str], base_dir: str = ".",
                        source: str = "config") -> EngineConfig:
    """Overlay ``key = value`` pairs onto an EngineConfig.

    The parameter dataclasses check the values once all are set; the
    index settings are checked, together, when an ``IndexConfig`` is made from them.
    """
    sections = _sections(base)
    for key, value in values.items():
        if key not in KEYS:
            raise EngineError(f"unknown {source} key {key!r}")
        section, name, parse = KEYS[key]
        try:
            sections[section][name] = parse(value, base_dir) if parse in (_path, _paths) else parse(value)
        except ValueError as exc:
            raise EngineError(f"bad value for {source} key {key!r}: {exc}") from None
    params = EngineParams(**dict(sections["params"], analysis=AnalysisConfig(**sections["analysis"])))
    return EngineConfig(**dict(sections["config"], params=params))


def _defaults(*keys: str) -> dict[str, str]:
    """Config text that sets each key back to its built-in default."""
    sections = _sections(EngineConfig())
    values = {key: sections[KEYS[key][0]][KEYS[key][1]] for key in keys}
    return {key: ",".join(sorted(rel.value for rel in v)) if isinstance(v, frozenset) else str(v)
            for key, v in values.items()}


PRESETS: dict[str, dict[str, str]] = {
    # Tuned for deep-feature representations: the engine defaults (large
    # neighborhoods, a compact synset pool, all relation types on).
    "decaf-style": _defaults("k", "n", "m", "s", "relations"),
    # Tuned for classic descriptor representations: tighter neighborhoods
    # but a broader synset pool.
    "mpeg7-style": {**_defaults("s", "relations"), "k": "25", "n": "200", "m": "7"},
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    for lineno, line in lines(path):
        line = line.split("#", 1)[0].strip()
        if "=" not in line:
            raise FormatError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise FormatError("empty key", path=path, line=lineno)
        if key in values:
            raise FormatError(f"duplicate key {key!r}", path=path, line=lineno)
        values[key] = value
    return values


def load_engine_config(path: str) -> EngineConfig:
    values = parse_config_file(path)
    return apply_config_values(EngineConfig(), values, base_dir=os.path.dirname(os.path.abspath(path)),
                               source=f"config file {path}")


def apply_preset(config: EngineConfig, name: str) -> EngineConfig:
    if name not in PRESETS:
        raise EngineError(f"unknown preset {name!r} (expected one of {sorted(PRESETS)})")
    return apply_config_values(config, PRESETS[name], source=f"preset {name}")
