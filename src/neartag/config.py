"""Engine configuration from ``key = value`` files, presets, and flags.

Precedence, lowest to highest: built-in defaults, config file, preset,
explicit command-line flags. Relative paths in a config file resolve
against the file's own directory, so a generated corpus directory is
self-contained.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .analysis import WEIGHTING_RECIPROCAL, WEIGHTING_UNIFORM, AnalysisConfig
from .errors import EngineError, FormatError
from .index import MODE_EXACT, MODE_PERM_PREFIX, IndexConfig
from .lexicon import ALL_RELATIONS, RelationType
from .tsv import decode_error


@dataclass(frozen=True)
class EngineConfig:
    dim: int = 0
    feature_paths: tuple[str, ...] = ()
    keyword_paths: tuple[str, ...] = ()
    index_paths: tuple[str, ...] = ()
    lexicon_path: str = ""
    concepts_path: str = ""
    output_path: str = ""
    k: int = 70
    m: int = 5
    s: int = 7
    n: int = 100
    weighting: str = WEIGHTING_UNIFORM
    relations: frozenset[RelationType] = ALL_RELATIONS
    lambdas: dict[RelationType, float] = field(default_factory=lambda: {r: 1.0 for r in RelationType})
    alpha: float = 0.5
    expansion_depth: int = 1
    max_iters: int = 100
    tol: float = 1e-9
    index_mode: str = MODE_EXACT
    num_pivots: int = 64
    prefix_len: int = 8
    candidate_budget: int = 2000
    seed: int = 0

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(
            s=self.s, n=self.n, neighbor_weighting=self.weighting,
            relation_set=self.relations, lambdas=dict(self.lambdas),
            alpha=self.alpha, expansion_depth=self.expansion_depth,
            max_iters=self.max_iters, tol=self.tol,
        )

    def index_config(self) -> IndexConfig:
        return IndexConfig(
            dim=self.dim, mode=self.index_mode, num_pivots=self.num_pivots,
            prefix_len=self.prefix_len, candidate_budget=self.candidate_budget,
            rng_seed=self.seed,
        )


PRESETS: dict[str, dict[str, object]] = {
    # Tuned for deep-feature representations: large neighborhoods, a
    # compact synset pool, all relation types on.
    "decaf-style": {"k": 70, "n": 100, "m": 5, "s": 7, "relations": ALL_RELATIONS},
    # Tuned for classic descriptor representations: tighter neighborhoods
    # but a broader synset pool.
    "mpeg7-style": {"k": 25, "n": 200, "m": 7, "s": 7, "relations": ALL_RELATIONS},
}

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


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
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
    except UnicodeDecodeError:
        raise decode_error(path) from None
    return values


_INT_KEYS = {
    "dim": "dim", "k": "k", "m": "m", "s": "s", "n": "n",
    "expansion_depth": "expansion_depth", "max_iters": "max_iters",
    "index.pivots": "num_pivots", "index.prefix_len": "prefix_len",
    "index.budget": "candidate_budget", "seed": "seed",
}
_FLOAT_KEYS = {"alpha": "alpha", "tol": "tol"}
_PATH_LIST_KEYS = {
    "dataset.features": "feature_paths",
    "dataset.keywords": "keyword_paths",
    "dataset.index": "index_paths",
}
_PATH_KEYS = {"lexicon": "lexicon_path", "concepts": "concepts_path", "output": "output_path"}


def apply_config_values(base: EngineConfig, values: dict[str, str], base_dir: str = ".",
                        source: str = "config") -> EngineConfig:
    """Overlay parsed key=value pairs onto an EngineConfig."""
    updates: dict[str, object] = {}
    lambdas = dict(base.lambdas)
    for key, value in values.items():
        try:
            if key in _INT_KEYS:
                updates[_INT_KEYS[key]] = int(value)
            elif key in _FLOAT_KEYS:
                updates[_FLOAT_KEYS[key]] = float(value)
            elif key in _PATH_LIST_KEYS:
                paths = tuple(
                    _resolve(base_dir, p.strip()) for p in value.split(",") if p.strip()
                )
                updates[_PATH_LIST_KEYS[key]] = paths
            elif key in _PATH_KEYS:
                updates[_PATH_KEYS[key]] = _resolve(base_dir, value)
            elif key == "weighting":
                if value not in (WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL):
                    raise EngineError(f"unknown weighting {value!r}")
                updates["weighting"] = value
            elif key == "relations":
                updates["relations"] = parse_relations(value)
            elif key == "index.mode":
                if value not in (MODE_EXACT, MODE_PERM_PREFIX):
                    raise EngineError(f"unknown index mode {value!r}")
                updates["index_mode"] = value
            elif key.startswith("lambda."):
                rel_name = key[len("lambda."):]
                if rel_name not in _RELATION_NAMES:
                    raise EngineError(f"unknown relation in key {key!r}")
                lambdas[_RELATION_NAMES[rel_name]] = float(value)
            else:
                raise EngineError(f"unknown {source} key {key!r}")
        except ValueError as exc:
            raise EngineError(f"bad value for {source} key {key!r}: {exc}") from None
    if lambdas != dict(base.lambdas):
        updates["lambdas"] = lambdas
    return replace(base, **updates)


def load_engine_config(path: str) -> EngineConfig:
    values = parse_config_file(path)
    return apply_config_values(EngineConfig(), values, base_dir=os.path.dirname(os.path.abspath(path)),
                               source=f"config file {path}")


def apply_preset(config: EngineConfig, name: str) -> EngineConfig:
    if name not in PRESETS:
        raise EngineError(f"unknown preset {name!r} (expected one of {sorted(PRESETS)})")
    return replace(config, **PRESETS[name])


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))
