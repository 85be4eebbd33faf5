"""Search-based image annotation.

Given a query image's feature vector, the engine retrieves its nearest
annotated neighbors, aggregates their keywords, maps the words onto a
synset lexicon, spreads relevance over semantic relations with a
restart walk, and scores the caller's candidate concepts.
"""

from .analysis import (
    AnalysisConfig,
    NeighborWords,
    PropagationResult,
    SynsetGraph,
    Weights,
    build_graph,
    initial_synsets,
    propagate,
    rank_synsets,
    top_n,
    word_frequencies,
)
from .annotator import (
    Annotation,
    ConceptDef,
    Dataset,
    EngineParams,
    Query,
    annotate,
    annotate_batch,
    annotate_from_words,
    annotate_words,
    load_candidate_lists,
    load_concepts,
    read_annotations,
    score_concepts,
    search_neighbor_words,
    select_top,
    write_annotations,
)
from .config import EngineConfig, PRESETS, apply_preset, load_engine_config
from .errors import DimensionMismatch, EngineError, FormatError
from .evaluation import (
    MetricsReport,
    average_precision,
    evaluate,
    format_report,
    load_ground_truth,
    sample_prf,
)
from .fvec import read_vectors, write_vectors
from .index import (
    IndexConfig,
    VectorIndex,
    build_index_from_arrays,
    load_index,
    save_index,
)
from .keywords import KeywordStore, load_keywords
from .lexicon import ALL_RELATIONS, INVERSE, RELATIONS, Lexicon, RelationType, load_lexicon
from .synth import CorpusPaths, SynthConfig, generate_corpus

__version__ = "0.1.0"
