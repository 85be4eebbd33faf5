"""Golden annotations: three fixed synthetic worlds, annotated end to end.

Test 08 shows that reruns agree with each other; this file shows that
they agree with annotation files committed under ``tests/golden/``, so
a refactor that moves one score by one printed digit fails here.

* ``exact-two-datasets``: an exact index split over two reference
  datasets (even and odd rows), with some keyword records withheld, so
  the merge across datasets and the missing-keyword path are covered.
* ``perm-prefix``: one perm-prefix index whose budget is well below
  the collection size, so the approximate filter decides the neighbors.
  It is also annotated through ``neartag annotate``, with and without a
  saved index, which must write the same bytes as the library. Its
  index's prefix columns are pinned by sha256, so a change to how
  pivots are ranked that reorders one stored entry fails here even
  where no neighbor moves.
* ``analysis``: one exact index annotated under two non-default
  analysis settings, one file each: reciprocal-rank weighting with
  uneven and zero relation weights and a low restart probability, and
  expansion depth 0 with few senses and candidates.
* ``walk.txt``: the restart walk alone on one fixed batch, every score,
  iteration count, convergence flag and mass error written with
  ``float.hex``, so a change of summation order that moves one score by
  one ulp fails here though every annotation file still matches.
* ``evaluate.txt``: the ``neartag evaluate`` report, with and without
  its per-concept table, for the ``exact-two-datasets`` annotations, so
  a change to the measures or their rounding that moves one printed
  digit fails here.

To regenerate after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py [WORLD...]`` (every world,
the walk and the report when none is named; ``walk`` names the walk and
``evaluate`` the report) and review the diff.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np
from oracles import concatenate_graphs, id_lists_from_dict, one_query_graph, random_graph

from neartag.analysis import AnalysisConfig, propagate
from neartag.annotator import (
    Dataset,
    EngineParams,
    Query,
    annotate_batch,
    load_candidate_lists,
    load_concepts,
    read_annotations,
    write_annotations,
)
from neartag.cli import main
from neartag.evaluation import evaluate, format_report, load_ground_truth
from neartag.fvec import read_vectors
from neartag.index import IndexConfig, build_index_from_arrays
from neartag.keywords import KeywordStore, load_keywords
from neartag.lexicon import RelationType, load_lexicon
from neartag.synth import SynthConfig, generate_corpus

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
WALK = "walk"
EVALUATE = "evaluate"

WORLDS = {
    "exact-two-datasets": dict(
        synth=SynthConfig(rng_seed=11, dim=16, num_concepts=12, refs_per_concept=40,
                          num_queries=40, cluster_noise_sigma=0.6, label_noise=0.2,
                          category_rate=0.1),
        index=dict(),
        k=30,
        split=True,
    ),
    "perm-prefix": dict(
        synth=SynthConfig(rng_seed=12, dim=24, num_concepts=10, refs_per_concept=50,
                          num_queries=40, cluster_noise_sigma=0.7, label_noise=0.15),
        index=dict(mode="perm-prefix", num_pivots=16, prefix_len=4,
                   candidate_budget=60, rng_seed=3),
        k=20,
        split=False,
    ),
    "analysis": dict(
        synth=SynthConfig(rng_seed=13, dim=16, num_concepts=12, refs_per_concept=30,
                          num_queries=40, cluster_noise_sigma=0.6, label_noise=0.2,
                          part_rate=0.3, category_rate=0.1),
        index=dict(),
        k=25,
        split=False,
        settings={
            "reciprocal-lambdas": AnalysisConfig(
                neighbor_weighting="reciprocal-rank", alpha=0.3,
                lambdas={RelationType.HYPERNYM: 2.0, RelationType.HYPONYM: 0.5,
                         RelationType.MERONYM: 0.0, RelationType.HOLONYM: 1.0}),
            "depth0": AnalysisConfig(expansion_depth=0, s=2, n=5),
        },
    ),
}


def golden_files(name: str) -> dict[str, AnalysisConfig]:
    """File name -> analysis setting for every golden file of world ``name``."""
    settings = WORLDS[name].get("settings")
    if settings is None:
        return {f"{name}.tsv": AnalysisConfig()}
    return {f"{name}-{label}.tsv": cfg for label, cfg in settings.items()}


def annotate_world(name: str, out_dir: str,
                   files: dict[str, AnalysisConfig] | None = None) -> None:
    """Generate world ``name`` and annotate all its queries once per
    analysis setting, writing each file into ``out_dir``.

    ``files`` maps file name to setting; it defaults to the world's
    golden files.
    """
    world = WORLDS[name]
    cfg = world["synth"]
    with tempfile.TemporaryDirectory() as root:
        paths = generate_corpus(cfg, root)
        ids, matrix = read_vectors(paths.refs)
        store = load_keywords(paths.keywords)
        lexicon = load_lexicon(paths.lexicon)
        concepts = load_concepts(paths.concepts, lexicon)
        qids, qmatrix = read_vectors(paths.queries)
        candidates = load_candidate_lists(paths.candidates)
    index_cfg = IndexConfig(dim=cfg.dim, **world["index"])
    if world["split"]:
        datasets = []
        for parity in (0, 1):
            rows = list(range(parity, len(ids), 2))
            part_ids = [ids[r] for r in rows]
            # every seventh id of each half has no keyword record
            records = {rid: words for (rid, words) in store.words_for(part_ids)[0]
                       if int(rid[-5:]) % 7 != 3}
            datasets.append(Dataset(build_index_from_arrays(part_ids, matrix[rows], index_cfg),
                                    KeywordStore(id_lists_from_dict(records))))
    else:
        datasets = [Dataset(build_index_from_arrays(ids, matrix, index_cfg), store)]
    queries = [Query(id=qid, feature=qmatrix[i], candidates=candidates[qid])
               for i, qid in enumerate(qids)]
    for file_name, analysis in (files or golden_files(name)).items():
        params = EngineParams(k=world["k"], analysis=analysis)
        annotations = annotate_batch(queries, datasets, lexicon, concepts, params)
        write_annotations(os.path.join(out_dir, file_name), annotations)


def walk_text() -> str:
    """The walk golden: one line per query of a fixed batch, with its
    iteration count, convergence (0/1), worst mass error and scores in node
    order, every float as ``float.hex``.

    The batch holds eight seeded random graphs, a graph without nodes, a
    dangling-only graph and the 2-cycle, which at alpha 0.1 stops at
    ``max_iters``; meronym edges weigh 0, so some nodes turn dangling.
    """
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, max_nodes=8)[0] for _ in range(8)]
    cycle = one_query_graph([1.0, 0.0], [(0, RelationType.HYPERNYM, 1), (1, RelationType.HYPONYM, 0)])
    batch = concatenate_graphs([*graphs[:4], one_query_graph([], []), one_query_graph([0.5, 0.3, 0.2], []),
                                *graphs[4:], cycle])
    config = AnalysisConfig(alpha=0.1, max_iters=100,
                            lambdas={RelationType.HYPERNYM: 1.0, RelationType.HYPONYM: 0.5,
                                     RelationType.MERONYM: 0.0, RelationType.HOLONYM: 2.0})
    result = propagate(batch, config)
    lines = ["# query\titerations\tconverged\tmass error\tscores"]
    for q in range(batch.queries):
        scores = " ".join(float(score).hex() for score in result.scores[batch.owner == q])
        lines.append(f"{q}\t{result.query_iterations[q]}\t{int(result.query_converged[q])}\t"
                     f"{float(result.query_mass_error[q]).hex()}\t{scores}")
    return "\n".join(lines) + "\n"


def evaluate_text() -> str:
    """The evaluate golden: ``format_report`` with the per-concept table,
    a blank line, then without it, for the ``exact-two-datasets`` golden
    annotations against that world's truth.

    No query of the world has ``w004`` as truth. Every sample that ranks
    it has its truth withheld, so ``w004`` is a ``-`` row, and the first
    sample left has empty truth.
    """
    with tempfile.TemporaryDirectory() as root:
        paths = generate_corpus(WORLDS["exact-two-datasets"]["synth"], root)
        concepts = load_concepts(paths.concepts, load_lexicon(paths.lexicon))
        truth = load_ground_truth(paths.truth, concepts)
    annotations = read_annotations(os.path.join(GOLDEN_DIR, "exact-two-datasets.tsv"))
    kept = [ann.id for ann in annotations if all(name != "w004" for name, _score in ann.ranked)]
    truth = {sample_id: truth[sample_id] for sample_id in kept}
    truth[kept[0]] = set()
    report = evaluate(annotations, truth, concepts)
    return f"{format_report(report)}\n\n{format_report(report, per_concept=False)}\n"


def _golden(file_name):
    with open(os.path.join(GOLDEN_DIR, file_name), "rb") as fh:
        return fh.read()


def _check(name, tmp_path):
    annotate_world(name, str(tmp_path))
    for file_name in golden_files(name):
        assert (tmp_path / file_name).read_bytes() == _golden(file_name), file_name


def test_golden_exact_two_datasets(tmp_path):
    _check("exact-two-datasets", tmp_path)


def test_golden_perm_prefix(tmp_path):
    _check("perm-prefix", tmp_path)


# The sha256 of the perm-prefix world's (4, 500) byte prefix columns, as the argsort of
# every row's pivot distances wrote them before the build selected each row's L + 1 nearest.
PERM_PREFIX_COLUMNS_SHA256 = "5f1d49c0a1a85fa96ea8ed48c1e9c5b96b793a83e60fd525eadebae096d933f4"


def test_golden_perm_prefix_columns():
    world = WORLDS["perm-prefix"]
    with tempfile.TemporaryDirectory() as root:
        ids, matrix = read_vectors(generate_corpus(world["synth"], root).refs)
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=world["synth"].dim, **world["index"]))
    assert index.prefixes.dtype == np.uint8 and index.prefixes.shape == (4, 500)
    assert hashlib.sha256(index.prefixes.tobytes()).hexdigest() == PERM_PREFIX_COLUMNS_SHA256


def test_golden_analysis_settings(tmp_path):
    _check("analysis", tmp_path)


def test_golden_walk():
    assert walk_text() == _golden(f"{WALK}.txt").decode()


def test_golden_evaluate():
    assert evaluate_text() == _golden(f"{EVALUATE}.txt").decode()


def test_golden_analysis_settings_differ_from_default(tmp_path):
    """Each setting of the ``analysis`` world changes the output, so its
    golden files check code that the default parameters do not reach."""
    annotate_world("analysis", str(tmp_path), {"default.tsv": AnalysisConfig()})
    default = (tmp_path / "default.tsv").read_bytes()
    for file_name in golden_files("analysis"):
        assert _golden(file_name) != default, file_name


def test_golden_perm_prefix_through_cli(tmp_path, capsys):
    """``neartag annotate`` writes the golden file, with no saved index and
    with one saved at another candidate budget (a query-time setting)."""
    paths = generate_corpus(WORLDS["perm-prefix"]["synth"], str(tmp_path))
    index_flags = ["--config", paths.engine_config, "--index-mode", "perm-prefix",
                   "--pivots", "16", "--prefix-len", "4", "--seed", "3"]
    out = tmp_path / "out.tsv"
    annotate = ["annotate", *index_flags, "--k", "20", "--budget", "60",
                "--queries", paths.queries, "--candidates", paths.candidates, "--output", str(out)]
    golden = _golden("perm-prefix.tsv")
    assert main(annotate) == 0
    assert out.read_bytes() == golden
    assert main(["build", *index_flags, "--budget", "500"]) == 0
    assert (tmp_path / "refs.index").exists()
    out.unlink()
    assert main(annotate) == 0
    capsys.readouterr()
    assert out.read_bytes() == golden


if __name__ == "__main__":
    names = sys.argv[1:] or [*WORLDS, WALK, EVALUATE]
    unknown = [world_name for world_name in names if world_name not in (*WORLDS, WALK, EVALUATE)]
    if unknown:
        sys.exit(f"unknown world(s) {', '.join(unknown)}; expected some of {', '.join(WORLDS)}, {WALK}, {EVALUATE}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for text_name, text in ((WALK, walk_text), (EVALUATE, evaluate_text)):
        if text_name in names:
            names.remove(text_name)
            with open(os.path.join(GOLDEN_DIR, f"{text_name}.txt"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text())
            print(f"wrote {text_name}.txt", file=sys.stderr)
    for world_name in names:
        annotate_world(world_name, GOLDEN_DIR)
        for file_name in golden_files(world_name):
            print(f"wrote {file_name}", file=sys.stderr)
