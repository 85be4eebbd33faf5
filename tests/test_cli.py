import json
import os
import pathlib
import re
import subprocess

import numpy as np
import pytest

from neartag import cli
from neartag.cli import main
from neartag.fvec import write_vectors


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One small clean corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("corpus")
    rc = main(["generate", "--out", str(root), "--seed", "3", "--dim", "8",
               "--concepts", "4", "--refs", "30", "--queries", "12",
               "--sigma", "0.05", "--label-noise", "0"])
    assert rc == 0
    return str(root)


def conf(corpus):
    return os.path.join(corpus, "engine.conf")


def test_generate_created_all_files(corpus):
    for name in ("refs.fvec", "keywords.tsv", "lexicon.tsv", "concepts.tsv",
                 "queries.fvec", "candidates.tsv", "truth.tsv", "engine.conf"):
        assert os.path.exists(os.path.join(corpus, name)), name


def test_generate_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["generate", "--out", str(tmp_path / sub), "--seed", "9",
                     "--dim", "4", "--concepts", "3", "--refs", "5", "--queries", "4"]) == 0
    capsys.readouterr()
    for name in ("refs.fvec", "keywords.tsv", "queries.fvec"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_build_prints_count_dim_time(corpus, capsys):
    assert main(["build", "--config", conf(corpus)]) == 0
    out = capsys.readouterr().out
    assert "120 vectors" in out
    assert "dim 8" in out
    assert "built in" in out
    assert os.path.exists(os.path.join(corpus, "refs.index"))


def test_build_rebuild_byte_identical(corpus):
    index_path = os.path.join(corpus, "refs.index")
    assert main(["build", "--config", conf(corpus)]) == 0
    first = pathlib.Path(index_path).read_bytes()
    assert main(["build", "--config", conf(corpus)]) == 0
    assert pathlib.Path(index_path).read_bytes() == first


def test_build_missing_feature_file_exit_nonzero(tmp_path, capsys):
    rc = main(["build", "--features", str(tmp_path / "nope.fvec"),
               "--keywords", str(tmp_path / "nope.tsv"), "--index", str(tmp_path / "x.index")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "nope.fvec" in err


def test_annotate_end_to_end(corpus, capsys):
    rc = main(["annotate", "--config", conf(corpus), "--k", "10",
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    for phase in ("feature load", "similarity search", "keyword fetch", "semantic analysis"):
        assert phase in out, f"timing block missing phase {phase}"
    out_path = os.path.join(corpus, "annotations.tsv")
    assert os.path.exists(out_path)
    lines = pathlib.Path(out_path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    for line in lines:
        image_id, ranked = line.split("\t")
        entries = ranked.split(",")
        assert 1 <= len(entries) <= 5
        for e in entries:
            name, score = e.rsplit(":", 1)
            float(score)
    # collated by query id
    assert [l.split("\t")[0] for l in lines] == sorted(l.split("\t")[0] for l in lines)


def test_annotate_deterministic_output(corpus, capsys):
    out_path = os.path.join(corpus, "annotations.tsv")
    args = ["annotate", "--config", conf(corpus), "--k", "10",
            "--queries", os.path.join(corpus, "queries.fvec"),
            "--candidates", os.path.join(corpus, "candidates.tsv")]
    assert main(args) == 0
    first = pathlib.Path(out_path).read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert pathlib.Path(out_path).read_bytes() == first


def test_annotate_respects_m_flag(corpus, capsys):
    out_path = os.path.join(corpus, "annotations.tsv")
    assert main(["annotate", "--config", conf(corpus), "--k", "10", "--m", "1",
                 "--queries", os.path.join(corpus, "queries.fvec"),
                 "--candidates", os.path.join(corpus, "candidates.tsv")]) == 0
    capsys.readouterr()
    for line in pathlib.Path(out_path).read_text(encoding="utf-8").splitlines():
        assert len(line.split("\t")[1].split(",")) == 1


def test_evaluate_perfect_scores(corpus, capsys):
    assert main(["annotate", "--config", conf(corpus), "--k", "10",
                 "--queries", os.path.join(corpus, "queries.fvec"),
                 "--candidates", os.path.join(corpus, "candidates.tsv")]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--config", conf(corpus),
               "--truth", os.path.join(corpus, "truth.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mf_s_pct=100.0" in out
    assert "MF-sample" in out


def test_evaluate_malformed_annotation_file(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q00000\tw000:0.5\nq00001\tbroken-no-score\n", encoding="utf-8")
    rc = main(["evaluate", "--config", conf(corpus), "--annotations", str(bad),
               "--truth", os.path.join(corpus, "truth.tsv")])
    assert rc != 0
    assert "line 2" in capsys.readouterr().err


def test_evaluate_ablation_prints_four_rows(corpus, capsys):
    rc = main(["evaluate", "--config", conf(corpus), "--k", "10",
               "--truth", os.path.join(corpus, "truth.tsv"),
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv"),
               "--ablation"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frequency only" in out
    assert "multi-sense" in out
    assert "hierarchy" in out
    assert "parts" in out
    data_rows = [l for l in out.splitlines() if "%" not in l and l.strip() and not l.startswith("level")]
    assert len(data_rows) == 4


def test_evaluate_ablation_matches_golden(corpus, capsys):
    rc = main(["evaluate", "--config", conf(corpus), "--k", "10",
               "--truth", os.path.join(corpus, "truth.tsv"),
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv"),
               "--ablation"])
    assert rc == 0
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "ablation.txt")
    with open(golden, encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_bench_reports_phases_and_throughput(corpus, capsys):
    rc = main(["bench", "--config", conf(corpus), "--k", "10",
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    for phase in ("feature load", "similarity search", "keyword fetch", "semantic analysis"):
        assert phase in out
    assert out.splitlines()[0].split() == ["phase", "total_s", "ms/query"]
    assert "search throughput" in out
    assert "end-to-end throughput" in out


def test_bench_json_writes_the_figures_and_settings(corpus, tmp_path, capsys):
    path = tmp_path / "BENCH_x.json"
    assert main(["bench", "--config", conf(corpus), "--k", "10", "--index-mode", "perm-prefix",
                 "--pivots", "8", "--prefix-len", "3", "--budget", "50", "--index", str(tmp_path / "none.index"),
                 "--queries", os.path.join(corpus, "queries.fvec"), "--json", str(path)]) == 0
    out = capsys.readouterr().out
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"commit", "machine", "corpus", "phases", "search_qps", "end_to_end_qps"}
    assert record["commit"] is None or re.fullmatch("[0-9a-f]{40}(-dirty)?", record["commit"])
    assert set(record["machine"]) == {"cores", "python", "numpy", "blas_threads", "usable_cpus", "search_workers"}
    assert record["machine"]["numpy"] == np.__version__
    assert record["corpus"] == {"queries": 12, "k": 10, "datasets": [{"rows": 120, "dim": 8, "index": {
        "dim": 8, "mode": "perm-prefix", "num_pivots": 8, "prefix_len": 3, "candidate_budget": 50, "rng_seed": 3}}]}
    assert [row["phase"] for row in record["phases"]] == list(PHASES)
    for row in record["phases"]:
        printed = next(line.split()[-2:] for line in out.splitlines() if line.startswith(row["phase"]))
        assert [f"{row['total_s']:.3f}", f"{row['ms_per_query']:.3f}"] == printed
    assert f"search throughput: {record['search_qps']:.1f} q/s" in out
    assert f"end-to-end throughput: {record['end_to_end_qps']:.1f} q/s" in out
    assert os.listdir(tmp_path) == ["BENCH_x.json"]


def test_bench_json_is_written_whole_or_not_at_all(corpus, tmp_path, monkeypatch, capsys):
    path = tmp_path / "BENCH_x.json"
    path.write_text("the earlier record\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["bench", "--config", conf(corpus), "--k", "10",
                 "--queries", os.path.join(corpus, "queries.fvec"), "--json", str(path)]) == 2
    assert "cannot rename" in capsys.readouterr().err
    assert path.read_text(encoding="utf-8") == "the earlier record\n"
    assert os.listdir(tmp_path) == ["BENCH_x.json"]


@pytest.mark.parametrize("outcome", [OSError("no git here"), subprocess.TimeoutExpired("git", 30), 128],
                         ids=["oserror", "timeout", "rev-parse-fails"])
def test_bench_record_commit_is_none_when_git_fails(monkeypatch, outcome):
    def run(argv, **kwargs):
        if isinstance(outcome, Exception):
            raise outcome
        return subprocess.CompletedProcess(argv, outcome, stdout="", stderr="fatal: not a git repository")

    monkeypatch.setattr(subprocess, "run", run)
    assert cli._commit() is None


PHASES = ("index load", "keyword load", "lexicon load", "feature load", "similarity search",
          "keyword fetch", "semantic analysis")


def _timing_table(out):
    """The header and the (phase, cells) rows of a printed timing table, in order."""
    lines = out.splitlines()
    rows = [(phase, line[len(phase):].split()) for line in lines[1:]
            for phase in PHASES if line.startswith(phase)]
    return lines[0].split(), rows


def test_timing_table_has_load_rows_and_no_search_percentiles(corpus, capsys):
    assert main(["bench", "--config", conf(corpus), "--k", "10",
                 "--queries", os.path.join(corpus, "queries.fvec"),
                 "--candidates", os.path.join(corpus, "candidates.tsv")]) == 0
    header, rows = _timing_table(capsys.readouterr().out)
    assert header == ["phase", "total_s", "ms/query"]  # no phase is timed query by query
    assert [phase for phase, _cells in rows] == list(PHASES)
    for phase, cells in rows:
        assert len(cells) == 2, phase
        total, per_query = cells
        assert float(total) >= 0.0 and float(per_query) >= 0.0, phase


def test_annotate_and_bench_print_one_table(corpus, tmp_path, capsys):
    inputs = ["--config", conf(corpus), "--k", "10", "--queries", os.path.join(corpus, "queries.fvec"),
              "--candidates", os.path.join(corpus, "candidates.tsv")]
    out_path = tmp_path / "out.tsv"
    assert main(["annotate", *inputs, "--output", str(out_path)]) == 0
    annotate_out = capsys.readouterr().out
    assert main(["bench", *inputs, "--output", str(tmp_path / "bench.tsv")]) == 0
    bench_out = capsys.readouterr().out
    assert not (tmp_path / "bench.tsv").exists()
    tables = [_timing_table(out) for out in (annotate_out, bench_out)]
    assert [(header, [phase for phase, _ in rows]) for header, rows in tables] == \
        [(["phase", "total_s", "ms/query"], list(PHASES))] * 2
    assert f"annotated 12 queries -> {out_path} (" in annotate_out and "throughput" not in annotate_out
    assert "search throughput" in bench_out and "annotated" not in bench_out


@pytest.mark.parametrize("bad_id", ["q\t1", "q\n2", "q\r3", "#q4", " # q5", " "])
def test_annotate_refuses_a_query_id_it_could_not_read_back(corpus, tmp_path, capsys, bad_id):
    queries = str(tmp_path / "queries.fvec")
    write_vectors(queries, ["q0", bad_id], np.zeros((2, 8), dtype=np.float32))
    out_path = tmp_path / "out.tsv"
    assert main(["annotate", "--config", conf(corpus), "--k", "10", "--queries", queries,
                 "--output", str(out_path)]) == 2
    assert repr(bad_id) in capsys.readouterr().err
    assert not out_path.exists()


def test_annotate_loads_prebuilt_index(corpus, capsys):
    # build wrote refs.index; annotate must pick it up without rebuilding
    assert main(["build", "--config", conf(corpus)]) == 0
    out_path = os.path.join(corpus, "annotations.tsv")
    args = ["annotate", "--config", conf(corpus), "--k", "10",
            "--queries", os.path.join(corpus, "queries.fvec"),
            "--candidates", os.path.join(corpus, "candidates.tsv")]
    assert main(args) == 0
    from_index = pathlib.Path(out_path).read_bytes()
    os.unlink(os.path.join(corpus, "refs.index"))
    assert main(args) == 0
    capsys.readouterr()
    assert pathlib.Path(out_path).read_bytes() == from_index


def test_annotate_refuses_a_version_1_index_with_the_rebuild_message(corpus, tmp_path, capsys):
    import struct

    index_path, out_path = tmp_path / "refs.index", tmp_path / "out.tsv"
    header = struct.pack("<4sIBIqIIIQ", b"NTIX", 1, 0, 8, 0, 0, 0, 0, 1)  # the version-1 header, one row
    index_path.write_bytes(header + struct.pack("<H", 1) + b"a" + bytes(32))
    rc = main(["annotate", "--config", conf(corpus), "--index", str(index_path),
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv"), "--output", str(out_path)])
    assert rc != 0
    err = capsys.readouterr().err
    assert str(index_path) in err and "version 1" in err and "run `neartag build` again" in err
    assert not out_path.exists()


def test_flags_override_config(corpus, capsys):
    # absurd k of 1 gives a different result than the default, proving the flag lands
    rc = main(["annotate", "--config", conf(corpus), "--k", "1", "--m", "2",
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv")])
    assert rc == 0
    capsys.readouterr()


def test_preset_flag_applies(corpus, capsys):
    rc = main(["annotate", "--config", conf(corpus), "--preset", "mpeg7-style",
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv")])
    assert rc == 0
    capsys.readouterr()
    out_path = os.path.join(corpus, "annotations.tsv")
    for line in pathlib.Path(out_path).read_text(encoding="utf-8").splitlines():
        assert len(line.split("\t")[1].split(",")) <= 7  # mpeg7-style m=7


def test_unknown_config_key_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense = 1\n", encoding="utf-8")
    assert main(["build", "--config", str(bad)]) != 0
    assert "nonsense" in capsys.readouterr().err


def test_no_partial_output_on_failure(corpus, tmp_path, capsys):
    # queries with a dimensionality that cannot match: annotate fails, no output file
    out_path = str(tmp_path / "should_not_exist.tsv")
    rc = main(["annotate", "--config", conf(corpus),
               "--queries", os.path.join(corpus, "keywords.tsv"),  # not an fvec file
               "--candidates", os.path.join(corpus, "candidates.tsv"),
               "--output", out_path])
    assert rc != 0
    capsys.readouterr()
    assert not os.path.exists(out_path)


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "tol must be a finite number in (0, inf), got nan"),
    (["--lam", "hypernym=nan"], "lambda.hypernym must be a finite number in [0, inf), got nan"),
    (["--lam", "hypernym=inf"], "lambda.hypernym must be a finite number in [0, inf), got inf"),
], ids=["tol-nan", "lambda-nan", "lambda-inf"])
def test_annotate_refuses_a_non_finite_setting_before_any_output(corpus, tmp_path, capsys, flags, message):
    out_path = tmp_path / "out.tsv"
    rc = main(["annotate", "--config", conf(corpus), "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", os.path.join(corpus, "candidates.tsv"), "--output", str(out_path), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_generate_refuses_a_nan_sigma_before_writing(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--sigma", "nan"]) == 2
    assert capsys.readouterr().err == "error: cluster_noise_sigma must be a finite number in [0, inf), got nan\n"
    assert os.listdir(tmp_path) == []


def test_generate_refuses_a_negative_seed_before_making_the_directory(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: rng_seed must be an integer of at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("annotate", ["--index-mode", "exact", "--pivots", "0"], "num_pivots must be an integer of at least 1, got 0"),
    ("build", ["--index-mode", "perm-prefix", "--seed", "-1"], "rng_seed must be an integer of at least 0, got -1"),
    ("evaluate", ["--pivots", "0", "--budget", "-3"], "num_pivots must be an integer of at least 1, got 0"),
    ("evaluate", ["--index-mode", "perm-prefix", "--prefix-len", "100"],
     "prefix_len must be in [1, num_pivots=64], got 100"),
], ids=["exact-pivots-0", "build-seed-negative", "evaluate-pivots-0", "evaluate-prefix-past-pivots"])
def test_index_settings_and_dim_are_checked_in_every_command(corpus, tmp_path, capsys, command, flags, message):
    """Index sizes and seed are refused in either mode before any output; the feature file,
    which is fine, goes unnamed. The dimensionality is read from the files (see
    ``test_a_query_file_of_another_dimensionality_is_refused_naming_the_reference``)."""
    index_path, out_path, given = tmp_path / "refs.index", tmp_path / "out.tsv", tmp_path / "given.tsv"
    given.write_text("q00000\tw000:0.5\n", encoding="utf-8")
    paths = {
        "annotate": ["--queries", os.path.join(corpus, "queries.fvec"), "--output", str(out_path)],
        "build": ["--index", str(index_path)],
        "evaluate": ["--annotations", str(given), "--truth", os.path.join(corpus, "truth.tsv")],
    }[command]
    assert main([command, "--config", conf(corpus), *paths, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not index_path.exists() and not out_path.exists()


def test_annotate_query_file_with_absurd_count_exits_2(corpus, tmp_path, capsys):
    queries = tmp_path / "q.fvec"
    queries.write_bytes(b"FVEC 1 8 1000000000000000\n")
    rc = main(["annotate", "--config", conf(corpus), "--queries", str(queries),
               "--output", str(tmp_path / "out.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(queries) in err
    assert not (tmp_path / "out.tsv").exists()


def test_annotate_non_utf8_keyword_file_exits_2_naming_it(corpus, tmp_path, capsys):
    lines = pathlib.Path(corpus, "keywords.tsv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b"\t", b"\t\xff", 1)
    keywords = tmp_path / "keywords.tsv"
    keywords.write_bytes(b"\n".join(lines))
    rc = main(["annotate", "--config", conf(corpus), "--keywords", str(keywords),
               "--queries", os.path.join(corpus, "queries.fvec"),
               "--output", str(tmp_path / "out.tsv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {keywords}: line 5: not UTF-8")
    assert not (tmp_path / "out.tsv").exists()


def test_unknown_candidate_concept_fails_before_the_search(corpus, tmp_path, monkeypatch, capsys):
    import neartag.cli

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the candidate lists were checked")

    lines = pathlib.Path(corpus, "candidates.tsv").read_text(encoding="utf-8").splitlines()
    lines[2] += ",unicorn"
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(neartag.cli, "annotate_batch", no_search)
    rc = main(["annotate", "--config", conf(corpus), "--queries", os.path.join(corpus, "queries.fvec"),
               "--candidates", str(candidates), "--output", str(tmp_path / "out.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {candidates}: line 3: unknown concept 'unicorn'\n"
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("command", ["annotate", "bench"])
def test_unconverged_walks_are_reported(corpus, tmp_path, capsys, command):
    inputs = [command, "--config", conf(corpus), "--k", "10",
              "--queries", os.path.join(corpus, "queries.fvec"),
              "--candidates", os.path.join(corpus, "candidates.tsv"),
              "--output", str(tmp_path / "out.tsv")]
    assert main(inputs) == 0
    assert "before converging" not in capsys.readouterr().out
    assert main(inputs + ["--max-iters", "1"]) == 0
    assert "warning: 12 walk(s) stopped at max_iters before converging" in capsys.readouterr().out


def test_repeated_query_id_fails_before_the_search(corpus, tmp_path, monkeypatch, capsys):
    import neartag.cli
    from neartag.fvec import read_vectors, write_vectors

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the query ids were checked")

    ids, matrix = read_vectors(os.path.join(corpus, "queries.fvec"))
    queries = tmp_path / "queries.fvec"
    write_vectors(str(queries), [ids[0]] + ids[:5], matrix[:6])
    monkeypatch.setattr(neartag.cli, "annotate_batch", no_search)
    rc = main(["annotate", "--config", conf(corpus), "--queries", str(queries),
               "--output", str(tmp_path / "out.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {queries}: duplicate query id {ids[0]!r} (record 1)\n"
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("command, fault", [
    (command, fault) for command in ("build", "annotate") for fault in ("repeated-id", "wrong-dim", "bad-index-setting")
    if (command, fault) != ("build", "wrong-dim")  # build indexes each file at its own dimensionality
])
def test_bad_reference_file_is_named(corpus, tmp_path, capsys, command, fault):
    """A vector set the index refuses names the feature file; an index setting it refuses does not."""
    from neartag.fvec import read_vectors, write_vectors

    ids, matrix = read_vectors(os.path.join(corpus, "refs.fvec"))
    settings = []
    if fault == "repeated-id":
        ids[5] = ids[4]
        message = f"duplicate image id {ids[4]!r}"
    elif fault == "wrong-dim":
        matrix = matrix[:, :6]
        message = "vector lengths differ: 6 vs 8"
    else:
        settings = ["--index-mode", "perm-prefix", "--pivots", "4", "--prefix-len", "9"]
        message = "prefix_len must be in [1, num_pivots=4], got 9"
    refs = tmp_path / "refs.fvec"
    write_vectors(str(refs), ids, matrix)
    index_path, out_path = tmp_path / "refs.index", tmp_path / "out.tsv"
    argv = [command, "--config", conf(corpus), "--features", str(refs), "--index", str(index_path), *settings]
    if command == "annotate":
        argv += ["--queries", os.path.join(corpus, "queries.fvec"), "--output", str(out_path)]
    assert main(argv) == 2
    where = "" if settings else f"{refs}: "
    assert capsys.readouterr().err == f"error: {where}{message}\n"
    assert not index_path.exists() and not out_path.exists()


@pytest.mark.parametrize("reference", ["saved-index", "features"])
@pytest.mark.parametrize("command", ["annotate", "bench", "ablation"])
def test_a_query_file_of_another_dimensionality_is_refused_naming_the_reference(corpus, tmp_path, capsys,
                                                                                command, reference):
    """Every index is loaded or built at the query file's dimensionality, so the index or feature
    file that has another is named, before any output."""
    from neartag.fvec import read_vectors

    ids, matrix = read_vectors(os.path.join(corpus, "queries.fvec"))
    queries, index_path = tmp_path / "queries.fvec", tmp_path / "refs.index"
    write_vectors(str(queries), ids, matrix[:, :6])
    if reference == "saved-index":
        assert main(["build", "--config", conf(corpus), "--index", str(index_path)]) == 0
        message = f"{index_path}: index dimensionality 8 does not match the queries' 6"
    else:
        message = f"{os.path.join(corpus, 'refs.fvec')}: vector lengths differ: 8 vs 6"
    capsys.readouterr()
    before = sorted(os.listdir(tmp_path))
    inputs = ["--config", conf(corpus), "--index", str(index_path), "--queries", str(queries)]
    argv = {
        "annotate": ["annotate", *inputs, "--output", str(tmp_path / "out.tsv")],
        "bench": ["bench", *inputs, "--json", str(tmp_path / "BENCH.json")],
        "ablation": ["evaluate", *inputs, "--truth", os.path.join(corpus, "truth.tsv"), "--ablation"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_build_indexes_each_feature_file_at_its_own_dimensionality(corpus, tmp_path, capsys):
    from neartag.fvec import read_vectors
    from neartag.index import IndexConfig, load_index

    ids, matrix = read_vectors(os.path.join(corpus, "refs.fvec"))
    refs = [os.path.join(corpus, "refs.fvec"), str(tmp_path / "short.fvec")]
    write_vectors(refs[1], ids[:40], matrix[:40, :5])
    indexes = [str(tmp_path / "a.index"), str(tmp_path / "b.index")]
    keywords = os.path.join(corpus, "keywords.tsv")
    assert main(["build", "--features", refs[0], "--features", refs[1], "--keywords", keywords,
                 "--keywords", keywords, "--index", indexes[0], "--index", indexes[1]]) == 0
    out = capsys.readouterr().out
    assert "dataset 1: 120 vectors, dim 8," in out and "dataset 2: 40 vectors, dim 5," in out
    for path, dim, count in zip(indexes, (8, 5), (120, 40)):
        assert len(load_index(path, IndexConfig(dim=dim))) == count


@pytest.mark.parametrize("command", ["annotate", "bench"])
def test_an_output_in_a_missing_directory_is_reported_by_its_own_path(corpus, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.tsv"
    argv = [command, "--config", conf(corpus), "--k", "10", "--queries", os.path.join(corpus, "queries.fvec")]
    argv += ["--output", str(target)] if command == "annotate" else ["--json", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["annotate", "bench"])
def test_an_output_in_a_missing_directory_is_refused_before_any_input_is_read(corpus, tmp_path, monkeypatch,
                                                                              capsys, command):
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read before the output directory was checked")

    monkeypatch.setattr(cli, "_load_semantics", no_input)
    target = tmp_path / "missing" / "out.tsv"
    argv = [command, "--config", conf(corpus), "--queries", os.path.join(corpus, "queries.fvec")]
    argv += ["--output", str(target)] if command == "annotate" else ["--json", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(target)!r}\n")


@pytest.mark.parametrize("blas, workers, lone", [
    ({}, 1, False), ({"OPENBLAS_NUM_THREADS": "1"}, 2, False), ({}, 1, True), ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
], ids=["unset", "pinned", "lone-unset", "lone-pinned"])
def test_bench_json_records_the_usable_cpus_and_the_search_workers(corpus, tmp_path, monkeypatch, blas, workers,
                                                                   lone):
    from neartag import index as index_module
    from neartag.fvec import read_vectors

    # The corpus's 12 queries make twelve chunks of 1 at k = 10, and its 120 rows pass a chunk's tile
    # (60); a lone query's tile is cut into ranges of at least a tile's 240 values (30 rows at dim 8).
    monkeypatch.setattr(index_module, "_CHUNK", 4)
    monkeypatch.setattr(index_module, "_TILE", 240)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for var in index_module._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    queries = os.path.join(corpus, "queries.fvec")
    if lone:
        ids, matrix = read_vectors(queries)
        queries = str(tmp_path / "one.fvec")
        write_vectors(queries, ids[:1], matrix[:1])
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--config", conf(corpus), "--k", "10", "--queries", queries, "--json", str(path)]) == 0
    machine = json.loads(path.read_text(encoding="utf-8"))["machine"]
    assert (machine["usable_cpus"], machine["search_workers"]) == (2, workers)


def test_commands_share_one_pipeline(corpus, monkeypatch, capsys):
    import neartag.annotator
    import neartag.cli
    from neartag.index import VectorIndex

    calls = {"search": 0, "analysis": 0, "knn_batch": 0, "knn": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    def run(*argv):
        calls.update(dict.fromkeys(calls, 0))
        assert main([*argv, "--config", conf(corpus), "--k", "10", *inputs]) == 0
        return dict(calls)

    out_path = os.path.join(corpus, "annotations.tsv")
    inputs = ["--queries", os.path.join(corpus, "queries.fvec"),
              "--candidates", os.path.join(corpus, "candidates.tsv")]
    run("annotate")
    unpatched = pathlib.Path(out_path).read_bytes()
    search = counting("search", neartag.annotator.search_neighbor_words)
    analysis = counting("analysis", neartag.annotator.annotate_words)
    for module in (neartag.annotator, neartag.cli):
        monkeypatch.setattr(module, "search_neighbor_words", search)
        monkeypatch.setattr(module, "annotate_words", analysis)
    for method in ("knn_batch", "knn"):
        monkeypatch.setattr(VectorIndex, method, counting(method, getattr(VectorIndex, method)))
    # One dataset and 12 queries: one search and one semantic stage over the batch, the
    # ablation's search shared by its four levels.
    assert run("annotate") == {"search": 1, "analysis": 1, "knn_batch": 1, "knn": 0}
    assert pathlib.Path(out_path).read_bytes() == unpatched
    assert run("bench") == {"search": 1, "analysis": 1, "knn_batch": 1, "knn": 0}
    capsys.readouterr()
    assert run("evaluate", "--ablation", "--truth", os.path.join(corpus, "truth.tsv")) == \
        {"search": 1, "analysis": 4, "knn_batch": 1, "knn": 0}
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "ablation.txt")
    with open(golden, encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("argv, message", [
    (["annotate", "--queries", "q.fvec", "--lam", "hypernym"], "--lam expects REL=WEIGHT, got 'hypernym'"),
    (["build"], "no dataset feature files configured (dataset.features / --features)"),
    (["build", "--features", "a.fvec", "--features", "b.fvec", "--keywords", "a.tsv"],
     "2 feature file(s) but 1 keyword file(s)"),
    (["build", "--features", "a.fvec", "--keywords", "a.tsv", "--index", "a.index", "--index", "b.index"],
     "1 feature file(s) but 2 index path(s)"),
    (["build", "--features", "a.fvec", "--keywords", "a.tsv"],
     "no index output paths configured (dataset.index / --index)"),
    (["annotate", "--features", "a.fvec", "--keywords", "a.tsv", "--queries", "q.fvec"],
     "no output path configured (output / --output)"),
    (["evaluate", "--truth", "truth.tsv"], "no lexicon configured (lexicon / --lexicon)"),
    (["evaluate", "--lexicon", "lexicon.tsv", "--truth", "truth.tsv"],
     "no concept file configured (concepts / --concepts)"),
], ids=["lam-without-weight", "no-features", "keyword-count", "index-count", "build-no-index",
        "annotate-no-output", "no-lexicon", "no-concepts"])
def test_a_missing_or_mismatched_setting_is_refused_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                                             argv, message):
    """No file named here exists: each setting is refused before the first file is opened."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("ablation", [True, False], ids=["ablation-without-queries", "no-annotation-file"])
def test_evaluate_without_its_input_is_refused(corpus, capsys, ablation):
    truth = os.path.join(corpus, "truth.tsv")
    if ablation:
        argv = ["evaluate", "--config", conf(corpus), "--truth", truth, "--ablation"]
        message = "--ablation needs --queries (and usually --candidates)"
    else:  # no config file, so no configured output to fall back on
        argv = ["evaluate", "--lexicon", os.path.join(corpus, "lexicon.tsv"),
                "--concepts", os.path.join(corpus, "concepts.tsv"), "--truth", truth]
        message = "no annotation file to evaluate (--annotations or config output)"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fault", ["no-records", "other-dim", "no-concepts", "query-without-list"])
def test_queries_annotate_cannot_match_are_refused(corpus, tmp_path, capsys, fault):
    from neartag.fvec import read_vectors

    ids, matrix = read_vectors(os.path.join(corpus, "queries.fvec"))
    queries, out_path = tmp_path / "queries.fvec", tmp_path / "out.tsv"
    extra = []
    if fault == "no-records":
        write_vectors(str(queries), [], matrix[:0])
        message = f"no queries in {queries}"
    elif fault == "other-dim":  # the references, built in memory at the queries' dimensionality
        write_vectors(str(queries), ids, matrix[:, :6])
        extra = ["--index", str(tmp_path / "none.index")]
        message = f"{os.path.join(corpus, 'refs.fvec')}: vector lengths differ: 8 vs 6"
    elif fault == "no-concepts":
        write_vectors(str(queries), ids, matrix)
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("", encoding="utf-8")
        extra = ["--concepts", str(concepts)]
        message = "no candidate lists given and no concepts to fall back on"
    else:
        write_vectors(str(queries), ids, matrix)
        lines = pathlib.Path(corpus, "candidates.tsv").read_text(encoding="utf-8").splitlines()
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("\n".join(line for line in lines if not line.startswith(ids[3] + "\t")) + "\n",
                              encoding="utf-8")
        extra = ["--candidates", str(candidates)]
        message = f"query {ids[3]!r} has no candidate list in {candidates}"
    argv = ["annotate", "--config", conf(corpus), "--queries", str(queries), "--output", str(out_path), *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_queries_whose_neighbors_give_no_lexicon_word_are_reported(corpus, tmp_path, capsys):
    lines = pathlib.Path(corpus, "keywords.tsv").read_text(encoding="utf-8").splitlines()
    keywords = tmp_path / "keywords.tsv"
    keywords.write_text("".join(line.split("\t")[0] + "\tborogove\n" for line in lines), encoding="utf-8")
    rc = main(["annotate", "--config", conf(corpus), "--keywords", str(keywords), "--k", "10",
               "--queries", os.path.join(corpus, "queries.fvec"), "--output", str(tmp_path / "out.tsv")])
    assert rc == 0
    assert "warning: 12 query/queries produced no lexicon-matching keywords\n" in capsys.readouterr().out
