import os
import pathlib

import pytest

from neartag.cli import main


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
    rc = main(["build", "--dim", "4", "--features", str(tmp_path / "nope.fvec"),
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
    assert "p50_ms" in out
    assert "search throughput" in out
    assert "end-to-end throughput" in out


def test_timing_table_has_load_rows_and_no_search_percentiles(corpus, capsys):
    assert main(["bench", "--config", conf(corpus), "--k", "10",
                 "--queries", os.path.join(corpus, "queries.fvec"),
                 "--candidates", os.path.join(corpus, "candidates.tsv")]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        for phase in ("index load", "lexicon load", "feature load", "similarity search",
                      "keyword fetch", "semantic analysis"):
            if line.startswith(phase):
                rows[phase] = line[len(phase):].split()
    assert len(rows) == 6
    for phase in ("index load", "lexicon load", "feature load", "similarity search"):
        assert rows[phase][2:] == ["-", "-", "-"], phase  # not timed query by query
    for phase in ("keyword fetch", "semantic analysis"):
        p50, p90, p99 = (float(v) for v in rows[phase][2:])
        assert 0.0 <= p50 <= p90 <= p99


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
    rc = main(["annotate", "--config", conf(corpus), "--dim", "8",
               "--queries", os.path.join(corpus, "keywords.tsv"),  # not an fvec file
               "--candidates", os.path.join(corpus, "candidates.tsv"),
               "--output", out_path])
    assert rc != 0
    capsys.readouterr()
    assert not os.path.exists(out_path)


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


def test_commands_share_one_pipeline(corpus, monkeypatch, capsys):
    import neartag.cli

    calls = []
    real = neartag.cli.annotate_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    out_path = os.path.join(corpus, "annotations.tsv")
    inputs = ["--queries", os.path.join(corpus, "queries.fvec"),
              "--candidates", os.path.join(corpus, "candidates.tsv")]
    assert main(["annotate", "--config", conf(corpus), "--k", "10", *inputs]) == 0
    unpatched = pathlib.Path(out_path).read_bytes()
    monkeypatch.setattr(neartag.cli, "annotate_batch", counting)
    assert main(["annotate", "--config", conf(corpus), "--k", "10", *inputs]) == 0
    assert len(calls) == 1
    assert pathlib.Path(out_path).read_bytes() == unpatched
    assert main(["bench", "--config", conf(corpus), "--k", "10", *inputs]) == 0
    assert len(calls) == 2
    capsys.readouterr()
    assert main(["evaluate", "--config", conf(corpus), "--k", "10", *inputs, "--ablation",
                 "--truth", os.path.join(corpus, "truth.tsv")]) == 0
    assert len(calls) == 6
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "ablation.txt")
    with open(golden, encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()
