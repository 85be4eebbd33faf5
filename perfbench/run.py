#!/usr/bin/env python3
"""Benchmark of neartag's build, set-up, batch and single-query paths.

    python3 perfbench/run.py --workload world20k --seed 1 --seconds 30 --trace 0

One run generates the workload's corpus from --seed, times the build,
set-up and serving phases in fresh child processes, checks every output against computations made apart from the
engine, and prints each metric by name with its unit. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

``--workload all`` runs every workload, untraced and then traced, each
in its own process. ``--digest`` prints the digest of the generated
inputs instead of running. ``--tiny`` runs a tiny shape of the workload.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads here or in any child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
DEADLINE_S = 170.0

INPUT_FILES = ("refs.fvec", "keywords.tsv", "lexicon.tsv", "concepts.tsv", "queries.fvec",
               "candidates.tsv", "truth.tsv")


def metric_units(section: str) -> dict[str, str]:
    """Name and unit of each metric in one section of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[section]}


def tail_percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(work: str) -> dict[str, str]:
    out = {}
    for name in INPUT_FILES:
        with open(os.path.join(work, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    out["all"] = hashlib.sha256("".join(f"{n} {out[n]}\n" for n in INPUT_FILES).encode()).hexdigest()
    return out


def check_run(workload, work: str, serve: dict, failures) -> dict:
    """Every check of the run; returns the quality and recall figures."""
    import checks

    import neartag as nt

    k, m = nt.EngineParams().k, nt.EngineParams().m
    ids, refs = checks.read_fvec(os.path.join(work, "refs.fvec"))
    qids, qmatrix = checks.read_fvec(os.path.join(work, "queries.fvec"))
    qrow = {qid: i for i, qid in enumerate(qids)}
    scan = checks.LinearScan(ids, refs)
    exact = workload.index.get("mode", "exact") == "exact"

    sample = sorted(serve["neighbors_batch"])
    wanted = scan.topk(qmatrix[[qrow[q] for q in sample]], k)
    checked = set(serve["checked_ids"])
    recalls = []
    for qid, want in zip(sample, wanted):
        got_batch = [tuple(n) for n in serve["neighbors_batch"][qid]]
        lists = [got_batch]
        if qid in serve["neighbors_single"]:
            lists.append([tuple(n) for n in serve["neighbors_single"][qid]])
        for got in lists:
            if exact:
                checks.check_exact_search(qid, got, want, failures)
            else:
                true = scan.distances_of(qmatrix[qrow[qid]], [i for i, _ in got])
                checks.check_approximate_search(qid, got, true, k, failures)
        if qid in checked:
            recalls.append(checks.recall_at(got_batch, want, 10))
    recall = statistics.fmean(recalls)
    if not exact and recall < checks.RECALL_BAR:
        failures.run(f"recall@10 {recall:.3f} is below {checks.RECALL_BAR}")
    del scan, refs  # 300 MB at 100k x 256, freed before the CLI loads its own index

    output = os.path.join(work, "annotations.tsv")
    annotations = checks.read_annotation_file(output)
    reference = checks.ReferenceAnnotator(*(os.path.join(work, f) for f in (
        "keywords.tsv", "lexicon.tsv", "concepts.tsv", "candidates.tsv")))
    batch_ids = serve["batch_ids"]
    if sorted(annotations) != sorted(batch_ids):
        failures.run("the annotation file's query ids differ from the batch's")
    for qid in batch_ids:
        if qid in annotations:
            checks.check_properties(qid, annotations[qid], reference.candidates[qid], m, failures)
    for qid in serve["checked_ids"]:
        ranked = reference.ranked(qid, [i for i, _ in serve["neighbors_batch"][qid]])
        checks.check_scores(qid, annotations.get(qid, []), ranked, m, failures)
    for qid, ranked in serve["scores_single"].items():
        if serve["scores_batch"].get(qid) != ranked:
            failures.query(qid, "annotate and annotate_batch disagree")
    with open(output, "rb") as fh:
        library_bytes = fh.read()
    digests = set(serve["digests"]) | {hashlib.sha256(library_bytes).hexdigest()}
    if len(digests) != 1:
        failures.run(f"batch passes wrote {len(digests)} different annotation files")

    if workload.cli_check:
        cli_out = os.path.join(work, "annotations-cli.tsv")
        argv = ["annotate", "--config", os.path.join(work, "engine.conf"),
                "--queries", os.path.join(work, "queries.fvec"),
                "--candidates", os.path.join(work, "candidates.tsv"), "--output", cli_out]
        from neartag import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        with open(cli_out, "rb") as fh:
            cli_bytes = fh.read() if rc == 0 else None
        if cli_bytes != library_bytes:
            failures.run(f"`neartag annotate` (exit {rc}) wrote other bytes than the library")

    truth = checks.read_lists(os.path.join(work, "truth.tsv"))
    mf_s, map_s = checks.sample_quality(annotations, truth)
    concepts = nt.load_concepts(os.path.join(work, "concepts.tsv"),
                                nt.load_lexicon(os.path.join(work, "lexicon.tsv")))
    report = nt.evaluate(nt.read_annotations(output),
                         nt.load_ground_truth(os.path.join(work, "truth.tsv"), concepts), concepts)
    if not (abs(report.mf_s - mf_s) <= 1e-9 and abs(report.map_s - map_s) <= 1e-9):
        failures.run(f"quality disagrees with neartag.evaluate: mf_s {mf_s!r} vs {report.mf_s!r},"
                     f" map_s {map_s!r} vs {report.map_s!r}")
    return {"mf_s": 100.0 * mf_s, "map_s": 100.0 * map_s, "recall_at_10": recall}


def run_one(args) -> int:
    from phases import spawn
    from workloads import WORKLOADS, tiny

    import checks
    import neartag as nt

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    tag = f"{workload.name}{'-tiny' if args.tiny else ''}-trace{args.trace}"
    work = os.path.join(RUNS, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    nt.generate_corpus(nt.SynthConfig(rng_seed=args.seed, **workload.synth), work)
    if args.digest:
        for name, value in digest(work).items():
            print(f"{name}\t{value}")
        shutil.rmtree(work)
        return 0

    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])  # for the child processes
    first = spawn("build", "build-0", args, work, deadline - time.monotonic())
    serve = spawn("serve", "serve", args, work, deadline - time.monotonic(),
                  "--deadline", str(deadline - time.monotonic()))
    builds = [first] + serve["builds"]
    failures = checks.Failures()
    quality = check_run(workload, work, serve, failures)
    for name in ("refs.fvec", "refs.index"):
        os.remove(os.path.join(work, name))

    ops = serve["ops"]
    attempted = sum(ops.values()) + serve["raised"]
    failed = serve["raised"] + sum(ops.get(qid, 0) for qid in failures.ids)
    latencies = serve["latencies_ms"]
    if args.trace:
        layers = dict(serve["layers"], **first["layers"])
        for name, reps in first["layer_reps"].items():
            value = None if reps is None else statistics.median(
                [v for b in builds for v in b["layer_reps"][name]])
            if name in layers:  # a phase both build and set-up time, e.g. fvec.read_s
                value = None if value is None or layers[name] is None else value + layers[name]
            layers[name] = value
        units = metric_units("per_layer")
        values = {name: layers.get(name) for name in units}
        absent = sorted(name for name, value in values.items() if value is None)
        if absent:
            print(f"absent: {', '.join(absent)}", file=sys.stderr)
    else:
        figures = {
            "annotate_qps": serve["annotate_qps"],
            "latency_p50_ms": statistics.median(latencies) if latencies else None,
            "latency_tail_ms": tail_percentile(latencies, workload.tail_pct) if latencies else None,
            "setup_s": serve["setup_s"],
            "build_s": statistics.median([t for b in builds for t in b["build_reps_s"]]),
            "peak_rss_mb": serve["peak_rss_mb"],
            **quality,
        }
        units = metric_units("end_to_end")
        values = {name: figures.get(name) for name in units}

    for message in serve["errors"] + failures.run_level + failures.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, {serve['rounds']} rounds,"
          f" {len(latencies)} single-query samples (tail: p{workload.tail_pct:g})")
    for name, value in values.items():
        print(f"{name:<30} {value if value is None else f'{value:.6g}':>14} {units[name]}")
    print(f"{'attempted':<30} {attempted:>14} ops")
    print(f"{'failed':<30} {failed:>14} ops")
    print(json.dumps({
        "correct": failures.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["world20k", "desk100k", "desk100k-perm", "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated corpus")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="a tiny shape of the workload")
    parser.add_argument("--digest", action="store_true", help="print the inputs' digest and stop")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "neartag", "__init__.py")):
        print(f"error: no neartag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return run_all(args)
    from phases import PhaseError

    try:
        return run_one(args)
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
