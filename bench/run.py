#!/usr/bin/env python3
"""hinrec benchmark: one workload of the CLI pipeline, timed, checked, optionally traced.

    python3 bench/run.py --workload train-planted --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

A workload is a closed loop in this one process: the CLI commands run in
sequence through ``hinrec.cli.main`` (``--jobs 1``, a fixed ``--iter-limit``
or epoch count, no ``--time-limit``), repeated for ``--seconds``. ``--seed``
generates the synthetic dataset; the run seed (``--run-seed``, default 0)
fixes the split, the initializations and the search's own random draws,
so every dataset sees the same amount of search work. Every command's
outputs are checked and digested; a digest that differs from an earlier
run of the same source counts as a failed operation.

With ``--trace 0`` the end-to-end metrics are measured with no wrappers
installed. With ``--trace 1`` untraced and traced repetitions alternate:
the traced ones give the per-layer metrics (self times and counters, see
``tracing.py``). The tracing overhead is their span count times the measured
cost of one wrapped call.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the full record, with the environment, goes to ``.bench_out/results/``.
"""
from __future__ import annotations

import os

# Pinned before numpy loads so BLAS starts single-threaded.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("train-planted", "search-rms", "search-random")
PROFILE = "planted-mam"
EPOCHS = 5
ITER_LIMITS = {"search-rms": 40, "search-random": 16}
SETUP_SAMPLES = 8  # timed set-ups before the first repetition, and again after the last


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def in_unit_interval(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# Setup and commands
# ---------------------------------------------------------------------------


def setup(ds_dir: Path, profile: str, synth_seed: int, cfg):
    """Synthesize the dataset, then load, split and derive the training graph as the CLI does
    (``cli._split_for`` and ``cmd_train``), with the workload's config ``cfg``."""
    from hinrec import cli, evaluation, hin
    from hinrec.util import derive_rng, read_json

    with redirect_stdout(io.StringIO()):
        rc = cli.main(["synth", "--profile", profile, "--seed", str(synth_seed), "--out", str(ds_dir)])
    if rc != 0:
        raise RuntimeError(f"hinrec synth exited with {rc}")
    graph = hin.load_graph(ds_dir / "nodes.tsv", ds_dir / "edges.tsv", hin.HinSchema.from_file(ds_dir / "schema.txt"))
    split = evaluation.split_leave_one_out(graph.interactions(), derive_rng(cfg.seed, "split"))
    train_graph = evaluation.training_graph(graph, split, cfg.leak_guard)
    return {"graph": graph, "split": split, "train_graph": train_graph,
            "manifest": read_json(ds_dir / "manifest.json")}


def planted_sets() -> dict:
    """The sets JSON of the planted pair: user {UMU, UMAMU}, item {MUM, MAM}."""
    from hinrec import metapath as mp, synth

    def side(form, paths):
        return {"form": form, "paths": [{"relations": list(p)} for p in paths]}

    return {
        "strategy": "planted",
        "user_set": side(mp.USER_SYMMETRIC, [(synth.WATCH, synth.WATCHED), synth.PLANTED_USER_PATH]),
        "item_set": side(mp.ITEM_SYMMETRIC, [(synth.WATCHED, synth.WATCH), synth.PLANTED_ITEM_PATH]),
    }


def workload_config(args, work: Path):
    """The ``RunConfig`` the workload's commands resolve (``cli._resolve_config``).

    train-planted reads ``bench.cfg``, written here: a fixed epoch count with
    ``patience`` equal to it, so early stopping cannot change the work done.
    """
    from hinrec.config import RunConfig

    overrides = {"seed": args.run_seed}
    if args.workload != "train-planted":
        return RunConfig().with_overrides(overrides)
    path = work / "bench.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"rec_epochs = {args.epochs}\npatience = {args.epochs}\n")
    return RunConfig.from_file(path, overrides)


def commands(workload: str, ds: Path, rep_dir: Path, work: Path, run_seed: int, iter_limit: int):
    common = ["--dataset", str(ds), "--seed", str(run_seed), "--jobs", "1", "--out", str(rep_dir)]
    if workload == "train-planted":
        cfg = ["--config", str(work / "bench.cfg")]
        return [
            ("train", ["train", "--sets", str(work / "planted-sets.json"), *cfg, *common]),
            ("eval", ["eval", "--checkpoint", str(rep_dir / "model.ckpt"), "--split", "test", *cfg, *common]),
        ]
    strategy = workload.split("-", 1)[1]
    return [("search", ["search", "--strategy", strategy, "--iter-limit", str(iter_limit), *common])]


def run_command(argv: list[str], tracer, name: str) -> tuple[int, float, float]:
    """Exit code, start and end of one hinrec command."""
    from hinrec import cli

    t0 = time.perf_counter()
    try:
        with tracer.span(f"cli.{name}") if tracer else nullcontext(), redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, reported with its traceback
        logging.exception("hinrec %s raised %s", name, type(exc).__name__)
        rc = -1
    return rc, t0, time.perf_counter()


# ---------------------------------------------------------------------------
# Output checks: each returns (values reported as metrics, deterministic payload)
# ---------------------------------------------------------------------------


def parse_set(payload: dict, schema, form: str):
    from hinrec import metapath as mp

    require(payload.get("form") == form, f"set form {payload.get('form')!r} != {form!r}")
    paths = tuple(mp.MetaPath.from_relations(schema, p["relations"]) for p in payload["paths"])
    pset = mp.MetaPathSet(paths, form, schema)  # raises on duplicates or a form violation
    require(len(pset) >= 1, "empty meta-path set")
    for p, raw in zip(paths, payload["paths"]):
        require(raw.get("label", p.label()) == p.label(), f"label {raw.get('label')} != {p.label()}")
    return pset


def parse_sets(doc: dict, schema):
    from hinrec import metapath as mp

    return parse_set(doc["user_set"], schema, mp.USER_SYMMETRIC), parse_set(doc["item_set"], schema, mp.ITEM_SYMMETRIC)


def check_search(rep_dir: Path, schema, strategy: str):
    from hinrec.synth import PLANTED_ITEM_PATH, PLANTED_USER_PATH
    from hinrec.util import read_json, read_jsonl, strip_volatile

    doc = read_json(rep_dir / "sets.json")
    require(doc.get("strategy") == strategy, f"strategy {doc.get('strategy')!r} != {strategy!r}")
    user_set, item_set = parse_sets(doc, schema)
    calls = doc.get("probe_calls")
    require(isinstance(calls, int) and calls >= 1, f"probe_calls {calls!r}")
    steps = []
    if (rep_dir / "trace.jsonl").exists():
        for rec in read_jsonl(rep_dir / "trace.jsonl"):
            require(math.isfinite(rec["reward"]), f"non-finite reward {rec['reward']}")
            require(rec["probe_metric"] is None or in_unit_interval(rec["probe_metric"]),
                    f"probe metric {rec['probe_metric']} outside [0, 1]")
            steps.append(strip_volatile(rec))
    found = (user_set.contains(PLANTED_USER_PATH), item_set.contains(PLANTED_ITEM_PATH))
    values = {"probe_calls": calls, "planted_recall": sum(found) / 2}
    return values, {"user": user_set.key(), "item": item_set.key(), "probe_calls": calls, "steps": steps}


def check_train(rep_dir: Path, schema, epochs: int):
    from hinrec.util import read_json, read_jsonl

    history = list(read_jsonl(rep_dir / "history.jsonl"))
    require(len(history) == epochs, f"{len(history)} epochs recorded, expected {epochs}")
    for rec in history:
        require(math.isfinite(rec["train_loss"]), f"non-finite loss at epoch {rec['epoch']}")
        require(in_unit_interval(rec.get("val_ndcg10")), f"val NDCG@10 {rec.get('val_ndcg10')} outside [0, 1]")
    manifest = read_json(rep_dir / "manifest.json")
    best = manifest["best_val_ndcg10"]
    require(best == max(rec["val_ndcg10"] for rec in history), "best_val_ndcg10 is not the best epoch's")
    user_set, item_set = parse_sets(manifest, schema)
    checkpoint = hashlib.sha256((rep_dir / "model.ckpt").read_bytes()).hexdigest()
    payload = {
        "history": [(r["epoch"], r["train_loss"], r["val_ndcg10"]) for r in history],
        "best": (manifest["best_epoch"], best),
        "sets": (user_set.key(), item_set.key()),
        "checkpoint": checkpoint,
    }
    return {"val_ndcg10": best}, payload


def check_eval(rep_dir: Path):
    from hinrec.util import read_jsonl

    records = list(read_jsonl(rep_dir / "metrics.jsonl"))
    require(len(records) > 0, "no metrics written")
    for rec in records:
        require(rec["split"] == "test", f"split {rec['split']!r} != 'test'")
        require(in_unit_interval(rec["value"]), f"{rec['metric']}@{rec['k']} = {rec['value']} outside [0, 1]")
    table = {(r["metric"], r["k"]): r["value"] for r in records}
    require(("ndcg", 10) in table, "NDCG@10 missing")
    # One held-out item per user: NDCG@k <= HR@k, and both grow with k.
    ks = sorted({k for _, k in table})
    for k in ks:
        require(table["ndcg", k] <= table["hr", k], f"NDCG@{k} > HR@{k}")
    for lo, hi in zip(ks, ks[1:]):
        for metric in ("hr", "ndcg"):
            require(table[metric, lo] <= table[metric, hi], f"{metric}@{lo} > {metric}@{hi}")
    return {"test_ndcg10": table["ndcg", 10]}, sorted(table.items())


def check(name: str, rep_dir: Path, schema, workload: str, epochs: int):
    if name == "search":
        return check_search(rep_dir, schema, workload.split("-", 1)[1])
    if name == "train":
        return check_train(rep_dir, schema, epochs)
    return check_eval(rep_dir)


# ---------------------------------------------------------------------------
# Determinism: digests of deterministic outputs, kept per source tree
# ---------------------------------------------------------------------------


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hinrec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by source tree, workload and settings."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.known = json.loads(path.read_text()) if path.exists() else {}
        self.seen: dict[str, str] = dict(self.known.get(key, {}))

    def agrees(self, op: str, digest: str) -> bool:
        return self.seen.setdefault(op, digest) == digest

    def save(self) -> None:
        self.known[self.key] = self.seen
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Quality of the MF initialization, outside the timed commands
# ---------------------------------------------------------------------------


def mf_val_quality(data: dict, cfg) -> tuple[float, float]:
    """Validation NDCG@10 and NDCG over the whole candidate list of the MF embeddings
    ``hinrec train`` and the probe start from (same config, seed and split).

    The ``mf_pretrain`` call mirrors ``cli.cmd_train`` (and the probe's MF init
    in ``evaluation.PerformanceProbe``); a change to how they derive the MF
    init must be made here too.

    The whole-list NDCG uses every rank, not only the top 10, so it varies
    about half as much across seeds while still dropping to random level
    (about 0.14) when MF learns nothing.
    """
    from hinrec import evaluation, recommender as rec
    from hinrec.util import derive_rng

    g, split = data["train_graph"], data["split"]
    P, Q = rec.mf_pretrain(
        split.train_local(g), g.type_count(g.schema.user_type), g.type_count(g.schema.item_type),
        cfg.embed_dim, cfg.mf_epochs, cfg.mf_lr, derive_rng(cfg.seed, "mf-init"),
    )
    scorer = evaluation.embedding_scorer(g, P, Q)
    whole = cfg.n_negatives + 1
    ndcg = evaluation.evaluate(scorer, split, "validation", (10, whole), cfg.seed, cfg.n_negatives).ndcg
    return ndcg[10], ndcg[whole]


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, manifest: dict, src: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "source_hash": src,
        "profile": args.profile,
        "synth_seed": args.seed,
        "run_seed": args.run_seed,
        "iter_limit": args.iter_limit if args.workload != "train-planted" else None,
        "epochs": args.epochs if args.workload == "train-planted" else None,
        "dataset_counts": manifest["counts"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    from hinrec.util import stable_hash

    import tracing
    from hostclock import HostClock

    # ERROR: the small profile logs one "negative pool reduced" warning per user.
    logging.basicConfig(level=logging.ERROR, format="%(levelname)s %(name)s: %(message)s")
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ds = work / "dataset"
    # End-to-end times are taken at reference host speed (see hostclock.py);
    # trace mode times nothing end to end and keeps its spans free of the kernel.
    clock = None if args.trace else HostClock()
    try:
        cfg = workload_config(args, work)
        setup_s, setup_raw_s = [], []

        def timed_setups():
            # A fixed number of samples, taken before the first repetition and after
            # the last, so the median neither depends on nor sits in one phase of the run.
            intervals = []
            for _ in range(1 if args.trace else SETUP_SAMPLES):
                t0 = time.perf_counter()
                result = setup(ds, args.profile, args.seed, cfg)
                intervals.append((t0, time.perf_counter()))
            setup_raw_s.extend(b - a for a, b in intervals)
            setup_s.extend(clock.seconds(intervals) if clock else setup_raw_s[-len(intervals):])
            return result

        if clock:
            clock.start()
        data = timed_setups()
        schema = data["graph"].schema
        (work / "planted-sets.json").write_text(json.dumps(planted_sets()))

        env = environment(args, data["manifest"], source_hash())
        # Outputs are bit-identical only for the same source, libraries and settings.
        same_outputs = ("source_hash", "python", "numpy", "scipy", "profile", "synth_seed", "run_seed",
                        "iter_limit", "epochs")
        digest_key = stable_hash({"workload": args.workload, **{k: env[k] for k in same_outputs}})
        digests = DigestStore(OUT / "digests.json", digest_key)

        reps, attempted, failed, values, spans = [], 0, 0, {}, []
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            uninstall = tracing.install(tracer) if traced else None
            rep_dir = work / f"rep{len(reps)}"
            intervals = {}
            try:
                if traced:
                    with tracer.span("bench.setup"):
                        setup(ds, args.profile, args.seed, cfg)
                for name, argv in commands(args.workload, ds, rep_dir, work, args.run_seed, args.iter_limit):
                    attempted += 1
                    rc, t0, t1 = run_command(argv, tracer, name)
                    intervals[name] = (t0, t1)
                    try:
                        require(rc == 0, f"exit code {rc}")
                        got, payload = check(name, rep_dir, schema, args.workload, args.epochs)
                        digest = stable_hash(payload)
                        require(digests.agrees(name, digest), f"digest {digest} != {digests.seen[name]}")
                        values.update(got)
                    except (CheckFailed, OSError, KeyError, ValueError, TypeError) as exc:
                        print(f"FAILED {args.workload} rep {len(reps)} {name}: {exc}", file=sys.stderr)
                        failed += 1
            finally:
                if uninstall:
                    uninstall()
            raw = {name: b - a for name, (a, b) in intervals.items()}
            walls = dict(zip(intervals, clock.seconds(list(intervals.values())))) if clock else raw
            reps.append({"traced": traced, "walls": walls, "wall_s": sum(walls.values()),
                         "raw_walls": raw, "raw_wall_s": sum(raw.values()),
                         "layers": tracing.layer_metrics(tracer) if traced else None,
                         "spans": len(tracer.spans) if traced else 0})
            if traced:
                spans.extend({"rep": len(reps) - 1, "name": n, "start": s, "end": e, "parent": p}
                             for n, s, e, p in tracer.spans)
            shutil.rmtree(rep_dir, ignore_errors=True)
            # Stop before a repetition that would end past --seconds, so a run lasts
            # about --seconds whatever the host's speed; trace mode needs one of each kind.
            elapsed = time.perf_counter() - t_start
            if len(reps) >= (2 if args.trace else 1) and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        digests.save()

        untraced = [r for r in reps if not r["traced"]]
        median_wall = {name: statistics.median(r["walls"][name] for r in untraced if name in r["walls"])
                       for name in untraced[0]["walls"]}
        extra = {"failed_ratio": (failed / attempted, "ratio")}
        if args.trace:
            traced_reps = [r for r in reps if r["traced"]]
            metrics = {name: (statistics.median(r["layers"][name][0] for r in traced_reps), unit)
                       for name, (_, unit) in traced_reps[0]["layers"].items()}
            # Spans per traced repetition times the measured cost of one wrapped call:
            # the difference of traced and untraced walls is far below their noise.
            span_cost = tracing.wrapper_cost()
            spans_per_rep = statistics.median(r["spans"] for r in traced_reps)
            metrics["bench.trace_overhead_s"] = (spans_per_rep * span_cost, "s")
            extra["bench.trace_span_cost_s"] = (span_cost, "s")
            extra["bench.trace_wall_delta_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                                 - statistics.median(r["wall_s"] for r in untraced), "s")
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            timed_setups()
            clock.stop()
            mf_ndcg10, mf_ndcg = mf_val_quality(data, cfg)
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "mf_val_ndcg": (mf_ndcg, "ratio"),
            }
            extra["mf_val_ndcg10"] = (mf_ndcg10, "ratio")
            extra["wall_raw_s"] = (statistics.median(r["raw_wall_s"] for r in untraced), "s")
            extra["setup_raw_s"] = (statistics.median(setup_raw_s), "s")
            extra["host_kernel_ms"] = (1000 * clock.reference_median_s(), "ms")
            if "train" in median_wall:
                triples = args.epochs * len(data["split"].train)
                extra["train_triples_per_s"] = (triples / median_wall["train"], "triples/s")
                extra["val_ndcg10"] = (values.get("val_ndcg10", float("nan")), "ratio")
                extra["test_ndcg10"] = (values.get("test_ndcg10", float("nan")), "ratio")
            if "search" in median_wall:
                extra["probe_calls_per_s"] = (values.get("probe_calls", 0) / median_wall["search"], "calls/s")
                extra["planted_recall"] = (values.get("planted_recall", float("nan")), "ratio")

        record = {
            "workload": args.workload,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "reps": reps,
            "digests": digests.seen,
            "environment": env,
        }
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if spans:
            with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)
        return record
    finally:
        if clock:
            clock.stop()
        shutil.rmtree(work, ignore_errors=True)


def print_record(record: dict) -> None:
    print(f"== {record['workload']}: {record['attempted']} operations, {record['failed']} failed")
    for section in ("metrics", "extra"):
        for name, m in record.get(section, {}).items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print("  environment " + json.dumps(record["environment"], sort_keys=True))


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    ok = True
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--run-seed", str(args.run_seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--profile", args.profile, "--epochs", str(args.epochs)]
        if args.iter_limit is not None:
            argv += ["--iter-limit", str(args.iter_limit)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1, help="synth seed: generates the dataset")
    parser.add_argument("--run-seed", type=int, default=0, dest="run_seed", help="hinrec --seed of every command")
    parser.add_argument("--seconds", type=float, default=30.0, help="repeat the workload for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default=PROFILE, help="synth profile")
    parser.add_argument("--epochs", type=int, default=EPOCHS, help="train-planted epoch count")
    parser.add_argument("--iter-limit", type=int, dest="iter_limit", help="search iteration budget")
    args = parser.parse_args(argv)

    if not (SRC / "hinrec" / "cli.py").is_file():
        print(f"error: hinrec sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.iter_limit is None:
        args.iter_limit = ITER_LIMITS.get(args.workload, 0)

    record = run_workload(args)
    print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
