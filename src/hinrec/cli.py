"""Operator surface: ingest, synth, search, train, eval, report.

Every command logs its fully resolved config (plus hash) into the output
directory. Artifacts carry the config hash and seed so the report command
can refuse to aggregate runs produced under different settings. With a
fixed seed all outputs are bit-identical across repeated runs; wall-clock
data lives in separate fields.
"""
from __future__ import annotations

import argparse
import ctypes
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import dqn, evaluation, metapath as mp, recommender as rec, search_env, synth
from .checkpoint import CheckpointError
from .config import STRATEGIES, ConfigError, RunConfig
from .hin import GraphLoadError, HinGraph, HinSchema, load_graph
from .util import append_jsonl, derive_rng, derive_seed, read_json, read_jsonl, write_json

log = logging.getLogger("hinrec")

# The cutoffs ``hinrec eval`` reports HR@k and NDCG@k at.
EVAL_KS = (1, 3, 10, 20)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, help="run seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--jobs", type=int, choices=(1,),
                        help="evaluation workers: only 1 is accepted, kept while bench/run.py passes --jobs 1")

    parser = argparse.ArgumentParser(prog="hinrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="validate TSVs into a dense-id bundle")
    p.add_argument("--schema", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a planted-structure dataset")
    p.add_argument("--profile", default="planted-mam")

    p = sub.add_parser("search", parents=[common], help="search meta-path sets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--iter-limit", type=int, dest="iter_limit",
                   help="search budget (default 480): each side gets half, which random spends in probe "
                        "calls, greedy in drawn candidates (stopping after search_env.MAX_STEPS moves) and "
                        "rms in half // search_env.MAX_STEPS training episodes")

    p = sub.add_parser("train", parents=[common], help="train the recommender on found sets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--sets", required=True, help="sets JSON produced by search")

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("validation", "test"), default="test")

    p = sub.add_parser("report", parents=[common], help="aggregate metrics across runs")
    p.add_argument("--run-dir", required=True, dest="run_dir")
    return parser


def _resolve_config(args) -> RunConfig:
    overrides = {}
    for key in ("seed", "out", "strategy", "iter_limit", "dataset"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig().with_overrides(overrides)


def _echo_config(cfg: RunConfig, out: Path) -> None:
    write_json(out / "config.json", {**cfg.as_dict(), "config_hash": cfg.config_hash()})


def _load_dataset(dataset_dir: str) -> HinGraph:
    root = Path(dataset_dir)
    bundle = root / "bundle.bin"
    if bundle.exists():
        return HinGraph.load(bundle)
    schema = HinSchema.from_file(root / "schema.txt")
    return load_graph(root / "nodes.tsv", root / "edges.tsv", schema)


def _split_for(graph: HinGraph, cfg: RunConfig) -> evaluation.SplitSet:
    return evaluation.split_leave_one_out(graph.interactions(), derive_rng(cfg.seed, "split"))


def _set_payload(pset: mp.MetaPathSet) -> dict:
    return {
        "form": pset.form,
        "paths": [{"relations": list(p.relation_ids), "label": p.label()} for p in pset],
    }


def _set_from_payload(doc: dict, key: str, source: str) -> list[list[int]]:
    """The ``key`` side of a sets file: one relation-id list per path.

    ``doc[key]`` must be an object whose ``paths`` is a non-empty list of
    objects, each with ``relations`` a non-empty list of integers. Anything
    else raises a ValueError that names ``source``, ``key`` and the fault.
    """

    def check(ok, fault: str) -> None:
        if not ok:
            raise ValueError(f"{source}: {key}: {fault}")

    check(key in doc, f"missing key '{key}'")
    check(isinstance(doc[key], dict), "expected an object")
    check("paths" in doc[key], "missing key 'paths'")
    paths = doc[key]["paths"]
    check(isinstance(paths, list), "'paths' is not a list")
    check(paths, "empty 'paths' list")
    relations = []
    for path in paths:
        check(isinstance(path, dict), "a 'paths' entry is not an object")
        check("relations" in path, "missing key 'relations'")
        rids = path["relations"]
        check(isinstance(rids, list) and rids and all(type(r) is int for r in rids),
              "'relations' is not a non-empty list of integers")
        relations.append(rids)
    return relations


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    try:
        schema = HinSchema.from_file(args.schema)
        graph = load_graph(args.nodes, args.edges, schema)
    except GraphLoadError as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    graph.save(out / "bundle.bin")
    write_json(out / "stats.json", {**graph.stats(), "config_hash": cfg.config_hash()})
    _echo_config(cfg, out)
    print(f"ingested {graph.num_nodes} nodes -> {out / 'bundle.bin'}")
    return 0


def cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    manifest = synth.write_dataset(out, args.profile, cfg.seed)
    _echo_config(cfg, out)
    print(f"wrote {manifest['counts']['interactions']} interactions to {out} (planted: {manifest['planted']})")
    return 0


def cmd_search(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    graph = _load_dataset(cfg.dataset)
    split = _split_for(graph, cfg)
    schema = graph.schema
    t0 = time.perf_counter()

    trace_path = out / "trace.jsonl"
    if trace_path.exists():
        trace_path.unlink()
    probe = evaluation.PerformanceProbe(graph, split, cfg)
    # Every set the search probes extends an initial set by accepted paths
    # only, so once both initial sets pass the density filter no probe fails.
    for form in (mp.USER_SYMMETRIC, mp.ITEM_SYMMETRIC):
        probe.side(search_env.initial_set(form, schema))
    budget = cfg.iter_limit // 2  # per side
    found = {}
    for tag, form, other in (
        ("user", mp.USER_SYMMETRIC, mp.ITEM_SYMMETRIC),
        ("item", mp.ITEM_SYMMETRIC, mp.USER_SYMMETRIC),
    ):
        env = search_env.SearchEnv(
            schema, form, probe,
            frozen_other=search_env.initial_set(other, schema),
            max_steps=search_env.MAX_STEPS,
            trace_path=str(trace_path), trace_tag=tag,
        )
        rng = derive_rng(cfg.seed, cfg.strategy, tag)
        if cfg.strategy == "rms":
            found[tag] = dqn.search(env, derive_seed(cfg.seed, "agent", tag), budget)
        elif cfg.strategy == "random":
            found[tag] = search_env.random_search(env, budget, rng)
        else:
            found[tag] = search_env.greedy_search(env, budget, rng)
    user_set, item_set = found["user"], found["item"]

    write_json(
        out / "sets.json",
        {
            "strategy": cfg.strategy,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "user_set": _set_payload(user_set),
            "item_set": _set_payload(item_set),
            "probe_calls": probe.calls,
            "probe_evaluations": probe.evaluations,
            "probe_path_tables": probe.path_tables,
            "elapsed_s": time.perf_counter() - t0,
        },
    )
    _echo_config(cfg, out)
    print(f"{cfg.strategy} found user={user_set.labels()} item={item_set.labels()}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    sets_doc = read_json(args.sets)
    if not isinstance(sets_doc, dict):
        raise ValueError(f"{args.sets}: expected a JSON object, not {type(sets_doc).__name__}")
    relations = {key: _set_from_payload(sets_doc, key, args.sets) for key in ("user_set", "item_set")}
    graph = _load_dataset(cfg.dataset)
    split = _split_for(graph, cfg)
    sets = {}
    for key, form in (("user_set", mp.USER_SYMMETRIC), ("item_set", mp.ITEM_SYMMETRIC)):
        try:  # faults only the schema can find, such as an unknown relation id
            sets[key] = mp.MetaPathSet.from_relations(graph.schema, form, relations[key])
        except ValueError as exc:
            raise ValueError(f"{args.sets}: {key}: {exc}") from exc

    probe = evaluation.PerformanceProbe(graph, split, cfg)
    try:
        model = probe.model(sets["user_set"], sets["item_set"], probe.init_base)
        result = rec.train(model, split, cfg.seed, lambda m, epoch: probe.val_ndcg(m, f"val-{epoch}"),
                           cfg.rec_epochs, cfg.patience)
    except rec.SaturatedUser as exc:  # name the user as the dataset does
        user_offset = graph.type_offsets[graph.schema.type_index(graph.schema.user_type)]
        raise rec.SaturatedUser(exc.user, exc.n_items, graph.node_names[user_offset + exc.user]) from None
    history_path = out / "history.jsonl"
    if history_path.exists():
        history_path.unlink()
    for record in result.history:
        append_jsonl(history_path, {**record, "seed": cfg.seed, "config_hash": cfg.config_hash()})
    manifest = {
        "strategy": sets_doc.get("strategy", "manual"),
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "user_set": _set_payload(model.user_side.pset),
        "item_set": _set_payload(model.item_side.pset),
        "best_epoch": result.best_epoch,
        "best_val_ndcg10": result.best_val_ndcg,
    }
    model.save(str(out / "model.ckpt"), extra_header={"seed": cfg.seed, "config_hash": cfg.config_hash()})
    write_json(out / "manifest.json", manifest)
    _echo_config(cfg, out)
    print(f"trained to best val NDCG@10 {result.best_val_ndcg:.4f} (epoch {result.best_epoch})")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    graph = _load_dataset(cfg.dataset)
    split = _split_for(graph, cfg)
    train_graph = evaluation.training_graph(graph, split, cfg.leak_guard)
    model = rec.HRecModel.load(args.checkpoint, train_graph)
    manifest_path = Path(args.checkpoint).parent / "manifest.json"
    strategy = "unknown"
    if manifest_path.exists():
        strategy = read_json(manifest_path).get("strategy", "unknown")
    metrics = evaluation.evaluate_model(
        model, split, args.split, ks=EVAL_KS, seed=cfg.seed,
        n_negatives=cfg.n_negatives,
    )
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()
    for record in metrics.as_records(
        phase="eval",
        epoch=None,
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        strategy=strategy,
        metapath_sets={
            "user": model.user_side.pset.labels(),
            "item": model.item_side.pset.labels(),
        },
    ):
        append_jsonl(metrics_path, record)
    _echo_config(cfg, out)
    for k in sorted(metrics.ks):
        print(f"{args.split} HR@{k}={metrics.hr[k]:.4f} NDCG@{k}={metrics.ndcg[k]:.4f}")
    return 0


def cmd_report(args) -> int:
    cfg = _resolve_config(args)
    run_dir = Path(args.run_dir)
    records = []
    for path in sorted(run_dir.glob("**/metrics.jsonl")):
        records.extend(read_jsonl(path))
    if not records:
        print(f"no metrics.jsonl found under {run_dir}", file=sys.stderr)
        return 1
    hashes = {r["config_hash"] for r in records}
    if len(hashes) > 1:
        print(f"refusing to aggregate mixed config hashes: {sorted(hashes)}", file=sys.stderr)
        return 1
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r["strategy"], r["split"], r["k"], r["metric"]), []).append(r["value"])
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["strategy,split,k,metric,mean,std,n"]
    print(f"{'strategy':<10} {'split':<12} {'k':>3} {'metric':<6} {'mean':>8} {'std':>8} {'n':>3}")
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        mean, std = float(vals.mean()), float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        lines.append(f"{key[0]},{key[1]},{key[2]},{key[3]},{mean:.6f},{std:.6f},{len(vals)}")
        print(f"{key[0]:<10} {key[1]:<12} {key[2]:>3} {key[3]:<6} {mean:>8.4f} {std:>8.4f} {len(vals):>3}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "search": cmd_search,
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
}


# glibc's mallopt parameters, and the thresholds main sets through them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES = 256 << 20
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's maximum on 64-bit hosts


def keep_freed_memory() -> bool:
    """Raise glibc's mmap and trim thresholds; False where that is not possible.

    Both are set, or neither: setting either one turns off glibc's dynamic
    mmap threshold, so with the trim threshold alone every array over
    128 KiB is mmapped, and faulted in, again. The trim threshold is
    therefore set only once the mmap threshold is. Without ``mallopt``
    (musl, macOS) this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


def main(argv=None) -> int:
    """Run one command; its exit status.

    The allocator policy is set here, for the whole process, and not by
    the library. Training frees each batch's tape before the next forward
    (:meth:`hinrec.autodiff.Tape.backward`), so with glibc's defaults the
    freed heap goes back to the OS and the next batch faults it in again.
    :func:`keep_freed_memory` keeps it in the process instead.
    """
    keep_freed_memory()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CheckpointError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
