"""HRec: two-level attention over meta-path subgraphs with BPR training.

User and item embeddings (initialized by BPR matrix factorization) are
projected per node type, aggregated over each meta-path subgraph with
node-level attention, fused across meta-paths with a second attention
layer, and scored by inner product. All gradients flow through the local
reverse-mode tape in :mod:`hinrec.autodiff`; there is no framework
underneath.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy.special import expit

from . import metapath as mp
from .autodiff import Tape, Var, activation, activation_fn
from .checkpoint import CheckpointError, check_arrays, load_arrays, save_arrays
from .hin import HinGraph
from .util import derive_rng

log = logging.getLogger(__name__)


class AllPathsRejected(RuntimeError):
    """Every path of a set produced an over-dense (rejected) subgraph."""


@dataclass(frozen=True)
class HRecConfig:
    """HRec hyperparameters.

    ``density_threshold`` applies when sides are built from candidate sets
    (training, the probe); a reloaded checkpoint keeps its stored paths.
    """

    d: int = 64
    att_hidden: int = 32
    heads: int = 1
    dropout: float = 0.1
    fanout: int = 20
    lr: float = 0.01
    batch_size: int = 1024
    epochs: int = 30
    patience: int = 3
    density_threshold: float = 0.5
    self_loops: bool = True
    score_act: str = "leaky_relu"
    agg_act: str = "elu"
    fuse_act: str = "tanh"

    @classmethod
    def from_run(cls, run, **overrides) -> "HRecConfig":
        """The HRec settings of a :class:`~hinrec.config.RunConfig`; ``overrides`` win."""
        renamed = {"d": run.embed_dim, "lr": run.rec_lr, "batch_size": run.rec_batch, "epochs": run.rec_epochs}
        same = {f.name: getattr(run, f.name) for f in fields(cls) if f.name not in renamed}
        return cls(**{**same, **renamed, **overrides})


# Training-loop settings; a checkpoint's header stores every other HRecConfig field.
_TRAINING_ONLY = ("lr", "batch_size", "epochs", "patience")


@dataclass
class SideBundle:
    """Density-accepted paths of one form plus their materialized subgraphs."""

    form: str
    node_type: str
    offset: int
    m: int
    pset: mp.MetaPathSet
    subgraphs: list[mp.MetaPathSubgraph]


def build_side(
    graph: HinGraph,
    pset: mp.MetaPathSet,
    threshold: float = 0.5,
    self_loops: bool = True,
    materialize=None,
) -> SideBundle:
    """Filter a path set by subgraph density and bundle the survivors.

    ``materialize`` may override subgraph construction (the probe passes a
    cached version). Raises :class:`AllPathsRejected` when nothing passes.
    ``threshold=None`` keeps every path: :meth:`HRecModel.load` rebuilds
    already-accepted sets that way instead of filtering them again.
    """
    if materialize is None:
        materialize = lambda path: mp.materialize_subgraph(graph, path, threshold, self_loops)
    accepted: list[mp.MetaPath] = []
    subgraphs: list[mp.MetaPathSubgraph] = []
    for path in pset:
        sg = materialize(path)
        if sg is None:
            log.debug("density-rejected %s", path.label())
            continue
        accepted.append(path)
        subgraphs.append(sg)
    if not accepted:
        raise AllPathsRejected(f"all paths rejected by density filter: {pset.labels()}")
    node_type = accepted[0].end_type
    t_idx = graph.schema.type_index(node_type)
    return SideBundle(
        pset.form or "",
        node_type,
        int(graph.type_offsets[t_idx]),
        graph.type_count(node_type),
        pset.replace(tuple(accepted)),
        subgraphs,
    )


# ---------------------------------------------------------------------------
# Reference operations (plain numpy, mirror the formulas one-to-one)
# ---------------------------------------------------------------------------


def project(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Type-specific projection z = W x."""
    return W @ x


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def node_attention(
    a: np.ndarray,
    z_i: np.ndarray,
    neighbors: list[tuple[int, np.ndarray]],
    score_act: str = "leaky_relu",
    agg_act: str = "elu",
) -> tuple[np.ndarray, np.ndarray]:
    """Attention over one node's neighbor list.

    Scores come from the concatenation [z_i | z_j]; they are normalized
    with softmax and the neighbors' projected embeddings are aggregated
    under the configured activation. Scores are directional: e_ij need
    not equal e_ji.
    """
    if not neighbors:
        raise ValueError("node_attention requires a non-empty neighbor list")
    zs = np.stack([z for _, z in neighbors])
    cat = np.concatenate([np.broadcast_to(z_i, zs.shape), zs], axis=1)
    e = activation_fn(score_act)(cat @ a)
    alpha = _softmax(e)
    h = activation_fn(agg_act)(alpha @ zs)
    return alpha, h


def path_attention(
    W: np.ndarray,
    b: np.ndarray,
    queries: list[np.ndarray],
    H_list: list[np.ndarray],
    fuse_act: str = "tanh",
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse per-path embedding tables with softmax path weights."""
    if not H_list:
        raise ValueError("path_attention requires at least one table")
    m = H_list[0].shape[0]
    for H in H_list:
        if H.shape[0] != m:
            raise ValueError("per-path tables must cover the same node set")
    act = activation_fn(fuse_act)
    w = np.asarray([float(np.mean(act(H @ W + b) @ q)) for q, H in zip(queries, H_list)])
    beta = _softmax(w)
    fused = np.tensordot(beta, np.stack(H_list), axes=1)
    return beta, fused


def score(h_u: np.ndarray, h_i: np.ndarray) -> float:
    if h_u.shape != h_i.shape:
        raise ValueError("score requires same-dimension embeddings")
    return float(np.dot(h_u, h_i))


def bpr_loss(triples) -> float:
    """Mean of -ln sigmoid(pos - neg), computed in the stable branch form."""
    arr = np.asarray(list(triples), dtype=np.float64).reshape(-1, 2)
    if len(arr) == 0:
        raise ValueError("bpr_loss requires at least one (pos, neg) pair")
    return float(np.mean(np.logaddexp(0.0, -(arr[:, 0] - arr[:, 1]))))


# ---------------------------------------------------------------------------
# Matrix factorization pretraining
# ---------------------------------------------------------------------------


def _in_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if len(sorted_arr) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.searchsorted(sorted_arr, vals)
    pos = np.minimum(pos, len(sorted_arr) - 1)
    return sorted_arr[pos] == vals


def draw_negatives(
    users: np.ndarray,
    user_pos: list[np.ndarray],
    n_items: int,
    rng: np.random.Generator,
    max_tries: int = 100,
) -> np.ndarray:
    """Uniform un-interacted item per user, by rejection."""
    j = rng.integers(0, n_items, size=len(users))
    for _ in range(max_tries):
        bad = np.zeros(len(users), dtype=bool)
        for u in np.unique(users):
            sel = users == u
            bad[sel] = _in_sorted(user_pos[u], j[sel])
        if not bad.any():
            return j
        j[bad] = rng.integers(0, n_items, size=int(bad.sum()))
    raise RuntimeError("could not draw negatives; catalog nearly saturated")


def mf_pretrain(
    pairs: np.ndarray,
    n_users: int,
    n_items: int,
    d: int,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    batch_size: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """BPR-optimized matrix factorization; the embedding init for HRec.

    ``pairs`` are (user_local, item_local) positives. Users or items with
    no interactions keep their random initialization (logged).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        raise ValueError("mf_pretrain requires a non-empty interaction set")
    P = rng.normal(0.0, 0.1, size=(n_users, d))
    Q = rng.normal(0.0, 0.1, size=(n_items, d))
    touched_u = np.zeros(n_users, dtype=bool)
    touched_i = np.zeros(n_items, dtype=bool)
    touched_u[pairs[:, 0]] = True
    touched_i[pairs[:, 1]] = True
    if not touched_u.all() or not touched_i.all():
        log.warning(
            "%d users / %d items have no interactions; their embeddings stay random",
            int((~touched_u).sum()),
            int((~touched_i).sum()),
        )
    user_pos = _per_user_items(pairs, n_users)
    for _ in range(epochs):
        perm = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), batch_size):
            sel = perm[lo : lo + batch_size]
            u, i = pairs[sel, 0], pairs[sel, 1]
            j = draw_negatives(u, user_pos, n_items, rng)
            x = np.sum(P[u] * (Q[i] - Q[j]), axis=1)
            s = expit(-x)[:, None]
            gP = s * (Q[i] - Q[j])
            gQ = s * P[u]
            np.add.at(P, u, lr * gP)
            np.add.at(Q, i, lr * gQ)
            np.add.at(Q, j, -lr * gQ)
    return P, Q


def _per_user_items(pairs: np.ndarray, n_users: int) -> list[np.ndarray]:
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_users
    if len(pairs):
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        sorted_pairs = pairs[order]
        users, starts = np.unique(sorted_pairs[:, 0], return_index=True)
        bounds = np.append(starts, len(sorted_pairs))
        for k, u in enumerate(users):
            out[int(u)] = sorted_pairs[bounds[k] : bounds[k + 1], 1]
    return out


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def _glorot(rng: np.random.Generator, *shape: int) -> np.ndarray:
    fan_in = shape[0] if len(shape) == 1 else shape[-2]
    fan_out = 1 if len(shape) == 1 else shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class HRecModel:
    """All learnable state plus the side bundles it was built for."""

    def __init__(
        self,
        graph: HinGraph,
        user_side: SideBundle,
        item_side: SideBundle,
        cfg: HRecConfig,
        rng: np.random.Generator,
        mf_init: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.cfg = cfg
        self.graph = graph
        self.user_side = user_side
        self.item_side = item_side
        d, hid = cfg.d, cfg.att_hidden
        params: dict[str, Var] = {}
        if mf_init is not None:
            user_emb, item_emb = mf_init
            if user_emb.shape != (user_side.m, d) or item_emb.shape != (item_side.m, d):
                raise ValueError("MF init shapes do not match the graph/type sizes")
            params["user_emb"] = Var(user_emb.copy())
            params["item_emb"] = Var(item_emb.copy())
        else:
            params["user_emb"] = Var(_glorot(rng, user_side.m, d))
            params["item_emb"] = Var(_glorot(rng, item_side.m, d))
        for side in (user_side, item_side):
            params[f"proj.{side.node_type}"] = Var(_glorot(rng, d, d))
        for tag, side in (("user", user_side), ("item", item_side)):
            for k in range(len(side.pset)):
                for h in range(cfg.heads):
                    params[f"natt.{tag}.{k}.{h}"] = Var(_glorot(rng, 2 * d))
            params[f"fuse.{tag}.W"] = Var(_glorot(rng, d, hid))
            params[f"fuse.{tag}.b"] = Var(np.zeros(hid))
            for k in range(len(side.pset)):
                params[f"q.{tag}.{k}"] = Var(_glorot(rng, hid))
        self.params = params

    def zero_grad(self) -> None:
        for var in self.params.values():
            var.grad = None

    def sgd_step(self, lr: float) -> None:
        for var in self.params.values():
            if var.grad is not None:
                var.value -= lr * var.grad

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, arr in snap.items():
            self.params[k].value[...] = arr

    # -- persistence -------------------------------------------------------

    def save(self, path: str, extra_header: dict | None = None) -> None:
        header = {
            "kind": "hrec-model",
            "format": 1,
            "user_set": [list(p.relation_ids) for p in self.user_side.pset],
            "item_set": [list(p.relation_ids) for p in self.item_side.pset],
            "config": {k: v for k, v in asdict(self.cfg).items() if k not in _TRAINING_ONLY},
        }
        if extra_header:
            header.update(extra_header)
        save_arrays(path, header, {k: v.value for k, v in self.params.items()})

    @classmethod
    def load(cls, path: str, graph: HinGraph, cfg: HRecConfig | None = None) -> "HRecModel":
        """Rebuild a model saved by :meth:`save` on ``graph``.

        The checkpoint's path sets are the density-accepted ones its sides
        were built from, so they are trusted as stored: the density filter is
        not applied again, and each positional ``natt``/``q`` parameter stays
        on its own path. The header's config fields override ``cfg``. Raises
        :class:`CheckpointError`, naming ``path``, when the header names a
        field HRecConfig lacks, or when the stored arrays do not match the
        rebuilt model's parameters in name and shape.
        """
        header, arrays = load_arrays(path)
        if header.get("kind") != "hrec-model":
            raise ValueError(f"{path}: not an HRec checkpoint")
        try:
            cfg = replace(cfg or HRecConfig(), **header["config"])
        except TypeError as exc:
            raise CheckpointError(f"{path}: config header does not fit HRecConfig: {exc}") from None
        schema = graph.schema
        user_set = mp.MetaPathSet(
            tuple(mp.MetaPath.from_relations(schema, r) for r in header["user_set"]),
            mp.USER_SYMMETRIC,
            schema,
        )
        item_set = mp.MetaPathSet(
            tuple(mp.MetaPath.from_relations(schema, r) for r in header["item_set"]),
            mp.ITEM_SYMMETRIC,
            schema,
        )
        user_side = build_side(graph, user_set, None, cfg.self_loops)
        item_side = build_side(graph, item_set, None, cfg.self_loops)
        model = cls(graph, user_side, item_side, cfg, np.random.default_rng(0))
        check_arrays(path, arrays, {k: v.value for k, v in model.params.items()})
        for k, arr in arrays.items():
            model.params[k].value[...] = arr
        return model


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


@dataclass
class ForwardPass:
    tape: Tape
    ypos: Var
    yneg: Var
    beta_user: np.ndarray
    beta_item: np.ndarray


def sample_views(
    side: SideBundle, fanout: int, rng: np.random.Generator
) -> list[mp.SampledView]:
    return [mp.sample_view(sg, fanout, rng) for sg in side.subgraphs]


def _side_forward(
    tape: Tape,
    model: HRecModel,
    tag: str,
    side: SideBundle,
    views: list[mp.SampledView],
    training: bool,
    drop_rng: np.random.Generator | None,
) -> tuple[Var, Var]:
    cfg = model.cfg
    act_score = activation(tape, cfg.score_act)
    act_agg = activation(tape, cfg.agg_act)
    act_fuse = activation(tape, cfg.fuse_act)
    emb = model.params[f"{tag}_emb"]
    W = model.params[f"proj.{side.node_type}"]
    Z = tape.matmul(emb, W)
    if training and cfg.dropout > 0.0:
        keep = (drop_rng.random(Z.value.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        Z = tape.mul_const(Z, keep)

    tables: list[Var] = []
    w_scalars: list[Var] = []
    for k, view in enumerate(views):
        head_tables: list[Var] = []
        for h in range(cfg.heads):
            a = model.params[f"natt.{tag}.{k}.{h}"]
            a_src = tape.slice1d(a, 0, cfg.d)
            a_dst = tape.slice1d(a, cfg.d, 2 * cfg.d)
            e = act_score(
                tape.add(
                    tape.gather(tape.matvec(Z, a_src), view.src),
                    tape.gather(tape.matvec(Z, a_dst), view.dst),
                )
            )
            alpha = tape.segment_softmax(e, view.indptr, view.src)
            msg = tape.mul_rows(tape.gather(Z, view.dst), alpha)
            head_tables.append(act_agg(tape.segment_sum(msg, view.indptr, view.src)))
        Hx = head_tables[0]
        for extra in head_tables[1:]:
            Hx = tape.add(Hx, extra)
        if cfg.heads > 1:
            Hx = tape.mul_const(Hx, np.float64(1.0 / cfg.heads))
        tables.append(Hx)
        T = act_fuse(tape.add_bias(tape.matmul(Hx, model.params[f"fuse.{tag}.W"]), model.params[f"fuse.{tag}.b"]))
        w_scalars.append(tape.mean(tape.matvec(T, model.params[f"q.{tag}.{k}"])))

    beta = tape.softmax(tape.stack_scalars(w_scalars))
    fused = tape.scale(tables[0], tape.pick(beta, 0))
    for k in range(1, len(tables)):
        fused = tape.add(fused, tape.scale(tables[k], tape.pick(beta, k)))
    return fused, beta


def forward(
    model: HRecModel,
    batch_u: np.ndarray,
    batch_i: np.ndarray,
    batch_j: np.ndarray,
    rng: np.random.Generator | None = None,
    training: bool = True,
    user_views: list[mp.SampledView] | None = None,
    item_views: list[mp.SampledView] | None = None,
) -> ForwardPass:
    """Score a (u, i, j) batch, recording the tape for the backward pass.

    Node indices are type-local. Views are sampled at the configured
    fanout when not supplied (training resamples per epoch; pass them in
    to share one sampling across batches).
    """
    if user_views is None:
        user_views = sample_views(model.user_side, model.cfg.fanout, rng)
    if item_views is None:
        item_views = sample_views(model.item_side, model.cfg.fanout, rng)
    tape = Tape()
    H_user, beta_u = _side_forward(tape, model, "user", model.user_side, user_views, training, rng)
    H_item, beta_i = _side_forward(tape, model, "item", model.item_side, item_views, training, rng)
    hu = tape.gather(H_user, np.asarray(batch_u, dtype=np.int64))
    hi = tape.gather(H_item, np.asarray(batch_i, dtype=np.int64))
    hj = tape.gather(H_item, np.asarray(batch_j, dtype=np.int64))
    ypos = tape.rowwise_dot(hu, hi)
    yneg = tape.rowwise_dot(hu, hj)
    return ForwardPass(tape, ypos, yneg, beta_u.value, beta_i.value)


def bpr_loss_var(tape: Tape, ypos: Var, yneg: Var) -> Var:
    return tape.mean(tape.softplus(tape.neg(tape.sub(ypos, yneg))))


def infer_embeddings(
    model: HRecModel, seed: int, tag: str = "eval"
) -> tuple[np.ndarray, np.ndarray]:
    """Fused user/item embedding tables with deterministic view sampling.

    Runs the training forward pass without dropout on a tape that is then
    dropped.
    """
    uv = sample_views(model.user_side, model.cfg.fanout, derive_rng(seed, tag, "user-views"))
    iv = sample_views(model.item_side, model.cfg.fanout, derive_rng(seed, tag, "item-views"))
    H_user, _ = _side_forward(Tape(), model, "user", model.user_side, uv, False, None)
    H_item, _ = _side_forward(Tape(), model, "item", model.item_side, iv, False, None)
    return H_user.value, H_item.value


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_ndcg: float = -np.inf
    stopped_early: bool = False


def train(
    model: HRecModel,
    split,
    seed: int,
    epochs: int | None = None,
    eval_each_epoch: bool = True,
    evaluator=None,
) -> TrainResult:
    """Epoch loop of tape forward/backward steps with validation early stopping.

    ``split`` provides local-index training pairs and the per-user
    interaction profile; ``evaluator(model, epoch) -> float`` supplies the
    validation NDCG@10 when per-epoch evaluation is on. The model is left
    at its best-validation snapshot.
    """
    cfg = model.cfg
    epochs = cfg.epochs if epochs is None else epochs
    pairs = split.train_local(model.graph)
    user_pos = _per_user_items(split.all_local(model.graph), model.user_side.m)
    n_items = model.item_side.m
    result = TrainResult()
    best_snap = None
    bad_epochs = 0
    for epoch in range(epochs):
        rng = derive_rng(seed, "rec-epoch", epoch)
        user_views = sample_views(model.user_side, cfg.fanout, rng)
        item_views = sample_views(model.item_side, cfg.fanout, rng)
        negatives = draw_negatives(pairs[:, 0], user_pos, n_items, rng)
        perm = rng.permutation(len(pairs))
        losses = []
        for lo in range(0, len(pairs), cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            fp = forward(
                model,
                pairs[sel, 0],
                pairs[sel, 1],
                negatives[sel],
                rng=rng,
                training=True,
                user_views=user_views,
                item_views=item_views,
            )
            loss = bpr_loss_var(fp.tape, fp.ypos, fp.yneg)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}, batch {lo // cfg.batch_size}")
            fp.tape.backward(loss)
            model.sgd_step(cfg.lr)
            model.zero_grad()
            losses.append((float(loss.value), len(sel)))
        epoch_loss = float(np.average([l for l, _ in losses], weights=[n for _, n in losses]))
        record = {"epoch": epoch, "train_loss": epoch_loss}
        if eval_each_epoch and evaluator is not None:
            val_ndcg = evaluator(model, epoch)
            record["val_ndcg10"] = val_ndcg
            if val_ndcg > result.best_val_ndcg:
                result.best_val_ndcg = val_ndcg
                result.best_epoch = epoch
                best_snap = model.snapshot()
                bad_epochs = 0
            else:
                bad_epochs += 1
        result.history.append(record)
        if eval_each_epoch and evaluator is not None and bad_epochs > cfg.patience:
            result.stopped_early = True
            break
    if best_snap is not None:
        model.restore(best_snap)
    return result
