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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from . import metapath as mp
from .autodiff import Tape, Var, scatter_rows
from .checkpoint import CheckpointError, check_arrays, load_arrays, save_arrays
from .config import RunConfig
from .hin import HinGraph
from .util import derive_rng

log = logging.getLogger(__name__)


class AllPathsRejected(ValueError):
    """Every path of a set produced an over-dense (rejected) subgraph."""


# The RunConfig fields that fix a model's parameters and forward pass; a
# checkpoint's header stores them, and :meth:`HRecModel.load` applies them.
ARCH_FIELDS = ("embed_dim", "att_hidden", "dropout", "fanout", "density_threshold")
# The header format :meth:`HRecModel.save` writes; :meth:`HRecModel.load` rejects any other.
CHECKPOINT_FORMAT = 4
# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class SideBundle:
    """Density-accepted paths of one form plus their materialized subgraphs."""

    node_type: str
    m: int
    pset: mp.MetaPathSet
    subgraphs: list[mp.MetaPathSubgraph]


def build_side(graph: HinGraph, pset: mp.MetaPathSet, materialize) -> SideBundle:
    """Filter a path set by subgraph density and bundle the survivors.

    ``materialize(path)`` returns the path's subgraph, or ``None`` when the
    density filter rejects it: the probe passes its cached, filtered
    version, and :meth:`HRecModel.load` an unfiltered one, since a
    checkpoint's sets were accepted when it was saved. Raises
    :class:`AllPathsRejected` when nothing passes.
    """
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
    return SideBundle(node_type, graph.type_count(node_type), pset.replace(tuple(accepted)), subgraphs)


# ---------------------------------------------------------------------------
# Matrix factorization pretraining
# ---------------------------------------------------------------------------


def positive_bits(pairs: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """The (user, item) pairs as a table of one bit per pair, for :func:`draw_negatives`.

    Bit ``user * n_items + item`` is set for each pair; bits run from the
    least significant within each byte.

    The table takes ``n_users * n_items / 8`` bytes whatever the number of
    pairs: 69 KB on planted-mam. It is meant for catalogs of the synthetic
    graphs' size; a 100k-user by 100k-item catalog would need 1.25 GB.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = pairs[:, 0] * n_items + pairs[:, 1]
    bits = np.zeros(-(-n_users * n_items // 8), dtype=np.uint8)
    np.bitwise_or.at(bits, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))
    return bits


def _has_bit(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return (bits[keys >> 3] >> (keys & 7).astype(np.uint8)) & 1 == 1


def draw_negatives(
    users: np.ndarray,
    pos_bits: np.ndarray,
    n_items: int,
    rng: np.random.Generator,
    max_tries: int = 100,
) -> np.ndarray:
    """Uniform un-interacted item per user, by rejection.

    ``pos_bits`` is the interacted pairs' bit table (:func:`positive_bits`).
    Every round redraws exactly the rejected entries, in batch order, and
    tests only those entries again.
    """
    offsets = np.asarray(users, dtype=np.int64) * n_items
    j = rng.integers(0, n_items, size=len(offsets))
    bad = np.flatnonzero(_has_bit(pos_bits, offsets + j))
    for _ in range(max_tries):
        if not len(bad):
            return j
        j[bad] = rng.integers(0, n_items, size=len(bad))
        bad = bad[_has_bit(pos_bits, offsets[bad] + j[bad])]
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

    Each batch takes one SGD step, as three :func:`~hinrec.autodiff.scatter_rows`
    calls: ``P`` at the batch's users, then ``Q`` at its items, then ``Q``
    at its negatives, each repeated row receiving its terms in batch order.
    At an even ``d`` they move complex128 pairs, two float64 terms per
    index. The result is bit for bit the per-batch loop's with
    ``np.add.at``; the negatives' scatter subtracts ``lr * gQ``, which has
    the bits of adding ``-lr * gQ``.

    Each epoch draws a permutation, then every batch's negatives up front,
    one :func:`draw_negatives` call per batch in batch order, which is the
    order of the generator's draws when each batch drew its own.
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
    pos_bits = positive_bits(pairs, n_users, n_items)
    n = len(pairs)
    batches = [slice(lo, lo + batch_size) for lo in range(0, n, batch_size)]
    for _ in range(epochs):
        perm = rng.permutation(n)
        users, items = pairs[perm, 0], pairs[perm, 1]
        negatives = np.concatenate([draw_negatives(users[b], pos_bits, n_items, rng) for b in batches])
        for b in batches:
            step_q, step_p = P[users[b]], Q[items[b]] - Q[negatives[b]]
            s = expit(-np.sum(step_q * step_p, axis=1))[:, None]
            for step in (step_p, step_q):  # in place, with the bits of lr * (s * step)
                step *= s
                step *= lr
            scatter_rows(np.add, P, users[b], step_p)
            scatter_rows(np.add, Q, items[b], step_q)
            scatter_rows(np.subtract, Q, negatives[b], step_q)
    return P, Q


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def _glorot(rng: np.random.Generator, *shape: int) -> np.ndarray:
    fan_in = shape[0] if len(shape) == 1 else shape[-2]
    fan_out = 1 if len(shape) == 1 else shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class HRecModel:
    """All learnable state plus the side bundles it was built for.

    ``cfg`` supplies the architecture (:data:`ARCH_FIELDS`) and the training
    loop's ``rec_lr``, ``rec_batch``, ``rec_epochs`` and ``patience``. The
    type projections start at the identity, so the untrained model scores
    in the space of its embedding init, ``mf_init``: the ``(users, items)``
    tables of :func:`mf_pretrain`, copied. Adam's two moment arrays per
    parameter live on the model and start at zero with it; checkpoints
    hold the parameters only.
    """

    def __init__(
        self,
        graph: HinGraph,
        user_side: SideBundle,
        item_side: SideBundle,
        cfg: RunConfig,
        rng: np.random.Generator,
        mf_init: tuple[np.ndarray, np.ndarray],
    ):
        self.cfg = cfg
        self.graph = graph
        self.user_side = user_side
        self.item_side = item_side
        d, hid = cfg.embed_dim, cfg.att_hidden
        user_emb, item_emb = mf_init
        if user_emb.shape != (user_side.m, d) or item_emb.shape != (item_side.m, d):
            raise ValueError("MF init shapes do not match the graph/type sizes")
        params: dict[str, Var] = {"user_emb": Var(user_emb.copy()), "item_emb": Var(item_emb.copy())}
        for side in (user_side, item_side):
            params[f"proj.{side.node_type}"] = Var(np.eye(d))
        for tag, side in (("user", user_side), ("item", item_side)):
            for k in range(len(side.pset)):
                params[f"natt.{tag}.{k}"] = Var(_glorot(rng, 2 * d))
            params[f"fuse.{tag}.W"] = Var(_glorot(rng, d, hid))
            params[f"fuse.{tag}.b"] = Var(np.zeros(hid))
            for k in range(len(side.pset)):
                params[f"q.{tag}.{k}"] = Var(_glorot(rng, hid))
        self.params = params
        self.adam_steps = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for var in self.params.values():
            var.grad = None

    def adam_step(self, lr: float) -> None:
        """One bias-corrected Adam update of every parameter that has a gradient."""
        self.adam_steps += 1
        fix1 = 1.0 - ADAM_BETA1**self.adam_steps
        fix2 = 1.0 - ADAM_BETA2**self.adam_steps
        for name, var in self.params.items():
            if var.grad is None:
                continue
            if name not in self._moments:
                self._moments[name] = (np.zeros_like(var.value), np.zeros_like(var.value))
            m, v = self._moments[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * var.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(var.grad)
            var.value -= lr * (m / fix1) / (np.sqrt(v / fix2) + ADAM_EPS)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, arr in snap.items():
            self.params[k].value[...] = arr

    # -- persistence -------------------------------------------------------

    def save(self, path: str, extra_header: dict | None = None) -> None:
        header = {
            "kind": "hrec-model",
            "format": CHECKPOINT_FORMAT,
            "user_set": [list(p.relation_ids) for p in self.user_side.pset],
            "item_set": [list(p.relation_ids) for p in self.item_side.pset],
            "config": {name: getattr(self.cfg, name) for name in ARCH_FIELDS},
        }
        if extra_header:
            header.update(extra_header)
        save_arrays(path, header, {k: v.value for k, v in self.params.items()})

    @classmethod
    def load(cls, path: str, graph: HinGraph) -> "HRecModel":
        """Rebuild a model saved by :meth:`save` on ``graph``.

        The checkpoint's path sets are the density-accepted ones its sides
        were built from, so they are trusted as stored: the density filter is
        not applied again, and each positional ``natt``/``q`` parameter stays
        on its own path. The model's config is :class:`RunConfig`'s defaults
        with the header's architecture fields. Raises :class:`CheckpointError`,
        naming ``path``, when the header's format is not
        :data:`CHECKPOINT_FORMAT`, when it names a field outside
        :data:`ARCH_FIELDS`, or when the stored arrays do not match the
        rebuilt model's parameters in name and shape.
        """
        header, arrays = load_arrays(path)
        if header.get("kind") != "hrec-model":
            raise ValueError(f"{path}: not an HRec checkpoint")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: checkpoint format {header.get('format')!r}, expected {CHECKPOINT_FORMAT}"
            )
        unknown = sorted(set(header["config"]) - set(ARCH_FIELDS))
        if unknown:
            raise CheckpointError(f"{path}: config header names non-architecture fields {unknown}")
        cfg = replace(RunConfig(), **header["config"])
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
        unfiltered = lambda p: mp.materialize_subgraph(graph, p, None)
        user_side = build_side(graph, user_set, unfiltered)
        item_side = build_side(graph, item_set, unfiltered)
        # Zero tables of the graph's shapes stand in for the embeddings the
        # checkpoint overwrites, so ``check_arrays`` compares against them.
        zeros = tuple(np.zeros((side.m, cfg.embed_dim)) for side in (user_side, item_side))
        model = cls(graph, user_side, item_side, cfg, np.random.default_rng(0), zeros)
        check_arrays(path, arrays, {k: v.value for k, v in model.params.items()})
        for k, arr in arrays.items():
            model.params[k].value[...] = arr
        return model


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


@dataclass
class ForwardPass:
    """One batch's scores and the tape that recorded them.

    ``tape.backward`` consumes the tape: afterwards ``ypos`` and ``yneg``
    keep their values but no ``.grad``, and only the model's parameters
    hold gradients. Holding a ForwardPass holds its tape's memory until
    backward has run, so keep no more than one alive.
    """

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
    drop_rng: np.random.Generator | None,
) -> tuple[Var, Var]:
    """One side's fused embedding table and its meta-path weights β.

    The paper's σ at each level is HAN's (Wang et al., arXiv:1903.07293):
    LeakyReLU on node-level scores, ELU on aggregation, tanh in the
    meta-path-level attention. ``drop_rng`` draws dropout masks; inference,
    with no dropout, passes ``None``.
    """
    cfg = model.cfg
    emb = model.params[f"{tag}_emb"]
    W = model.params[f"proj.{side.node_type}"]
    Z = tape.matmul(emb, W)
    if drop_rng is not None and cfg.dropout > 0.0:
        keep = (drop_rng.random(Z.value.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        Z = tape.mul_const(Z, keep)

    tables: list[Var] = []
    w_scalars: list[Var] = []
    for k, view in enumerate(views):
        a = model.params[f"natt.{tag}.{k}"]
        a_src = tape.slice1d(a, 0, cfg.embed_dim)
        a_dst = tape.slice1d(a, cfg.embed_dim, 2 * cfg.embed_dim)
        e = tape.leaky_relu(
            tape.add(
                tape.gather(tape.matvec(Z, a_src), view.src),
                tape.gather(tape.matvec(Z, a_dst), view.dst),
            )
        )
        alpha = tape.segment_softmax(e, view.indptr, view.src)
        Hx = tape.elu(tape.segment_weighted_sum(Z, alpha, view.indptr, view.src, view.dst))
        tables.append(Hx)
        T = tape.tanh(tape.add_bias(tape.matmul(Hx, model.params[f"fuse.{tag}.W"]), model.params[f"fuse.{tag}.b"]))
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
    user_views: list[mp.SampledView],
    item_views: list[mp.SampledView],
    rng: np.random.Generator,
) -> ForwardPass:
    """Score a training (u, i, j) batch, recording the tape for the backward pass.

    Node indices are type-local; the views are one :func:`sample_views`
    per side, and ``rng`` draws the dropout masks.
    """
    tape = Tape()
    H_user, beta_u = _side_forward(tape, model, "user", model.user_side, user_views, rng)
    H_item, beta_i = _side_forward(tape, model, "item", model.item_side, item_views, rng)
    hu = tape.gather(H_user, np.asarray(batch_u, dtype=np.int64))
    hi = tape.gather(H_item, np.asarray(batch_i, dtype=np.int64))
    hj = tape.gather(H_item, np.asarray(batch_j, dtype=np.int64))
    ypos = tape.rowwise_dot(hu, hi)
    yneg = tape.rowwise_dot(hu, hj)
    return ForwardPass(tape, ypos, yneg, beta_u.value, beta_i.value)


def bpr_loss_var(tape: Tape, ypos: Var, yneg: Var) -> Var:
    return tape.mean(tape.softplus(tape.neg(tape.sub(ypos, yneg))))


def infer_embeddings(model: HRecModel, seed: int, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Fused user/item embedding tables with deterministic view sampling.

    Runs the training forward pass without dropout on a tape that is then
    dropped.
    """
    uv = sample_views(model.user_side, model.cfg.fanout, derive_rng(seed, tag, "user-views"))
    iv = sample_views(model.item_side, model.cfg.fanout, derive_rng(seed, tag, "item-views"))
    H_user, _ = _side_forward(Tape(), model, "user", model.user_side, uv, None)
    H_item, _ = _side_forward(Tape(), model, "item", model.item_side, iv, None)
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


def train(model: HRecModel, split, seed: int, evaluator) -> TrainResult:
    """``cfg.rec_epochs`` epochs of tape forward/backward and Adam steps.

    ``split`` provides local-index training pairs and the per-user
    interaction profile. ``evaluator(model, epoch) -> float``, the
    validation NDCG@10, runs after every epoch; training stops early after
    ``cfg.patience`` epochs without improvement, and the model is left at
    its best-validation snapshot. When no epoch's value exceeds ``-inf``
    (none runs, or each is NaN) the model keeps its last parameters.

    Each batch's backward consumes its tape, and the loop drops the tape
    before the next batch's forward: at most one tape is alive at a time.
    """
    cfg = model.cfg
    pairs = split.train_local(model.graph)
    n_items = model.item_side.m
    pos_bits = positive_bits(split.all_local(model.graph), model.user_side.m, n_items)
    result = TrainResult()
    best_snap = None
    bad_epochs = 0
    for epoch in range(cfg.rec_epochs):
        rng = derive_rng(seed, "rec-epoch", epoch)
        user_views = sample_views(model.user_side, cfg.fanout, rng)
        item_views = sample_views(model.item_side, cfg.fanout, rng)
        negatives = draw_negatives(pairs[:, 0], pos_bits, n_items, rng)
        perm = rng.permutation(len(pairs))
        losses = []
        for lo in range(0, len(pairs), cfg.rec_batch):
            sel = perm[lo : lo + cfg.rec_batch]
            fp = forward(model, pairs[sel, 0], pairs[sel, 1], negatives[sel], user_views, item_views, rng)
            loss = bpr_loss_var(fp.tape, fp.ypos, fp.yneg)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}, batch {lo // cfg.rec_batch}")
            fp.tape.backward(loss)
            model.adam_step(cfg.rec_lr)
            model.zero_grad()
            losses.append((float(loss.value), len(sel)))
            del fp, loss  # the next batch's forward must not run beside this tape
        epoch_loss = float(np.average([l for l, _ in losses], weights=[n for _, n in losses]))
        val_ndcg = evaluator(model, epoch)
        result.history.append({"epoch": epoch, "train_loss": epoch_loss, "val_ndcg10": val_ndcg})
        if val_ndcg > result.best_val_ndcg:
            result.best_val_ndcg = val_ndcg
            result.best_epoch = epoch
            best_snap = model.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs > cfg.patience:
            result.stopped_early = True
            break
    if best_snap is not None:
        model.restore(best_snap)
    return result
