"""HRec: two-level attention over meta-path subgraphs with BPR training.

User and item embeddings (initialized by BPR matrix factorization) are
projected per node type and pass two levels of attention. Each meta-path
runs on its own: :func:`path_table`, the node level, aggregates each node's
sampled neighbours in the path's subgraph, and :func:`path_score` rates the
resulting table. The meta-path level's weighting, :func:`fuse`, then runs
once per set: a softmax over the scores weights the tables into one. Users
and items are scored by inner product. Each init draw is keyed by what it
parameterizes (:func:`attention_init`, :func:`inference_view`), so an
untrained path's table is the same in every set that holds it.
All gradients flow through the local reverse-mode tape in
:mod:`hinrec.autodiff`; there is no framework underneath.
"""
from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import metapath as mp
from .autodiff import Adam, Tape, Var, glorot, scatter_rows
from .checkpoint import CheckpointError, check_arrays, load_arrays, save_arrays
from .hin import HinGraph
from .util import derive_rng

log = logging.getLogger(__name__)


class AllPathsRejected(ValueError):
    """Every path of a set produced an over-dense (rejected) subgraph."""


class SaturatedUser(ValueError):
    """A user, by local index, who has interacted with every item; the message gives ``name`` if known."""

    def __init__(self, user: int, n_items: int, name: str | None = None):
        who = f"user {user} (local index)" if name is None else f"user {name}"
        super().__init__(f"{who} has interacted with all {n_items} items, so no negative item can be drawn for it")
        self.user, self.n_items = user, n_items


# The header format :meth:`HRecModel.save` writes; :meth:`HRecModel.load` rejects any other.
CHECKPOINT_FORMAT = 6
# Neighbours sampled per node and path in a view; the meta-path level's
# hidden width; the training dropout on projected rows; Adam's step size;
# pairs per training batch.
FANOUT = 20
ATT_HIDDEN = 32
DROPOUT = 0.1
LR = 0.01
BATCH = 1024


@dataclass
class SideBundle:
    """Density-accepted paths of one form plus their materialized subgraphs."""

    node_type: str
    m: int
    pset: mp.MetaPathSet
    subgraphs: list[mp.MetaPathSubgraph]


def build_side(graph: HinGraph, pset: mp.MetaPathSet, materialize) -> SideBundle:
    """Filter a path set by subgraph density; the survivors form a :class:`SideBundle`.

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

    Entries still rejected after ``max_tries`` rounds belong to users with
    few free items. Each takes one uniform draw from its user's free items,
    in batch order; a user with none raises :class:`SaturatedUser`.
    """
    offsets = np.asarray(users, dtype=np.int64) * n_items
    j = rng.integers(0, n_items, size=len(offsets))
    bad = np.flatnonzero(_has_bit(pos_bits, offsets + j))
    for _ in range(max_tries):
        if not len(bad):
            return j
        j[bad] = rng.integers(0, n_items, size=len(bad))
        bad = bad[_has_bit(pos_bits, offsets[bad] + j[bad])]
    for e in bad:
        free = np.flatnonzero(~_has_bit(pos_bits, offsets[e] + np.arange(n_items)))
        if not len(free):
            raise SaturatedUser(int(offsets[e] // n_items), n_items)
        j[e] = free[rng.integers(len(free))]
    return j


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

    The step works on flat operands, each float operation with the
    operands and order of the loop's. Rows are gathered with ``np.take``
    and the negatives' rows subtracted in place; the row factor ``s`` is
    expanded once to ``repeat(s, d)`` and multiplied into the flat step
    arrays. numpy runs a ``(B, 1)`` column broadcast over ``(B, d)`` rows
    as B inner loops of d elements, so with the scatter's flat index
    (:func:`~hinrec.autodiff.scatter_rows`) this form took MF on
    planted-mam from 141-148 to 121-123 ms (medians of 9 calls, 360
    batches of 512 at d = 64, one Xeon core).
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
            step_q, step_p = np.take(P, users[b], axis=0), np.take(Q, items[b], axis=0)
            step_p -= np.take(Q, negatives[b], axis=0)
            s = np.repeat(expit(-np.sum(step_q * step_p, axis=1)), d)
            for step in (step_p.reshape(-1), step_q.reshape(-1)):  # in place, with the bits of lr * (s * step)
                step *= s
                step *= lr
            scatter_rows(np.add, P, users[b], step_p)
            scatter_rows(np.add, Q, items[b], step_q)
            scatter_rows(np.subtract, Q, negatives[b], step_q)
    return P, Q


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


def path_names(pset: mp.MetaPathSet) -> list[str]:
    """Each path's name within its parameters' names: its label, such as ``MAM``,
    or, where another path of the set has the same label, the label and its
    relation ids, such as ``MAM[4,3]``."""
    labels = pset.labels()
    return [
        label if labels.count(label) == 1 else f"{label}[{','.join(map(str, path.relation_ids))}]"
        for label, path in zip(labels, pset)
    ]


def attention_init(base: int, tag: str, pset: mp.MetaPathSet, d: int) -> dict[str, np.ndarray]:
    """One side's attention parameters at init, each drawn by what it parameterizes.

    ``fuse.{tag}.W``, ``d`` by :data:`ATT_HIDDEN`, is a Glorot draw from the
    stream of ``(base, tag)``, and ``fuse.{tag}.b`` starts at zero. Each
    path's ``natt.{tag}.{name}``, a_φ, then ``q.{tag}.{name}``, q_φ, are
    Glorot draws from the stream of ``(base, tag, relation ids)``. So a path
    starts from the same parameters in every set that holds it, whatever its
    position: sets that share a path share its draws (common random
    numbers), and the probe can compute each path's table once for all of
    them.
    """
    params = {f"fuse.{tag}.W": glorot(derive_rng(base, tag), d, ATT_HIDDEN), f"fuse.{tag}.b": np.zeros(ATT_HIDDEN)}
    for path, name in zip(pset, path_names(pset)):
        rng = derive_rng(base, tag, path.relation_ids)
        params[f"natt.{tag}.{name}"] = glorot(rng, 2 * d)
        params[f"q.{tag}.{name}"] = glorot(rng, ATT_HIDDEN)
    return params


class HRecModel:
    """HRec's parameters plus the two sides they were built for.

    The embedding init ``mf_init`` is the ``(users, items)`` tables of
    :func:`mf_pretrain`, copied; their width is the model's d. The type
    projections start at the identity, so the untrained model scores in the
    space of that init. The attention parameters are :func:`attention_init`'s
    draws from the integer seed ``base``, with :data:`ATT_HIDDEN` hidden
    units.
    """

    def __init__(
        self,
        graph: HinGraph,
        user_side: SideBundle,
        item_side: SideBundle,
        base: int,
        mf_init: tuple[np.ndarray, np.ndarray],
    ):
        self.graph = graph
        self.user_side = user_side
        self.item_side = item_side
        user_emb, item_emb = mf_init
        d = user_emb.shape[-1]
        if user_emb.shape != (user_side.m, d) or item_emb.shape != (item_side.m, d):
            raise ValueError("MF init shapes do not match the graph/type sizes")
        base = operator.index(base)  # a Generator here would seed by its repr
        params: dict[str, Var] = {"user_emb": Var(user_emb.copy()), "item_emb": Var(item_emb.copy())}
        for side in (user_side, item_side):
            params[f"proj.{side.node_type}"] = Var(np.eye(d))
        for tag, side in (("user", user_side), ("item", item_side)):
            for name, value in attention_init(base, tag, side.pset, d).items():
                params[name] = Var(value)
        self.params = params

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
        }
        if extra_header:
            header.update(extra_header)
        save_arrays(path, header, {k: v.value for k, v in self.params.items()})

    @classmethod
    def load(cls, path: str, graph: HinGraph) -> "HRecModel":
        """Rebuild a model saved by :meth:`save` on ``graph``.

        The checkpoint's path sets are the density-accepted ones its sides
        were built from, so they are trusted as stored: the density filter is
        not applied again. The model's width d is that of the stored
        ``user_emb``. Raises :class:`CheckpointError`, naming ``path``, when
        the header's format is not :data:`CHECKPOINT_FORMAT`, when it lacks a
        set, or when the stored arrays do not match the rebuilt model's
        parameters in name and shape.
        """
        header, arrays = load_arrays(path)
        if header.get("kind") != "hrec-model":
            raise ValueError(f"{path}: not an HRec checkpoint")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: checkpoint format {header.get('format')!r}, expected {CHECKPOINT_FORMAT}"
            )
        missing = [key for key in ("user_set", "item_set") if key not in header]
        if missing:
            raise CheckpointError(f"{path}: header lacks {missing}")
        unfiltered = lambda p: mp.materialize_subgraph(graph, p, None)
        user_side, item_side = (
            build_side(graph, mp.MetaPathSet.from_relations(graph.schema, form, header[key]), unfiltered)
            for key, form in (("user_set", mp.USER_SYMMETRIC), ("item_set", mp.ITEM_SYMMETRIC))
        )
        # Zero tables of the graph's shapes, as wide as the stored ``user_emb``, stand in for
        # the embeddings the checkpoint overwrites, so ``check_arrays`` compares against them.
        stored = arrays.get("user_emb", np.zeros((0, 0)))
        d = stored.shape[-1] if stored.ndim else 0
        zeros = tuple(np.zeros((side.m, d)) for side in (user_side, item_side))
        model = cls(graph, user_side, item_side, 0, zeros)
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


def sample_views(side: SideBundle, rng: np.random.Generator) -> list[mp.SampledView]:
    """One training view per path of the side, at :data:`FANOUT`, drawn from ``rng``."""
    return [mp.sample_view(sg, FANOUT, rng) for sg in side.subgraphs]


def path_table(tape: Tape, Z: Var, a: Var, view: mp.SampledView) -> Var:
    """One meta-path φ's node-level attention: the table of h^φ_i.

    ``Z`` holds the side's projected rows, the paper's z_i = W_φ x_i with one
    W per node type, shared by the side's paths; ``a`` is a_φ = [a_src ‖ a_dst].
    Per view edge (i, j): e^φ_ij = LeakyReLU(a_φ^T [z_i ‖ z_j]); then
    α^φ_ij = softmax_j(e^φ_ij) over i's sampled neighbours, and
    h^φ_i = ELU(Σ_j α^φ_ij z_j).
    """
    d = Z.value.shape[1]
    a_src, a_dst = tape.pick(a, slice(0, d)), tape.pick(a, slice(d, 2 * d))
    e = tape.leaky_relu(
        tape.add(tape.gather(tape.matvec(Z, a_src), view.src), tape.gather(tape.matvec(Z, a_dst), view.dst))
    )
    alpha = tape.segment_softmax(e, view.indptr, view.src)
    return tape.elu(tape.segment_weighted_sum(Z, alpha, view.indptr, view.src, view.dst))


def path_score(tape: Tape, Hx: Var, W: Var, b: Var, q: Var) -> Var:
    """HAN's meta-path importance w_φ = mean_i tanh(h^φ_i W + b) q_φ, a scalar."""
    return tape.mean(tape.matvec(tape.tanh(tape.add_bias(tape.matmul(Hx, W), b)), q))


def fuse(tape: Tape, tables: list[Var], scores: list[Var]) -> tuple[Var, Var]:
    """HAN's meta-path level: β = softmax(w) over the paths, and the table Σ_φ β_φ h^φ."""
    beta = tape.softmax(tape.stack_scalars(scores))
    return tape.weighted_sum(tables, beta), beta


def project(tape: Tape, model: HRecModel, tag: str, side: SideBundle) -> Var:
    """The side's projected rows ``Z``: its embeddings times its node type's projection."""
    return tape.matmul(model.params[f"{tag}_emb"], model.params[f"proj.{side.node_type}"])


def path_forward(tape: Tape, model: HRecModel, tag: str, name: str, Z: Var, view: mp.SampledView) -> tuple[Var, Var]:
    """The path ``name``'s :func:`path_table` over ``Z``, then its :func:`path_score`."""
    params = model.params
    Hx = path_table(tape, Z, params[f"natt.{tag}.{name}"], view)
    return Hx, path_score(tape, Hx, params[f"fuse.{tag}.W"], params[f"fuse.{tag}.b"], params[f"q.{tag}.{name}"])


def _side_forward(
    tape: Tape,
    model: HRecModel,
    tag: str,
    side: SideBundle,
    views: list[mp.SampledView],
    drop_rng: np.random.Generator | None,
) -> tuple[Var, Var]:
    """One side's fused embedding table and its meta-path weights β.

    :func:`project`, then each path's :func:`path_forward` in path order,
    then one :func:`fuse`. The paper's σ at each level is HAN's
    (Wang et al., arXiv:1903.07293): LeakyReLU on node-level scores, ELU on
    aggregation, tanh in the meta-path-level attention. ``drop_rng`` draws
    dropout masks at rate :data:`DROPOUT`; ``None`` runs without dropout.
    """
    Z = project(tape, model, tag, side)
    if drop_rng is not None and DROPOUT > 0.0:
        keep = (drop_rng.random(Z.value.shape) >= DROPOUT) / (1.0 - DROPOUT)
        Z = tape.mul_const(Z, keep)
    stages = [path_forward(tape, model, tag, name, Z, view) for name, view in zip(path_names(side.pset), views)]
    return fuse(tape, [Hx for Hx, _ in stages], [w for _, w in stages])


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
    return tape.mean(tape.softplus(tape.sub(yneg, ypos)))


def inference_view(side: SideBundle, k: int, tag: str, seed: int, view_tag: str) -> mp.SampledView:
    """Path ``k``'s view for inference, at :data:`FANOUT`, from the stream of ``(seed,
    view_tag, tag, relation ids)``: the same view in every set that holds the path."""
    path = side.pset.paths[k]
    return mp.sample_view(side.subgraphs[k], FANOUT, derive_rng(seed, view_tag, tag, path.relation_ids))


def infer_embeddings(
    model: HRecModel, seed: int, tag: str, stages: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fused user/item embedding tables, without dropout, with deterministic views.

    Each path's (table, score) comes from ``stages`` at (side tag, relation
    ids), or is computed into it by :func:`inference_view` (view tag ``tag``)
    and :func:`path_forward` over :func:`project`, each on a throwaway tape.
    Then one :func:`fuse` per side, with the bytes of :func:`_side_forward`.
    A shared ``stages`` must hold one view tag's stages of models that agree
    on every path's parameters, as the probe's do.
    """
    stages = {} if stages is None else stages
    tables = []
    for side_tag, side in (("user", model.user_side), ("item", model.item_side)):
        Z = None
        for k, (path, name) in enumerate(zip(side.pset, path_names(side.pset))):
            if (side_tag, path.relation_ids) not in stages:
                Z = project(Tape(), model, side_tag, side) if Z is None else Z
                view = inference_view(side, k, side_tag, seed, tag)
                stages[side_tag, path.relation_ids] = path_forward(Tape(), model, side_tag, name, Z, view)
        done = [stages[side_tag, path.relation_ids] for path in side.pset]
        tables.append(fuse(Tape(), [Hx for Hx, _ in done], [w for _, w in done])[0].value)
    return tables[0], tables[1]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_ndcg: float = -np.inf


def train(model: HRecModel, split, seed: int, evaluator, epochs: int, patience: int) -> TrainResult:
    """Up to ``epochs`` epochs of tape forward/backward, one :class:`~hinrec.autodiff.Adam`
    step at rate :data:`LR` per batch of :data:`BATCH` pairs.

    ``split`` provides local-index training pairs and the per-user
    interaction profile. ``evaluator(model, epoch) -> float``, the
    validation NDCG@10, runs after every epoch; training stops early after
    ``patience`` epochs without improvement, and the model is left at its
    best-validation snapshot. When no epoch's value exceeds ``-inf`` (none
    runs, or each is NaN) the model keeps its last parameters. The
    optimizer's moments live for this call only.

    Each batch's backward consumes its tape, and the loop drops the tape
    before the next batch's forward: at most one tape is alive at a time.
    """
    pairs = split.train_local(model.graph)
    n_items = model.item_side.m
    pos_bits = positive_bits(split.all_local(model.graph), model.user_side.m, n_items)
    optimizer = Adam(LR)
    result = TrainResult()
    best_snap = None
    bad_epochs = 0
    for epoch in range(epochs):
        rng = derive_rng(seed, "rec-epoch", epoch)
        user_views = sample_views(model.user_side, rng)
        item_views = sample_views(model.item_side, rng)
        negatives = draw_negatives(pairs[:, 0], pos_bits, n_items, rng)
        perm = rng.permutation(len(pairs))
        losses = []
        for lo in range(0, len(pairs), BATCH):
            sel = perm[lo : lo + BATCH]
            fp = forward(model, pairs[sel, 0], pairs[sel, 1], negatives[sel], user_views, item_views, rng)
            loss = bpr_loss_var(fp.tape, fp.ypos, fp.yneg)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}, batch {lo // BATCH}")
            fp.tape.backward(loss)
            optimizer.step(model.params)
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
        if bad_epochs > patience:
            break
    if best_snap is not None:
        model.restore(best_snap)
    return result
