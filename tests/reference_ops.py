"""Plain-numpy references for the package's formulas, mostly one node or one path at a time.

Each function mirrors a formula of the model one-to-one, with no batching
and no tape, so the tests can compare the tape's batched forward pass
(:func:`hinrec.recommender._side_forward`) and its activations against it.
:func:`mf_pretrain` is the BPR loop that
:func:`hinrec.recommender.mf_pretrain` restructures, one batch at a time,
with :func:`draw_negatives` testing one user at a time and ``np.add.at``
scattering.

The data set-up has references of the same kind: :func:`synth_tsvs` is
``synth.generate``'s per-user loop and its line-by-line writer,
:func:`load_tsvs` is ``hin.load_graph``'s line-by-line parse and checks,
and :func:`split_leave_one_out` is the per-user split. Nothing here
imports the package: the loader reference reads only a schema's
``node_types`` and ``relations``, and raises :class:`LoadError` where
the package raises ``GraphLoadError``.

The activations keep the ``np.where`` selects that the tape's
branch-free forms must reproduce bit for bit, values and gradients, and
:func:`sample_view_rows` is ``metapath.sample_view`` with its Floyd
picks held one row per node, whose draws the fanout-major loop must
reproduce.

The DQN's TD update has a hand-written one: :func:`q_layers` keeps each
layer's activations and :func:`td_update` runs the reverse pass layer by
layer, on plain weight and bias lists, where ``hinrec.dqn`` records the
loss on the tape. Its steps are the tape's steps in the same order, so
the two agree in every bit at a power-of-two batch size.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """Plain-numpy counterpart of :meth:`hinrec.autodiff.Tape.leaky_relu`."""
    return np.where(x >= 0.0, x, 0.2 * x)


def leaky_relu_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient :meth:`hinrec.autodiff.Tape.leaky_relu` passes to ``x`` for upstream ``g``."""
    return g * np.where(x >= 0.0, 1.0, 0.2)


def elu(x: np.ndarray) -> np.ndarray:
    """Plain-numpy counterpart of :meth:`hinrec.autodiff.Tape.elu`."""
    return np.where(x >= 0.0, x, np.expm1(x))


def elu_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient :meth:`hinrec.autodiff.Tape.elu` passes to ``x`` for upstream ``g``."""
    return g * np.where(x >= 0.0, 1.0, elu(x) + 1.0)


def sample_view_rows(sub_indptr, sub_dst, fanout, rng):
    """The sampled view ``(indptr, src, dst)`` of a subgraph's CSR rows, by a
    row-major Floyd loop: ``picks[row, round]``, each round's repeat check an
    ``any`` over each row's earlier picks."""
    m = len(sub_indptr) - 1
    degrees = np.diff(sub_indptr)
    counts = np.where(degrees == 0, 1, np.minimum(degrees, fanout))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    src = np.repeat(np.arange(m), counts)
    dst = np.empty(int(indptr[-1]), dtype=np.int64)

    isolated = np.flatnonzero(degrees == 0)
    dst[indptr[isolated]] = isolated
    whole = (degrees > 0) & (degrees <= fanout)
    kept = np.repeat(whole, degrees)
    shift = np.repeat((indptr - sub_indptr)[:-1][whole], degrees[whole])
    dst[np.flatnonzero(kept) + shift] = sub_dst[kept]

    owner = np.repeat(np.arange(m), degrees)
    self_edges = np.flatnonzero(sub_dst == owner)
    self_at = np.full(m, -1, dtype=np.int64)
    self_at[owner[self_edges]] = self_edges - sub_indptr[owner[self_edges]]
    big = np.flatnonzero(degrees > fanout)
    at = self_at[big]
    has_self = at >= 0
    pool = degrees[big] - has_self
    picks = np.full((len(big), fanout), -1, dtype=np.int64)
    for r in range(fanout):
        active = np.flatnonzero(~has_self) if r == 0 else slice(None)
        j = pool[active] - fanout + r
        draw = rng.integers(0, j + 1)
        taken = (picks[active, :r] == draw[:, None]).any(axis=1)
        picks[active, r] = np.where(taken, j, draw)
    rows = picks + sub_indptr[big, None]
    rows += (picks >= at[:, None]) & has_self[:, None]
    chosen = sub_dst[rows]
    chosen[has_self, 0] = big[has_self]
    chosen.sort(axis=1)
    dst[indptr[big, None] + np.arange(fanout)] = chosen
    return indptr, src, dst


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
) -> tuple[np.ndarray, np.ndarray]:
    """Attention over one node's neighbor list.

    Scores come from the concatenation [z_i | z_j]; they are normalized
    with softmax and the neighbors' projected embeddings are aggregated
    under ELU. Scores are directional: e_ij need
    not equal e_ji.
    """
    if not neighbors:
        raise ValueError("node_attention requires a non-empty neighbor list")
    zs = np.stack([z for _, z in neighbors])
    cat = np.concatenate([np.broadcast_to(z_i, zs.shape), zs], axis=1)
    e = leaky_relu(cat @ a)
    alpha = _softmax(e)
    h = elu(alpha @ zs)
    return alpha, h


def path_attention(
    W: np.ndarray,
    b: np.ndarray,
    queries: list[np.ndarray],
    H_list: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse per-path embedding tables with softmax path weights."""
    if not H_list:
        raise ValueError("path_attention requires at least one table")
    m = H_list[0].shape[0]
    for H in H_list:
        if H.shape[0] != m:
            raise ValueError("per-path tables must cover the same node set")
    w = np.asarray([float(np.mean(np.tanh(H @ W + b) @ q)) for q, H in zip(queries, H_list)])
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


def per_user_items(pairs, n_users):
    """Each user's sorted distinct items, as a list indexed by user."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return [np.unique(pairs[pairs[:, 0] == u, 1]) for u in range(n_users)]


def draw_negatives(users, user_items, n_items, rng, max_tries=100):
    """Uniform item per user outside ``user_items[user]``, by rejection, one user at a time.

    Each round tests every entry, then redraws the rejected ones in batch order.
    An entry still rejected after the last round draws from its user's free
    items with ``np.setdiff1d``, in batch order.
    """
    def rejected():
        bad = np.zeros(len(users), dtype=bool)
        for u in np.unique(users):
            sel = users == u
            bad[sel] = np.isin(j[sel], user_items[u])
        return bad

    j = rng.integers(0, n_items, size=len(users))
    for _ in range(max_tries):
        bad = rejected()
        if not bad.any():
            return j
        j[bad] = rng.integers(0, n_items, size=int(bad.sum()))
    for e in np.flatnonzero(rejected()):
        free = np.setdiff1d(np.arange(n_items), user_items[users[e]])
        if not len(free):
            raise ValueError(f"user {users[e]} has no free item")
        j[e] = free[rng.integers(len(free))]
    return j


def mf_pretrain(pairs, n_users, n_items, d, epochs, lr, rng, batch_size=512):
    """BPR matrix factorization, each batch drawing its negatives and scattering with ``np.add.at``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    P = rng.normal(0.0, 0.1, size=(n_users, d))
    Q = rng.normal(0.0, 0.1, size=(n_items, d))
    user_items = per_user_items(pairs, n_users)
    for _ in range(epochs):
        perm = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), batch_size):
            sel = perm[lo : lo + batch_size]
            u, i = pairs[sel, 0], pairs[sel, 1]
            j = draw_negatives(u, user_items, n_items, rng)
            x = np.sum(P[u] * (Q[i] - Q[j]), axis=1)
            s = expit(-x)[:, None]
            gP = s * (Q[i] - Q[j])
            gQ = s * P[u]
            np.add.at(P, u, lr * gP)
            np.add.at(Q, i, lr * gQ)
            np.add.at(Q, j, -lr * gQ)
    return P, Q


def q_layers(weights, biases, s):
    """Rectifier MLP forward keeping post-activation values for the backward pass."""
    acts = [s]
    h = s
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def huber(delta):
    """0.5*d^2 inside the unit interval, |d| - 0.5 outside, elementwise."""
    return np.where(np.abs(delta) <= 1.0, 0.5 * delta**2, np.abs(delta) - 0.5)


def td_update(weights, biases, target_weights, target_biases, batch, gamma, lr):
    """One mean-Huber TD step on the weight and bias lists in place; returns the batch loss."""
    s = np.stack([t.s for t in batch]).astype(np.float64)
    s2 = np.stack([t.s_next for t in batch]).astype(np.float64)
    a = np.asarray([t.a for t in batch], dtype=np.int64)
    r = np.asarray([t.r for t in batch], dtype=np.float64)
    done = np.asarray([t.done for t in batch], dtype=bool)

    q_next, _ = q_layers(target_weights, target_biases, s2)
    bootstrap = np.where(done, 0.0, gamma * q_next.max(axis=1))
    y = r + bootstrap

    q, acts = q_layers(weights, biases, s)
    rows = np.arange(len(batch))
    delta = q[rows, a] - y
    loss = float(np.mean(huber(delta)))

    # Reverse pass: d(mean Huber)/dQ[rows, a] = clip(delta, -1, 1) / B.
    # All gradients are taken at the pre-update weights, then applied at once.
    g = np.zeros_like(q)
    g[rows, a] = np.clip(delta, -1.0, 1.0) / len(batch)
    n_layers = len(weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        grads_w[k] = acts[k].T @ g
        grads_b[k] = g.sum(axis=0)
        if k > 0:
            g = (g @ weights[k].T) * (acts[k] > 0.0)
    for k in range(n_layers):
        weights[k] -= lr * grads_w[k]
        biases[k] -= lr * grads_b[k]
    return loss


def synth_tsvs(p, rng):
    """``nodes.tsv`` and ``edges.tsv`` text of synth profile ``p``, drawn from ``rng`` one user at a time."""
    users = [f"u{k:04d}" for k in range(p.users)]
    movies = [f"m{k:04d}" for k in range(p.movies)]
    actors = [f"a{k:04d}" for k in range(p.actors)]
    directors = [f"d{k:04d}" for k in range(p.directors)]
    nodes = (
        [(u, "User") for u in users]
        + [(m, "Movie") for m in movies]
        + [(a, "Actor") for a in actors]
        + [(d, "Director") for d in directors]
    )
    movie_actor = rng.integers(0, p.actors, size=p.movies)
    movie_director = rng.integers(0, p.directors, size=p.movies)
    by_actor = [[] for _ in range(p.actors)]
    for m_idx, a_idx in enumerate(movie_actor):
        by_actor[a_idx].append(m_idx)
    edges = []
    for m_idx in range(p.movies):
        edges.append((actors[movie_actor[m_idx]], "act", movies[m_idx]))
        edges.append((directors[movie_director[m_idx]], "direct", movies[m_idx]))
    all_movies = np.arange(p.movies)
    for u_idx in range(p.users):
        favs = rng.choice(p.actors, size=p.favorites_per_user, replace=False)
        pool = np.unique(np.asarray([m for a in favs for m in by_actor[a]], dtype=np.int64))
        n_watch = int(rng.integers(p.watches_min, p.watches_max + 1))
        k_fav = min(int(round((1.0 - p.noise_rate) * n_watch)), len(pool))
        picked = rng.choice(pool, size=k_fav, replace=False) if k_fav else np.empty(0, dtype=np.int64)
        rest = np.setdiff1d(all_movies, picked, assume_unique=False)
        k_noise = min(n_watch - k_fav, len(rest))
        noise = rng.choice(rest, size=k_noise, replace=False) if k_noise else np.empty(0, dtype=np.int64)
        for m_idx in np.sort(np.concatenate([picked, noise])):
            edges.append((users[u_idx], "watch", movies[int(m_idx)]))
    nodes_text = "# node_id\tnode_type\n"
    for sid, tname in nodes:
        nodes_text += f"{sid}\t{tname}\n"
    edges_text = "# src\trelation\tdst\n"
    for src, rel, dst in edges:
        edges_text += f"{src}\t{rel}\t{dst}\n"
    return nodes_text, edges_text


class LoadError(ValueError):
    """The reference loader's counterpart of ``hin.GraphLoadError``."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _tsv_rows(path, n_fields):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise LoadError(path, line_no, f"expected {n_fields} tab-separated fields, got {len(parts)}")
            rows.append((line_no, parts))
    return rows


def load_tsvs(nodes_path, edges_path, schema):
    """Nodes grouped by type as ``(string_id, type_name)`` and ``(rid, src, dst)`` dense-id edges.

    Each line is parsed and checked on its own, in file order: the node
    file's field counts, then each node line, then the edge file's field
    counts, then each edge line.
    """
    node_type_of = {}
    ordered = []
    for line_no, (sid, tname) in _tsv_rows(nodes_path, 2):
        if tname not in schema.node_types:
            raise LoadError(nodes_path, line_no, f"unknown node type {tname!r}")
        prev = node_type_of.get(sid)
        if prev is None:
            node_type_of[sid] = tname
            ordered.append((sid, tname))
        elif prev != tname:
            raise LoadError(nodes_path, line_no, f"node {sid!r} re-declared with type {tname!r} (was {prev!r})")
    grouped = sorted(ordered, key=lambda nt: schema.node_types.index(nt[1]))
    dense = {sid: i for i, (sid, _) in enumerate(grouped)}
    relations = {}
    for rel in schema.relations:
        relations.setdefault(rel.name, rel)
    edges = []
    for line_no, (src_s, rel_name, dst_s) in _tsv_rows(edges_path, 3):
        rel = relations.get(rel_name)
        if rel is None:
            raise LoadError(edges_path, line_no, f"unknown relation name {rel_name!r}")
        if src_s not in dense:
            raise LoadError(edges_path, line_no, f"dangling node id {src_s!r}")
        if dst_s not in dense:
            raise LoadError(edges_path, line_no, f"dangling node id {dst_s!r}")
        if node_type_of[src_s] != rel.head or node_type_of[dst_s] != rel.tail:
            raise LoadError(
                edges_path,
                line_no,
                f"endpoint-type mismatch at line {line_no}: {rel_name} expects "
                f"{rel.head}->{rel.tail}, got {node_type_of[src_s]}->{node_type_of[dst_s]}",
            )
        edges.append((rel.rid, dense[src_s], dense[dst_s]))
    return grouped, edges


def split_leave_one_out(pairs, rng):
    """Leave-one-out over sorted, distinct (user, item) ``pairs``, one user at a time.

    Returns ``(train, validation, test, user_items, item_ids)``.
    """
    users, starts = np.unique(pairs[:, 0], return_index=True)
    bounds = np.append(starts, len(pairs))
    train_rows, val_rows, test_rows = [], [], []
    user_items = {}
    for k, u in enumerate(users):
        items = pairs[bounds[k] : bounds[k + 1], 1]
        user_items[int(u)] = np.sort(items)
        if len(items) < 3:
            train_rows.extend((u, i) for i in items)
            continue
        picks = rng.choice(len(items), size=2, replace=False)
        val_rows.append((u, items[picks[0]]))
        test_rows.append((u, items[picks[1]]))
        rest = np.delete(items, picks)
        train_rows.extend((u, i) for i in rest)
    return (
        np.asarray(train_rows, dtype=np.int64).reshape(-1, 2),
        np.asarray(val_rows, dtype=np.int64).reshape(-1, 2),
        np.asarray(test_rows, dtype=np.int64).reshape(-1, 2),
        user_items,
        np.unique(pairs[:, 1]),
    )
