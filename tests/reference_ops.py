"""Plain-numpy references for HRec's formulas, one node or one path at a time.

Each function mirrors a formula of the model one-to-one, with no batching
and no tape, so the tests can compare the tape's batched forward pass
(:func:`hinrec.recommender._side_forward`) and its activations against it.
:func:`mf_pretrain` is the BPR loop that
:func:`hinrec.recommender.mf_pretrain` restructures, one batch at a time,
with :func:`draw_negatives` testing one user at a time and ``np.add.at``
scattering; nothing here imports the package's MF code.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit


def activation_fn(name: str):
    """Plain-numpy counterpart of :func:`hinrec.autodiff.activation`."""
    table = {
        "leaky_relu": lambda x: np.where(x >= 0.0, x, 0.2 * x),
        "relu": lambda x: np.maximum(x, 0.0),
        "elu": lambda x: np.where(x >= 0.0, x, np.expm1(x)),
        "tanh": np.tanh,
    }
    if name not in table:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")
    return table[name]


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


def per_user_items(pairs, n_users):
    """Each user's sorted distinct items, as a list indexed by user."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return [np.unique(pairs[pairs[:, 0] == u, 1]) for u in range(n_users)]


def draw_negatives(users, user_items, n_items, rng, max_tries=100):
    """Uniform item per user outside ``user_items[user]``, by rejection, one user at a time.

    Each round tests every entry, then redraws the rejected ones in batch order.
    """
    j = rng.integers(0, n_items, size=len(users))
    for _ in range(max_tries):
        bad = np.zeros(len(users), dtype=bool)
        for u in np.unique(users):
            sel = users == u
            bad[sel] = np.isin(j[sel], user_items[u])
        if not bad.any():
            return j
        j[bad] = rng.integers(0, n_items, size=int(bad.sum()))
    raise RuntimeError("could not draw negatives; catalog nearly saturated")


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
