"""Meta-paths: count encodings, reachability, subgraphs, neighbor sampling.

A meta-path is a chain of relation ids. Its fixed-length encoding counts
relation multiplicities; a set of paths is encoded as the L2-normalized
sum of member encodings. A subgraph is one reachability walk over all
start nodes at once, from the path's last relation back to its first:
each node holds the set of end nodes it reaches as a packed bitset, and a
head's set is the OR of its successors' sets, so only connectivity
matters, never instance counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hin import HinGraph, HinSchema

USER_SYMMETRIC = "user-symmetric"
ITEM_SYMMETRIC = "item-symmetric"

# The most relations a searched path may hold; apply_action extends no path past it.
MAX_PATH_LEN = 8


class MetaPathError(ValueError):
    pass


@dataclass(frozen=True)
class MetaPath:
    relation_ids: tuple[int, ...]
    node_types: tuple[str, ...]

    def __post_init__(self):
        if not self.relation_ids:
            raise MetaPathError("meta-path needs at least one relation")
        if len(self.node_types) != len(self.relation_ids) + 1:
            raise MetaPathError("node type sequence length must be relation count + 1")

    @classmethod
    def from_relations(cls, schema: HinSchema, relation_ids) -> "MetaPath":
        rids = tuple(int(r) for r in relation_ids)
        types = [schema.relation(rids[0]).head]
        for rid in rids:
            rel = schema.relation(rid)
            if rel.head != types[-1]:
                raise MetaPathError(
                    f"relations do not chain: {rel.name} starts at {rel.head}, path is at {types[-1]}"
                )
            types.append(rel.tail)
        return cls(rids, tuple(types))

    def __len__(self) -> int:
        return len(self.relation_ids)

    @property
    def start_type(self) -> str:
        return self.node_types[0]

    @property
    def end_type(self) -> str:
        return self.node_types[-1]

    @property
    def is_symmetric(self) -> bool:
        return self.start_type == self.end_type

    def label(self) -> str:
        """Node-type-initial string, e.g. UMAMU."""
        return "".join(t[0].upper() for t in self.node_types)


def _form_ok(path: MetaPath, form: str, schema: HinSchema) -> bool:
    if form == USER_SYMMETRIC:
        return path.start_type == path.end_type == schema.user_type
    if form == ITEM_SYMMETRIC:
        return path.start_type == path.end_type == schema.item_type
    raise MetaPathError(f"unknown path form {form!r}")


@dataclass(frozen=True)
class MetaPathSet:
    """Ordered, duplicate-free meta-path collection under one form constraint."""

    paths: tuple[MetaPath, ...]
    form: str
    schema: HinSchema = field(compare=False, repr=False)

    def __post_init__(self):
        keys = [p.relation_ids for p in self.paths]
        if len(set(keys)) != len(keys):
            raise MetaPathError("duplicate meta-paths in set")
        for p in self.paths:
            if not _form_ok(p, self.form, self.schema):
                raise MetaPathError(f"path {p.label()} violates form {self.form!r}")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.relation_ids for p in self.paths)

    def labels(self) -> list[str]:
        return [p.label() for p in self.paths]

    def contains(self, relation_ids) -> bool:
        return tuple(int(r) for r in relation_ids) in set(self.key())

    def replace(self, paths: tuple[MetaPath, ...]) -> "MetaPathSet":
        return MetaPathSet(paths, self.form, self.schema)


def encode_metapath(schema: HinSchema, path: MetaPath) -> np.ndarray:
    """Relation-multiplicity vector of length n."""
    counts = np.zeros(schema.n_relations, dtype=np.int64)
    for rid in path.relation_ids:
        counts[rid - 1] += 1
    return counts


def encode_set(schema: HinSchema, paths) -> np.ndarray:
    """L2-normalized sum of the member encodings; empty set maps to zero."""
    total = np.zeros(schema.n_relations, dtype=np.float64)
    for path in paths:
        total += encode_metapath(schema, path)
    norm = np.linalg.norm(total)
    if norm == 0.0:
        return total
    return total / norm


@dataclass(frozen=True)
class MetaPathSubgraph:
    """Homogeneous graph over the path's end type: edges are meta-path neighbor pairs.

    Node ids are type-local, and ``materialize_subgraph`` builds every row
    strictly increasing. Rows of non-isolated nodes also hold the self-loop,
    so a node can attend to itself during aggregation. Isolated nodes have
    empty rows. Density counts directed non-self edges over m*(m-1).
    """

    path: MetaPath
    node_type: str
    m: int
    indptr: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    density: float = 0.0


def materialize_subgraph(
    graph: HinGraph,
    path: MetaPath,
    threshold: float | None,
) -> MetaPathSubgraph | None:
    """Build the meta-path subgraph, or None when its density exceeds the threshold.

    Requires a symmetric path (same start and end node type). With
    ``threshold=None`` the density filter is disabled.

    The walk starts from the identity over the m end-type nodes, one row
    of ceil(m / 64) uint64 words per node, and takes the relations from
    the path's last to its first. For each, a head's row becomes the OR of
    its successors' rows: one gather of the relation's adjacency and one
    ``bitwise_or.reduceat`` over the heads that have edges. Row s of the
    last step then holds the end nodes start s reaches, in order, so the
    rows unpack straight into the m x m reachability.

    Memory: each step gathers nnz x ceil(m / 64) x 8 bytes, with nnz the
    relation's edge count, and the unpacked reachability takes m x m bytes
    (about 1 MB each on planted-mam's 1,100 movies).
    """
    if not path.is_symmetric:
        raise MetaPathError(f"subgraph requires symmetric meta-path, got {path.label()}")
    schema, offsets = graph.schema, graph.type_offsets
    t_idx = schema.type_index(path.end_type)
    m = int(offsets[t_idx + 1] - offsets[t_idx])
    own = np.arange(m)
    identity = np.zeros((m, -(-m // 64) * 8), dtype=np.uint8)
    identity[own, own >> 3] = 1 << (own & 7)  # bits run from the least significant within each byte
    reach = identity.view(np.uint64)  # row v: the end nodes v reaches
    for rid in reversed(path.relation_ids):
        rel = schema.relation(rid)
        h = schema.type_index(rel.head)
        h_lo, h_hi = int(offsets[h]), int(offsets[h + 1])
        t_lo = int(offsets[schema.type_index(rel.tail)])
        indptr, indices = graph.adjacency(rid)
        ptr = indptr[h_lo : h_hi + 1]
        heads = np.flatnonzero(np.diff(ptr))  # reduceat yields succ[start], not 0, for an empty segment
        step = np.zeros((h_hi - h_lo, reach.shape[1]), dtype=np.uint64)
        if len(heads):
            succ = reach[indices[ptr[0] : ptr[-1]] - t_lo]
            step[heads] = np.bitwise_or.reduceat(succ, ptr[heads] - ptr[0], axis=0)
        reach = step

    rows = np.unpackbits(reach.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)
    n_plain = int(np.count_nonzero(rows)) - int(np.count_nonzero(rows[own, own]))
    density = n_plain / (m * (m - 1)) if m > 1 else 0.0
    if threshold is not None and density > threshold:
        return None
    rows[own, own] |= rows.any(axis=1)
    flat = np.flatnonzero(rows)
    indptr = np.searchsorted(flat, np.arange(m + 1) * m)
    dst = flat % m  # a fresh array: keeping flatnonzero's own raised search-rms peak RSS by ~1.3 MB
    return MetaPathSubgraph(path, path.node_types[0], m, indptr, dst, density)


@dataclass(frozen=True)
class SampledView:
    """One epoch's sampled neighborhood: grouped edge arrays over m nodes.

    Every node has at least one edge; nodes isolated in the subgraph fall
    back to a self-only neighborhood.
    """

    m: int
    indptr: np.ndarray = field(repr=False)
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)


def sample_view(subgraph: MetaPathSubgraph, fanout: int, rng: np.random.Generator) -> SampledView:
    """Up to ``fanout`` neighbours per node, uniform without replacement.

    A node with at most ``fanout`` neighbours keeps its whole row as stored,
    and an isolated node gets itself; both are copied without drawing.
    Larger rows are drawn all at once by Floyd's algorithm (Bentley & Floyd,
    CACM 1987): a row holding the node keeps it and picks ``fanout - 1`` of
    the other entries, any other row picks ``fanout``. Round r draws one
    integer in ``[0, j]`` per row, with ``j`` the row's pool size minus the
    picks still to come, and takes ``j`` itself when the draw repeats an
    earlier pick; this gives every subset of the pool the same chance. Each
    drawn row is sorted. Only these draws use ``rng``.
    """
    if fanout <= 0:
        raise MetaPathError("fanout must be a positive integer")
    m = subgraph.m
    degrees = np.diff(subgraph.indptr)
    counts = np.where(degrees == 0, 1, np.minimum(degrees, fanout))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    src = np.repeat(np.arange(m), counts)
    dst = np.empty(int(indptr[-1]), dtype=np.int64)

    isolated = np.flatnonzero(degrees == 0)
    dst[indptr[isolated]] = isolated
    whole = (degrees > 0) & (degrees <= fanout)
    kept = np.repeat(whole, degrees)
    shift = np.repeat((indptr - subgraph.indptr)[:-1][whole], degrees[whole])
    dst[np.flatnonzero(kept) + shift] = subgraph.dst[kept]

    # Position of each row's self-loop within the row, or -1 (rows hold distinct nodes).
    owner = np.repeat(np.arange(m), degrees)
    self_edges = np.flatnonzero(subgraph.dst == owner)
    self_at = np.full(m, -1, dtype=np.int64)
    self_at[owner[self_edges]] = self_edges - subgraph.indptr[owner[self_edges]]
    big = np.flatnonzero(degrees > fanout)
    at = self_at[big]
    has_self = at >= 0
    # Pool positions 0 .. pool - 1; a self row's pool skips its self-loop.
    pool = degrees[big] - has_self
    picks = np.full((len(big), fanout), -1, dtype=np.int64)
    for r in range(fanout):
        active = np.flatnonzero(~has_self) if r == 0 else slice(None)
        j = pool[active] - fanout + r
        draw = rng.integers(0, j + 1)
        taken = (picks[active, :r] == draw[:, None]).any(axis=1)
        picks[active, r] = np.where(taken, j, draw)
    rows = picks + subgraph.indptr[big, None]
    rows += (picks >= at[:, None]) & has_self[:, None]  # step over the self-loop
    chosen = subgraph.dst[rows]
    chosen[has_self, 0] = big[has_self]
    chosen.sort(axis=1)
    dst[indptr[big, None] + np.arange(fanout)] = chosen
    return SampledView(m, indptr, src, dst)
