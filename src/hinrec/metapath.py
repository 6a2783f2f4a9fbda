"""Meta-paths: count encodings, reachability, subgraphs, neighbor sampling.

A meta-path is a chain of relation ids. Its fixed-length encoding counts
relation multiplicities; a set of paths is encoded as the L2-normalized
sum of member encodings. A subgraph is built a block of start nodes at a
time: a dense 0/1 frontier per block is stepped through each relation's
transposed adjacency and clipped back to 0/1, so only connectivity
matters, never instance counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .hin import HinGraph, HinSchema

USER_SYMMETRIC = "user-symmetric"
ITEM_SYMMETRIC = "item-symmetric"

# The most relations a searched path may hold; apply_action extends no path past it.
MAX_PATH_LEN = 8
# Start nodes per frontier block in materialize_subgraph; a block holds at
# most (type size x FRONTIER_BLOCK) float32 entries.
FRONTIER_BLOCK = 256


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


def _form_ok(path: MetaPath, form: str | None, schema: HinSchema) -> bool:
    if form is None:
        return True
    if form == USER_SYMMETRIC:
        return path.start_type == path.end_type == schema.user_type
    if form == ITEM_SYMMETRIC:
        return path.start_type == path.end_type == schema.item_type
    raise MetaPathError(f"unknown path form {form!r}")


@dataclass(frozen=True)
class MetaPathSet:
    """Ordered, duplicate-free meta-path collection under one form constraint."""

    paths: tuple[MetaPath, ...]
    form: str | None = None
    schema: HinSchema | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        keys = [p.relation_ids for p in self.paths]
        if len(set(keys)) != len(keys):
            raise MetaPathError("duplicate meta-paths in set")
        if self.form is not None:
            if self.schema is None:
                raise MetaPathError("a form-constrained set needs its schema")
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
    strictly increasing. With ``self_loops=True`` rows of non-isolated nodes
    also hold the self-loop, so a node can attend to itself during
    aggregation; with ``self_loops=False`` a row holds the node only when
    the path leads back to it. Isolated nodes have empty rows. Density
    counts directed non-self edges over m*(m-1).
    """

    path: MetaPath
    node_type: str
    m: int
    indptr: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    density: float = 0.0


def _transposed_block(graph: HinGraph, rid: int) -> sp.csr_matrix:
    """Relation ``rid``'s head x tail adjacency over type-local ids, transposed."""
    rel = graph.schema.relation(rid)
    offsets = graph.type_offsets
    h = graph.schema.type_index(rel.head)
    t = graph.schema.type_index(rel.tail)
    h_lo, h_hi, t_lo = int(offsets[h]), int(offsets[h + 1]), int(offsets[t])
    indptr, indices = graph.adjacency(rid)
    ptr = indptr[h_lo : h_hi + 1] - indptr[h_lo]
    idx = indices[indptr[h_lo] : indptr[h_hi]] - t_lo
    block = sp.csr_matrix(
        (np.ones(len(idx), dtype=np.float32), idx, ptr),
        shape=(h_hi - h_lo, int(offsets[t + 1]) - t_lo),
    )
    return block.T.tocsr()


def materialize_subgraph(
    graph: HinGraph,
    path: MetaPath,
    threshold: float | None = 0.5,
    self_loops: bool = True,
) -> MetaPathSubgraph | None:
    """Build the meta-path subgraph, or None when its density exceeds the threshold.

    Requires a symmetric path (same start and end node type). With
    ``threshold=None`` the density filter is disabled.

    Start nodes are taken ``FRONTIER_BLOCK`` at a time. A block's frontier
    is a dense 0/1 float32 array (nodes of the current type x block); each
    relation steps it as ``R.T @ frontier != 0``, with R the relation's own
    head x tail adjacency. The count of off-diagonal pairs only grows from
    block to block, so the path is rejected as soon as the count so far
    puts its density above the threshold: the same decision as counting
    every block first.
    """
    if not path.is_symmetric:
        raise MetaPathError(f"subgraph requires symmetric meta-path, got {path.label()}")
    t_idx = graph.schema.type_index(path.node_types[0])
    m = int(graph.type_offsets[t_idx + 1] - graph.type_offsets[t_idx])
    steps = [_transposed_block(graph, rid) for rid in path.relation_ids]

    n_plain = 0
    found = [np.empty(0, dtype=np.int64)]  # row-major positions in the m x m reachability
    for b0 in range(0, m, FRONTIER_BLOCK):
        width = min(FRONTIER_BLOCK, m - b0)
        own = np.arange(width)
        reach = np.zeros((m, width), dtype=bool)
        reach[b0 + own, own] = True
        for step in steps:
            reach = step @ reach.astype(np.float32) != 0  # counts <= type size: exact in float32
        rows = np.ascontiguousarray(reach.T)  # row k: start node b0 + k
        n_plain += int(np.count_nonzero(rows) - np.count_nonzero(rows[own, b0 + own]))
        if threshold is not None and m > 1 and n_plain / (m * (m - 1)) > threshold:
            return None
        if self_loops:
            rows[own, b0 + own] |= rows.any(axis=1)
        found.append(np.flatnonzero(rows) + b0 * m)

    density = n_plain / (m * (m - 1)) if m > 1 else 0.0
    if threshold is not None and density > threshold:
        return None
    src, dst = np.divmod(np.concatenate(found), m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=indptr[1:])
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
