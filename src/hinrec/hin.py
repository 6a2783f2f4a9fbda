"""Typed heterogeneous graph: schema, loader, and relation-level adjacency.

A graph is immutable after load. Nodes get dense integer IDs grouped into
contiguous per-type ranges; the original string IDs are kept in a side
table. Every relation has a complement (the same edges read backwards) and
mirror edges are materialized automatically, so ``neighbors(comp(r), w)``
is always consistent with ``neighbors(r, v)``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .checkpoint import load_arrays, save_arrays

log = logging.getLogger(__name__)

STOP_ACTION = 0  # action id 0 is reserved; relation ids start at 1


class SchemaError(ValueError):
    pass


class GraphLoadError(ValueError):
    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class Relation:
    rid: int
    name: str
    head: str
    tail: str
    comp: int


@dataclass(frozen=True)
class HinSchema:
    """Node types plus a dense 1..n numbering of directed relation types.

    Opposite directions of the same link (watch / watched) are distinct
    relations; ``comp`` maps each onto its reverse. A schema may designate
    one relation as the user-item interaction.
    """

    node_types: tuple[str, ...]
    relations: tuple[Relation, ...]
    interaction: int = 0

    def __post_init__(self):
        if len(set(self.node_types)) != len(self.node_types):
            raise SchemaError("duplicate node type names")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate relation names")
        for i, rel in enumerate(self.relations, start=1):
            if rel.rid != i:
                raise SchemaError(f"relation ids must be dense 1..n, got {rel.rid} at slot {i}")
            if rel.head not in self.node_types or rel.tail not in self.node_types:
                raise SchemaError(f"relation {rel.name!r} references unknown node type")
            if not 1 <= rel.comp <= len(self.relations):
                raise SchemaError(f"relation {rel.name!r} has out-of-range complement {rel.comp}")
        for rel in self.relations:
            other = self.relations[rel.comp - 1]
            if other.comp != rel.rid:
                raise SchemaError(f"complement of complement of {rel.name!r} is not itself")
            if other.head != rel.tail or other.tail != rel.head:
                raise SchemaError(f"complement of {rel.name!r} does not reverse its endpoints")
        if self.interaction:
            if not 1 <= self.interaction <= len(self.relations):
                raise SchemaError("interaction relation id out of range")

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def relation(self, rid: int) -> Relation:
        if not 1 <= rid <= len(self.relations):
            raise SchemaError(f"relation id {rid} out of range 1..{len(self.relations)}")
        return self.relations[rid - 1]

    def by_name(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise SchemaError(f"unknown relation name {name!r}")

    def type_index(self, name: str) -> int:
        try:
            return self.node_types.index(name)
        except ValueError:
            raise SchemaError(f"unknown node type {name!r}") from None

    @property
    def user_type(self) -> str:
        return self.relation(self.interaction).head

    @property
    def item_type(self) -> str:
        return self.relation(self.interaction).tail

    @classmethod
    def parse(cls, text: str, source: str = "<schema>") -> "HinSchema":
        """Parse the key-value schema format.

        Lines: ``node_types: A, B, ...``, one relation per line as
        ``name: Head -> Tail ~ complement_name``, and optionally
        ``interaction_relation: name``. '#' starts a comment.
        """
        node_types: list[str] = []
        rel_specs: list[tuple[str, str, str, str]] = []
        interaction_name = ""
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("node_types:"):
                node_types = [t.strip() for t in line.split(":", 1)[1].split(",") if t.strip()]
            elif line.startswith("interaction_relation:"):
                interaction_name = line.split(":", 1)[1].strip()
            elif "->" in line:
                try:
                    name, rest = (p.strip() for p in line.split(":", 1))
                    ends, comp_name = (p.strip() for p in rest.split("~", 1))
                    head, tail = (p.strip() for p in ends.split("->", 1))
                except ValueError:
                    raise SchemaError(f"{source}:{line_no}: malformed relation line {raw!r}") from None
                rel_specs.append((name, head, tail, comp_name))
            else:
                raise SchemaError(f"{source}:{line_no}: unrecognized schema line {raw!r}")
        if not node_types:
            raise SchemaError(f"{source}: missing node_types line")

        relations: list[Relation] = []
        index: dict[str, int] = {}
        for name, head, tail, comp_name in rel_specs:
            if name in index:
                raise SchemaError(f"{source}: relation {name!r} declared twice")
            if comp_name == name:
                if head != tail:
                    raise SchemaError(f"{source}: self-complementary {name!r} must have head == tail")
                rid = len(relations) + 1
                relations.append(Relation(rid, name, head, tail, rid))
                index[name] = rid
            else:
                if comp_name in index:
                    raise SchemaError(f"{source}: complement {comp_name!r} already declared")
                rid = len(relations) + 1
                relations.append(Relation(rid, name, head, tail, rid + 1))
                relations.append(Relation(rid + 1, comp_name, tail, head, rid))
                index[name] = rid
                index[comp_name] = rid + 1
        interaction = 0
        if interaction_name:
            if interaction_name not in index:
                raise SchemaError(f"{source}: interaction relation {interaction_name!r} not declared")
            interaction = index[interaction_name]
        return cls(tuple(node_types), tuple(relations), interaction)

    @classmethod
    def from_file(cls, path: str | Path) -> "HinSchema":
        return cls.parse(Path(path).read_text(encoding="utf-8"), source=str(path))

    def to_text(self) -> str:
        lines = ["node_types: " + ", ".join(self.node_types)]
        seen: set[int] = set()
        for rel in self.relations:
            if rel.rid in seen:
                continue
            comp = self.relations[rel.comp - 1]
            lines.append(f"{rel.name}: {rel.head} -> {rel.tail} ~ {comp.name}")
            seen.add(rel.rid)
            seen.add(comp.rid)
        if self.interaction:
            lines.append(f"interaction_relation: {self.relation(self.interaction).name}")
        return "\n".join(lines) + "\n"


def complement_relation(schema: HinSchema, rid: int) -> int:
    """Complement relation id; rejects the reserved STOP id 0."""
    if rid == STOP_ACTION:
        raise SchemaError("relation id 0 is the reserved STOP action, not a relation")
    return schema.relation(rid).comp


@dataclass(frozen=True)
class InteractionSet:
    """Deduplicated (user, item) pairs under the designated relation."""

    relation: int
    pairs: np.ndarray = field(repr=False)  # (k, 2) global node ids, lexicographically sorted

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        if len(pairs):
            keep = np.ones(len(pairs), dtype=bool)
            keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
            pairs = pairs[keep]
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class HinGraph:
    """Immutable typed multigraph with per-relation CSR adjacency."""

    def __init__(
        self,
        schema: HinSchema,
        type_offsets: np.ndarray,
        node_names: tuple[str, ...],
        adjacency: dict[int, tuple[np.ndarray, np.ndarray]],
    ):
        self.schema = schema
        self.type_offsets = np.asarray(type_offsets, dtype=np.int64)
        self.node_names = node_names
        self._adj = adjacency  # rid -> (indptr over all nodes, sorted dst indices)
        self.num_nodes = int(self.type_offsets[-1])
        self._type_of = np.empty(self.num_nodes, dtype=np.int64)
        for t in range(len(schema.node_types)):
            self._type_of[self.type_offsets[t] : self.type_offsets[t + 1]] = t
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        schema: HinSchema,
        nodes: list[tuple[str, str]],
        edges: list[tuple[int, int, int]],
        mirror: bool = True,
    ) -> "HinGraph":
        """Build from (string_id, type_name) nodes and (rid, src, dst) dense-id edges.

        ``nodes`` order fixes the dense ids (grouped by type, file order
        within a type) before this is called; see :func:`load_graph`.
        """
        counts = np.zeros(len(schema.node_types) + 1, dtype=np.int64)
        for _, tname in nodes:
            counts[schema.type_index(tname) + 1] += 1
        offsets = np.cumsum(counts)
        names = tuple(sid for sid, _ in nodes)

        if mirror:
            mirrored = [(schema.relation(rid).comp, dst, src) for rid, src, dst in edges]
            edges = edges + mirrored
        by_rel: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        num_nodes = int(offsets[-1])
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        for rel in schema.relations:
            sel = arr[arr[:, 0] == rel.rid]
            by_rel[rel.rid] = _build_csr(sel[:, 1], sel[:, 2], num_nodes)
        return cls(schema, offsets, names, by_rel)

    def _validate(self) -> None:
        for rel in self.schema.relations:
            indptr, indices = self._adj[rel.rid]
            head_t = self.schema.type_index(rel.head)
            tail_t = self.schema.type_index(rel.tail)
            src = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
            if len(src) and not (
                np.all(self._type_of[src] == head_t) and np.all(self._type_of[indices] == tail_t)
            ):
                raise SchemaError(f"edges under {rel.name!r} violate endpoint types")

    # -- queries -----------------------------------------------------------

    def node_type_index(self, v: int) -> int:
        return int(self._type_of[v])

    def node_type(self, v: int) -> str:
        return self.schema.node_types[self.node_type_index(v)]

    def type_count(self, type_name: str) -> int:
        t = self.schema.type_index(type_name)
        return int(self.type_offsets[t + 1] - self.type_offsets[t])

    def neighbors(self, rid: int, v: int) -> np.ndarray:
        """Sorted dst nodes of edges (v, .) under rid; empty on type mismatch."""
        rel = self.schema.relation(rid)
        if self.node_type(v) != rel.head:
            return np.empty(0, dtype=np.int64)
        indptr, indices = self._adj[rid]
        return indices[indptr[v] : indptr[v + 1]]

    def adjacency(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        self.schema.relation(rid)
        return self._adj[rid]

    def edges(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        indptr, indices = self._adj[rid]
        src = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        return src, indices.copy()

    def edge_count(self, rid: int) -> int:
        return int(len(self._adj[rid][1]))

    def relation_matrix(self, rid: int) -> sp.csr_matrix:
        """Boolean reachability matrix of one relation over all global ids."""
        indptr, indices = self._adj[rid]
        data = np.ones(len(indices), dtype=np.float64)
        return sp.csr_matrix((data, indices, indptr), shape=(self.num_nodes, self.num_nodes))

    def interactions(self) -> InteractionSet:
        rid = self.schema.interaction
        if not rid:
            raise SchemaError("schema designates no interaction relation")
        src, dst = self.edges(rid)
        return InteractionSet(rid, np.stack([src, dst], axis=1))

    def stats(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "nodes_per_type": {
                t: self.type_count(t) for t in self.schema.node_types
            },
            "edges_per_relation": {
                rel.name: self.edge_count(rel.rid) for rel in self.schema.relations
            },
        }

    # -- derived graphs ----------------------------------------------------

    def without_interactions(self, pairs: np.ndarray) -> "HinGraph":
        """Copy with the given (user, item) interaction edges (and mirrors) removed."""
        rid = self.schema.interaction
        if not rid:
            raise SchemaError("schema designates no interaction relation")
        comp = self.schema.relation(rid).comp
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        adj = dict(self._adj)
        adj[rid] = _remove_pairs(self._adj[rid], pairs, self.num_nodes)
        adj[comp] = _remove_pairs(self._adj[comp], pairs[:, ::-1], self.num_nodes)
        return HinGraph(self.schema, self.type_offsets, self.node_names, adj)

    # -- serialization -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        header = {
            "kind": "hin-bundle",
            "format": 1,
            "schema": self.schema.to_text(),
            "node_names": list(self.node_names),
        }
        arrays: dict[str, np.ndarray] = {"type_offsets": self.type_offsets}
        for rid, (indptr, indices) in self._adj.items():
            arrays[f"adj.{rid}.indptr"] = indptr
            arrays[f"adj.{rid}.indices"] = indices
        save_arrays(path, header, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "HinGraph":
        header, arrays = load_arrays(path)
        if header.get("kind") != "hin-bundle":
            raise GraphLoadError(path, 0, "not a hin bundle")
        schema = HinSchema.parse(header["schema"], source=str(path))
        adj = {
            rel.rid: (arrays[f"adj.{rel.rid}.indptr"], arrays[f"adj.{rel.rid}.indices"])
            for rel in schema.relations
        }
        return cls(schema, arrays["type_offsets"], tuple(header["node_names"]), adj)


def _build_csr(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, duplicate-free CSR from parallel src/dst arrays."""
    if len(src):
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)


def _remove_pairs(
    csr: tuple[np.ndarray, np.ndarray], pairs: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    indptr, indices = csr
    src = np.repeat(np.arange(num_nodes), np.diff(indptr))
    if len(pairs) == 0 or len(src) == 0:
        return indptr.copy(), indices.copy()
    edge_keys = src * num_nodes + indices
    kill_keys = pairs[:, 0] * num_nodes + pairs[:, 1]
    keep = ~np.isin(edge_keys, kill_keys)
    return _build_csr(src[keep], indices[keep], num_nodes)


def _parse_tsv(path: str | Path, n_fields: int) -> list[tuple[int, list[str]]]:
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise GraphLoadError(path, line_no, f"expected {n_fields} tab-separated fields, got {len(parts)}")
            rows.append((line_no, parts))
    return rows


def load_graph(nodes_path: str | Path, edges_path: str | Path, schema: HinSchema) -> HinGraph:
    """Load and validate a graph from node/edge TSV files.

    Node lines are ``<string_id>\\t<type>``; edge lines are
    ``<src>\\t<relation>\\t<dst>``. Duplicate lines are dropped, mirror
    edges under complements are materialized, and every structural error
    is reported with its file line number.
    """
    raw_nodes = _parse_tsv(nodes_path, 2)
    node_type_of: dict[str, str] = {}
    ordered: list[tuple[str, str]] = []
    for line_no, (sid, tname) in raw_nodes:
        if tname not in schema.node_types:
            raise GraphLoadError(nodes_path, line_no, f"unknown node type {tname!r}")
        prev = node_type_of.get(sid)
        if prev is None:
            node_type_of[sid] = tname
            ordered.append((sid, tname))
        elif prev != tname:
            raise GraphLoadError(nodes_path, line_no, f"node {sid!r} re-declared with type {tname!r} (was {prev!r})")

    # Dense ids: types in schema order, file order within each type.
    grouped = sorted(ordered, key=lambda nt: schema.type_index(nt[1]))
    dense: dict[str, int] = {sid: i for i, (sid, _) in enumerate(grouped)}

    edges: list[tuple[int, int, int]] = []
    for line_no, (src_s, rel_name, dst_s) in _parse_tsv(edges_path, 3):
        try:
            rel = schema.by_name(rel_name)
        except SchemaError:
            raise GraphLoadError(edges_path, line_no, f"unknown relation name {rel_name!r}") from None
        if src_s not in dense:
            raise GraphLoadError(edges_path, line_no, f"dangling node id {src_s!r}")
        if dst_s not in dense:
            raise GraphLoadError(edges_path, line_no, f"dangling node id {dst_s!r}")
        if node_type_of[src_s] != rel.head or node_type_of[dst_s] != rel.tail:
            raise GraphLoadError(
                edges_path,
                line_no,
                f"endpoint-type mismatch at line {line_no}: {rel_name} expects "
                f"{rel.head}->{rel.tail}, got {node_type_of[src_s]}->{node_type_of[dst_s]}",
            )
        edges.append((rel.rid, dense[src_s], dense[dst_s]))

    graph = HinGraph.from_edges(schema, grouped, edges)
    log.info("loaded graph: %s", graph.stats())
    return graph
