"""Typed heterogeneous graph: schema, loader, and relation-level adjacency.

A graph is immutable after load. Nodes get dense integer IDs grouped into
contiguous per-type ranges; the original string IDs are kept in a side
table. Every relation has a complement (the same edges read backwards) and
mirror edges are materialized automatically, so ``adjacency(comp(r))`` is
always the transpose of ``adjacency(r)``.

On disk a graph is one directory of ``schema.txt``, ``nodes.tsv`` and
``edges.tsv``. A dataset is checked once, where it is read:
:meth:`HinSchema.parse` checks the schema and :func:`load_graph` the two
TSVs, and each reports a fault as ``path:line``. What is built from their
output trusts it: :meth:`HinGraph.from_edges`, the graph's queries and the
rest of the package take the schema's types and complements as given, and
each relation's CSR as typed, sorted by (head, tail) and duplicate-free.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

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

        This is the only check of a schema; the constructor makes none.
        Each fault raises :class:`SchemaError` as ``source:line: ...``: an
        unrecognized or malformed line, a second ``node_types`` or
        ``interaction_relation`` line, a node type declared twice, a
        relation endpoint that is not a declared type, a relation or
        complement name declared twice, a self-complementary relation whose
        head and tail differ, or an undeclared interaction relation. A
        missing ``node_types`` line is reported as ``source: ...``.
        """
        node_types: list[str] = []
        rel_specs: list[tuple[int, str, str, str, str]] = []
        types_line = interaction_line = 0
        interaction_name = ""
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("node_types:"):
                if types_line:
                    raise SchemaError(f"{source}:{line_no}: node_types declared twice")
                node_types = [t.strip() for t in line.split(":", 1)[1].split(",") if t.strip()]
                types_line = line_no
            elif line.startswith("interaction_relation:"):
                if interaction_line:
                    raise SchemaError(f"{source}:{line_no}: interaction_relation declared twice")
                interaction_name = line.split(":", 1)[1].strip()
                interaction_line = line_no
            elif "->" in line:
                try:
                    name, rest = (p.strip() for p in line.split(":", 1))
                    ends, comp_name = (p.strip() for p in rest.split("~", 1))
                    head, tail = (p.strip() for p in ends.split("->", 1))
                except ValueError:
                    raise SchemaError(f"{source}:{line_no}: malformed relation line {raw!r}") from None
                rel_specs.append((line_no, name, head, tail, comp_name))
            else:
                raise SchemaError(f"{source}:{line_no}: unrecognized schema line {raw!r}")
        if not node_types:
            raise SchemaError(f"{source}: missing node_types line")
        twice = [t for k, t in enumerate(node_types) if t in node_types[:k]]
        if twice:
            raise SchemaError(f"{source}:{types_line}: node type {twice[0]!r} declared twice")

        relations: list[Relation] = []
        index: dict[str, int] = {}
        for line_no, name, head, tail, comp_name in rel_specs:
            unknown = [t for t in (head, tail) if t not in node_types]
            if unknown:
                raise SchemaError(f"{source}:{line_no}: relation {name!r} references unknown node type {unknown[0]!r}")
            if name in index:
                raise SchemaError(f"{source}:{line_no}: relation {name!r} declared twice")
            if comp_name == name:
                if head != tail:
                    raise SchemaError(f"{source}:{line_no}: self-complementary {name!r} must have head == tail")
                rid = len(relations) + 1
                relations.append(Relation(rid, name, head, tail, rid))
                index[name] = rid
            else:
                if comp_name in index:
                    raise SchemaError(f"{source}:{line_no}: complement {comp_name!r} already declared")
                rid = len(relations) + 1
                relations.append(Relation(rid, name, head, tail, rid + 1))
                relations.append(Relation(rid + 1, comp_name, tail, head, rid))
                index[name] = rid
                index[comp_name] = rid + 1
        interaction = 0
        if interaction_name:
            if interaction_name not in index:
                raise SchemaError(
                    f"{source}:{interaction_line}: interaction relation {interaction_name!r} not declared"
                )
            interaction = index[interaction_name]
        return cls(tuple(node_types), tuple(relations), interaction)

    @classmethod
    def from_file(cls, path: str | Path) -> "HinSchema":
        return cls.parse(Path(path).read_text(encoding="utf-8"), source=str(path))


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

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        schema: HinSchema,
        nodes: list[tuple[str, str]],
        edges: np.ndarray | list[tuple[int, int, int]],
    ) -> "HinGraph":
        """Build from (string_id, type_name) nodes and (rid, src, dst) dense-id edges.

        ``edges`` is an (E, 3) integer array or a list of ``(rid, src, dst)``
        tuples. ``nodes`` order fixes the dense ids (grouped by type, file
        order within a type) before this is called; see :func:`load_graph`.
        Each edge is also added reversed, under its relation's complement.
        Nothing is checked: every node type must be the schema's, and every
        edge's relation id in 1..n with endpoints of its head and tail
        types, as :func:`load_graph` makes sure.
        """
        sizes = np.zeros(len(schema.node_types) + 1, dtype=np.int64)
        for tname, count in Counter(tname for _, tname in nodes).items():
            sizes[schema.type_index(tname) + 1] = count
        offsets = np.cumsum(sizes)
        names = tuple(sid for sid, _ in nodes)

        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        comp = np.asarray([0] + [rel.comp for rel in schema.relations], dtype=np.int64)
        arr = np.concatenate([arr, np.stack([comp[arr[:, 0]], arr[:, 2], arr[:, 1]], axis=1)])
        by_rel: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        num_nodes = int(offsets[-1])
        for rel in schema.relations:
            sel = arr[arr[:, 0] == rel.rid]
            by_rel[rel.rid] = _build_csr(sel[:, 1], sel[:, 2], num_nodes)
        return cls(schema, offsets, names, by_rel)

    # -- queries -----------------------------------------------------------

    def type_count(self, type_name: str) -> int:
        t = self.schema.type_index(type_name)
        return int(self.type_offsets[t + 1] - self.type_offsets[t])

    def adjacency(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        self.schema.relation(rid)
        return self._adj[rid]

    def edge_count(self, rid: int) -> int:
        return int(len(self._adj[rid][1]))

    def interactions(self) -> np.ndarray:
        """The interaction relation's CSR as a (k, 2) int64 array of (user, item) global ids,
        so sorted by user, then item, and duplicate-free."""
        indptr, items = self.adjacency(self.schema.interaction)
        return np.stack([np.repeat(np.arange(self.num_nodes), np.diff(indptr)), items], axis=1)

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
        comp = self.schema.relation(rid).comp
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        adj = dict(self._adj)
        adj[rid] = _remove_pairs(self._adj[rid], pairs, self.num_nodes)
        adj[comp] = _remove_pairs(self._adj[comp], pairs[:, ::-1], self.num_nodes)
        return HinGraph(self.schema, self.type_offsets, self.node_names, adj)


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
    """A copy of the CSR without the (src, dst) ``pairs``; the edges that stay keep their sorted order."""
    indptr, indices = csr
    src = np.repeat(np.arange(num_nodes), np.diff(indptr))
    keep = ~np.isin(src * num_nodes + indices, pairs[:, 0] * num_nodes + pairs[:, 1])
    kept = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[indptr], indices[keep]


def _parse_tsv(path: str | Path, n_fields: int) -> tuple[np.ndarray, list[list[str]]]:
    """The 1-based line numbers of a TSV file's data lines, and its fields column by column.

    Blank lines and lines whose first non-blank character is '#' are skipped
    but counted. The whole file is parsed before anything is returned, so
    the first line without ``n_fields`` tab-separated fields is reported
    ahead of any check on the values.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = [k for k, line in enumerate(lines) if (text := line.lstrip()) and text[0] != "#"]
    data = [lines[k] for k in rows]
    tabs = np.fromiter(map(str.count, data, repeat("\t")), dtype=np.int64, count=len(data))
    bad = np.flatnonzero(tabs != n_fields - 1)
    if len(bad):
        k = int(bad[0])
        raise GraphLoadError(path, rows[k] + 1, f"expected {n_fields} tab-separated fields, got {tabs[k] + 1}")
    fields = "\t".join(data).split("\t") if data else []
    return np.asarray(rows, dtype=np.int64) + 1, [fields[j::n_fields] for j in range(n_fields)]


def load_graph(nodes_path: str | Path, edges_path: str | Path, schema: HinSchema) -> HinGraph:
    """Load and validate a graph from node/edge TSV files.

    Node lines are ``<string_id>\\t<type>``; edge lines are
    ``<src>\\t<relation>\\t<dst>``. Duplicate lines are dropped, mirror
    edges under complements are materialized, and every structural error
    is reported with its file line number.

    The checks run in this order, and the first offending line of each
    step raises :class:`GraphLoadError`:

    1. the node file's field counts;
    2. per node line: a known type, then no re-declaration with another type;
    3. the edge file's field counts;
    4. per edge line: a known relation, then a declared source id, then a
       declared destination id, then endpoint types matching the relation.

    These are the graph's only checks, and ``schema`` is trusted as
    :meth:`HinSchema.parse` built it.
    """
    node_lines, (sids, tnames) = _parse_tsv(nodes_path, 2)
    type_of = {t: k for k, t in enumerate(schema.node_types)}
    tix = np.fromiter(map(type_of.get, tnames, repeat(-1)), dtype=np.int64, count=len(tnames))
    # The row of each id's first declaration: dict() keeps the last value it
    # is given for a key, so it is fed the rows last to first.
    first = dict(zip(reversed(sids), range(len(sids) - 1, -1, -1)))
    first_row = np.fromiter(map(first.__getitem__, sids), dtype=np.int64, count=len(sids))
    bad = np.flatnonzero((tix < 0) | (tix != tix[first_row]))
    if len(bad):
        k = int(bad[0])
        if tix[k] < 0:
            raise GraphLoadError(nodes_path, int(node_lines[k]), f"unknown node type {tnames[k]!r}")
        prev = tnames[first_row[k]]
        raise GraphLoadError(
            nodes_path, int(node_lines[k]), f"node {sids[k]!r} re-declared with type {tnames[k]!r} (was {prev!r})"
        )

    # Dense ids: types in schema order, file order within each type.
    kept = np.flatnonzero(first_row == np.arange(len(sids)))
    grouped = kept[np.argsort(tix[kept], kind="stable")]
    nodes = [(sids[r], tnames[r]) for r in grouped.tolist()]
    dense = dict(zip((sid for sid, _ in nodes), range(len(nodes))))
    types = np.append(tix[grouped], -1)  # index -1 (an undeclared id) reads -1

    edge_lines, (src_s, rel_s, dst_s) = _parse_tsv(edges_path, 3)
    rid_of: dict[str, int] = {}
    for name in dict.fromkeys(rel_s):
        try:
            rid_of[name] = schema.by_name(name).rid
        except SchemaError:
            rid_of[name] = 0
    n = len(rel_s)
    rid = np.fromiter(map(rid_of.__getitem__, rel_s), dtype=np.int64, count=n)
    src = np.fromiter(map(dense.get, src_s, repeat(-1)), dtype=np.int64, count=n)
    dst = np.fromiter(map(dense.get, dst_s, repeat(-1)), dtype=np.int64, count=n)
    head = np.asarray([-1] + [type_of[rel.head] for rel in schema.relations], dtype=np.int64)
    tail = np.asarray([-1] + [type_of[rel.tail] for rel in schema.relations], dtype=np.int64)
    bad = np.flatnonzero((rid == 0) | (src < 0) | (dst < 0) | (types[src] != head[rid]) | (types[dst] != tail[rid]))
    if len(bad):
        k = int(bad[0])
        line_no = int(edge_lines[k])
        if not rid[k]:
            raise GraphLoadError(edges_path, line_no, f"unknown relation name {rel_s[k]!r}")
        for sid, v in ((src_s[k], src[k]), (dst_s[k], dst[k])):
            if v < 0:
                raise GraphLoadError(edges_path, line_no, f"dangling node id {sid!r}")
        rel = schema.relation(int(rid[k]))
        raise GraphLoadError(
            edges_path,
            line_no,
            f"endpoint-type mismatch at line {line_no}: {rel_s[k]} expects "
            f"{rel.head}->{rel.tail}, got {schema.node_types[types[src[k]]]}->{schema.node_types[types[dst[k]]]}",
        )

    graph = HinGraph.from_edges(schema, nodes, np.stack([rid, src, dst], axis=1))
    log.info("loaded graph: %s", graph.stats())
    return graph
