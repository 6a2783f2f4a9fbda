import numpy as np
import pytest

from hinrec.hin import (
    GraphLoadError,
    HinGraph,
    HinSchema,
    SchemaError,
    load_graph,
)

from conftest import MOVIE_SCHEMA_TEXT, adjacency_row, graph_from


def write_dataset(tmp_path, nodes_text, edges_text, schema_text=MOVIE_SCHEMA_TEXT):
    (tmp_path / "schema.txt").write_text(schema_text)
    (tmp_path / "nodes.tsv").write_text(nodes_text)
    (tmp_path / "edges.tsv").write_text(edges_text)
    schema = HinSchema.from_file(tmp_path / "schema.txt")
    return tmp_path / "nodes.tsv", tmp_path / "edges.tsv", schema


class TestSchema:
    def test_parse_assigns_dense_ids(self, movie_schema):
        assert movie_schema.n_relations == 6
        assert movie_schema.by_name("watch").rid == 1
        assert movie_schema.by_name("watched").rid == 2
        assert movie_schema.by_name("directed").rid == 6

    def test_complement_pairs(self, movie_schema):
        watch = movie_schema.by_name("watch")
        watched = movie_schema.by_name("watched")
        assert watch.comp == watched.rid
        assert watched.comp == watch.rid
        assert watched.head == "Movie" and watched.tail == "User"

    def test_complement_involution(self, movie_schema):
        for rel in movie_schema.relations:
            assert movie_schema.relation(movie_schema.relation(rel.rid).comp).comp == rel.rid

    def test_complement_rejects_stop_and_range(self, movie_schema):
        with pytest.raises(SchemaError):
            movie_schema.relation(0)  # the reserved STOP action
        with pytest.raises(SchemaError):
            movie_schema.relation(7)

    def test_interaction_designation(self, movie_schema):
        assert movie_schema.user_type == "User"
        assert movie_schema.item_type == "Movie"

    def test_self_complementary_relation(self):
        schema = HinSchema.parse(
            "node_types: User\nfriend: User -> User ~ friend\ninteraction_relation: friend\n"
        )
        assert schema.n_relations == 1
        assert schema.relation(1).comp == 1

    def test_round_trip_text(self, movie_schema):
        again = HinSchema.parse(movie_schema.to_text())
        assert again == movie_schema

    def test_bad_complement_rejected(self):
        with pytest.raises(SchemaError):
            HinSchema.parse("node_types: A, B\nr1: A -> B ~ r1\n")


class TestLoader:
    def test_mirror_materialization(self, tmp_path, movie_schema):
        nodes, edges, schema = write_dataset(
            tmp_path, "U1\tUser\nM1\tMovie\n", "U1\twatch\tM1\n"
        )
        graph = load_graph(nodes, edges, schema)
        assert graph.num_nodes == 2
        assert graph.edge_count(schema.by_name("watch").rid) == 1
        assert graph.edge_count(schema.by_name("watched").rid) == 1
        u1 = graph.node_names.index("U1")
        m1 = graph.node_names.index("M1")
        assert adjacency_row(graph, schema.by_name("watch").rid, u1).tolist() == [m1]
        assert adjacency_row(graph, schema.by_name("watched").rid, m1).tolist() == [u1]

    def test_empty_edges_file(self, tmp_path):
        nodes, edges, schema = write_dataset(tmp_path, "U1\tUser\nM1\tMovie\n", "# none\n")
        graph = load_graph(nodes, edges, schema)
        assert graph.num_nodes == 2
        assert all(graph.edge_count(r.rid) == 0 for r in schema.relations)

    def test_endpoint_type_mismatch_reports_line(self, tmp_path):
        nodes, edges, schema = write_dataset(tmp_path, "U1\tUser\nM1\tMovie\n", "M1\twatch\tU1\n")
        with pytest.raises(GraphLoadError, match="endpoint-type mismatch at line 1"):
            load_graph(nodes, edges, schema)

    def test_unknown_node_type(self, tmp_path):
        nodes, edges, schema = write_dataset(tmp_path, "U1\tAlien\n", "")
        with pytest.raises(GraphLoadError, match="unknown node type"):
            load_graph(nodes, edges, schema)

    def test_unknown_relation(self, tmp_path):
        nodes, edges, schema = write_dataset(tmp_path, "U1\tUser\nM1\tMovie\n", "U1\tkiss\tM1\n")
        with pytest.raises(GraphLoadError, match="unknown relation name"):
            load_graph(nodes, edges, schema)

    def test_dangling_node(self, tmp_path):
        nodes, edges, schema = write_dataset(tmp_path, "U1\tUser\n", "U1\twatch\tM9\n")
        with pytest.raises(GraphLoadError, match="dangling node id 'M9'"):
            load_graph(nodes, edges, schema)

    def test_duplicate_edges_deduplicated(self, tmp_path):
        nodes, edges, schema = write_dataset(
            tmp_path,
            "U1\tUser\nM1\tMovie\n",
            "U1\twatch\tM1\nU1\twatch\tM1\nM1\twatched\tU1\n",
        )
        graph = load_graph(nodes, edges, schema)
        assert graph.edge_count(schema.by_name("watch").rid) == 1
        assert graph.edge_count(schema.by_name("watched").rid) == 1

    def test_loader_counts_match_stats(self, tmp_path):
        nodes, edges, schema = write_dataset(
            tmp_path,
            "U1\tUser\nU2\tUser\nM1\tMovie\n",
            "U1\twatch\tM1\nU2\twatch\tM1\n",
        )
        graph = load_graph(nodes, edges, schema)
        stats = graph.stats()
        assert stats["nodes_per_type"] == {"User": 2, "Movie": 1, "Actor": 0, "Director": 0}
        assert stats["edges_per_relation"]["watch"] == 2
        assert stats["edges_per_relation"]["watched"] == 2


class TestGraph:
    def test_neighbors_sorted_and_mirrored(self, small_movie_graph):
        g = small_movie_graph
        watch = g.schema.by_name("watch").rid
        watched = g.schema.by_name("watched").rid
        u0 = g.node_names.index("U0")
        m1 = g.node_names.index("M1")
        ns = adjacency_row(g, watch, u0)
        assert ns.tolist() == sorted(ns.tolist())
        assert m1 in ns
        assert u0 in adjacency_row(g, watched, m1)

    def test_neighbors_type_mismatch_is_empty(self, small_movie_graph):
        g = small_movie_graph
        watch = g.schema.by_name("watch").rid
        m0 = g.node_names.index("M0")
        assert adjacency_row(g, watch, m0).tolist() == []

    def test_isolated_node(self, movie_schema):
        g = graph_from(movie_schema, [("U9", "User"), ("M9", "Movie")], [])
        assert adjacency_row(g, 1, g.node_names.index("U9")).tolist() == []

    def test_mirror_consistency_property(self, small_movie_graph):
        g = small_movie_graph
        for rel in g.schema.relations:
            src, dst = g.edges(rel.rid)
            for v, w in zip(src.tolist(), dst.tolist()):
                assert v in adjacency_row(g, rel.comp, w)

    def test_round_trip_serialization(self, small_movie_graph, tmp_path):
        path = tmp_path / "bundle.bin"
        small_movie_graph.save(path)
        again = HinGraph.load(path)
        assert again.schema == small_movie_graph.schema
        assert again.node_names == small_movie_graph.node_names
        for rel in again.schema.relations:
            a = small_movie_graph.edges(rel.rid)
            b = again.edges(rel.rid)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_serialization_deterministic(self, small_movie_graph, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        small_movie_graph.save(p1)
        small_movie_graph.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_interactions(self, small_movie_graph):
        inter = small_movie_graph.interactions()
        assert len(inter) == 4

    def test_without_interactions(self, small_movie_graph):
        g = small_movie_graph
        watch = g.schema.interaction
        u0 = g.node_names.index("U0")
        m0 = g.node_names.index("M0")
        g2 = g.without_interactions(np.asarray([[u0, m0]]))
        assert m0 not in adjacency_row(g2, watch, u0)
        assert m0 in adjacency_row(g, watch, u0)  # original untouched
        watched = g.schema.by_name("watched").rid
        assert u0 not in adjacency_row(g2, watched, m0)
