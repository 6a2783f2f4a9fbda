import numpy as np
import pytest

from hinrec.hin import (
    GraphLoadError,
    HinSchema,
    SchemaError,
    load_graph,
)

from conftest import MOVIE_SCHEMA_TEXT, SCHEMA_FAULTS, adjacency_row, graph_from


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

    def test_bad_complement_rejected(self):
        with pytest.raises(SchemaError):
            HinSchema.parse("node_types: A, B\nr1: A -> B ~ r1\n")

    @pytest.mark.parametrize("text, line_no, message", SCHEMA_FAULTS)
    def test_a_fault_names_the_file_and_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "schema.txt"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            HinSchema.from_file(path)
        where = path if line_no is None else f"{path}:{line_no}"
        assert str(err.value) == f"{where}: {message}"


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

    NODES = "U1\tUser\nU2\tUser\nM1\tMovie\nA1\tActor\n"

    @pytest.mark.parametrize(
        "nodes_text, edges_text, where, line_no, message",
        [
            pytest.param(
                NODES, "U1\twatch\tM1\nU1\twatch\tM9\nU1\tkiss\tM1\n",
                "edges", 2, "dangling node id 'M9'", id="dangling-before-unknown-relation",
            ),
            pytest.param(
                NODES, "U1\twatch\tM1\nU1\tkiss\tM1\nU1\twatch\tM9\n",
                "edges", 2, "unknown relation name 'kiss'", id="unknown-relation-before-dangling",
            ),
            pytest.param(
                NODES, "U1\twatch\tM1\nM1\twatch\tU1\nU1\twatch\tM9\n",
                "edges", 2, "endpoint-type mismatch at line 2: watch expects User->Movie, got Movie->User",
                id="mismatch-before-dangling",
            ),
            pytest.param(
                "U1\tUser\nU1\tMovie\nM1\tAlien\n", "",
                "nodes", 2, "node 'U1' re-declared with type 'Movie' (was 'User')", id="redeclared-before-unknown-type",
            ),
            pytest.param(
                "U1\tUser\nM1\tAlien\nU1\tMovie\n", "",
                "nodes", 2, "unknown node type 'Alien'", id="unknown-type-before-redeclared",
            ),
            pytest.param(NODES, "X9\tkiss\tY9\n", "edges", 1, "unknown relation name 'kiss'", id="relation-first"),
            pytest.param(NODES, "X9\twatch\tY9\n", "edges", 1, "dangling node id 'X9'", id="source-before-destination"),
            pytest.param(NODES, "A1\twatch\tY9\n", "edges", 1, "dangling node id 'Y9'", id="destination-before-types"),
            pytest.param(
                NODES, "A1\twatch\tU2\n",
                "edges", 1, "endpoint-type mismatch at line 1: watch expects User->Movie, got Actor->User",
                id="types-last",
            ),
            pytest.param(
                "U1\tUser\nU1\tAlien\n", "", "nodes", 2, "unknown node type 'Alien'", id="type-before-redeclared",
            ),
            pytest.param(
                NODES, "U1\twatch\tM9\nU1\twatch\tM1\nU1\twatch\n",
                "edges", 3, "expected 3 tab-separated fields, got 2", id="late-field-count-beats-early-dangling",
            ),
            pytest.param(
                "U1\tAlien\nM1\tMovie\nA1\tActor\textra\n", "",
                "nodes", 3, "expected 2 tab-separated fields, got 3", id="late-node-field-count-beats-early-type",
            ),
            pytest.param(
                "U1\tAlien\n", "U1\twatch\n",
                "nodes", 1, "unknown node type 'Alien'", id="nodes-checked-before-edges-are-parsed",
            ),
            pytest.param(
                NODES, "U1\twatch\tM1\n\n   \n\t\n  # comment\n# comment\nU1\twatch\tM9\n",
                "edges", 7, "dangling node id 'M9'", id="skipped-lines-still-counted",
            ),
            pytest.param(
                NODES, "U1\twatch\tM1\r\n\r\nU1\twatch\tM9\r\n",
                "edges", 3, "dangling node id 'M9'", id="crlf-line-numbers",
            ),
            pytest.param(
                NODES, "U1\twatch\tM1\nU1\twatch\tM9", "edges", 2, "dangling node id 'M9'", id="no-trailing-newline",
            ),
            pytest.param(
                "U1\tUser\nM1\tMovie\nU1\tUser\nM1\tActor\n", "",
                "nodes", 4, "node 'M1' re-declared with type 'Actor' (was 'Movie')", id="redeclared-at-its-own-line",
            ),
        ],
    )
    def test_first_offending_line_wins(self, tmp_path, nodes_text, edges_text, where, line_no, message):
        nodes, edges, schema = write_dataset(tmp_path, nodes_text, edges_text)
        path = nodes if where == "nodes" else edges
        with pytest.raises(GraphLoadError) as err:
            load_graph(nodes, edges, schema)
        assert (err.value.path, err.value.line_no) == (str(path), line_no)
        assert str(err.value) == f"{path}:{line_no}: {message}"

    @pytest.mark.parametrize(
        "nodes_text, edges_text",
        [
            pytest.param(
                "\n# c\nU1\tUser\n  \n  # indented\nU2\tUser\n\t\nM1\tMovie\nA1\tActor\n",
                "U1\twatch\tM1\n\n \t \n   # c\nU2\twatch\tM1\nA1\tact\tM1\n",
                id="skipped-lines",
            ),
            pytest.param(
                "U1\tUser\r\nU2\tUser\r\nM1\tMovie\r\nA1\tActor\r\n",
                "U1\twatch\tM1\r\nU2\twatch\tM1\r\nA1\tact\tM1\r\n",
                id="crlf",
            ),
            pytest.param(
                "U1\tUser\nU2\tUser\nM1\tMovie\nA1\tActor",
                "U1\twatch\tM1\nU2\twatch\tM1\nA1\tact\tM1",
                id="no-trailing-newline",
            ),
            pytest.param(
                "U1\tUser\nU2\tUser\nU1\tUser\nM1\tMovie\nA1\tActor\nM1\tMovie\n",
                "U1\twatch\tM1\nU2\twatch\tM1\nA1\tact\tM1\n",
                id="duplicate-node-same-type",
            ),
        ],
    )
    def test_loads_same_graph_as_plain_files(self, tmp_path, nodes_text, edges_text):
        plain = load_graph(*write_dataset(tmp_path, self.NODES, "U1\twatch\tM1\nU2\twatch\tM1\nA1\tact\tM1\n"))
        other = tmp_path / "other"
        other.mkdir()
        graph = load_graph(*write_dataset(other, nodes_text, edges_text))
        assert graph.node_names == plain.node_names == ("U1", "U2", "M1", "A1")
        assert np.array_equal(graph.type_offsets, plain.type_offsets)
        for rel in graph.schema.relations:
            for a, b in zip(graph.adjacency(rel.rid), plain.adjacency(rel.rid)):
                assert np.array_equal(a, b)
        assert graph.edge_count(graph.schema.by_name("acted").rid) == 1


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
            for v in range(g.num_nodes):
                for w in adjacency_row(g, rel.rid, v).tolist():
                    assert v in adjacency_row(g, rel.comp, w)

    def test_interactions(self, tmp_path):
        """The interaction relation's CSR as (user, item) pairs, sorted and duplicate-free: a repeated
        edge line, and the same edge read backwards under the complement, give one pair."""
        nodes, edges, schema = write_dataset(
            tmp_path,
            "U1\tUser\nU2\tUser\nM1\tMovie\nM2\tMovie\n",
            "U2\twatch\tM1\nU1\twatch\tM2\nU1\twatch\tM1\nU1\twatch\tM2\nM1\twatched\tU2\n",
        )
        pairs = load_graph(nodes, edges, schema).interactions()
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[0, 2], [0, 3], [1, 2]]  # U1, U2 then M1, M2

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
