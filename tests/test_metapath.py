import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinrec.hin import HinSchema
from hinrec.metapath import (
    MetaPath,
    MetaPathError,
    MetaPathSet,
    USER_SYMMETRIC,
    encode_metapath,
    encode_set,
    materialize_subgraph,
    sample_view,
)

from conftest import (
    adjacency_row,
    brute_force_metapath_neighbors,
    brute_force_subgraph_rows,
    graph_from,
    random_hin,
    random_path,
    subgraph_row,
)

# Schema where relation 6 loops on one type, so [2, 6, 6, 4] chains:
# A -(2)-> T -(6)-> T -(6)-> T -(4)-> B.
CHAIN_SCHEMA = HinSchema.parse(
    "node_types: A, T, B\n"
    "r1: T -> A ~ r2\n"
    "r3: B -> T ~ r4\n"
    "r5: T -> T ~ r6\n"
)


class TestEncoding:
    def test_worked_example_n6(self):
        path = MetaPath.from_relations(CHAIN_SCHEMA, [2, 6, 6, 4])
        assert encode_metapath(CHAIN_SCHEMA, path).tolist() == [0, 1, 0, 1, 0, 2]

    def test_single_relation_one_hot(self):
        path = MetaPath.from_relations(CHAIN_SCHEMA, [3])
        assert encode_metapath(CHAIN_SCHEMA, path).tolist() == [0, 0, 1, 0, 0, 0]

    def test_pure_multiplicity(self, movie_schema):
        schema = HinSchema.parse("node_types: U\nr1: U -> U ~ r1\nr2: U -> U ~ r2\n")
        # n = 2 here; spec's n = 6 variant needs a 6-relation schema with a loop.
        path = MetaPath.from_relations(schema, [1, 1, 1])
        assert encode_metapath(schema, path).tolist() == [3, 0]

    def test_encode_set_single_path(self):
        path = MetaPath.from_relations(CHAIN_SCHEMA, [2, 6, 6, 4])
        vec = encode_set(CHAIN_SCHEMA, [path])
        expected = np.asarray([0, 1, 0, 1, 0, 2]) / np.sqrt(6.0)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_encode_empty_set_is_zero(self):
        assert encode_set(CHAIN_SCHEMA, []).tolist() == [0.0] * 6

    def test_encode_set_two_paths_symmetric(self):
        schema = HinSchema.parse("node_types: U, V\nr1: U -> V ~ r2\n")
        p1 = MetaPath.from_relations(schema, [1])
        p2 = MetaPath.from_relations(schema, [2])
        np.testing.assert_allclose(encode_set(schema, [p1, p2]), np.ones(2) / np.sqrt(2.0))

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            graph = random_hin(rng, max_nodes=12)
            paths = []
            for _ in range(int(rng.integers(0, 4))):
                paths.append(random_path(graph.schema, rng))
            uniq = {p.relation_ids: p for p in paths}
            norm = np.linalg.norm(encode_set(graph.schema, list(uniq.values())))
            assert abs(norm - 1.0) < 1e-9 or (not uniq and norm == 0.0)

    @given(st.permutations([2, 6, 6, 4]))
    def test_encoding_depends_only_on_multiset(self, perm):
        # Permutations rarely chain, so count multiplicities directly.
        counts = np.zeros(6, dtype=np.int64)
        for rid in perm:
            counts[rid - 1] += 1
        assert counts.tolist() == [0, 1, 0, 1, 0, 2]


class TestMetaPath:
    def test_chain_validation(self, movie_schema):
        with pytest.raises(MetaPathError, match="do not chain"):
            MetaPath.from_relations(movie_schema, [1, 1])

    def test_node_types_derived(self, movie_schema):
        path = MetaPath.from_relations(movie_schema, [1, 4, 3, 2])
        assert path.node_types == ("User", "Movie", "Actor", "Movie", "User")
        assert path.label() == "UMAMU"

    def test_set_rejects_duplicates(self, movie_schema):
        p = MetaPath.from_relations(movie_schema, [1, 2])
        with pytest.raises(MetaPathError, match="duplicate"):
            MetaPathSet((p, p), USER_SYMMETRIC, movie_schema)

    def test_set_enforces_form(self, movie_schema):
        mum = MetaPath.from_relations(movie_schema, [2, 1])
        with pytest.raises(MetaPathError, match="violates form"):
            MetaPathSet((mum,), USER_SYMMETRIC, movie_schema)

    def test_set_from_relations_keeps_order_and_checks(self, movie_schema):
        pset = MetaPathSet.from_relations(movie_schema, USER_SYMMETRIC, [[1, 4, 3, 2], (1, 2)])
        assert pset.key() == ((1, 4, 3, 2), (1, 2))
        assert pset == MetaPathSet(
            (MetaPath.from_relations(movie_schema, [1, 4, 3, 2]), MetaPath.from_relations(movie_schema, [1, 2])),
            USER_SYMMETRIC,
            movie_schema,
        )
        for relations, message in (([[2, 1]], "violates form"), ([[1, 2], [1, 2]], "duplicate"),
                                   ([[1, 1]], "do not chain")):
            with pytest.raises(MetaPathError, match=message):
                MetaPathSet.from_relations(movie_schema, USER_SYMMETRIC, relations)


def local_id(graph, name):
    """A node's id within its own type."""
    v = graph.node_names.index(name)
    return v - int(graph.type_offsets[np.searchsorted(graph.type_offsets, v, side="right") - 1])


def subgraph_rows(graph, path):
    """Every row of the path's subgraph with no density filter, as lists."""
    sg = materialize_subgraph(graph, path, threshold=None)
    return [subgraph_row(sg, v).tolist() for v in range(sg.m)]


class TestNeighbors:
    """A subgraph's rows are the nodes that some instance of its meta-path reaches."""

    def test_figure_style_mam(self, small_movie_graph):
        g = small_movie_graph
        mam = MetaPath.from_relations(g.schema, [4, 3])  # acted, act
        ns = subgraph_rows(g, mam)[local_id(g, "M0")]
        assert {local_id(g, "M1"), local_id(g, "M2")}.issubset(ns)

    def test_single_relation_equals_neighbors(self, small_movie_graph):
        """Two relations reach the neighbours, under the second, of the first relation's neighbours."""
        g = small_movie_graph
        umu = MetaPath.from_relations(g.schema, [1, 2])
        u0 = g.node_names.index("U0")
        users = set().union(*(adjacency_row(g, 2, m).tolist() for m in adjacency_row(g, 1, u0)))
        user_lo = int(g.type_offsets[g.schema.type_index("User")])
        assert subgraph_rows(g, umu)[local_id(g, "U0")] == sorted(u - user_lo for u in users)

    def test_umu_hand_case(self, movie_schema):
        g = graph_from(
            movie_schema,
            [("U1", "User"), ("U2", "User"), ("M1", "Movie"), ("M2", "Movie")],
            [("U1", "watch", "M1"), ("U2", "watch", "M1"), ("U2", "watch", "M2")],
        )
        umu = MetaPath.from_relations(movie_schema, [1, 2])
        u1, u2 = local_id(g, "U1"), local_id(g, "U2")
        assert subgraph_rows(g, umu) == [[u1, u2], [u1, u2]]
        # Oracle: brute-force enumeration of all length-2 node sequences.
        u1_id, u2_id = g.node_names.index("U1"), g.node_names.index("U2")
        assert brute_force_metapath_neighbors(g, umu, u1_id) == [u1_id, u2_id]

    def test_type_mismatch_empty(self, small_movie_graph):
        """Only the start type has rows, and they reach only the start type."""
        g = small_movie_graph
        umu = MetaPath.from_relations(g.schema, [1, 2])
        sg = materialize_subgraph(g, umu, threshold=None)
        assert (sg.node_type, sg.m) == ("User", g.type_count("User"))
        assert sg.dst.max() < sg.m

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 40:
            graph = random_hin(rng, max_nodes=25)
            path = random_path(graph.schema, rng)
            if not path.is_symmetric:
                continue
            assert subgraph_rows(graph, path) == brute_force_subgraph_rows(graph, path)
            checked += 1

    def test_palindromic_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = random_hin(rng, max_nodes=20)
            schema = graph.schema
            rid = int(rng.integers(1, schema.n_relations + 1))
            path = MetaPath.from_relations(schema, [rid, schema.relation(rid).comp])
            reach = subgraph_rows(graph, path)
            for v, ns in enumerate(reach):
                for w in ns:
                    assert v in reach[w]


class TestSubgraph:
    def test_bipartite_rejected_at_half(self, movie_schema):
        g = graph_from(
            movie_schema,
            [("U1", "User"), ("U2", "User"), ("U3", "User"), ("M1", "Movie")],
            [("U1", "watch", "M1"), ("U2", "watch", "M1"), ("U3", "watch", "M1")],
        )
        umu = MetaPath.from_relations(movie_schema, [1, 2])
        # Oracle: all 3 users reach each other -> 6 directed non-self edges,
        # density 6 / (3 * 2) = 1.0 > 0.5.
        assert materialize_subgraph(g, umu, threshold=0.5) is None
        sg = materialize_subgraph(g, umu, threshold=None)
        assert sg.density == pytest.approx(1.0)

    def test_zero_instance_graph_accepted(self, movie_schema):
        g = graph_from(movie_schema, [("U1", "User"), ("M1", "Movie")], [])
        umu = MetaPath.from_relations(movie_schema, [1, 2])
        sg = materialize_subgraph(g, umu, threshold=0.5)
        assert sg is not None
        assert sg.density == 0.0
        assert len(subgraph_row(sg, 0)) == 0  # isolated: no self-loop row

    def test_self_loops_added_for_active_nodes(self, small_movie_graph):
        g = small_movie_graph
        umu = MetaPath.from_relations(g.schema, [1, 2])
        sg = materialize_subgraph(g, umu, threshold=None)
        for v in range(sg.m):
            if len(subgraph_row(sg, v)):
                assert v in subgraph_row(sg, v).tolist()

    def test_non_symmetric_rejected(self, movie_schema):
        um = MetaPath.from_relations(movie_schema, [1])
        with pytest.raises(MetaPathError, match="symmetric"):
            materialize_subgraph(graph_from(movie_schema, [("U1", "User"), ("M1", "Movie")], []), um, 0.5)

    def test_rows_strictly_increasing(self, small_planted):
        planted = small_planted[0]
        cases = [
            (planted, MetaPath.from_relations(planted.schema, r)) for r in ([1, 2], [2, 1], [1, 4, 3, 2], [2, 1, 2, 1])
        ]
        rng = np.random.default_rng(5)
        while len(cases) < 12:
            graph = random_hin(rng, max_nodes=30)
            path = random_path(graph.schema, rng, max_len=5)
            if path.is_symmetric:
                cases.append((graph, path))
        for graph, path in cases:
            sg = materialize_subgraph(graph, path, threshold=None)
            rows = [subgraph_row(sg, v) for v in range(sg.m)]
            assert all((np.diff(row) > 0).all() for row in rows), path.label()
            assert [row.tolist() for row in rows] == brute_force_subgraph_rows(graph, path)

    def test_density_in_unit_interval(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 25:
            graph = random_hin(rng, max_nodes=20)
            path = random_path(graph.schema, rng)
            if not path.is_symmetric:
                continue
            sg = materialize_subgraph(graph, path, threshold=None)
            assert 0.0 <= sg.density <= 1.0
            checked += 1


class TestSampling:
    def _subgraph(self, small_movie_graph):
        mum = MetaPath.from_relations(small_movie_graph.schema, [2, 1])
        return materialize_subgraph(small_movie_graph, mum, threshold=None)

    def _co_watch(self, movie_schema):
        """UMU over 40 users who all watch one movie: every row holds all 40, self included."""
        users = [(f"U{k}", "User") for k in range(40)] + [("M1", "Movie")]
        edges = [(f"U{k}", "watch", "M1") for k in range(40)]
        umu = MetaPath.from_relations(movie_schema, [1, 2])
        return materialize_subgraph(graph_from(movie_schema, users, edges), umu, threshold=None)

    @staticmethod
    def _rows(view):
        return [view.dst[view.indptr[v] : view.indptr[v + 1]] for v in range(view.m)]

    def test_small_degree_returns_all(self, small_movie_graph):
        sg = self._subgraph(small_movie_graph)
        view = sample_view(sg, fanout=10, rng=np.random.default_rng(0))
        assert [r.tolist() for r in self._rows(view)] == [subgraph_row(sg, v).tolist() for v in range(sg.m)]

    def test_large_degree_caps_and_keeps_self(self, movie_schema):
        sg = self._co_watch(movie_schema)
        view = sample_view(sg, fanout=20, rng=np.random.default_rng(1))
        for v, row in enumerate(self._rows(view)):
            assert len(row) == 20
            assert (np.diff(row) > 0).all()  # sorted, no repeats
            assert v in row.tolist()
            assert set(row.tolist()) <= set(subgraph_row(sg, v).tolist())

    def test_deterministic_given_seed(self, movie_schema):
        sg = self._co_watch(movie_schema)
        a = sample_view(sg, 7, np.random.default_rng(99))
        b = sample_view(sg, 7, np.random.default_rng(99))
        c = sample_view(sg, 7, np.random.default_rng(100))
        assert a.dst.tolist() == b.dst.tolist()
        assert a.dst.tolist() != c.dst.tolist()

    def test_fanout_zero_rejected(self, small_movie_graph):
        sg = self._subgraph(small_movie_graph)
        with pytest.raises(MetaPathError):
            sample_view(sg, 0, np.random.default_rng(0))

    def test_view_covers_every_node(self, small_movie_graph):
        sg = self._subgraph(small_movie_graph)
        view = sample_view(sg, fanout=2, rng=np.random.default_rng(3))
        assert view.m == sg.m
        degrees = np.diff(view.indptr)
        assert (degrees >= 1).all()
        assert (degrees <= 2).all()
