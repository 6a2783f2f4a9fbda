import numpy as np
import pytest

from hinrec import dqn
from hinrec.config import RunConfig
from hinrec.evaluation import PerformanceProbe, split_leave_one_out
from hinrec.hin import HinGraph, HinSchema, load_graph
from hinrec.metapath import ITEM_SYMMETRIC, USER_SYMMETRIC
from hinrec.search_env import SearchEnv, initial_set
from hinrec.synth import PLANTED_ITEM_PATH, write_dataset
from hinrec.util import derive_rng, read_json

MOVIE_SCHEMA_TEXT = """\
# movie HIN
node_types: User, Movie, Actor, Director
watch: User -> Movie ~ watched
act: Actor -> Movie ~ acted
direct: Director -> Movie ~ directed
interaction_relation: watch
"""

WATCH, WATCHED, ACT, ACTED, DIRECT, DIRECTED = 1, 2, 3, 4, 5, 6


@pytest.fixture(scope="session")
def movie_schema():
    return HinSchema.parse(MOVIE_SCHEMA_TEXT)


def graph_from(schema, nodes, edges):
    """Build a graph from (string_id, type) nodes and (src, rel_name, dst) edges."""
    order = {sid: k for k, (sid, _) in enumerate(sorted(nodes, key=lambda nt: schema.type_index(nt[1])))}
    dense_edges = [
        (schema.by_name(rel).rid, order[src], order[dst]) for src, rel, dst in edges
    ]
    return HinGraph.from_edges(schema, sorted(nodes, key=lambda nt: schema.type_index(nt[1])), dense_edges)


@pytest.fixture
def small_movie_graph(movie_schema):
    """Two users, three movies, two actors, one director.

    U0 watches M0, M1; U1 watches M1, M2. A0 acts in M0, M1, M2; A1 in M2.
    D0 directs all movies.
    """
    nodes = [
        ("U0", "User"), ("U1", "User"),
        ("M0", "Movie"), ("M1", "Movie"), ("M2", "Movie"),
        ("A0", "Actor"), ("A1", "Actor"),
        ("D0", "Director"),
    ]
    edges = [
        ("U0", "watch", "M0"), ("U0", "watch", "M1"),
        ("U1", "watch", "M1"), ("U1", "watch", "M2"),
        ("A0", "act", "M0"), ("A0", "act", "M1"), ("A0", "act", "M2"),
        ("A1", "act", "M2"),
        ("D0", "direct", "M0"), ("D0", "direct", "M1"), ("D0", "direct", "M2"),
    ]
    return graph_from(movie_schema, nodes, edges)


@pytest.fixture(scope="session")
def small_planted_1(tmp_path_factory):
    """The planted-mam-small dataset at synth seed 1: (directory, graph)."""
    out = tmp_path_factory.mktemp("planted-small-1")
    write_dataset(out, "planted-mam-small", seed=1)
    return out, load_graph(out / "nodes.tsv", out / "edges.tsv", HinSchema.from_file(out / "schema.txt"))


@pytest.fixture(scope="session")
def small_planted(tmp_path_factory):
    """A tiny planted-MAM dataset: (graph, split, manifest)."""
    from hinrec.evaluation import split_leave_one_out

    out = tmp_path_factory.mktemp("planted-small")
    write_dataset(out, "planted-mam-small", seed=11)
    schema = HinSchema.from_file(out / "schema.txt")
    graph = load_graph(out / "nodes.tsv", out / "edges.tsv", schema)
    split = split_leave_one_out(graph.interactions(), derive_rng(11, "split"))
    return graph, split, read_json(out / "manifest.json")


def adjacency_row(graph, rid, v):
    """Sorted tails of node ``v``'s edges under relation ``rid``, read from the graph's CSR adjacency."""
    indptr, indices = graph.adjacency(rid)
    return indices[indptr[v] : indptr[v + 1]]


def subgraph_row(subgraph, v):
    """Row ``v`` of a meta-path subgraph: the type-local nodes it holds edges to."""
    return subgraph.dst[subgraph.indptr[v] : subgraph.indptr[v + 1]]


def brute_force_metapath_neighbors(graph, path, v):
    """Oracle: enumerate every node sequence following the path, via raw edge lists."""
    adj = {}
    for rel in graph.schema.relations:
        src, dst = graph.edges(rel.rid)
        table = {}
        for s, d in zip(src.tolist(), dst.tolist()):
            table.setdefault(s, []).append(d)
        adj[rel.rid] = table
    t = graph.schema.type_index(path.start_type)
    if not graph.type_offsets[t] <= v < graph.type_offsets[t + 1]:
        return []
    sequences = [[v]]
    for rid in path.relation_ids:
        nxt = []
        for seq in sequences:
            for w in adj[rid].get(seq[-1], []):
                nxt.append(seq + [w])
        sequences = nxt
    return sorted({seq[-1] for seq in sequences})


def brute_force_subgraph_rows(graph, path):
    """Oracle rows of the path's subgraph in type-local ids; non-empty rows gain the node itself."""
    lo = int(graph.type_offsets[graph.schema.type_index(path.start_type)])
    rows = []
    for v in range(graph.type_count(path.start_type)):
        reached = [w - lo for w in brute_force_metapath_neighbors(graph, path, lo + v)]
        if reached:
            reached = sorted(set(reached) | {v})
        rows.append(reached)
    return rows


def random_hin(rng, max_nodes=50, max_base_relations=3, min_per_type=2, p_empty=0.0, type_sizes=None):
    """A random schema plus random edges, for oracle-equivalence sweeps.

    Each type gets at least ``min_per_type`` nodes; each base relation is
    left without edges with probability ``p_empty``. With ``type_sizes``,
    each type's size is drawn from it instead, and a head expects 0.2 to 3
    edges per relation, so large types stay sparse.
    """
    n_types = int(rng.integers(2, 4))
    type_names = [f"T{k}" for k in range(n_types)]
    n_base = int(rng.integers(1, max_base_relations + 1))
    lines = ["node_types: " + ", ".join(type_names)]
    for b in range(n_base):
        head = type_names[int(rng.integers(n_types))]
        tail = type_names[int(rng.integers(n_types))]
        if head == tail and rng.random() < 0.3:
            lines.append(f"r{b}: {head} -> {tail} ~ r{b}")
        else:
            lines.append(f"r{b}: {head} -> {tail} ~ r{b}x")
    schema = HinSchema.parse("\n".join(lines))

    if type_sizes is None:
        per_type = rng.integers(min_per_type, max(3, max_nodes // n_types + 1), size=n_types)
    else:
        per_type = rng.choice(type_sizes, size=n_types)
    nodes = [(f"{t}_{i}", t) for k, t in enumerate(type_names) for i in range(int(per_type[k]))]
    order = {sid: idx for idx, (sid, _) in enumerate(nodes)}
    by_type = {t: [sid for sid, tt in nodes if tt == t] for t in type_names}

    edges = []
    seen_rids = set()
    for rel in schema.relations:
        if rel.rid in seen_rids:
            continue
        seen_rids.update((rel.rid, rel.comp))
        if p_empty and rng.random() < p_empty:
            continue
        heads, tails = by_type[rel.head], by_type[rel.tail]
        p = rng.uniform(0.05, 0.35) if type_sizes is None else rng.uniform(0.2, 3.0) / len(tails)
        for h in heads:
            for t in tails:
                if rng.random() < p:
                    edges.append((rel.rid, order[h], order[t]))
    return HinGraph.from_edges(schema, nodes, edges)


def random_path(schema, rng, max_len=4):
    """A random chained relation sequence, or None if the draw dead-ends."""
    from hinrec.metapath import MetaPath

    rids = [int(rng.integers(1, schema.n_relations + 1))]
    length = int(rng.integers(1, max_len + 1))
    while len(rids) < length:
        tail = schema.relation(rids[-1]).tail
        options = [r.rid for r in schema.relations if r.head == tail]
        if not options:
            break
        rids.append(int(options[int(rng.integers(len(options)))]))
    return MetaPath.from_relations(schema, rids)


def reachable_sets(form, schema, max_steps, extend):
    """Every set reachable from the form's initial set in at most ``max_steps`` actions, each once.

    A breadth-first walk over every non-STOP action: ``extend(pset, action)``
    is the set an action leads to, ``apply_action`` for the full walk or
    ``SearchEnv.extend`` for the walk over density-accepted paths. Returns
    ``(pset, actions)`` pairs, ``actions`` being the sequence that first
    reached ``pset`` from the initial set.
    """
    from hinrec.search_env import initial_set

    start = initial_set(form, schema)
    seen = {start.key(): (start, ())}
    frontier = [(start, ())]
    for _ in range(max_steps):
        reached = []
        for pset, actions in frontier:
            for action in range(1, schema.n_relations + 1):
                out = extend(pset, action)
                if out.key() not in seen:
                    seen[out.key()] = (out, (*actions, action))
                    reached.append(seen[out.key()])
        frontier = reached
    return list(seen.values())


class TableProbe:
    """The probe of one side's search served from a table: item-set key -> probe value.

    ``pair`` looks up the item set's key and ignores the frozen user set.
    ``subgraph`` accepts exactly the paths that occur in the table's keys,
    which are the density-accepted ones, so ``SearchEnv.extend`` walks the
    same sets over the table as over the real probe.
    """

    def __init__(self, values):
        self.values = values
        self.paths = {path for key in values for path in key}
        self.calls = 0

    def pair(self, user_set, item_set):
        self.calls += 1
        return self.values[item_set.key()]

    def subgraph(self, path):
        return path if path.relation_ids in self.paths else None


class RewardBlind:
    """The reward-blind control: probes through ``inner``, then rewards every set 0.1."""

    def __init__(self, inner):
        self.inner = inner

    def pair(self, user_set, item_set):
        self.inner.pair(user_set, item_set)
        return 0.1

    def subgraph(self, path):
        return self.inner.subgraph(path)


def item_table(graph, run_seed):
    """The real probe's value of every accepted item set, as ``hinrec search --seed run_seed`` probes it.

    The user side stays frozen at its initial set {UMU}, and the sets are
    :func:`reachable_sets` over ``SearchEnv.extend``. Returns the table
    and the real probe, whose cache then holds every set's value.
    """
    schema, cfg = graph.schema, RunConfig(seed=run_seed)
    probe = PerformanceProbe(graph, split_leave_one_out(graph.interactions(), derive_rng(run_seed, "split")), cfg)
    env = SearchEnv(schema, ITEM_SYMMETRIC, probe, initial_set(USER_SYMMETRIC, schema), cfg.max_steps)
    sets = reachable_sets(ITEM_SYMMETRIC, schema, cfg.max_steps, env.extend)
    return TableProbe({pset.key(): env.probe(pset) for pset, _ in sets}), probe


@pytest.fixture(scope="session")
def item_tables(small_planted_1):
    """``item_table`` on planted-mam-small (synth seed 1) per run seed, each built once on first use."""
    _, graph = small_planted_1
    built = {}

    def get(run_seed):
        if run_seed not in built:
            built[run_seed] = item_table(graph, run_seed)
        return built[run_seed]

    return get


def item_search(schema, probe, agent_seed):
    """``dqn.search`` of the item side over ``probe`` at the default settings, as ``hinrec search`` runs it."""
    cfg = RunConfig()
    env = SearchEnv(schema, ITEM_SYMMETRIC, probe, initial_set(USER_SYMMETRIC, schema), cfg.max_steps)
    return dqn.search(env, cfg, agent_seed, cfg.dqn_episodes)


def is_hit(key):
    """A hit: the item set holds the planted path MAM and not its distractor MDM."""
    return PLANTED_ITEM_PATH in key and (DIRECTED, DIRECT) not in key


def sweep(schema, table, agent_seeds):
    """The DQN over ``table`` and over its reward-blind control, one search each per agent seed.

    Reports the hits of each, the median regret (the table's best value
    minus the found set's), the number of distinct results, how many
    results are the table's best value, and how many differ from the
    control's result at the same agent seed.
    """
    best = max(table.values.values())
    found = [item_search(schema, table, seed).key() for seed in agent_seeds]
    blind = [item_search(schema, RewardBlind(table), seed).key() for seed in agent_seeds]
    return {
        "hits": sum(map(is_hit, found)),
        "control_hits": sum(map(is_hit, blind)),
        "median_regret": float(np.median([best - table.values[key] for key in found])),
        "distinct": len(set(found)),
        "exact_best": sum(table.values[key] == best for key in found),
        "differ_from_control": sum(a != b for a, b in zip(found, blind)),
    }
