import pytest

from hinrec.synth import PROFILES, write_dataset
from hinrec.util import read_json

CASES = [(profile, seed) for profile in sorted(PROFILES) for seed in (1, 2, 7)]


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    return [line.split("\t") for line in lines[1:]]


@pytest.fixture(scope="module", params=CASES, ids=[f"{p}-{s}" for p, s in CASES])
def dataset(request, tmp_path_factory):
    profile, seed = request.param
    out = tmp_path_factory.mktemp(f"{profile}-{seed}")
    manifest = write_dataset(out, profile, seed)
    return PROFILES[profile], out, manifest, read_rows(out / "nodes.tsv"), read_rows(out / "edges.tsv")


def test_every_movie_has_one_actor_and_one_director(dataset):
    _, _, _, nodes, edges = dataset
    movies = [sid for sid, tname in nodes if tname == "Movie"]
    for rel in ("act", "direct"):
        heads = [src for src, r, _ in edges if r == rel]
        tails = [dst for _, r, dst in edges if r == rel]
        assert sorted(tails) == sorted(movies), rel
        prefix = "a" if rel == "act" else "d"
        assert all(h.startswith(prefix) for h in heads)


def test_each_user_watches_distinct_movies_within_bounds(dataset):
    p, _, _, nodes, edges = dataset
    users = [sid for sid, tname in nodes if tname == "User"]
    watched = {u: [] for u in users}
    for src, rel, dst in edges:
        if rel == "watch":
            watched[src].append(dst)
    for u, items in watched.items():
        assert len(set(items)) == len(items), u
        assert p.watches_min <= len(items) <= p.watches_max, u
        assert items == sorted(items), u


def test_manifest_counts_match_tsv_lines(dataset):
    p, out, manifest, nodes, edges = dataset
    counts = manifest["counts"]
    for tname in ("User", "Movie", "Actor", "Director"):
        assert counts[tname] == sum(1 for _, t in nodes if t == tname)
    assert (counts["User"], counts["Movie"], counts["Actor"], counts["Director"]) == (
        p.users, p.movies, p.actors, p.directors
    )
    assert counts["interactions"] == sum(1 for _, r, _ in edges if r == "watch")
    assert len(edges) == 2 * p.movies + counts["interactions"]
    assert read_json(out / "manifest.json")["counts"] == counts


def test_two_calls_write_identical_files(dataset, tmp_path):
    _, out, manifest, _, _ = dataset
    again = write_dataset(tmp_path, manifest["profile"], manifest["seed"])
    for name in ("nodes.tsv", "edges.tsv", "schema.txt"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
    strip = lambda m: {k: v for k, v in m.items() if k != "created_at"}
    assert strip(read_json(tmp_path / "manifest.json")) == strip(read_json(out / "manifest.json"))
    assert again == manifest


def test_different_seeds_differ(tmp_path):
    write_dataset(tmp_path / "a", "planted-mam-small", 1)
    write_dataset(tmp_path / "b", "planted-mam-small", 2)
    assert (tmp_path / "a" / "edges.tsv").read_bytes() != (tmp_path / "b" / "edges.tsv").read_bytes()


def test_unknown_profile_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown synth profile"):
        write_dataset(tmp_path, "no-such-profile", 1)
