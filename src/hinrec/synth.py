"""Synthetic movie-style HINs with a planted meta-path as ground truth.

The planted-MAM profiles give every movie one actor and one director and
make users watch mostly within their favorite actors' filmographies, so
movies sharing an actor (MAM) genuinely predict interactions while
director co-occurrence (MDM) is a same-shape distractor. The manifest
names the planted paths; searchers are scored against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import derive_rng, write_json

SCHEMA_TEXT = """node_types: User, Movie, Actor, Director
watch: User -> Movie ~ watched
act: Actor -> Movie ~ acted
direct: Director -> Movie ~ directed
interaction_relation: watch
"""

# Relation ids follow declaration order in SCHEMA_TEXT.
WATCH, WATCHED, ACT, ACTED, DIRECT, DIRECTED = 1, 2, 3, 4, 5, 6

PLANTED_ITEM_PATH = (ACTED, ACT)  # M-A-M
PLANTED_USER_PATH = (WATCH, ACTED, ACT, WATCHED)  # U-M-A-M-U


@dataclass(frozen=True)
class SynthProfile:
    users: int
    movies: int
    actors: int
    directors: int
    favorites_per_user: int
    watches_min: int
    watches_max: int
    noise_rate: float


PROFILES: dict[str, SynthProfile] = {
    "planted-mam": SynthProfile(500, 1100, 250, 150, 3, 12, 16, 0.15),
    "planted-mam-small": SynthProfile(60, 110, 25, 15, 2, 6, 10, 0.15),
}


def generate(profile: str, seed: int):
    """Node lines, edge lines, and the ground-truth manifest for a profile."""
    key = profile.lower()
    if key not in PROFILES:
        raise ValueError(f"unknown synth profile {profile!r}; known: {sorted(PROFILES)}")
    p = PROFILES[key]
    rng = derive_rng(seed, "synth", key)

    users = [f"u{k:04d}" for k in range(p.users)]
    movies = [f"m{k:04d}" for k in range(p.movies)]
    actors = [f"a{k:04d}" for k in range(p.actors)]
    directors = [f"d{k:04d}" for k in range(p.directors)]
    nodes = (
        [(u, "User") for u in users]
        + [(m, "Movie") for m in movies]
        + [(a, "Actor") for a in actors]
        + [(d, "Director") for d in directors]
    )

    movie_actor = rng.integers(0, p.actors, size=p.movies)
    movie_director = rng.integers(0, p.directors, size=p.movies)
    # Actor a's filmography is by_actor[bounds[a]:bounds[a + 1]], ascending.
    by_actor = np.argsort(movie_actor, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(movie_actor, minlength=p.actors))]).tolist()

    edges: list[tuple[str, str, str]] = []
    for m_idx in range(p.movies):
        edges.append((actors[movie_actor[m_idx]], "act", movies[m_idx]))
        edges.append((directors[movie_director[m_idx]], "direct", movies[m_idx]))

    # Per user the draws are: favourite actors, watch count, favourite picks,
    # noise picks. ``picked`` holds distinct values of the ``arange``
    # ``all_movies``, so deleting them as indices removes them as values; and
    # each movie has one actor, so the favourites' filmographies are disjoint
    # and their sorted concatenation is already unique.
    all_movies = np.arange(p.movies)
    for u_idx in range(p.users):
        favs = rng.choice(p.actors, size=p.favorites_per_user, replace=False)
        pool = np.sort(np.concatenate([by_actor[bounds[a] : bounds[a + 1]] for a in favs.tolist()]))
        n_watch = int(rng.integers(p.watches_min, p.watches_max + 1))
        k_fav = min(int(round((1.0 - p.noise_rate) * n_watch)), len(pool))
        picked = rng.choice(pool, size=k_fav, replace=False) if k_fav else np.empty(0, dtype=np.int64)
        rest = np.delete(all_movies, picked)
        k_noise = min(n_watch - k_fav, len(rest))
        noise = rng.choice(rest, size=k_noise, replace=False) if k_noise else np.empty(0, dtype=np.int64)
        user = users[u_idx]
        edges += [(user, "watch", movies[m_idx]) for m_idx in np.sort(np.concatenate([picked, noise])).tolist()]

    manifest = {
        "profile": key,
        "seed": seed,
        "planted": "MAM",
        "planted_item_path": {"label": "MAM", "relations": list(PLANTED_ITEM_PATH)},
        "planted_user_path": {"label": "UMAMU", "relations": list(PLANTED_USER_PATH)},
        "counts": {
            "User": p.users,
            "Movie": p.movies,
            "Actor": p.actors,
            "Director": p.directors,
            "interactions": sum(1 for e in edges if e[1] == "watch"),
        },
    }
    return nodes, edges, manifest


def write_dataset(out_dir: str | Path, profile: str, seed: int) -> dict:
    """Emit nodes.tsv / edges.tsv / schema.txt / manifest.json; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes, edges, manifest = generate(profile, seed)
    with open(out / "nodes.tsv", "w", encoding="utf-8") as fh:
        fh.write("# node_id\tnode_type\n")
        fh.write("".join(f"{sid}\t{tname}\n" for sid, tname in nodes))
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write("# src\trelation\tdst\n")
        fh.write("".join(f"{src}\t{rel}\t{dst}\n" for src, rel, dst in edges))
    (out / "schema.txt").write_text(SCHEMA_TEXT, encoding="utf-8")
    write_json(out / "manifest.json", manifest)
    return manifest
