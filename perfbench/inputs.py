"""Seeded benchmark inputs: graph files the CLI reads.

Every generator is a pure function of its arguments. Randomness comes from
``random.Random`` seeded with a string, whose stream Python keeps stable
across versions, so the same seed writes byte-identical files anywhere.
"""

from __future__ import annotations

import random


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def ring_chords(n: int, seed: int, weighted: bool):
    """Ring 0-1-...-(n-1)-0 plus 2n distinct random chords, so m = 3n.

    The ring keeps the graph connected whatever chords are drawn. Weights,
    when asked for, are uniform in [0.5, 2] with six decimals.
    """
    rng = _rng("ring-chords", n, seed, int(weighted))
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return [(u, v, round(rng.uniform(0.5, 2.0), 6) if weighted else 1.0)
            for u, v in sorted(pairs)]


def swap_chords(edges, n: int, seed: int, swaps: int):
    """Degree-preserving rewiring of ``swaps`` chord pairs (ring untouched).

    Chords (a, b), (c, d) become (a, d), (c, b) when that makes no loop or
    duplicate, so the result stays connected and keeps every degree.
    """
    rng = _rng("swap-chords", n, seed, swaps)
    ring = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    present = {(u, v) for u, v, _ in edges}
    chords = sorted(present - ring)
    done = 0
    while done < swaps:
        (a, b), (c, d) = rng.sample(chords, 2)
        new1, new2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if a == d or c == b or new1 == new2 or new1 in present or new2 in present:
            continue
        for old, new in (((a, b), new1), ((c, d), new2)):
            present.remove(old)
            present.add(new)
            chords[chords.index(old)] = new
        done += 1
    return [(u, v, 1.0) for u, v in sorted(present)]


def path(n: int):
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def edge_list_text(edges) -> str:
    """The CLI's edge-list format: ``u v`` lines, or ``u v w`` if weighted."""
    weighted = any(w != 1.0 for _, _, w in edges)
    if weighted:
        return "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)
    return "".join(f"{u} {v}\n" for u, v, _ in edges)


def pick_pair(n: int, *seed_parts):
    """Two distinct nodes drawn from the seed."""
    i, j = _rng("pair", n, *seed_parts).sample(range(n), 2)
    return i, j
