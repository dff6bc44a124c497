"""Reference implementations that the runtime code must agree with.

These are the straightforward forms that the runtime replaced with faster
ones: a sorted-merge ``intersect`` over the shell tuples, and d-DRFWL(2)
refinement that builds every unit's nested key from per-unit witness
blocks, ``(color[t], (sorted((color[a], color[b]) ...) per channel))``.
They live here, not in the package, so there is one runtime path; the
tests compare the two on every input they draw.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from drfwl.graph import Graph
from drfwl.tuples import TupleIndex, build_index


def intersect(idx: TupleIndex, u: int, v: int, i: int, j: int) -> list[int]:
    """Sorted merge-intersection of N_i(u) and N_j(v); N_0(x) = {x}."""
    a = idx.shell(u, i)
    b = idx.shell(v, j)
    if len(b) < len(a):
        a, b = b, a
    out: list[int] = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x == y:
            out.append(x)
            ia += 1
            ib += 1
        elif x < y:
            ia += 1
        else:
            ib += 1
    return out


def _compress(keys: list) -> tuple[list[int], int]:
    distinct = sorted(set(keys))
    rank = {k: i for i, k in enumerate(distinct)}
    return [rank[k] for k in keys], len(distinct)


def _refine_to_stability(init_keys: list, key_fn) -> tuple[list[int], int, tuple[int, ...]]:
    total = len(init_keys)
    if total == 0:
        return [], 0, ()
    colors, classes = _compress(init_keys)
    history = [classes]
    iterations = 0
    for _ in range(total + 1):
        new_colors, new_classes = _compress([key_fn(t, colors) for t in range(total)])
        iterations += 1
        history.append(new_classes)
        if new_classes == classes:
            return new_colors, iterations, tuple(history)
        colors, classes = new_colors, new_classes
    raise AssertionError("refinement exceeded its iteration cap")


def _drfwl_blocks(
    idx: TupleIndex, offset: int, masked: frozenset
) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per tuple, per admissible (i, j) channel, the (id(w,v), id(u,w))
    index pairs that feed its multiset."""
    d = idx.d
    pid = idx.pair_id
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    channels_for_k = [
        [(i, j) for i in range(d + 1) for j in range(d + 1) if abs(i - j) <= k <= i + j]
        for k in range(d + 1)
    ]
    for u, v, k in idx.pairs:
        per_pair = []
        for i, j in channels_for_k[k]:
            if (i, j, k) in masked:
                continue
            ws = intersect(idx, u, v, i, j)
            per_pair.append(tuple((offset + pid[(w, v)], offset + pid[(u, w)]) for w in ws))
        blocks.append(per_pair)
    return blocks


def drfwl_multi(
    graphs: Sequence[Graph],
    d: int,
    mask: Iterable[tuple[int, int, int]] | None = None,
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Lockstep d-DRFWL(2) over the graphs: per-graph colors, rounds, and
    class counts per round, from nested per-unit keys."""
    masked = frozenset(tuple(t) for t in mask or ())
    indexes = [build_index(g, d) for g in graphs]
    offsets = []
    total = 0
    for idx in indexes:
        offsets.append(total)
        total += idx.tuple_count
    init = [k for idx in indexes for (_, _, k) in idx.pairs]
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    for gi, idx in enumerate(indexes):
        blocks.extend(_drfwl_blocks(idx, offsets[gi], masked))

    def key_fn(t: int, colors: list[int]):
        return (
            colors[t],
            tuple(
                tuple(sorted((colors[a], colors[b]) for a, b in block))
                for block in blocks[t]
            ),
        )

    colors, iterations, history = _refine_to_stability(init, key_fn)
    out = [
        colors[offsets[gi] : offsets[gi] + idx.tuple_count]
        for gi, idx in enumerate(indexes)
    ]
    return out, iterations, history
