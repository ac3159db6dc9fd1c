"""Independent oracle: count homomorphisms to G via the Wirtinger
presentation of the closed-braid diagram.

One generator per diagram arc (arcs break at under-passes), one relation
per crossing, brute force over assignments to the merged arc variables.
This shares only the crossing convention with the production enumerator:
letter +i has the strand at the lower position passing over.
"""

import itertools


def _find(parent, a):
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def wirtinger_count(beta, G, fixed=None) -> int:
    """Number of homomorphisms from the closure's link group to G.  fixed,
    a dict {bottom position: element}, keeps only those that send the arc
    entering the braid at each such position to its element."""
    m = beta.strands
    arc_at = list(range(m))
    next_id = m
    # (over_arc, sign, under_in_arc, under_out_arc): out = over^s * in * over^-s
    relations = []
    for l in beta.letters:
        i = abs(l) - 1
        out = next_id
        next_id += 1
        if l > 0:
            relations.append((arc_at[i], 1, arc_at[i + 1], out))
            arc_at[i], arc_at[i + 1] = out, arc_at[i]
        else:
            relations.append((arc_at[i + 1], -1, arc_at[i], out))
            arc_at[i], arc_at[i + 1] = arc_at[i + 1], out
    # closure: the arc at top position j continues into bottom position j
    parent = list(range(next_id))
    for j in range(m):
        _union(parent, arc_at[j], j)

    roots = sorted({_find(parent, a) for a in range(next_id)})
    slot = {r: s for s, r in enumerate(roots)}
    rels = [
        (
            slot[_find(parent, o)],
            s,
            slot[_find(parent, u)],
            slot[_find(parent, v)],
        )
        for (o, s, u, v) in relations
    ]

    pinned = {}
    for j, g in (fixed or {}).items():
        if pinned.setdefault(slot[_find(parent, j)], g) != g:
            return 0
    free = [s for s in range(len(roots)) if s not in pinned]

    mul, inv = G.table, G.inv
    count = 0
    assign = [pinned.get(s, 0) for s in range(len(roots))]
    for values in itertools.product(range(G.order), repeat=len(free)):
        for s, g in zip(free, values):
            assign[s] = g
        ok = True
        for o, s, u, v in rels:
            g = assign[o] if s > 0 else inv[assign[o]]
            if assign[v] != mul[mul[g][assign[u]]][inv[g]]:
                ok = False
                break
        if ok:
            count += 1
    return count
