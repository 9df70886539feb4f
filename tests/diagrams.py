"""Oracle for the component types of reflection subgroups.

``classify_diagram`` names a connected Coxeter diagram by walking it: a path
is read off its bond labels from one end, a branched diagram by the lengths
of the three arms at its fork.  ``diagram_edges`` finds the bonds by
multiplying each pair of generators out to its order.  The library instead
names a component by its rank and number of reflections, and reads its
bonds off the root action; the tests compare the two.
"""

from dualcox.errors import InternalInvariantError


def label_key(label: str):
    """Sort key matching the descriptor normalization: family letter, then rank."""
    if label.startswith("I2("):
        return ("I", int(label[3:-1]))
    return (label[0], int(label[1:]))


def diagram_edges(g, gens: list) -> dict:
    """Coxeter diagram on generators: {(a, b): m} for each bonded pair, m >= 3."""
    edges = {}
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            m = (g.reflections[a] * g.reflections[b]).order()
            if m >= 3:
                edges[(a, b)] = m
    return edges


def classify_diagram(gens: list, edges: dict) -> str:
    """Finite type label of a connected labeled Coxeter diagram.

    ``edges`` maps each bonded pair (a, b) of ``gens`` to its order m >= 3.
    """
    rank = len(gens)
    if rank == 1:
        return "A1"
    neighbours = {a: [] for a in gens}
    for (a, b), m in edges.items():
        neighbours[a].append((b, m))
        neighbours[b].append((a, m))
    degrees = {a: len(n) for a, n in neighbours.items()}
    if max(degrees.values()) <= 2:
        # path: read the edge labels from one endpoint
        ends = [a for a in gens if degrees[a] == 1]
        if len(ends) != 2:
            raise InternalInvariantError("connected diagram without two path ends")
        labels = []
        prev, cur = None, min(ends)
        while True:
            nxt = [(b, m) for b, m in neighbours[cur] if b != prev]
            if not nxt:
                break
            (b, m) = nxt[0]
            labels.append(m)
            prev, cur = cur, b
        rev = labels[::-1]
        labels = min(labels, rev)
        if rank == 2:
            m = labels[0]
            return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        if all(m == 3 for m in labels):
            return f"A{rank}"
        if labels == sorted(labels) and labels[:-1] == [3] * (rank - 2):
            if labels[-1] == 4:
                return f"B{rank}"
            if labels[-1] == 5 and rank in (3, 4):
                return f"H{rank}"
        if rank == 4 and labels == [3, 4, 3]:
            return "F4"
        raise InternalInvariantError(f"unrecognized path diagram labels {labels}")
    # branched: a single degree-3 node with all bonds simple
    if any(m != 3 for m in edges.values()):
        raise InternalInvariantError("branched diagram with a labeled bond")
    forks = [a for a in gens if degrees[a] == 3]
    if len(forks) != 1 or max(degrees.values()) > 3:
        raise InternalInvariantError("diagram branches more than once")
    fork = forks[0]
    arms = []
    for b, _ in neighbours[fork]:
        length, prev, cur = 1, fork, b
        while True:
            nxt = [c for c, _ in neighbours[cur] if c != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{rank}"
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return f"E{rank}"
    raise InternalInvariantError(f"unrecognized branched diagram with arms {arms}")
