"""DOT and JSON output for inventories, pair lists and poset quivers."""

from __future__ import annotations

from .errors import TauredError
from .tilting import Inventory, PosetQuiver, STPair


def emit_dot(pq: PosetQuiver, labels: list[str], double_border: set[int] | None = None,
             highlight: set[int] | None = None, ascii_labels: bool = False) -> str:
    """A DOT digraph with deterministic vertex and edge order.

    Vertex i is the DOT node ``labels[i]``, so the labels must be distinct.
    Vertices in ``double_border`` get two peripheries, vertices in
    ``highlight`` are filled red.  Labels join summand names with a direct-sum
    sign (ASCII ``+`` on request).
    """
    if len(set(labels)) != len(labels):
        dup = next(lbl for lbl in labels if labels.count(lbl) > 1)
        raise TauredError(f"two vertices share the label {dup!r}; DOT needs distinct names")
    double_border = double_border or set()
    highlight = highlight or set()
    joiner = "+" if ascii_labels else "⊕"
    lines = ["digraph hasse {"]
    for i in sorted(range(pq.n), key=labels.__getitem__):
        lbl = labels[i]
        shown = lbl if lbl == "0" else lbl.replace("+", joiner)
        attrs = [f'label="{shown}"']
        if i in double_border:
            attrs.append("peripheries=2")
        if i in highlight:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        lines.append(f'  "{lbl}" [{", ".join(attrs)}];')
    for s, t in sorted((labels[s], labels[t]) for s, t in pq.arrows):
        lines.append(f'  "{s}" -> "{t}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_payload(name: str, inv: Inventory, pairs: list[STPair],
                 pq: PosetQuiver) -> dict:
    """The stable JSON schema: algebra, indecomposables, stpairs, hasse.

    Vertex i of ``pq`` is ``pairs[i]``; edges are listed in the order of
    their pairs' labels.
    """
    indecs = []
    for r in inv.records:
        indecs.append({
            "id": r.id,
            "name": r.name,
            "dim_vector": list(r.dim_vector),
        })
    stpairs = []
    for i, p in enumerate(pairs):
        stpairs.append({
            "id": i,
            "module_summands": sorted(p.modules),
            "support_vertices": sorted(p.supports),
            "is_tau_tilting": p.is_tau_tilting,
        })
    labels = [inv.pair_label(p) for p in pairs]
    edges = [list(a) for a in sorted(pq.arrows, key=lambda a: (labels[a[0]], labels[a[1]]))]
    return {
        "algebra": name,
        "indecomposables": indecs,
        "stpairs": stpairs,
        "hasse": {"edges": edges},
    }
