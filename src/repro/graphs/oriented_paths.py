"""Oriented paths, written as strings over {0, 1}.

Following the paper (proof of Proposition 4.4): an oriented path
``P = (u_0, ..., u_n)`` has, for each ``i``, either the forward edge
``(u_i, u_{i+1})`` (written ``0``) or the backward edge ``(u_{i+1}, u_i)``
(written ``1``).  The *net length* is the number of forward edges minus the
number of backward edges.  ``P = 001`` is two forward edges followed by a
backward one.
"""

from __future__ import annotations

from repro.cq.structure import Structure
from repro.graphs.digraph import PointedDigraph, digraph


def oriented_path(spec: str, *, prefix: str = "p") -> PointedDigraph:
    """The oriented path described by a string over ``{0, 1}``.

    Nodes are ``f"{prefix}{i}"``; the initial node is ``p0`` and the terminal
    node is ``p{len(spec)}``.
    """
    if not spec or any(ch not in "01" for ch in spec):
        raise ValueError(f"spec must be a non-empty string over 0/1, got {spec!r}")
    edge_list = []
    for index, ch in enumerate(spec):
        u, v = f"{prefix}{index}", f"{prefix}{index + 1}"
        edge_list.append((u, v) if ch == "0" else (v, u))
    return PointedDigraph(digraph(edge_list), f"{prefix}0", f"{prefix}{len(spec)}")


def directed_path(length: int, *, prefix: str = "p") -> PointedDigraph:
    """``P_k``: the directed path of the given length (all forward edges)."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        structure = Structure({"E": []}, vocabulary={"E": 2}, domain=[f"{prefix}0"])
        return PointedDigraph(structure, f"{prefix}0", f"{prefix}0")
    return oriented_path("0" * length, prefix=prefix)


def net_length(spec: str) -> int:
    """Forward edges minus backward edges of an oriented-path string."""
    return spec.count("0") - spec.count("1")


def reverse_spec(spec: str) -> str:
    """The string of the reversed oriented path (walk it from the far end)."""
    return "".join("1" if ch == "0" else "0" for ch in reversed(spec))
