"""Trees materialized as nested half-open subintervals of [0, 1).

A filtration is a cluster tree whose single-child chains are collapsed,
so that every internal node has at least two children, and which
carries exact masses: the root has mass 1, and children's masses sum
exactly to their parent's.  Nodes become subintervals [a, b) of the
unit interval: the root is [0, 1), and each node's children tile it
left to right in child order.  All endpoints and masses are computed in
exact rational arithmetic (stdlib Fractions); floats appear only in
exported artifacts.

The level-by-level enumeration at the end of the module gives every
non-leftmost child a global index (the root is index 0); those indices
later name the orthogonal system, and there are exactly as many of them
as the tree has leaves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .clustering import ClusterNode, ClusterTree


@dataclass
class FiltrationNode(ClusterNode):
    """A collapsed cluster-tree node with its exact mass and interval."""
    weight: Fraction = Fraction(0)
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)


class Filtration(ClusterTree):
    """A collapsed cluster tree with exact interval geometry.

    Node lookup, depth, leaf order and the vertex-to-leaf map are the
    cluster tree's; levels are depths from the root.
    """

    def leaf_interval(self, vertex: int) -> tuple[Fraction, Fraction]:
        return self.nodes[self.leaf_of_vertex(vertex)].interval

    def validate(self) -> None:
        """Raise unless the masses are positive and tile [0, 1) exactly."""
        root = self.nodes[self.root]
        if root.weight != 1 or root.a != 0 or root.b != 1:
            raise ValueError("root must carry mass 1 on [0, 1)")
        for node in self.nodes.values():
            if node.weight <= 0:
                raise ValueError(f"node {node.id} has nonpositive mass")
            if node.b - node.a != node.weight:
                raise ValueError(f"node {node.id}: interval does not "
                                 "match its mass")
            if node.children:
                if len(node.children) < 2:
                    raise ValueError(
                        f"internal node {node.id} has a single child")
                pos = node.a
                for c in node.children:
                    child = self.nodes[c]
                    if child.a != pos:
                        raise ValueError(
                            f"children of {node.id} do not tile it")
                    pos = child.b
                if pos != node.b:
                    raise ValueError(
                        f"children of {node.id} do not exhaust it")


# -- chain collapsing --------------------------------------------------------


def collapse_chains(tree: ClusterTree) -> ClusterTree:
    """Remove single-child chains so every internal node branches.

    One preorder walk from the root, kept nodes in that order: each kept
    node skips down its single-child chain (a level that repeats a
    cluster of the level above), keeps the chain top's id and members,
    takes the chain bottom's children, and gets its depth from the root
    as its level.
    """
    nodes: dict[int, ClusterNode] = {}
    stack: list[tuple[int, Optional[int], int]] = [(tree.root, None, 0)]
    while stack:
        nid, parent, level = stack.pop()
        top = bottom = tree.nodes[nid]
        while len(bottom.children) == 1:
            bottom = tree.nodes[bottom.children[0]]
        nodes[nid] = ClusterNode(nid, level, parent, list(bottom.children),
                                 top.members)
        stack.extend((c, nid, level + 1) for c in reversed(bottom.children))
    return ClusterTree(nodes, tree.root)


# -- mass assignment ---------------------------------------------------------


def assign_weights(tree: ClusterTree, scheme: str = "uniform",
                   graph=None) -> dict[int, Fraction]:
    """Exact node masses for a tree, total mass 1.

    scheme
        "uniform" : every leaf gets 1/(number of leaves).
        "volume"  : a leaf's mass is proportional to its vertex's
                    weighted degree in ``graph``; a zero-degree vertex
                    falls back to the uniform share (with a warning).
    Internal nodes always carry the sum of their children.
    """
    leaves = tree.leaves()
    n = len(leaves)
    if n == 0:
        raise ValueError("tree has no leaves")
    if scheme == "uniform":
        leaf_mass = {leaf.id: Fraction(1, n) for leaf in leaves}
    elif scheme == "volume":
        if graph is None:
            raise ValueError("volume scheme needs the graph")
        degs = graph.out_degrees()
        raw: dict[int, Fraction] = {}
        zeros = set()
        for leaf in leaves:
            (v,) = leaf.members
            d = Fraction(float(degs[v]))
            if d <= 0:
                zeros.add(leaf.id)
            raw[leaf.id] = d
        if zeros:
            warnings.warn(f"{len(zeros)} zero-degree leaves fall back to "
                          "the uniform share", stacklevel=2)
        # the positive leaves share what the uniform shares leave over
        positive_total = sum(raw[i] for i in raw if i not in zeros)
        spare = Fraction(1) - Fraction(len(zeros), n)
        leaf_mass = {leaf.id: Fraction(1, n) if leaf.id in zeros
                     else raw[leaf.id] / positive_total * spare
                     for leaf in leaves}
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")

    weights = dict(leaf_mass)
    internal, stack = [], [tree.root]
    while stack:  # preorder, so children come after their parents
        node = tree.nodes[stack.pop()]
        if node.children:
            internal.append(node)
            stack.extend(node.children)
    for node in reversed(internal):
        weights[node.id] = sum(weights[c] for c in node.children)
    if weights[tree.root] != 1:
        raise AssertionError("leaf masses do not sum to 1")
    return weights


# -- interval construction ---------------------------------------------------


def build_filtration(tree: ClusterTree, scheme: str = "uniform",
                     graph=None,
                     weights: Optional[dict[int, Fraction]] = None
                     ) -> Filtration:
    """Collapse, weight, and materialize a cluster tree on [0, 1)."""
    collapsed = collapse_chains(tree)
    if weights is None:
        weights = assign_weights(collapsed, scheme, graph)
    nodes = {nid: FiltrationNode(**vars(n), weight=Fraction(weights[nid]))
             for nid, n in collapsed.nodes.items()}
    for node in nodes.values():  # preorder: a parent sets its children's a
        node.b = node.a + node.weight
        pos = node.a
        for c in node.children:
            nodes[c].a = pos
            pos += nodes[c].weight
    filt = Filtration(nodes, collapsed.root)
    filt.validate()
    return filt


# -- level-by-level enumeration ----------------------------------------------


def llo_enumerate(filt: Filtration) -> list[int]:
    """Global indexing of the root plus every non-leftmost child.

    Entry n is the node carrying index n: the root, then depth by depth
    the non-leftmost children, left to right (by increasing a).  One
    breadth-first walk, whose frontier runs left to right; there are
    exactly as many entries as leaves.
    """
    order = [filt.root]
    frontier = [filt.root]
    while frontier:
        kids = [filt.nodes[nid].children for nid in frontier]
        order.extend(c for ch in kids for c in ch[1:])
        frontier = [c for ch in kids for c in ch]
    if len(order) != filt.n_leaves():
        raise AssertionError("enumeration size must equal the leaf count")
    return order
