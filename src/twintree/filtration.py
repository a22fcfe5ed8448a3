"""Trees materialized as nested half-open subintervals of [0, 1).

A filtration is a rooted tree whose root carries mass 1, whose every
internal node has at least two children, and whose children's masses
sum exactly to their parent's.  Nodes become subintervals [a, b) of the
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .clustering import ClusterNode, ClusterTree


@dataclass
class FiltrationNode:
    id: int
    parent: Optional[int]
    children: list[int]
    members: frozenset[int]
    depth: int
    weight: Fraction = Fraction(0)
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)


class Filtration:
    """A weighted tree with exact interval geometry."""

    def __init__(self, nodes: dict[int, FiltrationNode], root: int):
        self.nodes = nodes
        self.root = root
        self._leaves: list[FiltrationNode] = []
        stack = [root]
        while stack:
            node = nodes[stack.pop()]
            if node.children:
                stack.extend(reversed(node.children))
            else:
                self._leaves.append(node)
        self.vertex_leaf = {}
        for leaf in self._leaves:
            if len(leaf.members) == 1:
                (v,) = leaf.members
                self.vertex_leaf[v] = leaf.id

    def node(self, nid: int) -> FiltrationNode:
        return self.nodes[nid]

    def leaves(self) -> list[FiltrationNode]:
        """Leaves in left-to-right interval order."""
        return list(self._leaves)

    def n_leaves(self) -> int:
        return len(self._leaves)

    def depth(self) -> int:
        return max(n.depth for n in self.nodes.values())

    def leaf_interval(self, vertex: int) -> tuple[Fraction, Fraction]:
        node = self.nodes[self.vertex_leaf[vertex]]
        return (node.a, node.b)

    def child_index(self, nid: int) -> int:
        node = self.nodes[nid]
        if node.parent is None:
            raise ValueError("root has no child index")
        return self.nodes[node.parent].children.index(nid)

    def validate(self) -> None:
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

    A node with a single child (a level that repeats a cluster of the
    level above) is merged with that child into the chain's top node,
    which keeps its id, and node levels are recomputed as depth from
    the root.
    """
    nodes = {nid: ClusterNode(n.id, n.level, n.parent, list(n.children),
                              n.members, n.synthetic)
             for nid, n in tree.nodes.items()}
    changed = True
    while changed:
        changed = False
        for node in list(nodes.values()):
            if node.id not in nodes or len(node.children) != 1:
                continue
            child = nodes[node.children[0]]
            node.children = list(child.children)
            for gc in child.children:
                nodes[gc].parent = node.id
            del nodes[child.id]
            changed = True
    # recompute levels as depth from the root
    queue = [(tree.root, 0)]
    while queue:
        nid, depth = queue.pop()
        nodes[nid].level = depth
        queue.extend((c, depth + 1) for c in nodes[nid].children)
    for node in nodes.values():
        if node.children and len(node.children) < 2:
            raise ValueError(f"node {node.id} still has a single child")
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
        zeros = []
        for leaf in leaves:
            (v,) = leaf.members
            d = Fraction(float(degs[v]))
            if d <= 0:
                zeros.append(leaf.id)
            raw[leaf.id] = d
        if zeros:
            warnings.warn(f"{len(zeros)} zero-degree leaves fall back to "
                          "the uniform share", stacklevel=2)
        positive_total = sum(raw[i] for i in raw if i not in zeros)
        if positive_total == 0:
            leaf_mass = {leaf.id: Fraction(1, n) for leaf in leaves}
        else:
            spare = Fraction(1) - Fraction(len(zeros), n)
            leaf_mass = {}
            for leaf in leaves:
                if leaf.id in zeros:
                    leaf_mass[leaf.id] = Fraction(1, n)
                else:
                    leaf_mass[leaf.id] = raw[leaf.id] / positive_total * spare
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")

    weights = dict(leaf_mass)

    def fill(nid: int) -> Fraction:
        node = tree.nodes[nid]
        if not node.children:
            return weights[nid]
        total = sum(fill(c) for c in node.children)
        weights[nid] = total
        return total

    total = fill(tree.root)
    if total != 1:
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
    nodes: dict[int, FiltrationNode] = {}
    for nid, n in collapsed.nodes.items():
        nodes[nid] = FiltrationNode(
            id=nid, parent=n.parent, children=list(n.children),
            members=n.members, depth=n.level, weight=Fraction(weights[nid]))

    def place(nid: int, a: Fraction) -> None:
        node = nodes[nid]
        node.a = a
        node.b = a + node.weight
        pos = a
        for c in node.children:
            place(c, pos)
            pos += nodes[c].weight

    place(collapsed.root, Fraction(0))
    filt = Filtration(nodes, collapsed.root)
    filt.validate()
    return filt


# -- level-by-level enumeration ----------------------------------------------


@dataclass
class LLOEnumeration:
    """Global indexing of the root plus every non-leftmost child.

    order[n] is the node carrying index n; index 0 is the root, and
    within each depth the indices run left to right.  The count equals
    the number of leaves.
    """
    order: list[int]
    index_of: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.index_of = {nid: i for i, nid in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)


def llo_enumerate(filt: Filtration) -> LLOEnumeration:
    order = [filt.root]
    for depth in range(1, filt.depth() + 1):
        level = [n for n in filt.nodes.values() if n.depth == depth
                 and n.parent is not None
                 and filt.nodes[n.parent].children[0] != n.id]
        level.sort(key=lambda n: n.a)
        order.extend(n.id for n in level)
    enum = LLOEnumeration(order)
    if len(enum) != filt.n_leaves():
        raise AssertionError("enumeration size must equal the leaf count")
    return enum
