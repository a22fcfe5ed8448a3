"""Weighted directed graphs and their symmetrized companions.

A digraph lives on dense vertex ids 0..n-1 with strictly positive edge
weights in a CSR matrix; vertex names map external identifiers to ids.
Besides ingestion and persistence, this module provides the two
symmetrizations used downstream (the coupling graphs built from the
self-loop-extended matrix, one per side of the twin trees), weak
component extraction, all-pairs weighted shortest-path distances, and a
few synthetic digraph generators.
"""

from __future__ import annotations

import gzip
import io
import json
from typing import IO, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class GraphFormatError(ValueError):
    """Raised for malformed edge-list or label input."""


def _canonical_csr(weights, n: int) -> sparse.csr_array:
    mat = sparse.csr_array(weights, dtype=np.float64)
    if mat.shape != (n, n):
        raise ValueError(f"weight matrix shape {mat.shape} != ({n}, {n})")
    mat.sum_duplicates()
    mat.sort_indices()
    if mat.nnz:
        if not np.all(np.isfinite(mat.data)):
            raise ValueError("edge weights must be finite")
        if np.any(mat.data <= 0.0):
            raise ValueError("edge weights must be strictly positive")
    return mat


class WeightedDigraph:
    """A finite digraph with strictly positive edge weights.

    Parameters
    ----------
    weights : scipy sparse or array-like, shape (n, n)
        weights[u, v] > 0 is the weight of edge u -> v; absent entries
        mean "no edge".
    names : sequence of str, optional
        External identifiers, one per vertex (defaults to "0".."n-1").
        Must be unique.
    labels : dict, optional
        Maps vertex id -> hierarchical label path (tuple of strings).
    """

    def __init__(self, weights, names: Optional[Sequence[str]] = None,
                 labels: Optional[dict] = None):
        if hasattr(weights, "shape"):
            n = int(weights.shape[0])
        else:
            n = len(weights)
        self.n = n
        self.weights = _canonical_csr(weights, n)
        if names is None:
            names = [str(i) for i in range(n)]
        names = [str(x) for x in names]
        if len(names) != n:
            raise ValueError("names length must equal vertex count")
        if len(set(names)) != n:
            raise ValueError("vertex names must be unique")
        self.names = names
        self.labels = {}
        if labels:
            for v, path in labels.items():
                v = int(v)
                if not 0 <= v < n:
                    raise ValueError(f"label for unknown vertex {v}")
                if isinstance(path, str):
                    path = tuple(path.split("/"))
                self.labels[v] = tuple(str(p) for p in path)
        self._totals = None

    @classmethod
    def _canonical(cls, weights: sparse.csr_array, names: list[str],
                   labels: dict) -> "WeightedDigraph":
        """A graph on a matrix that is already canonical CSR (and, for
        an UndirectedGraph, symmetric), with checked names and labels,
        taken as they are."""
        G = cls.__new__(cls)
        G.n = weights.shape[0]
        G.weights = weights
        G.names = names
        G.labels = labels
        G._totals = None
        return G

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, "
                f"edges={self.weights.nnz})")

    def edge_count(self) -> int:
        return int(self.weights.nnz)

    def total_weight(self) -> float:
        return float(self.weights.data.sum()) if self.weights.nnz else 0.0

    def out_degrees(self) -> np.ndarray:
        """Weighted out-degree of every vertex."""
        return np.asarray(self.weights.sum(axis=1)).ravel()

    def in_degrees(self) -> np.ndarray:
        """Weighted in-degree of every vertex."""
        return np.asarray(self.weights.sum(axis=0)).ravel()

    def degree_totals(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(total weight, out-degrees, in-degrees), computed on first use
        and kept, the degree arrays read-only."""
        if self._totals is None:
            k_out, k_in = self.out_degrees(), self.in_degrees()
            k_out.setflags(write=False)
            k_in.setflags(write=False)
            self._totals = (self.total_weight(), k_out, k_in)
        return self._totals

    def to_dense(self) -> np.ndarray:
        return self.weights.toarray()

    # -- derived graphs --------------------------------------------------

    def subgraph(self, vertices: Sequence[int]) -> "WeightedDigraph":
        """Restriction to the given vertex ids (order preserved)."""
        idx = np.asarray(list(vertices), dtype=int)
        sub = self.weights[idx][:, idx]
        names = [self.names[i] for i in idx]
        labels = {j: self.labels[int(v)]
                  for j, v in enumerate(idx) if int(v) in self.labels}
        return type(self)(sub, names, labels)

    # -- persistence -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Edges [u, v, weight] in row-major order, read off the
        canonical CSR (sorted, no duplicates)."""
        W = self.weights
        tails = np.repeat(np.arange(self.n), np.diff(W.indptr)).tolist()
        edges = [[u, v, w] for u, v, w in zip(tails, W.indices.tolist(),
                                              W.data.tolist())]
        return {
            "directed": type(self) is not UndirectedGraph,
            "vertices": [{"id": i, "name": self.names[i]}
                         for i in range(self.n)],
            "edges": edges,
            "labels": {str(v): "/".join(path)
                       for v, path in sorted(self.labels.items())},
            "name_map": {name: i for i, name in enumerate(self.names)},
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json_dict(), sort_keys=True,
                                indent=1) + "\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WeightedDigraph":
        verts = sorted(obj["vertices"], key=lambda r: r["id"])
        n = len(verts)
        names = [v["name"] for v in verts]
        rows, cols, data = [], [], []
        for u, v, w in obj["edges"]:
            rows.append(int(u)); cols.append(int(v)); data.append(float(w))
        weights = sparse.csr_array(
            (data, (rows, cols)), shape=(n, n), dtype=np.float64)
        labels = {int(v): tuple(path.split("/"))
                  for v, path in obj.get("labels", {}).items()}
        klass = WeightedDigraph if obj.get("directed", True) else UndirectedGraph
        return klass(weights, names, labels)

    @classmethod
    def load_json(cls, path) -> "WeightedDigraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


class UndirectedGraph(WeightedDigraph):
    """A digraph whose weight matrix is exactly symmetric."""

    def __init__(self, weights, names=None, labels=None):
        super().__init__(weights, names, labels)
        # canonical CSR without stored zeros: symmetric exactly when the
        # arrays equal those of the transpose
        W = self.weights
        T = W.T.tocsr()
        T.sort_indices()
        if not (np.array_equal(W.indptr, T.indptr)
                and np.array_equal(W.indices, T.indices)
                and np.array_equal(W.data, T.data)):
            raise ValueError("undirected graph requires a symmetric matrix")


# -- construction operators ----------------------------------------------


def extend(G: WeightedDigraph) -> WeightedDigraph:
    """Add a unit self-loop at every vertex."""
    eye = sparse.eye_array(G.n, format="csr")
    return WeightedDigraph(G.weights + eye, G.names, G.labels)


def symmetrize(G: WeightedDigraph, kind: str) -> UndirectedGraph:
    """Build one of the two symmetric companions of a digraph.

    kind
        "es" : couples vertices that point at common targets; the
               self-loop-extended matrix times its transpose.
        "os" : couples vertices pointed at by common sources; the
               transpose of the extended matrix times itself.

    The product's canonical CSR has sorted indices, so each entry and
    its mirror are summed over the same terms in the same order and the
    product is exactly symmetric; UndirectedGraph raises if it is not.
    """
    if kind not in ("es", "os"):
        raise ValueError(f"unknown symmetrization kind {kind!r}")
    we = extend(G).weights
    sym = we @ we.T if kind == "es" else we.T @ we
    return UndirectedGraph(sym, G.names, G.labels)


def weak_component_indices(G: WeightedDigraph) -> list[np.ndarray]:
    """Vertex-id groups of the weak components, largest first.

    Ties in size break toward the component containing the smallest
    vertex id, so the order is deterministic.
    """
    ncomp, member = csgraph.connected_components(
        G.weights, directed=True, connection="weak")
    groups = [np.flatnonzero(member == c) for c in range(ncomp)]
    groups.sort(key=lambda idx: (-len(idx), int(idx[0])))
    return groups


def is_strongly_connected(G: WeightedDigraph) -> bool:
    ncomp, _ = csgraph.connected_components(
        G.weights, directed=True, connection="strong")
    return ncomp == 1


def graph_distance(G: WeightedDigraph) -> np.ndarray:
    """All-pairs shortest-path distance, edge weights read as lengths.

    Unreachable pairs come back as np.inf (the exact IEEE value, never a
    large finite float).  Runs Dijkstra from every source.
    """
    if G.n == 0:
        return np.zeros((0, 0))
    dist = csgraph.dijkstra(G.weights, directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist


def reciprocal_lengths(G: WeightedDigraph) -> WeightedDigraph:
    """Reinterpret similarity weights as dissimilarity edge lengths (1/w).

    Heavily coupled vertices become close; used by the clusterers, where
    the symmetrized matrices carry similarity-type weights.  The result
    has G's type, names and labels; reciprocals keep a canonical
    (symmetric) matrix canonical (symmetric), so only their finiteness
    is checked: 1/w overflows for w below about 5.6e-309.
    """
    recip = G.weights.copy()
    with np.errstate(over="ignore"):
        recip.data = 1.0 / recip.data
    if not np.all(np.isfinite(recip.data)):
        raise ValueError("edge weights must be finite")
    return type(G)._canonical(recip, list(G.names), dict(G.labels))


# -- ingestion -----------------------------------------------------------


def _open_text(source) -> IO[str]:
    """A new text stream of a path's or stream's text.  Bytes are
    gunzipped if gzip's magic number starts them, then UTF-8 decoded."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        data = data.decode("utf-8")
    return io.StringIO(data)


def load_edge_list(source, labels_source=None) -> WeightedDigraph:
    """Read a digraph from an edge-list stream or path.

    Each non-comment line is ``src dst weight`` (whitespace separated;
    '#' starts a comment; gzip input is detected transparently).  Vertex
    names are assigned dense ids in order of first appearance.  Repeated
    (src, dst) lines have their weights summed.  A nonpositive or
    unparsable weight raises GraphFormatError with the line number.
    """
    ids: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}

    def vid(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(ids)
        return ids[tok]

    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise GraphFormatError(
                    f"line {lineno}: expected 'src dst weight', got {line!r}")
            src, dst, wtok = parts
            try:
                w = float(wtok)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: weight {wtok!r} is not a number") from None
            if not np.isfinite(w) or w <= 0.0:
                raise GraphFormatError(
                    f"line {lineno}: weight must be positive and finite, "
                    f"got {wtok}")
            key = (vid(src), vid(dst))
            entries[key] = entries.get(key, 0.0) + w

    n = len(ids)
    rows = [u for (u, _) in entries]
    cols = [v for (_, v) in entries]
    data = [entries[k] for k in entries]
    weights = sparse.csr_array((data, (rows, cols)), shape=(n, n),
                               dtype=np.float64)
    names = [None] * n
    for name, i in ids.items():
        names[i] = name
    labels = None
    if labels_source is not None:
        by_name = load_labels(labels_source)
        labels = {ids[name]: path for name, path in by_name.items()
                  if name in ids}
    return WeightedDigraph(weights, names, labels)


def load_labels(source) -> dict[str, tuple[str, ...]]:
    """Read ``id<TAB>label[/sublabel...]`` lines into a name -> path map."""
    out: dict[str, tuple[str, ...]] = {}
    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(None, 1)
            if len(parts) != 2:
                raise GraphFormatError(
                    f"line {lineno}: expected 'id label', got {line!r}")
            out[parts[0]] = tuple(parts[1].strip().split("/"))
    return out


def label_index(labels: dict) -> dict[int, int]:
    """Vertex -> index of its top-level label class, classes sorted by name.

    A vertex's class is the first component of its label path; only the
    vertices in ``labels`` appear, in its order.
    """
    classes = sorted({str(path[0]) for path in labels.values()})
    index = {c: i for i, c in enumerate(classes)}
    return {v: index[str(path[0])] for v, path in labels.items()}


# -- synthetic digraphs ---------------------------------------------------


def synth_digraph(kind: str, seed: int = 0, **params) -> WeightedDigraph:
    """Deterministic synthetic digraphs.

    kind
        "toy25"   : 25 vertices, random weights, resampled until strongly
                    connected.  Params: density (0.15), wmin, wmax.
        "planted" : planted block digraph; block index becomes the vertex
                    label.  Params: sizes ((50, 50)), p_in (0.2),
                    p_out (0.01).
        "sparse"  : unit-weight Erdos-Renyi digraph.  Params: n (100),
                    density (0.05).
    """
    rng = np.random.default_rng(seed)
    if kind == "toy25":
        n = 25
        density = float(params.pop("density", 0.15))
        wmin = float(params.pop("wmin", 0.5))
        wmax = float(params.pop("wmax", 1.5))
        _reject_params(kind, params)
        for _ in range(1000):
            mask = rng.random((n, n)) < density
            np.fill_diagonal(mask, False)
            weights = np.where(mask, rng.uniform(wmin, wmax, (n, n)), 0.0)
            G = WeightedDigraph(sparse.csr_array(weights))
            if is_strongly_connected(G):
                return G
        raise RuntimeError("failed to draw a strongly connected digraph")
    if kind == "planted":
        sizes = tuple(int(s) for s in params.pop("sizes", (50, 50)))
        p_in = float(params.pop("p_in", 0.2))
        p_out = float(params.pop("p_out", 0.01))
        _reject_params(kind, params)
        n = sum(sizes)
        block = np.repeat(np.arange(len(sizes)), sizes)
        prob = np.where(block[:, None] == block[None, :], p_in, p_out)
        mask = rng.random((n, n)) < prob
        np.fill_diagonal(mask, False)
        weights = sparse.csr_array(np.where(mask, 1.0, 0.0))
        labels = {i: (str(block[i]),) for i in range(n)}
        return WeightedDigraph(weights, labels=labels)
    if kind == "sparse":
        n = int(params.pop("n", 100))
        density = float(params.pop("density", 0.05))
        _reject_params(kind, params)
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, False)
        weights = sparse.csr_array(np.where(mask, 1.0, 0.0))
        return WeightedDigraph(weights)
    raise ValueError(f"unknown synthetic digraph kind {kind!r}")


def _reject_params(kind: str, params: dict) -> None:
    if params:
        raise TypeError(f"unknown parameters for {kind!r}: {sorted(params)}")
