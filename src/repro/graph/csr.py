"""Frozen CSR (compressed sparse row) snapshot of a directed graph.

All hot kernels (deterministic PROBE propagation, randomized PROBE sampling,
vectorized Monte Carlo walks, the Power Method) run on this representation:
plain int32/float64 numpy arrays, so every per-edge operation happens inside
numpy/scipy rather than the Python interpreter.

Both directions are materialised:

``out_indptr/out_indices``
    out-adjacency — followed by PROBE traversals.
``in_indptr/in_indices``
    in-adjacency — followed by √c-walks and used for uniform in-neighbour
    sampling.

The snapshot also precomputes the two sparse operators used throughout:

``forward_operator`` (``P_hat``)
    ``P_hat[x, v] = 1 / |I(v)|`` for each edge ``x -> v``; one deterministic
    PROBE iteration is ``score @ P_hat`` scaled by √c.
``transition`` (``P``)
    the column-stochastic matrix of Eq. 10 (``P[x, v] = 1 / |I(v)|``), kept as
    CSC for the Power Method.  ``P_hat`` and ``P`` share values; both handles
    are exposed because callers want different sparse layouts.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np
from scipy import sparse

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph

#: canonical field order and dtypes of a CSR snapshot's shareable payload.
#: The 8-byte ``indptr`` arrays come first so every array starts at an
#: 8-byte-aligned offset when the fields are packed back to back into one
#: flat buffer (the layout :mod:`repro.parallel.shm` maps into
#: ``multiprocessing.shared_memory`` and :mod:`repro.storage.snapshot`
#: maps into an on-disk snapshot file).
SHM_LAYOUT = (
    ("out_indptr", np.int64),
    ("in_indptr", np.int64),
    ("out_indices", np.int32),
    ("in_indices", np.int32),
)


def _split(values: np.ndarray, indptr: np.ndarray) -> list[list[int]]:
    """Python int lists ``values[indptr[v]:indptr[v + 1]]`` for every node."""
    flat = values.tolist()
    bounds = indptr.tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)]


def payload_layout(num_nodes: int, num_edges: int):
    """``([(field, dtype, offset, count)], total_bytes)`` for one packed payload.

    The single source of truth for how a CSR snapshot's adjacency arrays
    pack back to back into one flat buffer: the shared-memory segments of
    :mod:`repro.parallel.shm` and the mmap-backed snapshot files of
    :mod:`repro.storage.snapshot` both follow it, which is what lets either
    side be reconstructed zero-copy from the other's bytes.  ``total_bytes``
    is at least 1 (``SharedMemory`` refuses zero-byte segments).
    """
    layout = []
    offset = 0
    for field, dtype in SHM_LAYOUT:
        count = num_nodes + 1 if field.endswith("indptr") else num_edges
        layout.append((field, np.dtype(dtype), offset, count))
        offset += int(np.dtype(dtype).itemsize) * count
    return layout, max(offset, 1)


class CSRGraph:
    """Immutable CSR snapshot of a :class:`DiGraph`.

    Build with :meth:`from_digraph` or :meth:`from_edges`.  All arrays are
    read-only views; mutating the source ``DiGraph`` afterwards does not
    affect a snapshot.
    """

    def __init__(
        self,
        num_nodes: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.num_edges = int(len(out_indices))
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        for arr in (out_indptr, out_indices, in_indptr, in_indices):
            arr.setflags(write=False)

        self.in_degrees = np.diff(in_indptr).astype(np.int64)
        self.out_degrees = np.diff(out_indptr).astype(np.int64)
        self.in_degrees.setflags(write=False)
        self.out_degrees.setflags(write=False)

        self._forward_operator: sparse.csr_matrix | None = None
        self._backward_operator: sparse.csr_matrix | None = None
        self._transition_csc: sparse.csc_matrix | None = None
        self._inv_in_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CSRGraph":
        """Snapshot a mutable :class:`DiGraph` into CSR arrays."""
        n = graph.num_nodes
        m = graph.num_edges

        out_indptr = np.zeros(n + 1, dtype=np.int64)
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        out_indices = np.empty(m, dtype=np.int32)
        in_indices = np.empty(m, dtype=np.int32)

        pos = 0
        for node in range(n):
            targets = graph.out_neighbors(node)
            out_indices[pos : pos + len(targets)] = targets
            pos += len(targets)
            out_indptr[node + 1] = pos
        pos = 0
        for node in range(n):
            sources = graph.in_neighbors(node)
            in_indices[pos : pos + len(sources)] = sources
            pos += len(sources)
            in_indptr[node + 1] = pos

        return cls(n, out_indptr, out_indices, in_indptr, in_indices)

    @classmethod
    def from_payload(cls, buf, num_nodes: int, num_edges: int) -> "CSRGraph":
        """A snapshot whose arrays are zero-copy views into a packed payload.

        ``buf`` holds the adjacency arrays laid out by
        :func:`payload_layout` — a shared-memory generation or the payload
        region of an mmap-backed snapshot file — so the "load" is O(1)
        whatever the graph size.
        """
        layout, _ = payload_layout(num_nodes, num_edges)
        views = {
            field: np.ndarray((count,), dtype=dtype, buffer=buf, offset=offset)
            for field, dtype, offset, count in layout
        }
        return cls(
            num_nodes,
            views["out_indptr"],
            views["out_indices"],
            views["in_indptr"],
            views["in_indices"],
        )

    @classmethod
    def from_edges(cls, edges, num_nodes: int | None = None) -> "CSRGraph":
        """Snapshot directly from an edge list (via a temporary DiGraph)."""
        return cls.from_digraph(DiGraph.from_edges(edges, num_nodes=num_nodes))

    def to_digraph(self) -> DiGraph:
        """Thaw the snapshot back into a mutable :class:`DiGraph`.

        Out-lists keep CSR order and in-lists hold their sources in
        ascending order: the graph inserting every edge source by source
        would build, assembled with array ops instead.
        """
        n = self.num_nodes
        targets = self.out_indices
        if targets.size and not 0 <= int(targets.min()) <= int(targets.max()) < n:
            raise GraphError("CSR out_indices reference nodes outside the graph")
        sources = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees)
        # a stable sort by target keeps each target's sources ascending
        by_target = sources[np.argsort(targets, kind="stable")]
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=n), out=in_indptr[1:])
        return DiGraph.from_adjacency(
            _split(targets, self.out_indptr), _split(by_target, in_indptr)
        )

    # ------------------------------------------------------------------ #
    # adjacency queries
    # ------------------------------------------------------------------ #

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbour ids of ``node`` as a read-only int32 array."""
        self._check_node(node)
        return self.out_indices[self.out_indptr[node] : self.out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbour ids of ``node`` as a read-only int32 array."""
        self._check_node(node)
        return self.in_indices[self.in_indptr[node] : self.in_indptr[node + 1]]

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        self._check_node(node)
        return int(self.in_degrees[node])

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        self._check_node(node)
        return int(self.out_degrees[node])

    def edges(self):
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source in range(self.num_nodes):
            for target in self.out_neighbors(source):
                yield (source, int(target))

    def random_in_neighbor(self, node: int, rng: np.random.Generator) -> int | None:
        """Uniformly sample one in-neighbour of ``node``; ``None`` if none."""
        start = self.in_indptr[node]
        end = self.in_indptr[node + 1]
        if start == end:
            return None
        return int(self.in_indices[start + int(rng.integers(end - start))])

    def sample_in_neighbors(
        self, nodes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised uniform in-neighbour sampling for an array of nodes.

        Nodes with zero in-degree map to ``-1``.  This is the inner step of
        the vectorized Monte Carlo walker and of randomized PROBE.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.in_indptr[nodes]
        degrees = self.in_degrees[nodes]
        result = np.full(len(nodes), -1, dtype=np.int64)
        alive = degrees > 0
        if np.any(alive):
            offsets = (rng.random(int(alive.sum())) * degrees[alive]).astype(np.int64)
            result[alive] = self.in_indices[starts[alive] + offsets]
        return result

    # ------------------------------------------------------------------ #
    # sparse operators
    # ------------------------------------------------------------------ #

    @property
    def forward_operator(self) -> sparse.csr_matrix:
        """CSR matrix ``P_hat`` with ``P_hat[x, v] = 1/|I(v)|`` per edge x->v.

        One deterministic PROBE iteration is ``next = sqrt(c) * (score @ P_hat)``.
        """
        if self._forward_operator is None:
            self._forward_operator = self._build_operator().tocsr()
        return self._forward_operator

    @property
    def backward_operator(self) -> sparse.csr_matrix:
        """CSR matrix ``B = P_hat^T``: ``B[v, x] = 1/|I(v)|`` per edge x->v.

        Stored row-major so the probe iteration ``next = sqrt(c) * (B @ score)``
        is a fast CSR matvec.
        """
        if self._backward_operator is None:
            self._backward_operator = self._build_operator().T.tocsr()
        return self._backward_operator

    @property
    def inv_in_degrees(self) -> np.ndarray:
        """``1 / in_degree`` per node (0.0 for sources with no in-edges)."""
        if self._inv_in_degrees is None:
            with np.errstate(divide="ignore"):
                inv = np.where(self.in_degrees > 0, 1.0 / self.in_degrees, 0.0)
            inv.setflags(write=False)
            self._inv_in_degrees = inv
        return self._inv_in_degrees

    @property
    def transition(self) -> sparse.csc_matrix:
        """Column-stochastic transition matrix ``P`` of Eq. 10 (CSC layout)."""
        if self._transition_csc is None:
            self._transition_csc = self._build_operator().tocsc()
        return self._transition_csc

    def _build_operator(self) -> sparse.coo_matrix:
        n = self.num_nodes
        if self.num_edges == 0:
            return sparse.coo_matrix((n, n), dtype=np.float64)
        # COO triples from the in-adjacency: column v repeats in_degree[v] times.
        cols = np.repeat(np.arange(n, dtype=np.int64), self.in_degrees)
        rows = self.in_indices.astype(np.int64)
        with np.errstate(divide="ignore"):
            inv_deg = np.where(self.in_degrees > 0, 1.0 / self.in_degrees, 0.0)
        vals = inv_deg[cols]
        return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def shm_payload(self) -> dict[str, np.ndarray]:
        """The adjacency arrays in the canonical shareable form.

        Returns ``{field: array}`` for every ``SHM_LAYOUT`` field, each
        C-contiguous and normalised to the canonical dtype (a no-copy
        passthrough for snapshots built by :meth:`from_digraph`).  This is
        the exact byte payload :class:`repro.parallel.shm.SharedCSRGraph`
        places in shared memory; a snapshot is reconstructed zero-copy on
        the other side by handing the mapped views straight back to
        :class:`CSRGraph`.
        """
        return {
            field: np.ascontiguousarray(getattr(self, field), dtype=dtype)
            for field, dtype in SHM_LAYOUT
        }

    def payload_bytes(self) -> int:
        """Bytes of the raw adjacency arrays (the 'graph size' of Table 4)."""
        return int(
            self.out_indptr.nbytes
            + self.out_indices.nbytes
            + self.in_indptr.nbytes
            + self.in_indices.nbytes
        )

    def digest(self) -> str:
        """Canonical 128-bit hex digest of the adjacency payload.

        Hashes ``(num_nodes, num_edges)`` plus every ``SHM_LAYOUT`` array in
        canonical dtype and order, so two snapshots digest equal exactly when
        their CSR bytes are identical — regardless of whether the arrays live
        in process memory, a shared-memory segment, or an mmap-backed
        snapshot file.  This is the bit-identity witness the storage tier's
        crash-recovery contract asserts on.
        """
        hasher = blake2b(digest_size=16)
        hasher.update(
            np.array([self.num_nodes, self.num_edges], dtype=np.int64).tobytes()
        )
        for field, dtype in SHM_LAYOUT:
            hasher.update(
                np.ascontiguousarray(getattr(self, field), dtype=dtype).tobytes()
            )
        return hasher.hexdigest()

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(node)

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def as_csr(graph: "DiGraph | CSRGraph") -> CSRGraph:
    """Accept either representation and return a CSR snapshot.

    Public algorithm entry points call this so users can pass whichever form
    they have; a ``CSRGraph`` passes through without copying.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, DiGraph):
        return CSRGraph.from_digraph(graph)
    raise GraphError(f"expected DiGraph or CSRGraph, got {type(graph).__name__}")
