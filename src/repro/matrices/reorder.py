"""Plan-time reordering transforms: RCM, SELL-C-σ row sorting, CMRS blocking.

TileSpMV's motivation (§II.B) is 2D spatial structure: nonzeros
clustered into tiles.  A bandwidth-reducing symmetric permutation
*creates* that structure on matrices whose natural ordering scatters it,
so RCM is the classic preprocessing companion of any tiled format.
Implemented from scratch (BFS from a pseudo-peripheral vertex, visiting
neighbours in increasing-degree order, reversed); validated against
scipy's implementation in the tests.

Two row-only transforms join it, in the spirit of the SELL-C-σ and CMRS
storage schemes:

* :func:`sort_rows_by_length` — SELL-C-σ-style windowed row sorting
  (Kreutzer et al., arXiv:1112.5588): within each window of ``sigma``
  rows, sort rows by descending nonzero count, so rows of similar
  length land in the same tile strip and ELL-like tiles pad less.
* :func:`blocking_reorder` — CMRS-style row compression (Koza et al.,
  arXiv:1203.2946): pack rows into blocks of ``block`` rows with
  balanced nonzero load (longest-processing-time assignment), bounding
  the heaviest strip a warp has to carry.

Both are *row-only* permutations, so a plan built on the permuted
matrix can return results in original row order bit-for-bit (the
property suite in ``tests/properties/test_reorder_metamorphic.py``
holds the engine to that).  Because each row moves only within its
window, bandwidth grows by at most ``window - 1`` — the monotonicity
bound that makes them safe to chain after RCM.

:class:`ReorderPlan` packages the composed permutations plus a
canonical ``tag``; :func:`build_reorder` parses specs like ``"rcm"``,
``"sell:32"``, ``"cmrs:16/64"`` or chains like ``"rcm+sell:32"``.
:class:`ReorderedSpMV` is the one place a reorder executes: any engine
(single device, 1D or 2D sharded, either backend, with or without shard
recovery) built on the permuted matrix, behind one gather of ``x`` and
one scatter of ``y``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.reliability.validation import ValidationPolicy, canonicalize_csr, pattern_values

__all__ = [
    "reverse_cuthill_mckee",
    "apply_symmetric_permutation",
    "bandwidth",
    "sort_rows_by_length",
    "blocking_reorder",
    "ReorderPlan",
    "ReorderedSpMV",
    "Reorderable",
    "build_reorder",
]


def bandwidth(matrix: sp.spmatrix) -> int:
    """Maximum |i - j| over the nonzeros."""
    coo = matrix.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.abs(coo.row.astype(np.int64) - coo.col.astype(np.int64)).max())


def _pseudo_peripheral(indptr: np.ndarray, indices: np.ndarray, start: int) -> int:
    """Find a vertex of (near-)maximal eccentricity by repeated BFS."""
    n = indptr.size - 1
    current = start
    last_depth = -1
    for _ in range(8):  # converges in a couple of sweeps in practice
        depth = np.full(n, -1, dtype=np.int64)
        depth[current] = 0
        frontier = [current]
        d = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if depth[v] < 0:
                        depth[v] = d + 1
                        nxt.append(int(v))
            frontier = nxt
            d += 1
        # Unreached vertices keep depth == -1; the eccentricity argmax
        # must only consider this component (an isolated start vertex
        # would otherwise hand the walk to a different component).
        reached = np.flatnonzero(depth >= 0)
        far = int(reached[np.argmax(depth[reached])])
        if depth[far] <= last_depth:
            return current
        last_depth = int(depth[far])
        current = far
    return current


def reverse_cuthill_mckee(matrix: sp.spmatrix) -> np.ndarray:
    """RCM permutation of the symmetrised pattern of ``matrix``.

    Returns ``perm`` such that ``A[perm][:, perm]`` has (near-)minimal
    bandwidth.  Handles disconnected graphs by restarting from the
    lowest-degree unvisited vertex.
    """
    csr = matrix.tocsr()
    if csr.shape[0] != csr.shape[1]:
        raise ValueError("RCM requires a square matrix")
    pattern = csr + csr.T
    pattern = pattern.tocsr()
    pattern.sort_indices()
    indptr, indices = pattern.indptr, pattern.indices
    n = pattern.shape[0]
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    deg_order = np.argsort(degree, kind="stable")
    deg_cursor = 0
    while pos < n:
        while deg_cursor < n and visited[deg_order[deg_cursor]]:
            deg_cursor += 1
        seed = _pseudo_peripheral(indptr, indices, int(deg_order[deg_cursor]))
        visited[seed] = True
        order[pos] = seed
        head = pos
        pos += 1
        while head < pos:
            u = order[head]
            head += 1
            nbrs = indices[indptr[u] : indptr[u + 1]]
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                visited[fresh] = True
                order[pos : pos + fresh.size] = fresh
                pos += fresh.size
    return order[::-1].copy()


def apply_symmetric_permutation(matrix: sp.spmatrix, perm: np.ndarray) -> sp.csr_matrix:
    """Return ``A[perm][:, perm]`` as CSR."""
    csr = matrix.tocsr()
    return csr[perm][:, perm].tocsr()


def sort_rows_by_length(matrix: sp.spmatrix, sigma: int = 0) -> np.ndarray:
    """SELL-C-σ-style windowed row sort; returns the row permutation.

    Within each consecutive window of ``sigma`` rows, rows are sorted by
    descending nonzero count (stable, so equal-length rows keep their
    relative order).  ``sigma <= 0`` (or ``sigma >= m``) sorts globally.
    Row displacement is bounded by the window, so chaining after a
    bandwidth reducer grows bandwidth by at most ``sigma - 1``.
    """
    csr = matrix.tocsr()
    m = csr.shape[0]
    counts = np.diff(csr.indptr)
    if sigma <= 0 or sigma >= m:
        return np.argsort(-counts, kind="stable").astype(np.int64)
    perm = np.empty(m, dtype=np.int64)
    for lo in range(0, m, sigma):
        hi = min(lo + sigma, m)
        perm[lo:hi] = lo + np.argsort(-counts[lo:hi], kind="stable")
    return perm


def blocking_reorder(
    matrix: sp.spmatrix, block: int = 16, window: int = 0
) -> np.ndarray:
    """CMRS-style balanced row blocking; returns the row permutation.

    Within each window of ``window`` rows (``0`` = the whole matrix),
    rows are packed into blocks of ``block`` rows so block nonzero loads
    balance: rows are taken in descending-count order and each goes to
    the lightest block that still has room (longest-processing-time
    assignment — deterministic, ties to the lowest block index).  Inside
    a block the rows are emitted in ascending original index, which
    keeps the permutation stable for equal layouts.

    The output strips of ``block`` rows then carry near-equal work, so a
    warp-per-strip schedule stops being hostage to one heavy row — the
    row-compression idea of CMRS expressed as a permutation.  Row
    displacement is bounded by the window, the same monotonicity bound
    as :func:`sort_rows_by_length`.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    csr = matrix.tocsr()
    m = csr.shape[0]
    counts = np.diff(csr.indptr).astype(np.int64)
    if window <= 0 or window > m:
        window = m
    perm = np.empty(m, dtype=np.int64)
    out = 0
    for lo in range(0, m, window):
        hi = min(lo + window, m)
        rows = np.arange(lo, hi, dtype=np.int64)
        n_blocks = -(-rows.size // block)
        loads = np.zeros(n_blocks, dtype=np.int64)
        fill = np.zeros(n_blocks, dtype=np.int64)
        members: list[list[int]] = [[] for _ in range(n_blocks)]
        for r in rows[np.argsort(-counts[lo:hi], kind="stable")]:
            open_blocks = np.flatnonzero(fill < block)
            b = int(open_blocks[np.argmin(loads[open_blocks])])
            members[b].append(int(r))
            loads[b] += counts[r]
            fill[b] += 1
        for b in range(n_blocks):
            chunk = np.sort(np.asarray(members[b], dtype=np.int64))
            perm[out : out + chunk.size] = chunk
            out += chunk.size
    return perm


class ReorderPlan:
    """A composed plan-time permutation with its cache tag.

    ``row_perm`` (and ``col_perm`` when the chain included a symmetric
    transform) map *new* positions to *original* indices: the permuted
    matrix is ``A[row_perm][:, col_perm]``.  ``tag`` is the canonical
    spec string and is folded into the plan-cache structural
    fingerprint, so a reordered plan never aliases the natural-order
    plan of the same pattern.
    """

    def __init__(self, tag: str, row_perm: np.ndarray,
                 col_perm: np.ndarray | None = None) -> None:
        self.tag = tag
        self.row_perm = np.asarray(row_perm, dtype=np.int64)
        self.col_perm = (
            None if col_perm is None else np.asarray(col_perm, dtype=np.int64)
        )
        self._inv_row: np.ndarray | None = None
        self._inv_col: np.ndarray | None = None

    @property
    def inv_row(self) -> np.ndarray:
        """Inverse row permutation (``row_perm[inv_row]`` is identity)."""
        if self._inv_row is None:
            self._inv_row = np.argsort(self.row_perm)
        return self._inv_row

    @property
    def inv_col(self) -> np.ndarray | None:
        if self.col_perm is None:
            return None
        if self._inv_col is None:
            self._inv_col = np.argsort(self.col_perm)
        return self._inv_col

    @property
    def is_row_only(self) -> bool:
        return self.col_perm is None

    @property
    def is_identity(self) -> bool:
        ident = bool(np.array_equal(self.row_perm, np.arange(self.row_perm.size)))
        if self.col_perm is not None:
            ident = ident and bool(
                np.array_equal(self.col_perm, np.arange(self.col_perm.size))
            )
        return ident

    def apply(self, csr: sp.csr_matrix) -> sp.csr_matrix:
        """``A[row_perm][:, col_perm]`` in canonical (sorted) CSR form."""
        out = csr[self.row_perm]
        if self.col_perm is not None:
            out = out[:, self.col_perm]
        out = out.tocsr()
        out.sort_indices()
        return out

    def permute(self, csr: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(apply(csr), perm)`` from one permutation pass.

        The pass permutes a copy of ``csr`` tagged with its entry
        positions; its structure is the permuted matrix's, and its data
        is ``perm``, so ``apply(csr).data == csr.data[perm]`` — the map
        that carries values given in original entry order into the
        permuted matrix.
        """
        tagged = self.apply(sp.csr_matrix(
            (np.arange(csr.nnz, dtype=np.int64), csr.indices, csr.indptr),
            shape=csr.shape,
        ))
        perm = np.asarray(tagged.data, dtype=np.int64)
        permuted = sp.csr_matrix(
            (csr.data[perm], tagged.indices, tagged.indptr), shape=csr.shape
        )
        return permuted, perm

    def describe(self) -> str:
        kind = "rows" if self.is_row_only else "rows+cols"
        return f"reorder[{self.tag}] ({kind}, n={self.row_perm.size})"


def _parse_token(token: str) -> tuple[str, tuple]:
    """Normalise one spec token to (kind, args)."""
    name, _, rest = token.strip().partition(":")
    name = name.lower()
    if name == "rcm":
        if rest:
            raise ValueError(f"rcm takes no argument, got {token!r}")
        return "rcm", ()
    if name == "sell":
        sigma = int(rest) if rest else 0
        if sigma < 0:
            raise ValueError(f"sell window must be >= 0, got {sigma}")
        return "sell", (sigma,)
    if name == "cmrs":
        block, _, window = rest.partition("/") if rest else ("", "", "")
        b = int(block) if block else 16
        w = int(window) if window else 0
        if b < 1 or w < 0:
            raise ValueError(f"bad cmrs spec {token!r}")
        return "cmrs", (b, w)
    raise ValueError(
        f"unknown reorder token {token!r}; expected rcm, sell[:sigma] "
        f"or cmrs[:block[/window]]"
    )


def build_reorder(matrix: sp.spmatrix, spec) -> ReorderPlan:
    """Build a :class:`ReorderPlan` from a spec.

    ``spec`` is a :class:`ReorderPlan` (returned as-is), a single token,
    a ``+``-joined chain, or a sequence of tokens.  Transforms compose
    left to right, each computed on the matrix the previous ones
    produced (so ``"rcm+sell:32"`` sorts rows *of the RCM-ordered
    matrix*).
    """
    if isinstance(spec, ReorderPlan):
        return spec
    if isinstance(spec, str):
        tokens = [t for t in spec.split("+") if t.strip()]
    else:
        tokens = [str(t) for t in spec]
    if not tokens:
        raise ValueError("empty reorder spec")
    csr = matrix.tocsr()
    m, n = csr.shape
    row_perm = np.arange(m, dtype=np.int64)
    col_perm: np.ndarray | None = None
    work = csr
    tags = []
    for token in tokens:
        kind, args = _parse_token(token)
        if kind == "rcm":
            p = reverse_cuthill_mckee(work)
            work = apply_symmetric_permutation(work, p)
            row_perm = row_perm[p]
            col_perm = p if col_perm is None else col_perm[p]
            tags.append("rcm")
        elif kind == "sell":
            (sigma,) = args
            p = sort_rows_by_length(work, sigma)
            work = work[p].tocsr()
            row_perm = row_perm[p]
            tags.append(f"sell:{sigma}")
        else:
            b, w = args
            p = blocking_reorder(work, block=b, window=w)
            work = work[p].tocsr()
            row_perm = row_perm[p]
            tags.append(f"cmrs:{b}/{w}")
    return ReorderPlan("+".join(tags), row_perm, col_perm)


class ReorderedSpMV:
    """An SpMV engine built on a reordered matrix, answering in original order.

    The matrix is canonicalized and permuted once
    (:meth:`ReorderPlan.permute`); ``inner`` is any engine built on the
    permuted matrix — a ``TileSpMV``, a ``ShardedSpMV`` of either
    backend or grid, or a ``RecoverableShardedSpMV``.  :meth:`spmv` and
    :meth:`spmm` gather ``x`` by ``col_perm``, run the inner product and
    scatter ``y`` by ``inv_row``: pure index gathers, so under a row-only
    reorder each output row sums its entries in the sequence the
    unreordered engine runs, and the result is bit-for-bit identical.
    :meth:`spmv_transpose` multiplies one A.T operand in original
    coordinates, built on the first call, so it is bit-for-bit under
    every reorder.  Pricing, plan keys, ``close`` and every other
    attribute are the inner engine's.

    The engine classes derive from :class:`Reorderable`, so
    ``TileSpMV``, ``ShardedSpMV`` (either backend) and
    ``RecoverableShardedSpMV`` return this wrapper when constructed with
    ``reorder=spec``; ``ReliableSpMV`` thereby wraps whatever engine it
    builds.
    """

    def __init__(self, reorder: ReorderPlan, inner, indptr: np.ndarray,
                 indices: np.ndarray, data_perm: np.ndarray,
                 validation_report=None) -> None:
        self.reorder = reorder
        self.inner = inner
        self.validation_report = validation_report
        self._indptr, self._indices, self._data_perm = indptr, indices, data_perm
        self._t_op: sp.csr_matrix | None = None

    @classmethod
    def build(cls, matrix: sp.spmatrix, spec, make,
              validation: ValidationPolicy | str = ValidationPolicy.REPAIR,
              ) -> "ReorderedSpMV":
        """Canonicalize ``matrix`` per ``validation``, permute it by
        ``spec`` (see :func:`build_reorder`) and wrap ``make(permuted)``.

        ``make`` builds the inner engine from the canonical permuted
        matrix (with ``validation="trust"``).
        """
        csr, report = canonicalize_csr(matrix, validation)
        indptr, indices = csr.indptr, csr.indices
        if csr is matrix:
            # ``trust`` hands back the caller's own matrix.
            indptr, indices = indptr.copy(), indices.copy()
        rp = build_reorder(csr, spec)
        with tele.span("reorder", cat="build", tag=rp.tag):
            permuted, perm = rp.permute(csr)
        del csr
        return cls(rp, make(permuted), indptr, indices, perm, report)

    def __getattr__(self, name: str):
        # Only reached for attributes this wrapper does not define.
        if name.startswith("__") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x in original order: gather, inner product, scatter."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},)")
        rp = self.reorder
        if rp.col_perm is not None:
            x = x[rp.col_perm]
        return self.inner.spmv(x)[rp.inv_row]

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X in original order, as :meth:`spmv` does it."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"X must have shape ({self.shape[1]}, k)")
        rp = self.reorder
        if rp.col_perm is not None:
            x = x[rp.col_perm]
        return self.inner.spmm(x)[rp.inv_row]

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x through the A.T operand of the original matrix:
        its rows hold each column's entries in ascending original row
        order, so the result is the unreordered engine's bit for bit."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[0],):
            raise ValueError(f"x must have shape ({self.shape[0]},)")
        if self._t_op is None:
            self._t_op = self.canonical_csr().T.tocsr()
        return self._t_op @ x

    def canonical_csr(self) -> sp.csr_matrix:
        """The canonical matrix in original order, current values (a new
        O(nnz) matrix per call)."""
        data = np.empty(self.nnz)
        data[self._data_perm] = self.inner.canonical_csr().data
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)

    @property
    def operand(self) -> sp.csr_matrix:
        """:meth:`canonical_csr`, as ``TileSpMV.operand`` names it."""
        return self.canonical_csr()

    def update_values(self, values) -> "ReorderedSpMV":
        """New values, same pattern: a same-pattern sparse matrix or the
        length-``nnz`` array in the original canonical order, carried
        into the permuted order by the data permutation."""
        data = pattern_values(
            values, self.shape, self.nnz, lambda: (self._indptr, self._indices)
        )
        # The gather is a fresh array: the inner engine takes it as is.
        self.inner._adopt_values(data[self._data_perm])
        self._t_op = None
        return self

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ReorderedSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        return f"{self.inner.describe()}\n{self.reorder.describe()}"


class Reorderable:
    """Base of every engine class: ``cls(matrix, ..., reorder=spec)``
    returns a :class:`ReorderedSpMV` over ``cls`` built on the permuted
    matrix, so an engine's ``__init__`` never sees a reorder."""

    def __new__(cls, matrix=None, *args, reorder=None,
                validation=ValidationPolicy.REPAIR, **kwargs):
        if reorder is None:
            return super().__new__(cls)
        return ReorderedSpMV.build(
            matrix, reorder,
            lambda p: cls(p, *args, validation="trust", **kwargs), validation,
        )
