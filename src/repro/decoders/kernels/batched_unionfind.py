"""Whole-batch vectorized union-find: the ``numpy`` backend's kernel.

:class:`BatchedUnionFind` decodes the *entire distinct-syndrome matrix* of a
batch in one pass instead of looping per syndrome.  It is a row-parallel
re-expression of :class:`~repro.decoders.unionfind.UnionFindDecoder` — same
weighted event-driven growth, same peeling — with every phase vectorized
over the row axis:

* **growth** keeps a ``(rows, nodes)`` union-find forest and a
  ``(rows, edges)`` growth table; each round computes every row's frontier,
  growth step and completed edges with flat array operations, and merges the
  completed edges with iterative min-hooking (the final partition is
  order-independent, which is all the scalar pass depends on);
* **peeling** rebuilds exactly the scalar decoder's *canonical* spanning
  forest (adjacency in ascending edge order, FIFO breadth-first traversal,
  components rooted at the boundary or the first endpoint appearance) with
  level-synchronous BFS, then flips parent edges bottom-up by subtree defect
  parity — an order-free formulation of the scalar leaf-peeling loop.

Every per-row state transition is a pure function of the row's cluster
partition, so predictions are **bit-identical** to calling
``UnionFindDecoder.decode`` on each row (asserted across the backend parity
matrix in ``tests/test_kernels.py``).

Rows are processed in blocks of ``block_rows`` to bound the dense
``(rows, edges)`` scratch tables; within a block, rows finish independently
and drop out of the round loop as they neutralize.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedUnionFind"]

#: sentinel "no appearance yet" / "no step" value, safely above any real key
_BIG = np.int64(1) << np.int64(62)


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int key array.

    Sort-plus-mask beats ``np.unique`` here: numpy's hash-based unique costs
    several times a plain sort at these sizes.
    """
    if key.size == 0:
        return key
    key = np.sort(key)
    return key[np.r_[True, key[1:] != key[:-1]]]


def _roots(parent: np.ndarray, pr: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """Union-find roots of the ``(pr, pn)`` node pairs.

    Pointer-chases only the pairs that have not converged yet — after path
    compression most chains are a single hop, so the common case is two
    gathers over the full pair list and tiny follow-up iterations.
    """
    r = parent[pr, pn]
    rr = parent[pr, r]
    undone = rr != r
    if not undone.any():
        return r
    idx = np.flatnonzero(undone)
    cpr = pr[idx]
    cur = rr[idx]
    while True:
        r[idx] = cur
        nxt = parent[cpr, cur]
        more = nxt != cur
        if not more.any():
            return r
        idx, cpr, cur = idx[more], cpr[more], nxt[more]


class BatchedUnionFind:
    """Vectorized whole-matrix decode kernel for one ``UnionFindDecoder``.

    Instances are bound to a decoder (same graph, same integer weights) and
    are stateless between calls; unlike the scalar decoder they are safe to
    call concurrently.
    """

    def __init__(self, decoder, *, block_rows: int = 2048):
        graph = decoder.graph
        indptr, eids = graph.adjacency()
        self.graph = graph
        self.block_rows = int(block_rows)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._eids = np.asarray(eids, dtype=np.int64)
        self._deg = np.diff(self._indptr)
        #: the scalar decoder's integer weights, shared so growth agrees
        self._w = np.asarray(decoder._weights, dtype=np.int64)
        self._eu = np.asarray(graph.edge_u, dtype=np.int64)
        self._ev = np.asarray(graph.edge_v, dtype=np.int64)
        self._eobs = np.asarray(graph.edge_obs, dtype=np.uint64)
        self._boundary = int(graph.boundary_node)
        self._num_nodes = graph.num_detectors + 1
        self._max_rounds = 4 * (graph.num_edges + 2)
        # fixed-width adjacency over *detector* nodes for frontier expansion
        # (cluster members of active clusters never include the boundary —
        # a boundary-touching cluster is inactive by definition), padded
        # with the sentinel edge id E, which the solid table's extra
        # always-True column filters out together with solid edges
        det_deg = self._deg[: graph.num_detectors]
        self._adj_width = int(det_deg.max()) if det_deg.size else 0
        E = graph.num_edges
        self._adjfix = np.full(
            (graph.num_detectors, self._adj_width), E, dtype=np.int64
        )
        for node in range(graph.num_detectors):
            row = eids[indptr[node] : indptr[node + 1]]
            self._adjfix[node, : row.size] = row
        # growth values never exceed ~3x the largest weight: pick the
        # smallest table dtype that provably cannot overflow
        max_w = int(self._w.max()) if self._w.size else 0
        self._growth_dtype = np.int16 if 4 * max_w < 32767 else np.int32

    def __call__(self, rows: np.ndarray, counts=None) -> np.ndarray:
        return self.decode_rows(rows, counts)

    def decode_rows(self, rows: np.ndarray, counts=None) -> np.ndarray:
        """Observable bitmask per row of a ``(n, num_detectors)`` bool matrix.

        ``counts`` (per-row shot multiplicities) is accepted for signature
        compatibility with the ``_decode_rows`` hook and ignored — union-find
        keeps no per-shot statistics.
        """
        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.graph.num_detectors:
            raise ValueError(
                f"expected (n, {self.graph.num_detectors}) detector rows, "
                f"got shape {rows.shape}"
            )
        n = rows.shape[0]
        N, E = self._num_nodes, self._w.size
        # rows sorted by syndrome weight move through the lockstep round
        # loop with like-sized neighbours, so light blocks finish in a few
        # rounds instead of idling behind one heavy straggler
        order = np.argsort(rows.sum(axis=1, dtype=np.int64), kind="stable")
        rows = rows[order]
        masks = np.zeros(n, dtype=np.uint64)
        # growth runs in small blocks (dense (block, edges) growth table must
        # stay cache-resident); peeling runs over much larger spans, paying
        # the BFS level-loop overhead once instead of once per block
        peel_span = max(self.block_rows, 32768)
        for pstart in range(0, n, peel_span):
            pstop = min(n, pstart + peel_span)
            skeys, nkeys, comps = [], [], []
            for start in range(pstart, pstop, self.block_rows):
                stop = min(pstop, start + self.block_rows)
                skey, nkey, comp = self._grow_block(rows[start:stop])
                base = start - pstart
                skeys.append(skey + base * E)
                nkeys.append(nkey + base * N)
                comps.append(comp + base * N)
            skey = np.concatenate(skeys)
            nkey = np.concatenate(nkeys)
            comp = np.concatenate(comps)
            if skey.size:
                masks[pstart:pstop] = self._peel_span(
                    rows[pstart:pstop], skey // E, skey % E,
                    nkey // N, nkey % N, comp % N,
                )
        out = np.empty(n, dtype=np.uint64)
        out[order] = masks
        return out

    # -- growth ------------------------------------------------------------

    def _grow_block(self, sub: np.ndarray):
        """Run weighted cluster growth for one block of rows.

        Returns flat local keys: ``skey`` — the solid (row * E + edge) set,
        ``nkey`` — the solid-adjacent (row * N + node) set, and ``ckey`` —
        each such node's cluster root as a (row * N + root) key (the
        growth partition *is* solid connectivity, which the peel needs for
        component roots).
        """
        B = sub.shape[0]
        N, E = self._num_nodes, self._w.size
        parent = np.broadcast_to(np.arange(N, dtype=np.int64), (B, N)).copy()
        parity = np.zeros((B, N), dtype=np.int8)
        occupied = np.zeros((B, N), dtype=bool)
        bnd = np.zeros((B, N), dtype=bool)
        # incrementally maintained `(parity == 1) & ~bnd`, valid at roots:
        # one gather on the hot path instead of two
        actroot = np.zeros((B, N), dtype=bool)
        # the narrowest provably-safe dtype keeps the growth table inside
        # the cache at the default block size
        growth = np.zeros((B, E), dtype=self._growth_dtype)
        # column E is the sentinel slot of the padded adjacency: marking it
        # "solid" drops padding entries in the same filter as solid edges
        solid = np.zeros((B, E + 1), dtype=bool)
        solid[:, E] = True
        solid_keys: list[np.ndarray] = []  # completed (row * E + edge) keys

        # defects seed singleton odd clusters (rows are bool: no duplicates).
        # Occupied (row, node) pairs are carried as one *sorted* key array so
        # derived candidate lists stay grouped by row without re-sorting.
        occ_r, occ_n = np.nonzero(sub)
        occ_r = occ_r.astype(np.int64)
        occ_n = occ_n.astype(np.int64)
        parity[occ_r, occ_n] = 1
        occupied[occ_r, occ_n] = True
        actroot[occ_r, occ_n] = True
        okey = occ_r * N + occ_n  # nonzero order == sorted

        for _ in range(self._max_rounds):
            if okey.size == 0:
                break
            occ_r, occ_n = okey // N, okey % N
            roots = _roots(parent, occ_r, occ_n)
            parent[occ_r, occ_n] = roots  # path compression
            act = actroot[occ_r, roots]
            if not act.any():
                break
            ar, an, arm = occ_r[act], occ_n[act], roots[act]

            # frontier: non-solid edges incident to active-cluster members,
            # expanded through the fixed-width adjacency (active members are
            # never the boundary node).  An edge adjacent to two members
            # appears twice; duplicates are harmless everywhere below (the
            # growth update is an idempotent set, not an accumulate), so no
            # dedup pass is needed.
            width = self._adj_width
            fe = self._adjfix[an].ravel()
            fr = np.repeat(ar, width)  # non-decreasing: ar follows sorted okey
            keep = ~solid[fr, fe]  # drops solid edges and padding in one pass
            fr, fe = fr[keep], fe[keep]
            fn = np.repeat(an, width)[keep]  # the member endpoint
            fm = np.repeat(arm, width)[keep]  # ... and its (known, active) root

            # rows whose active clusters have no frontier left: give up, as
            # the scalar loop does for isolated odd clusters
            has_frontier = np.zeros(B, dtype=bool)
            has_frontier[fr] = True
            row_alive = np.zeros(B, dtype=bool)
            row_alive[ar] = True
            row_alive &= has_frontier
            live_pairs = row_alive[occ_r]
            if not live_pairs.all():
                okey = okey[live_pairs]
            if fr.size == 0:
                continue

            # distinct active clusters pushing on each frontier edge: the
            # member side contributes one by construction; the far side adds
            # one when it roots in a *different* active cluster.  (No
            # occupancy test is needed: parity is nonzero only at cluster
            # roots, and an unoccupied endpoint is its own zero-parity root.)
            other = self._eu[fe] + self._ev[fe] - fn
            ro = _roots(parent, fr, other)
            two = actroot[fr, ro] & (ro != fm)

            # event-driven growth: every row jumps to its next completion.
            # cnt is only ever 1 or 2, so the ceiling division unrolls into
            # a branchless where — no integer division on the hot path.
            g = growth[fr, fe].astype(np.int64)
            d = self._w[fe] - g
            need = np.where(two, (d + 1) >> 1, d)
            starts = np.empty(fr.size, dtype=bool)
            starts[0] = True
            np.not_equal(fr[1:], fr[:-1], out=starts[1:])
            bounds = np.flatnonzero(starts)
            step = np.zeros(B, dtype=np.int64)
            step[fr[bounds]] = np.minimum.reduceat(need, bounds)
            pair_step = step[fr]
            g += np.where(two, pair_step << 1, pair_step)
            growth[fr, fe] = g
            comp = g >= self._w[fe]
            if not comp.any():
                continue
            cr, ce = fr[comp], fe[comp]
            solid[cr, ce] = True
            solid_keys.append(cr * E + ce)
            okey = self._union_completed(
                parent, parity, occupied, bnd, actroot, okey,
                cr, fn[comp], other[comp], fm[comp], ro[comp],
            )
        empty = np.zeros(0, dtype=np.int64)
        if not solid_keys:
            return empty, empty, empty
        skey = _sorted_unique(np.concatenate(solid_keys))
        sr, se = skey // E, skey % E
        nkey = _sorted_unique(
            np.concatenate([sr * N + self._eu[se], sr * N + self._ev[se]])
        )
        nr, nn = nkey // N, nkey % N
        ckey = nr * N + _roots(parent, nr, nn)
        return skey, nkey, ckey

    def _union_completed(self, parent, parity, occupied, bnd, actroot, okey,
                         cr, cu, cv, ru0, rv0):
        """Union the endpoints of this round's completed edges, vectorized.

        ``ru0``/``rv0`` are the endpoint roots as computed by the frontier
        pass, i.e. *before* any of this round's links.
        """
        N = self._num_nodes
        boundary = self._boundary
        # add_node: unseen endpoints become singleton even clusters
        added = []
        for node in (cu, cv):
            new = ~occupied[cr, node]
            if new.any():
                nr, nn = cr[new], node[new]
                occupied[nr, nn] = True
                bnd[nr, nn] = nn == boundary
                added.append(nr * N + nn)
        if added:
            addkey = _sorted_unique(np.concatenate(added))
            okey = np.sort(np.concatenate([okey, addkey]))

        # old roots before linking, for parity/boundary aggregation below
        oldkey = _sorted_unique(np.concatenate([cr * N + ru0, cr * N + rv0]))
        # iterative min-hooking: pointers only ever decrease, so conflicting
        # scatters cannot create cycles and the loop converges to the
        # order-independent partition the scalar unions produce
        ra, rb = ru0, rv0
        acr, acu, acv = cr, cu, cv
        while True:
            diff = ra != rb
            if not diff.any():
                break
            acr, acu, acv = acr[diff], acu[diff], acv[diff]
            lo = np.minimum(ra[diff], rb[diff])
            hi = np.maximum(ra[diff], rb[diff])
            parent[acr, hi] = lo
            ra = _roots(parent, acr, acu)
            rb = _roots(parent, acr, acv)
        orow, onode = oldkey // N, oldkey % N
        nroot = _roots(parent, orow, onode)
        moved = nroot != onode
        if moved.any():
            mr, mo, mn = orow[moved], onode[moved], nroot[moved]
            np.bitwise_xor.at(parity, (mr, mn), parity[mr, mo])
            parity[mr, mo] = 0
            np.logical_or.at(bnd, (mr, mn), bnd[mr, mo])
            actroot[mr, mn] = (parity[mr, mn] == 1) & ~bnd[mr, mn]
            actroot[mr, mo] = False
        return okey

    # -- peeling -----------------------------------------------------------

    def _peel_span(self, sub, sr, se, nr, nn, comp) -> np.ndarray:
        """Canonical-forest peel of every row's solid subgraph at once.

        ``(sr, se)`` are the solid (row, edge) pairs sorted by row then edge
        — the ascending order the scalar peel iterates in — and
        ``(nr, nn, comp)`` every solid-adjacent node with its cluster root.
        """
        B = sub.shape[0]
        N = self._num_nodes
        boundary = self._boundary
        masks = np.zeros(B, dtype=np.uint64)
        if sr.size == 0:
            return masks
        su, sv = self._eu[se], self._ev[se]
        solid = np.zeros((B, self._w.size), dtype=bool)
        solid[sr, se] = True

        # first-appearance rank of every node over ascending solid edges
        # (edge k contributes u at 2k, v at 2k+1); the boundary, when
        # present, precedes everything — exactly the scalar root preference
        big32 = np.int32(np.iinfo(np.int32).max)
        row_first = np.zeros(B, dtype=np.int64)
        np.add.at(row_first, sr, 1)
        row_first = np.cumsum(row_first) - row_first
        k = (np.arange(sr.size, dtype=np.int64) - row_first[sr]).astype(np.int32)
        app = np.full((B, N), big32, dtype=np.int32)
        np.minimum.at(app, (sr, su), 2 * k)
        np.minimum.at(app, (sr, sv), 2 * k + 1)
        present = app[:, boundary] < big32
        app[present, boundary] = -1

        # peel roots: the minimum-appearance member of each cluster
        rootapp = np.full((B, N), big32, dtype=np.int32)
        np.minimum.at(rootapp, (nr, comp), app[nr, nn])
        isroot = app[nr, nn] == rootapp[nr, comp]

        # level-synchronous BFS replaying the scalar FIFO traversal: each
        # undiscovered node joins the tree through the smallest
        # (parent discovery rank, edge id) among its same-level candidates.
        # A single composite sort key replaces the 4-key lexsort: discovery
        # ranks are bounded by 2E + 2 (level 0 uses appearance ranks).
        E = self._w.size
        dmax = np.int64(2 * E + 4)
        visited = np.zeros((B, N), dtype=bool)
        fr_r, fr_n = nr[isroot], nn[isroot]
        fr_d = app[fr_r, fr_n]  # any within-row distinct ranks work at level 0
        visited[fr_r, fr_n] = True
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        while fr_r.size:
            deg = self._deg[fr_n]
            total = int(deg.sum())
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(deg) - deg, deg
            )
            ce = self._eids[np.repeat(self._indptr[fr_n], deg) + offs]
            cre = np.repeat(fr_r, deg)
            keep = solid[cre, ce]
            cre, ce = cre[keep], ce[keep]
            cn = np.repeat(fr_n, deg)[keep]
            cd = np.repeat(fr_d, deg)[keep]
            other = self._eu[ce] + self._ev[ce] - cn
            keep = ~visited[cre, other]
            cre, ce, cn, cd, other = cre[keep], ce[keep], cn[keep], cd[keep], other[keep]
            if cre.size == 0:
                break
            group = cre * N + other
            compact = B * N * int(dmax) * E < 1 << 62
            if compact:
                order = np.argsort((group * dmax + (cd + 1)) * E + ce)
            else:  # composite key would overflow (huge graphs): lexsort
                order = np.lexsort((ce, cd, group))
            group, cre, ce, cd, other = (
                group[order], cre[order], ce[order], cd[order], other[order],
            )
            cn = cn[order]
            first = np.empty(group.size, dtype=bool)
            first[0] = True
            np.not_equal(group[1:], group[:-1], out=first[1:])
            cre, ce, cn, cd, other = (
                cre[first], ce[first], cn[first], cd[first], other[first],
            )
            visited[cre, other] = True
            levels.append((cre, other, cn, ce))
            # discovery ranks of the new level: FIFO order is (parent, edge)
            if compact:
                order = np.argsort((cre * dmax + (cd + 1)) * E + ce)
            else:
                order = np.lexsort((ce, cd, cre))
            fr_r, fr_n = cre[order], other[order]
            starts = np.empty(fr_r.size, dtype=bool)
            starts[0] = True
            np.not_equal(fr_r[1:], fr_r[:-1], out=starts[1:])
            seq = np.arange(fr_r.size, dtype=np.int64)
            fr_d = seq - np.maximum.accumulate(np.where(starts, seq, 0))

        # bottom-up: flip a tree edge iff its child subtree holds odd defect
        # parity; the boundary absorbs parity instead of propagating it
        parity = np.zeros((B, N), dtype=np.int8)
        dr, dn = np.nonzero(sub)
        parity[dr, dn] = 1
        for cre, child, parent_node, ce in reversed(levels):
            flip = parity[cre, child] == 1
            if not flip.any():
                continue
            np.bitwise_xor.at(masks, cre[flip], self._eobs[ce[flip]])
            prop = flip & (parent_node != boundary)
            if prop.any():
                np.bitwise_xor.at(parity, (cre[prop], parent_node[prop]), np.int8(1))
        return masks
