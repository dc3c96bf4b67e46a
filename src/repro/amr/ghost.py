"""Ghost-cell filling and communication-volume planning.

Two jobs live here:

1. :class:`GhostFiller` -- before each kernel step, fill every patch's ghost
   frame from (in priority order) same-level sibling patches, then coarser
   ancestor levels via prolongation, with periodic wrapping or outflow
   replication at the physical domain boundary.  This is the sequential
   (in-memory) realization of what MPI ghost exchanges do on a real cluster.

2. :func:`plan_exchange_volumes` -- given the partitioner's box->rank
   assignment, compute how many bytes *would* cross each rank pair during
   one ghost exchange.  The runtime's time model prices this against the
   simulated interconnect, which is how partitioning locality shows up in
   execution time.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from repro.amr.intergrid import prolong
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList

__all__ = ["GhostFiller", "plan_exchange_volumes"]


class GhostFiller:
    """Fills ghost frames of hierarchy patches.

    Parameters
    ----------
    hierarchy:
        The :class:`~repro.amr.hierarchy.GridHierarchy` to serve.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def fetch(self, region: Box, level: int) -> np.ndarray:
        """Composite-grid read: data for ``region`` (inside the domain at
        ``level``), taken from the finest available source at each cell --
        same-level patches where they exist, prolonged ancestor data
        elsewhere.  Level 0 always covers the domain, so this never fails.
        """
        dom = self.hierarchy.domain_at(level)
        if not dom.contains_box(region):
            raise GeometryError(f"fetch region {region} outside domain {dom}")
        if level == 0:
            return self._read_level(region, 0)
        f = self.hierarchy.refine_factor
        coarse_region = region.coarsen(f)
        coarse = self.fetch(coarse_region, level - 1)
        fine_frame = coarse_region.refine(f)
        data = prolong(coarse, f)
        sl = (slice(None),) + region.slices(origin=fine_frame.lower)
        out = np.ascontiguousarray(data[sl])
        if level >= self.hierarchy.num_levels:
            return out  # level not instantiated yet: pure prolongation
        # Overlay same-level truth where patches cover the region.
        for patch in self.hierarchy.levels[level]:
            inter = patch.box.intersection(region)
            if inter is None:
                continue
            dst = (slice(None),) + inter.slices(origin=region.lower)
            out[dst] = patch.view_for(inter)
        return out

    def _read_level(self, region: Box, level: int) -> np.ndarray:
        """Read a region fully covered by one level's patches (level 0)."""
        shape = (self.hierarchy.kernel.num_fields,) + region.shape
        out = np.zeros(shape)
        for patch in self.hierarchy.levels[level]:
            inter = patch.box.intersection(region)
            if inter is None:
                continue
            dst = (slice(None),) + inter.slices(origin=region.lower)
            out[dst] = patch.view_for(inter)
        return out

    # ------------------------------------------------------------------
    def fill_patch_ghosts(self, patch, level: int) -> None:
        """Fill one patch's ghost frame (interior data left untouched)."""
        g = patch.ghost_width
        if g == 0:
            return
        dom = self.hierarchy.domain_at(level)
        gb = patch.ghost_box()
        boundary = self.hierarchy.kernel.boundary
        for piece in gb.difference(patch.box):
            if boundary == "periodic":
                self._fill_periodic_piece(patch, piece, level, dom)
            else:
                inside = piece.intersection(dom)
                if inside is not None:
                    patch.view_for(inside)[...] = self.fetch(inside, level)
        if boundary == "outflow":
            self._replicate_outflow(patch, dom)

    def _fill_periodic_piece(self, patch, piece: Box, level: int, dom: Box) -> None:
        """Fill a ghost slab, wrapping out-of-domain parts around the torus."""
        extents = dom.shape
        shifts = itertools.product(*[(-e, 0, e) for e in extents])
        for shift in shifts:
            shifted_dom = dom.translate(shift)
            part = piece.intersection(shifted_dom)
            if part is None:
                continue
            source = part.translate(tuple(-s for s in shift))
            patch.view_for(part)[...] = self.fetch(source, level)

    def _replicate_outflow(self, patch, dom: Box) -> None:
        """Zero-gradient boundary: copy the outermost in-domain plane into
        out-of-domain ghost planes, axis by axis (fills corners too)."""
        g = patch.ghost_width
        data = patch.data
        gb = patch.ghost_box()
        for axis in range(patch.box.ndim):
            ax = axis + 1  # account for the fields axis
            low_out = dom.lower[axis] - gb.lower[axis]  # ghosts below domain
            if low_out > 0:
                edge = np.take(data, [low_out], axis=ax)
                idx = [slice(None)] * data.ndim
                idx[ax] = slice(0, low_out)
                data[tuple(idx)] = edge
            high_out = gb.upper[axis] - dom.upper[axis]  # ghosts above domain
            if high_out > 0:
                n = data.shape[ax]
                edge = np.take(data, [n - high_out - 1], axis=ax)
                idx = [slice(None)] * data.ndim
                idx[ax] = slice(n - high_out, n)
                data[tuple(idx)] = edge

    def fill_level_ghosts(self, level: int) -> None:
        """Fill every patch of a level."""
        for patch in self.hierarchy.levels[level]:
            self.fill_patch_ghosts(patch, level)


# ---------------------------------------------------------------------------
# Communication-volume planning
# ---------------------------------------------------------------------------
#: Candidate pairs tested per broadcast block; bounds the temporaries of
#: the all-pairs overlap test on hierarchies with many boxes.
_PAIR_BLOCK = 1 << 18


def _overlaps(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    a_level: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    b_level: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every overlapping ``(a, b)`` row pair with ``a_level[a] ==
    b_level[b]``, in row-major ``(a, b)`` order.

    Returns the row indices into each operand and the overlap cell
    counts.  Each block of ``a`` rows is tested against every ``b`` row
    with one broadcast lo/hi comparison per axis.
    """
    step = max(1, _PAIR_BLOCK // len(b_lo))
    ai_parts, bi_parts = [], []
    for a0 in range(0, len(a_lo), step):
        rows = slice(a0, a0 + step)
        hit = a_level[rows, None] == b_level
        for d in range(a_lo.shape[1]):
            hit &= a_lo[rows, d, None] < b_hi[:, d]
            hit &= b_lo[:, d] < a_hi[rows, d, None]
        ai, bi = np.nonzero(hit)
        ai_parts.append(ai + a0)
        bi_parts.append(bi)
    ai = np.concatenate(ai_parts)
    bi = np.concatenate(bi_parts)
    extent = np.minimum(a_hi[ai], b_hi[bi]) - np.maximum(a_lo[ai], b_lo[bi])
    return ai, bi, extent.prod(axis=1)


def _owner_ranks(boxes: BoxList, owners: Mapping[Box, int]) -> np.ndarray:
    """Rank vector aligned with ``boxes`` from a Box-keyed owner map."""
    ranks = list(map(owners.get, boxes))
    if None in ranks:
        missing = boxes[ranks.index(None)]
        raise GeometryError(f"box {missing} missing from ownership map")
    return np.array(ranks, dtype=np.int64)


def plan_exchange_volumes(
    boxes: BoxList,
    owners: np.ndarray | Mapping[Box, int],
    ghost_width: int = 1,
    bytes_per_cell: float = 8.0,
    refine_factor: int = 2,
) -> dict[tuple[int, int], float]:
    """Bytes crossing each rank pair in one ghost-exchange phase.

    Intra-level traffic: for same-level boxes A, B with different owners,
    the cells of ``B`` inside ``A.grow(ghost_width)`` must be shipped from
    B's owner to A's owner.  Inter-level traffic: each fine box needs a
    prolongation source -- its coarsened ghost footprint -- from every
    parent-level box it overlaps that lives on another rank.

    ``owners`` is the rank of every box, aligned with ``boxes`` (the
    partitioner's ``rank_vector()``); a Box-keyed mapping is also
    accepted and looked up once into that vector.

    Runs on the ``BoxArray`` columns: one broadcast overlap test finds
    every same-level and child-parent overlap at once.  The result is
    ordered by the enumeration (intra-level ``(a, b)`` pairs, levels in
    order of their first box, then ``(fine, parent)`` pairs by ascending
    level, boxes in list order within each): keys appear in order of
    first occurrence and each value is summed in enumeration order
    (``np.bincount`` adds in input order).  The exchange pricing
    accumulates floats in the dict's order, so the order is part of the
    contract.
    """
    if ghost_width < 0:
        raise GeometryError(f"negative ghost width {ghost_width}")
    if isinstance(owners, Mapping):
        owners = _owner_ranks(boxes, owners)
    arr = boxes.array
    ranks = np.asarray(owners, dtype=np.int64)
    if ranks.shape != (len(arr),):
        raise GeometryError(
            f"{ranks.size} owner ranks for {len(arr)} boxes"
        )
    if not len(arr):
        return {}
    lo, hi, level = arr.lower, arr.upper, arr.level
    n = len(arr)
    # Query rows, one block of n per kind: each box's grown box looks for
    # same-level neighbours (none without a ghost frame), and its
    # coarsened ghost footprint looks for parent-level boxes.
    q_lo, q_hi, q_level, q_order = [], [], [], []
    if ghost_width:
        present, first = np.unique(level, return_index=True)
        appearance = np.empty(int(present[-1]) + 1, dtype=np.int64)
        appearance[present[np.argsort(first)]] = np.arange(present.size)
        q_lo.append(lo - ghost_width)
        q_hi.append(hi + ghost_width)
        q_level.append(level)
        # Intra-level pairs come first, levels in order of first box.
        q_order.append(appearance[level])
    has_level = np.bincount(level) > 0
    if (has_level[1:] & has_level[:-1]).any():
        if refine_factor < 2:
            raise GeometryError(
                f"coarsening factor must be >= 2, got {refine_factor}"
            )
        q_lo.append((lo - ghost_width) // refine_factor)
        q_hi.append(-(-(hi + ghost_width) // refine_factor))
        q_level.append(level - 1)
        # Then prolongation pairs, by ascending fine level.
        q_order.append(n + level)
    if not q_lo:
        return {}
    qi, bi, cells = _overlaps(
        np.concatenate(q_lo),
        np.concatenate(q_hi),
        np.concatenate(q_level),
        lo,
        hi,
        level,
    )
    ai = qi % n
    dst, src = ranks[ai], ranks[bi]
    keep = dst != src  # also drops each grown box's overlap with itself
    # Stable: rows and columns stay in (a, b) order within each level.
    order = np.argsort(np.concatenate(q_order)[qi[keep]], kind="stable")
    src = src[keep][order]
    dst = dst[keep][order]
    if not src.size:
        return {}
    weights = cells[keep][order] * bytes_per_cell
    base = min(int(src.min()), int(dst.min()))
    span = max(int(src.max()), int(dst.max())) - base + 1
    code = (src - base) * span + (dst - base)
    _, first_at, inverse = np.unique(
        code, return_index=True, return_inverse=True
    )
    order = np.argsort(first_at, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    sums = np.bincount(slot[inverse], weights=weights, minlength=order.size)
    firsts = first_at[order]
    return dict(
        zip(zip(src[firsts].tolist(), dst[firsts].tolist()), sums.tolist())
    )
