"""Box-minus-squares set models, density ratios, and the exceptional cover.

A model materializes cubes 1..N of a weight sequence inside an open outer
box by deterministic shelf packing.  Density ratios against axis-aligned
rectangles are exact on the truncated set and carry a certified lower bound
for the untruncated one.  Rectangle queries descend the model's cube tree,
whose nodes carry their cubes' exact whole-cube area totals as integer
limbs, so only the cubes on a rectangle's boundary reach the overlap
kernel; the few cubes too large for the tree are measured in one kernel
pass against each family of rectangles' bounding box, and a family's
rectangles only against the large cubes its box meets.  The exceptional
cover unites, for blocks s = m..s_hi of the schedule, the 2^s-dilation of
the block's cubes; its total measure is bounded analytically across all
blocks s >= m.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

import numpy as np

from .auxfn import block_start
from .dilation import LOCATIONS, Rectangle, RectUnion, _row_sums, dilate_2d, find_overlap
from .errors import (
    EmptyRect,
    HorizonExhausted,
    OutOfRange,
    OverlappingCubes,
    PackingInfeasible,
    TruncationTooSmall,
)
from .interval1d import Location
from .logdomain import LOG_ZERO, LogBracket, log_sum
from .weights import WeightSequence, tail_sum

__all__ = [
    "CompactSetModel",
    "CubeTree",
    "DensityResult",
    "BlockDilation",
    "ExceptionalCover",
    "build_packing",
    "density_ratio",
    "cover_measure_bound",
    "build_cover",
]

# Rectangles x cubes per overlap-kernel block: 128 KiB per float64 temporary.
_BLOCK_CELLS = 1 << 14
# Cubes per leaf of the cube tree.
_LEAF = 8
# Rectangles per descent of the cube tree in the positivity and closed-meet
# queries: its (rectangle, node) pairs and boundary cells are their largest
# temporaries.
_CHUNK_RECTS = 1 << 13
# Rows per chunk of total_overlaps, rounded down to whole families (one
# family at least): each chunk is measured on its own, in one descent of the
# cube tree, so a ratio pass holds one chunk's pairs, pieces and limbs.  The
# scan fills its runs to this size.
_TOTALS_ROWS = 1 << 14
# Stopping rule of cover_measure_bound.
_COVER_REL_TOL = 1e-15
_COVER_S_CAP = 400


def closed_hits(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: True where a closed cube meets the closed rectangle."""
    return (wx >= 0.0) & (wy >= 0.0)


def _pieces(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: the areas ``max(wx, 0) * max(wy, 0)``, formed in
    place in ``wx``."""
    pieces = np.maximum(wx, 0.0, out=wx)
    pieces *= np.maximum(wy, 0.0, out=wy)
    return pieces


def _any_positive(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: which rectangles have a positive piece.  Not
    ``_interior``: a product of two positive widths can round to 0.0."""
    return (_pieces(wx, wy) > 0.0).any(axis=1)


def _node_meets(
    boxes: tuple, nodes: np.ndarray, rect: tuple, rows: np.ndarray, closed: bool
) -> np.ndarray:
    """Which (node, rectangle) pairs can hold a cube meeting the rectangle:
    its interior, or its closed set when ``closed``.  ``boxes`` and ``rect``
    hold node boxes and rectangles as arrays (x0, x1, y0, y1), and pair i is
    node nodes[i] with rectangle rows[i].  A node whose box lies on or
    beyond an edge of the rectangle holds no cube with a positive overlap,
    because float subtraction keeps the order of its operands.  One
    coordinate is gathered at a time, so a level's pairs cost one boolean
    each beyond their indexes."""
    (bx0, bx1, by0, by1), (x0, x1, y0, y1) = boxes, rect
    if closed:
        keep = bx0[nodes] <= x1[rows]
        keep &= bx1[nodes] >= x0[rows]
        keep &= by0[nodes] <= y1[rows]
        keep &= by1[nodes] >= y0[rows]
    else:
        keep = bx0[nodes] < x1[rows]
        keep &= bx1[nodes] > x0[rows]
        keep &= by0[nodes] < y1[rows]
        keep &= by1[nodes] > y0[rows]
    return keep


def _node_inside(boxes: tuple, nodes: np.ndarray, rect: tuple, rows: np.ndarray) -> np.ndarray:
    """Which node boxes lie in the closed rectangles (pairs as in
    _node_meets): every cube of such a node overlaps its rectangle by its
    whole-cube area."""
    (bx0, bx1, by0, by1), (x0, x1, y0, y1) = boxes, rect
    inside = bx0[nodes] >= x0[rows]
    inside &= bx1[nodes] <= x1[rows]
    inside &= by0[nodes] >= y0[rows]
    inside &= by1[nodes] <= y1[rows]
    return inside


def _interior(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: True where a cube's interior meets the
    rectangle's, for each (rectangle, cube) pair."""
    return (wx > 0.0) & (wy > 0.0)


_BOX_FOLDS = (np.fmin, np.fmax) * 2


def _family_boxes(rects: np.ndarray, family: int) -> np.ndarray:
    """Bounding boxes [x0, x1, y0, y1] of the consecutive families of
    ``family`` rows; fmin and fmax ignore NaN coordinates, and a one-row
    family's box is its row, NaN and -0.0 included."""
    members = rects.reshape(-1, family, 4)
    return np.stack([f.reduce(members[..., j], axis=1) for j, f in enumerate(_BOX_FOLDS)], axis=1)


def _limb_values(limbs: np.ndarray, shift: int, bits: int) -> np.ndarray:
    """Floats whose exact sum is the area held in integer limbs: limb k of a
    (K, n) array counts units of 2^(bits k - shift).  Each limb is an integer
    below 2^53, so scaling it by a power of two is exact."""
    scale = bits * np.arange(len(limbs)) - shift
    return np.ldexp(limbs, scale[:, None])


def _limbs(rest: np.ndarray, count: int, bits: int, shift: int) -> Iterator:
    """(k, limb k) of the areas ``rest`` for k = count - 1 down to 0, limb k
    counting units of 2^(bits k - shift); ``rest`` is consumed.  Taking the
    limbs top-down keeps every scaling step from overflowing: with q =
    floor(r 2^-u) for the limb unit 2^u, r - q 2^u keeps the low bits of r,
    which is exact."""
    for k in reversed(range(count)):
        unit = bits * k - shift
        limb = np.floor(np.ldexp(rest, -unit))
        rest -= np.ldexp(limb, unit)
        yield k, limb


def _whole_areas(xs: np.ndarray, ys: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Whole-cube areas fl(fl(cx1 - cx0) * fl(cy1 - cy0)), cx1 = fl(cx0 + w)."""
    width = xs + sides
    width -= xs
    height = ys + sides
    height -= ys
    width *= height
    return width


_FOLDS = (np.minimum, np.maximum) * 2
_CHILDREN = np.array([1, 2])
# Morton cells per axis.
_MORTON_SCALE = 2.0**30
# The largest truncation: CubeTree keeps cube ids as int32.
_MAX_CUBES = 2**31 - 1


class _PackedTree:
    """One packed bounding-box tree over some of a model's cubes.

    The cubes, sorted by the Morton code of their centres, are cut into
    leaves of ``leaf`` consecutive cubes (Kamel and Faloutsos, "On packing
    R-trees", CIKM 1993).  The tree is an implicit complete binary tree in
    heap layout: node i has children 2i + 1 and 2i + 2, and the 2^depth
    leaves are the last nodes.  ``boxes`` holds the nodes' closed bounding
    boxes as arrays (x0, x1, y0, y1), padded nodes the empty box (+inf,
    -inf, +inf, -inf), and ``limbs`` the exact total of each node's
    whole-cube areas as (K, nodes) integer limbs.  ``ids`` lists each
    leaf's cubes; the last leaf holding cubes holds ``fill`` of them, and
    its other slots repeat its last cube.
    """

    __slots__ = ("depth", "ids", "boxes", "limbs", "last", "fill")

    def __init__(self, ids: np.ndarray, leaf: int, cubes: tuple, limb_format: tuple) -> None:
        n = len(ids)
        leaves = -(-n // leaf)
        self.depth = (leaves - 1).bit_length()
        size = 1 << self.depth
        self.last, self.fill = leaves - 1, n - leaf * (leaves - 1)
        slots = np.full(size * leaf, ids[-1], dtype=np.int32)
        slots[:n] = ids
        self.ids = slots.reshape(size, leaf)
        starts = np.arange(0, n, leaf)
        xs, ys, sides = (v[ids] for v in cubes)
        areas = _whole_areas(xs, ys, sides)
        self.boxes = tuple(np.empty(2 * size - 1) for _ in range(4))
        pads = (np.inf, -np.inf) * 2
        for box, corner, fold, pad in zip(self.boxes, (xs, xs, ys, ys), _FOLDS, pads):
            # an upper bound x0 + w is formed only while its fold runs
            bound = corner if fold is np.minimum else corner + sides
            box[size - 1 :] = pad
            box[size - 1 : size - 1 + leaves] = fold.reduceat(bound, starts)
        del xs, ys, sides
        self.limbs = np.zeros((limb_format[0], 2 * size - 1))
        for k, limb in _limbs(areas, *limb_format):
            self.limbs[k, size - 1 : size - 1 + leaves] = np.add.reduceat(limb, starts)
        for d in reversed(range(self.depth)):
            lo, hi = (1 << d) - 1, (2 << d) - 1
            for box, fold in zip(self.boxes, _FOLDS):
                fold(box[hi : 2 * hi + 1 : 2], box[hi + 1 : 2 * hi + 1 : 2], out=box[lo:hi])
            np.add(
                self.limbs[:, hi : 2 * hi + 1 : 2],
                self.limbs[:, hi + 1 : 2 * hi + 1 : 2],
                out=self.limbs[:, lo:hi],
            )

    def walk(
        self, rect: tuple, closed: bool, settled: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Level-by-level descent of rectangles given as arrays (x0, x1, y0,
        y1).  A (rectangle, node) pair is dropped when the node cannot meet
        the rectangle (see _node_meets), kept whole when the node lies inside
        it (unless ``closed``), and otherwise split into its children.
        Returns the rectangle rows and leaf indexes of the pairs that reach a
        leaf, and the rows and nodes of the whole pairs; rows ascend in
        both.

        With ``settled``, a boolean per rectangle, a rectangle settles at
        its first whole node with a positive area total: it is marked in
        ``settled`` and leaves the descent, and no whole pair is returned.
        """
        rows = np.arange(len(rect[0]))
        nodes = np.zeros(len(rows), dtype=np.intp)
        whole_rows, whole_nodes = [], []
        for d in range(self.depth + 1):
            if d:
                rows = np.repeat(rows, 2)
                nodes = (2 * nodes[:, None] + _CHILDREN).ravel()
            keep = _node_meets(self.boxes, nodes, rect, rows, closed)
            rows, nodes = rows[keep], nodes[keep]
            if not closed:
                inside = _node_inside(self.boxes, nodes, rect, rows)
                if settled is None:
                    whole_rows.append(rows[inside])
                    whole_nodes.append(nodes[inside])
                    keep = ~inside
                else:
                    positive = self.limbs[:, nodes[inside]].any(axis=0)
                    settled[rows[inside][positive]] = True
                    keep = ~inside & ~settled[rows]
                rows, nodes = rows[keep], nodes[keep]
            if not rows.size:
                break
        return (
            rows,
            nodes - ((1 << self.depth) - 1),
            np.concatenate(whole_rows or [rows[:0]]),
            np.concatenate(whole_nodes or [nodes[:0]]),
        )

    def drop_padding(self, cells: np.ndarray, leaves: np.ndarray) -> np.ndarray:
        """Zero the cells of a (pairs, leaf) kernel result that repeat the
        last leaf's last cube."""
        if self.fill < self.ids.shape[1]:
            cells[leaves == self.last, self.fill :] = 0
        return cells


def _morton(xs: np.ndarray, ys: np.ndarray, sides: np.ndarray, outer: Rectangle) -> np.ndarray:
    """Z-order codes of the cubes' centres on a 2^30 x 2^30 grid over the
    outer box, computed in place, one axis at a time."""
    code = np.zeros(len(xs), dtype=np.uint64)
    spread = np.empty_like(code)
    for v, span, offset in ((xs, outer.x, 0), (ys, outer.y, 1)):
        cell = sides / 2
        cell += v
        cell -= span.lo
        cell *= _MORTON_SCALE / span.length
        bits = np.minimum(cell, _MORTON_SCALE - 1, out=cell).astype(np.uint64)
        del cell
        for shift, mask in (
            (16, 0x0000FFFF0000FFFF),
            (8, 0x00FF00FF00FF00FF),
            (4, 0x0F0F0F0F0F0F0F0F),
            (2, 0x3333333333333333),
            (1, 0x5555555555555555),
        ):
            bits |= np.left_shift(bits, np.uint64(shift), out=spread)
            bits &= np.uint64(mask)
        code |= np.left_shift(bits, np.uint64(offset), out=spread)
    return code


class CubeTree:
    """The model's cube index: a packed bounding-box tree with exact subtree
    areas, and the few large cubes beside it.

    The cubes larger than the cell of a g x g grid over the outer box, g =
    isqrt(N // 4), are listed in ``big`` (ascending); the tree holds the
    others, eight to a leaf (_LEAF).  Kept out of the tree, the few large
    cubes do not stretch its leaf boxes over the voids between the many
    small ones, and a query meets them through one kernel pass instead of
    a descent.  When every cube is large, the tree takes them all.

    Each node stores the exact total of its cubes' whole-cube areas
    fl(fl(cx1 - cx0) * fl(cy1 - cy0)), with cx1 = fl(cx0 + w) as in
    ``CompactSetModel.overlaps``.  Every such area is an integer times
    2^-shift, cut into limbs of ``bits`` = 53 - bit_length(N) bits, so a
    limb sums over any set of cubes to an integer below 2^53, which float64
    adds exactly in any order (the long accumulator of Neal, "Fast exact
    summation using small and large superaccumulators", arXiv:1505.05571).
    """

    __slots__ = ("shift", "bits", "tree", "big")

    def __init__(
        self, outer: Rectangle, xs: np.ndarray, ys: np.ndarray, sides: np.ndarray
    ) -> None:
        self.bits = 53 - len(xs).bit_length()
        areas = _whole_areas(xs, ys, sides)
        # frexp's exponent is monotone, so the least positive area and the
        # largest give the range (both 0 when every area rounds to 0)
        lo = int(np.frexp(np.min(areas, where=areas > 0.0, initial=np.inf))[1])
        hi = int(np.frexp(areas.max())[1])
        del areas
        self.shift = min(53 - lo, 1074)
        count = max(1, -(-(hi + self.shift) // self.bits))
        g = max(1, math.isqrt(len(xs) // 4))
        big = sides > min(outer.x.length, outer.y.length) / g
        if big.all():
            big[:] = False
        self.big = np.flatnonzero(big)
        small = np.flatnonzero(~big)
        del big
        code = _morton(xs, ys, sides, outer)
        ids = small[np.argsort(code[small], kind="stable")].astype(np.int32)
        del code, small
        self.tree = _PackedTree(ids, _LEAF, (xs, ys, sides), (count, self.bits, self.shift))


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float of a nonempty 1-D array: a list's repr joins
    its items' reprs with ", ", which no float repr holds."""
    return repr(values.tolist())[1:-1].split(", ")


class CompactSetModel:
    """Open outer box minus open squares 1..N with sides from a weight sequence.

    Cube geometry lives in numpy arrays (lower-left corners ``xs``, ``ys``
    and ``sides``); the remaining set is the closed complement of the open
    cubes within the closed outer box.  ``removed_area`` sums the sequence
    areas, so the measure bookkeeping identity
    ``measure_remaining + removed_area == outer.area`` is exact up to float
    rounding, and ``residual_tail`` brackets the area that cubes beyond the
    truncation would still remove; ``w2`` holds the sequence areas of cubes
    1..N.  ``index`` is the cube tree that the rectangle queries descend.
    """

    __slots__ = (
        "outer", "seq", "trunc", "xs", "ys", "sides", "w2", "removed_area", "residual_tail", "index"
    )

    def __init__(
        self,
        outer: Rectangle,
        seq: WeightSequence,
        trunc: int,
        xs: np.ndarray,
        ys: np.ndarray,
        sides: np.ndarray,
        *,
        _areas: tuple[np.ndarray, np.ndarray, float] | None = None,
    ) -> None:
        # _areas: seq.areas(trunc) and the fsum of its areas when the caller
        # has computed them already (build_packing), so that one set-up makes
        # one pass over the sequence and one sum of its areas
        if trunc < 1:
            raise ValueError(f"truncation must keep at least one cube, got {trunc}")
        if not (len(xs) == len(ys) == len(sides) == trunc):
            raise ValueError("cube arrays must have exactly trunc entries")
        self.outer = outer
        self.seq = seq
        self.trunc = trunc
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.sides = np.asarray(sides, dtype=np.float64)
        self.w2, w, total = (*seq.areas(trunc), None) if _areas is None else _areas
        bad = np.flatnonzero(~(np.abs(self.sides - w) <= 1e-12 * w))  # NaN fails too
        if bad.size:
            n = bad[0] + 1
            raise ValueError(f"cube {n} side {self.sides[n - 1]} differs from weight {float(w[n - 1])}")
        if np.any(self.sides[1:] > self.sides[:-1]):
            raise ValueError("cube sides must be non-increasing")
        inside = (
            (self.xs >= outer.x.lo)
            & (self.xs + self.sides <= outer.x.hi)
            & (self.ys >= outer.y.lo)
            & (self.ys + self.sides <= outer.y.hi)
        )
        if not bool(np.all(inside)):
            raise ValueError("every cube must lie inside the outer box")
        # a square that float64 cannot tell from a line (side 0 included)
        # has no interior to remove, dilate or measure
        flat = np.flatnonzero((self.xs + self.sides == self.xs) | (self.ys + self.sides == self.ys))
        if flat.size:
            i = flat[0]
            raise ValueError(
                f"cube {i + 1} is degenerate in float64: side {float(self.sides[i])!r} vanishes "
                f"against its corner ({float(self.xs[i])!r}, {float(self.ys[i])!r})"
            )
        self.removed_area = math.fsum(self.w2) if total is None else total
        self.residual_tail = tail_sum(seq, trunc + 1)
        self.index = CubeTree(outer, self.xs, self.ys, self.sides)

    @property
    def measure_remaining(self) -> float:
        return self.outer.area - self.removed_area

    def overlaps(
        self,
        rects: np.ndarray,
        reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
        cubes: np.ndarray | slice,
    ) -> np.ndarray:
        """Reduce the signed overlap widths of rectangles against cubes.

        ``rects`` is a nonempty (n, 4) array of [x0, x1, y0, y1]; a point is
        the rectangle [x, x, y, y].  ``cubes`` selects the cubes of every row
        by index array or slice, or each row's own cubes as an (n, k) index
        array.  Per block of rectangle rows, ``wx = min(x1, cx + w) - max(x0,
        cx)`` and ``wy`` (the same in y) are (rows, cubes) arrays, negative
        by the gap when the two are apart; ``reduce(wx, wy)`` maps them to an
        array whose first axis is the rows (it may overwrite ``wx`` and
        ``wy``), and the blocks are concatenated.
        A block holds at most _BLOCK_CELLS widths, or one row when a row alone
        holds more; the cube axis is never split, so row-wise sums are the
        same as over one unblocked array.
        """
        rects = np.asarray(rects, dtype=np.float64)
        paired = np.ndim(cubes) == 2
        shared = None if paired else self._cube_bounds(cubes)
        rows = max(1, _BLOCK_CELLS // max(1, shared[0].size if shared else np.shape(cubes)[1]))
        out = []
        for i in range(0, len(rects), rows):
            x0, x1, y0, y1 = rects[i : i + rows].T[:, :, None]
            cx0, cx1, cy0, cy1 = self._cube_bounds(cubes[i : i + rows]) if paired else shared
            wx = np.minimum(x1, cx1)
            wx -= np.maximum(x0, cx0)
            wy = np.minimum(y1, cy1)
            wy -= np.maximum(y0, cy0)
            out.append(reduce(wx, wy))
        return np.concatenate(out)

    def _cube_bounds(self, cubes: np.ndarray | slice) -> tuple:
        """(cx0, cx0 + w, cy0, cy0 + w) of the selected cubes."""
        cx0, cy0, w = self.xs[cubes], self.ys[cubes], self.sides[cubes]
        return cx0, cx0 + w, cy0, cy0 + w

    def total_overlaps(self, rects: np.ndarray, family: int = 1) -> np.ndarray:
        """Each rectangle's total overlap area with the cubes, exactly
        rounded: the correctly rounded sum of its positive pieces
        ``max(wx, 0) * max(wy, 0)`` (see :meth:`overlaps`).

        ``rects`` is an (n, 4) array of [x0, x1, y0, y1] whose rows form
        consecutive families of ``family`` rectangles (n a multiple of
        ``family``, else ValueError before any chunk is measured); a
        family's box is the bounding box of its rows, NaN coordinates
        ignored, and with ``family`` = 1 each rectangle is its own box.  The
        rows are measured in chunks of whole families, as many as fill
        _TOTALS_ROWS rows (one family when a family alone holds more), each
        chunk on its own by :meth:`_chunk_totals`.
        """
        rects = np.asarray(rects, dtype=np.float64)
        n = len(rects)
        if family < 1 or n % family:
            raise ValueError(f"total_overlaps: {n} rows do not form families of family={family}")
        totals = np.empty(n)
        step = family * max(1, _TOTALS_ROWS // family)
        for i in range(0, n, step):
            totals[i : i + step] = self._chunk_totals(rects[i : i + step], family)
        return totals

    def positive_totals(self, rects: np.ndarray) -> np.ndarray:
        """Which of the (n, 4) rectangles have a positive total overlap,
        ``total_overlaps(rects) > 0.0``, without forming the totals: a
        nonempty sum of non-negative pieces rounds to a positive float
        exactly when one piece is positive, so a rectangle's descent of the
        cube tree stops at its first whole node with a positive area total
        or its first positive piece, and the large cubes take one kernel
        pass, which reduces each block to one flag per row."""
        rects = np.asarray(rects, dtype=np.float64)
        hit = self._tree_positive(rects)
        if self.index.big.size and len(rects):
            hit |= self.overlaps(rects, _any_positive, self.index.big)
        return hit

    def _tree_pieces(self, rects: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One descent of the rectangles through the cube tree: the (K, n)
        limb totals of each row's whole nodes, and the rows and values of
        the positive pieces of its boundary leaves, rows ascending."""
        tree, n = self.index.tree, len(rects)
        rows, leaves, whole_rows, whole_nodes = tree.walk(
            tuple(np.ascontiguousarray(rects.T)), closed=False
        )
        limbs = np.array([np.bincount(whole_rows, limb[whole_nodes], n) for limb in tree.limbs])
        if not rows.size:
            return limbs, rows, np.empty(0)
        pieces = self.overlaps(rects[rows], _pieces, tree.ids[leaves])
        positive = tree.drop_padding(pieces, leaves) > 0.0
        return limbs, np.repeat(rows, np.count_nonzero(positive, axis=1)), pieces[positive]

    def _tree_positive(self, boxes: np.ndarray) -> np.ndarray:
        """Which boxes have a positive total over the tree's cubes: a whole
        node with a positive area total, where the box's descent stops, or
        a positive boundary piece."""
        tree, hit = self.index.tree, np.zeros(len(boxes), dtype=bool)
        for i in range(0, len(boxes), _CHUNK_RECTS):
            chunk, settled = boxes[i : i + _CHUNK_RECTS], hit[i : i + _CHUNK_RECTS]
            cols = tuple(np.ascontiguousarray(chunk.T))
            rows, leaves, _, _ = tree.walk(cols, closed=False, settled=settled)
            if rows.size:
                pieces = self.overlaps(chunk[rows], _pieces, tree.ids[leaves])
                settled[rows[(tree.drop_padding(pieces, leaves) > 0.0).any(axis=1)]] = True
        return hit

    def _big_pieces(
        self, rects: np.ndarray, boxes: np.ndarray, family: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows and values of the positive pieces of the rectangles against
        the large cubes, rows ascending.  One kernel pass lists each family
        box's candidates, the large cubes whose interior it meets.  Then
        the families go in runs of as many as fill _BLOCK_CELLS cells
        against every large cube (one family when a family alone fills
        more), and each run with a candidate measures its contiguous rows,
        ungathered, against the union of its families' candidates.  A
        family measured against a cube that only another family's box meets
        gets zero pieces from it, as the box argument of _chunk_totals
        shows, so the union changes no total; for the scan's families of
        hundreds of rectangles a run is one family or two."""
        big = self.index.big
        rows_out, values_out = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        if big.size:
            near = self.overlaps(boxes, _interior, big)
            step = max(1, _BLOCK_CELLS // (family * big.size))
            starts = np.arange(0, len(boxes), step)
            for f in starts[np.logical_or.reduceat(near.any(axis=1), starts)].tolist():
                cubes = big[near[f : f + step].any(axis=0)]
                first = f * family
                pieces = self.overlaps(rects[first : first + step * family], _pieces, cubes)
                r, k = np.nonzero(pieces > 0.0)
                rows_out.append(r + first)
                values_out.append(pieces[r, k])
        return np.concatenate(rows_out), np.concatenate(values_out)

    def _chunk_totals(self, rects: np.ndarray, family: int) -> np.ndarray:
        """Exactly rounded totals of a chunk of whole families.  Boxes are
        measured before rectangles:

        - one kernel pass of the boxes against the large cubes (``index.big``)
          lists each box's candidates, the large cubes whose interior it
          meets, and a family's rows are measured against its kernel
          block's candidates only (see _big_pieces); no rectangle descends
          a tree of large cubes;
        - a family's rows descend the cube tree only if its box's total over
          the tree's cubes is positive; a node inside a rectangle adds the
          exact limb total of its cubes, whose pieces are their whole-cube
          areas, and the cubes of the leaves on a rectangle's boundary go to
          the kernel.

        This is exact: a rectangle lies in its family's box, and float min,
        max and subtraction are monotone, so a cube whose interior the box
        misses gives each of the family's rectangles a zero piece, and a
        box total of 0.0 means that every piece of the box is zero.  A NaN
        row passes no comparison, so its total is 0.0.  Each row's pieces
        and nonzero limb values are then added by one exact row sum
        (``_row_sums``)."""
        index = self.index
        boxes = _family_boxes(rects, family)
        rows, values = self._big_pieces(rects, boxes, family)
        descend = np.flatnonzero(np.repeat(self._tree_positive(boxes), family))
        if descend.size:
            limbs, tree_rows, tree_values = self._tree_pieces(rects[descend])
            terms = _limb_values(limbs, index.shift, index.bits)
            k, whole = np.nonzero(terms)
            rows = np.concatenate([rows, descend[tree_rows], descend[whole]])
            values = np.concatenate([values, tree_values, terms[k, whole]])
        return _row_sums(rows, values, len(rects))

    def meets(self, rects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (row, cube) of rectangles and cubes whose closed sets meet,
        as rows and int32 cube indexes, sorted by row and then by cube.

        ``rects`` is an (n, 4) array of [x0, x1, y0, y1], points as [x, x,
        y, y].  The large cubes come from one kernel pass against
        ``index.big``; the rectangles descend the cube tree for the others,
        _CHUNK_RECTS rows at a time.
        """
        rects = np.asarray(rects, dtype=np.float64)
        rows_out, cubes_out = [], []
        big, tree = self.index.big, self.index.tree
        if big.size and len(rects):
            rows, k = np.nonzero(self.overlaps(rects, closed_hits, big))
            rows_out.append(rows)
            cubes_out.append(big[k].astype(np.int32))
        for i in range(0, len(rects), _CHUNK_RECTS):
            chunk = rects[i : i + _CHUNK_RECTS]
            rows, leaves, _, _ = tree.walk(tuple(np.ascontiguousarray(chunk.T)), closed=True)
            if rows.size:
                hit = self.overlaps(chunk[rows], closed_hits, tree.ids[leaves])
                tree.drop_padding(hit, leaves)
                r, k = np.nonzero(hit)
                rows_out.append(rows[r] + i)
                cubes_out.append(tree.ids[leaves[r], k])
        rows = np.concatenate(rows_out or [np.empty(0, dtype=np.intp)])
        cubes = np.concatenate(cubes_out or [np.empty(0, dtype=np.int32)])
        order = np.lexsort((cubes, rows))
        return rows[order], cubes[order]

    def _header(self) -> dict:
        """The set.json fields other than "cubes"."""
        return {
            "outer": [self.outer.x.lo, self.outer.x.hi, self.outer.y.lo, self.outer.y.hi],
            "trunc": self.trunc,
            "seq": self.seq.to_json(),
        }

    def to_json(self) -> dict:
        cubes = zip(self.xs.tolist(), self.ys.tolist(), self.sides.tolist())
        return {**self._header(), "cubes": [list(c) for c in cubes]}

    def write_json(self, out: TextIO) -> None:
        """Write :meth:`to_json` to a text file, byte for byte as
        ``json.dumps(self.to_json(), indent=2, sort_keys=True) + "\\n"``,
        without building either.  "cubes" sorts first; its rows go out 2^14
        at a time, each float formatted by ``repr`` as ``json`` formats a
        finite float (the box check keeps every coordinate finite).  A
        shelf's cubes share one y, so each distinct y of a slice, told apart
        by its bits (0.0 from -0.0), is formatted once; the x and side
        columns are formatted by the ``repr`` of their lists, whose items
        are the ``repr`` of each float, with no Python call per cube."""
        out.write('{\n  "cubes": [')
        step = 1 << 14
        for i in range(0, self.trunc, step):
            xs, ys, sides = (v[i : i + step] for v in (self.xs, self.ys, self.sides))
            bits, at = np.unique(ys.view(np.int64), return_inverse=True)
            ys = np.array([repr(y) for y in bits.view(np.float64).tolist()], dtype=object)
            rows = map(",\n      ".join, zip(_reprs(xs), ys[at].tolist(), _reprs(sides)))
            rows = "\n    ],\n    [\n      ".join(rows)
            out.write(("," if i else "") + "\n    [\n      " + rows + "\n    ]")
        rest = json.dumps(self._header(), indent=2, sort_keys=True)
        out.write("\n  ],\n" + rest[2:] + "\n")

    @classmethod
    def from_json(cls, obj: dict) -> "CompactSetModel":
        """Model from a set.json object.

        ValueError names the field when the object does not have the shape
        that :meth:`to_json` writes; OverlappingCubes when two cubes'
        interiors meet.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"set.json must hold an object, got {type(obj).__name__}")
        missing = [k for k in ("outer", "cubes", "trunc", "seq") if k not in obj]
        if missing:
            raise ValueError(f"set.json lacks field {missing[0]!r}")
        outer, trunc = obj["outer"], obj["trunc"]
        if not (
            isinstance(outer, list)
            and len(outer) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in outer)
        ):
            raise ValueError(f"set.json field 'outer' must be [x0, x1, y0, y1], got {outer!r}")
        if isinstance(trunc, bool) or not isinstance(trunc, int):
            raise ValueError(f"set.json field 'trunc' must be an integer, got {trunc!r}")
        rows_error = "set.json field 'cubes' must be a list of [x, y, side] rows"
        try:
            cubes = np.array(obj["cubes"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{rows_error}: {exc}") from exc
        if cubes.ndim != 2 or cubes.shape[1] != 3:
            raise ValueError(f"{rows_error}, got shape {cubes.shape}")
        xs, ys, sides = cubes.T.copy()
        model = cls(
            Rectangle.from_bounds(*outer),
            WeightSequence.from_json(obj["seq"]),
            trunc,
            xs,
            ys,
            sides,
        )
        hit = find_overlap(model.xs, model.xs + model.sides, model.ys, model.ys + model.sides)
        if hit is not None:
            raise OverlappingCubes(f"cubes {hit[0] + 1} and {hit[1] + 1} overlap")
        return model

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactSetModel):
            return NotImplemented
        return (
            self.outer == other.outer
            and self.seq == other.seq
            and self.trunc == other.trunc
            and bool(np.all(self.xs == other.xs))
            and bool(np.all(self.ys == other.ys))
            and bool(np.all(self.sides == other.sides))
        )


def build_packing(seq: WeightSequence, trunc: int, outer: Rectangle) -> CompactSetModel:
    """Deterministic shelf packing of cubes 1..trunc into the outer box.

    Cubes go left to right in rows; a row's height is the side of its first
    cube, rows stack bottom-up with no separation margin (open cubes touching
    along edges are still disjoint).  Feasibility precondition: total removed
    area at most half the box and the first side at most the shorter box
    side.  These do not make the rows fit: in a box much wider than tall
    they can still overflow it, which raises PackingInfeasible at the first
    cube of the row that does not fit.
    """
    if trunc < 1:
        raise ValueError(f"truncation must keep at least one cube, got {trunc}")
    if seq.n_max is not None and trunc > seq.n_max:
        raise OutOfRange(f"sequence defines {seq.n_max} areas, cannot materialize {trunc}")
    if trunc > _MAX_CUBES:
        raise OutOfRange(
            f"truncation {trunc} exceeds {_MAX_CUBES}, the largest cube id the cube index holds"
        )
    w2, sides = seq.areas(trunc)
    total = math.fsum(w2)
    w1 = float(sides[0])
    min_side = min(outer.x.length, outer.y.length)
    if total > 0.5 * outer.area or w1 > min_side:
        raise PackingInfeasible(
            f"total area {total:.6g} (limit {0.5 * outer.area:.6g}) with first side "
            f"{w1:.6g} (limit {min_side:.6g})"
        )
    xs, ys = _shelves(sides, outer)
    return CompactSetModel(outer, seq, trunc, xs, ys, sides, _areas=(w2, sides, total))


def _shelves(sides: np.ndarray, outer: Rectangle) -> tuple[np.ndarray, np.ndarray]:
    """Lower-left corners (xs, ys) of the shelf packing of cubes with these
    sides, in the order and float arithmetic of a loop over the cubes."""
    n = len(sides)
    xs = np.empty(n)
    ys = np.empty(n)
    row_base = outer.y.lo
    start, span = 0, 1
    while start < n:
        row_height = float(sides[start])
        if row_base + row_height > outer.y.hi:
            raise PackingInfeasible(
                f"rows overflow the box at cube {start + 1}: base {row_base:.6g} + height "
                f"{row_height:.6g} exceeds {outer.y.hi:.6g}"
            )
        # The row's x-cursor before each cube and after it: one sequential
        # accumulate from outer.x.lo, which adds in the loop's order.  Cube
        # start + k, k >= 1, opens the next row when the cursor after it
        # passes x.hi.  The window starts at twice the previous row (sides
        # do not increase, so rows tend to lengthen) and doubles until it
        # holds the break.
        while True:
            stop = min(n, start + 2 * span)
            cursor = np.add.accumulate(np.concatenate(([outer.x.lo], sides[start:stop])))
            over = np.flatnonzero(cursor[2:] > outer.x.hi)
            if over.size or stop == n:
                break
            span *= 2
        span = int(over[0]) + 1 if over.size else stop - start
        xs[start : start + span] = cursor[:span]
        ys[start : start + span] = row_base
        row_base += row_height
        start += span
    return xs, ys


@dataclass(frozen=True)
class DensityResult:
    """Exact truncated-set density of a rectangle, with the true-set bracket.

    ``ratio_n`` is 1 minus the removed fraction over cubes 1..N; the density
    of the untruncated set lies in [``lower_bound_true``, ``ratio_n``].
    """

    ratio_n: float
    lower_bound_true: float
    rect: Rectangle
    clipped: bool
    overlap_total: float


def density_ratio(model: CompactSetModel, rect: Rectangle) -> DensityResult:
    """Exact overlap arithmetic for |rect minus cubes| / |rect| within the box.

    A rectangle reaching outside the outer box is clipped first (flagged);
    one with no interior inside the box raises EmptyRect.
    """
    ox, oy = model.outer.x, model.outer.y
    x_lo, x_hi = max(rect.x.lo, ox.lo), min(rect.x.hi, ox.hi)
    y_lo, y_hi = max(rect.y.lo, oy.lo), min(rect.y.hi, oy.hi)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise EmptyRect(f"rectangle {rect.bounds} has no interior inside the outer box")
    clipped = (x_lo, x_hi, y_lo, y_hi) != rect.bounds
    area = (x_hi - x_lo) * (y_hi - y_lo)
    overlap = float(model.total_overlaps(np.array([[x_lo, x_hi, y_lo, y_hi]]))[0])
    ratio_n = min(1.0, max(0.0, 1.0 - overlap / area))
    tail_hi = model.residual_tail.linear_hi
    return DensityResult(
        ratio_n=ratio_n,
        lower_bound_true=max(0.0, ratio_n - tail_hi / area),
        rect=Rectangle.from_bounds(x_lo, x_hi, y_lo, y_hi),
        clipped=clipped,
        overlap_total=overlap,
    )


@dataclass(frozen=True)
class BlockDilation:
    """One cover block: the 2^s-dilation of cubes n(s)..n(s+1)-1."""

    s: int
    gamma: float
    n_lo: int
    n_hi: int
    union: RectUnion
    block_area: float

    @property
    def exact_measure(self) -> float:
        return self.union.measure

    @property
    def identity_rhs(self) -> float:
        """(2*gamma + 1)^2 times the block's input area."""
        return (2.0 * self.gamma + 1.0) ** 2 * self.block_area


@dataclass(frozen=True)
class ExceptionalCover:
    """Union of block dilations for s = m..s_hi plus the analytic tail bound."""

    m: int
    s_hi: int
    blocks: tuple[BlockDilation, ...]
    measure_bound_bracket: LogBracket

    @classmethod
    def empty(cls) -> "ExceptionalCover":
        """Degenerate cover with no blocks and bound zero."""
        return cls(m=1, s_hi=0, blocks=(), measure_bound_bracket=LogBracket(LOG_ZERO, LOG_ZERO))

    @property
    def measure_bound(self) -> float:
        """Certified upper bound for the full cover measure, all blocks s >= m."""
        return self.measure_bound_bracket.linear_hi

    def classify(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Location code of each point (x[i], y[i]) in the closed cover: the
        largest of the blocks' ``RectUnion.classify`` codes, so 2 where a
        block holds the point inside, else 1 where one has it on its
        boundary, else 0.  A point inside one block keeps code 2, so each
        block after the first classifies only the points still below 2.
        The points are sorted by x once, so every block's column search
        takes ascending keys, and the codes return in input order."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        order = np.argsort(x, axis=None)
        xs, ys = x.ravel()[order], y.ravel()[order]
        code = np.zeros(xs.shape, dtype=np.int8)
        open_ = slice(None)
        for b in self.blocks:
            code[open_] = np.maximum(code[open_], b.union.classify(xs[open_], ys[open_]))
            open_ = np.flatnonzero(code < 2)
            if not open_.size:
                break
        out = np.empty_like(code)
        out[order] = code
        return out.reshape(x.shape)

    def locate(self, point: tuple[float, float]) -> Location:
        return LOCATIONS[self.classify([point[0]], [point[1]])[0]]


def cover_measure_bound(seq: WeightSequence, m: int) -> LogBracket:
    """Bracket for the analytic bound sum_{s >= m} (2*2^s + 1)^2 * r(n(s)).

    Terms accumulate until one is certainly below _COVER_REL_TOL of the
    running total; HorizonExhausted if that never happens within
    _COVER_S_CAP blocks (the sum still converges for any admissible
    sequence, but certifying it would need a deeper scan).
    """
    if m < 1:
        raise OutOfRange(f"cover start index must be >= 1, got {m}")
    los: list[float] = []
    his: list[float] = []
    for s in range(m, _COVER_S_CAP + 1):
        factor = 2.0 * math.log(2 ** (s + 1) + 1)
        tail = tail_sum(seq, block_start(s))
        term = tail.scaled(factor)
        los.append(term.lo)
        his.append(term.hi)
        if term.is_zero:
            break
        if term.hi <= log_sum(his) + math.log(_COVER_REL_TOL):
            break
    else:
        raise HorizonExhausted(
            f"cover bound did not stabilize within {_COVER_S_CAP} blocks from m = {m}"
        )
    return LogBracket(log_sum(los), log_sum(his))


def build_cover(model: CompactSetModel, m: int, s_hi: int) -> ExceptionalCover:
    """Materialize block dilations s = m..s_hi; the bound covers all s >= m.

    Raises TruncationTooSmall when the model does not hold every cube of
    block s_hi.
    """
    if not 1 <= m <= s_hi:
        raise OutOfRange(f"need 1 <= m <= s_hi, got m = {m}, s_hi = {s_hi}")
    needed = block_start(s_hi + 1) - 1
    if needed > model.trunc:
        raise TruncationTooSmall(
            f"cover horizon s_hi = {s_hi} needs cubes through {needed}, model holds {model.trunc}"
        )
    blocks = []
    for s in range(m, s_hi + 1):
        n_lo, n_hi = block_start(s), block_start(s + 1) - 1
        gamma = float(2**s)
        x, y, w = model.xs[n_lo - 1 : n_hi], model.ys[n_lo - 1 : n_hi], model.sides[n_lo - 1 : n_hi]
        rows = np.column_stack((x, x + w, y, y + w))
        union = dilate_2d(rows, gamma, block=(s, n_lo, n_hi))
        block_area = math.fsum(model.w2[n_lo - 1 : n_hi])
        blocks.append(
            BlockDilation(
                s=s, gamma=gamma, n_lo=n_lo, n_hi=n_hi, union=union, block_area=block_area
            )
        )
    return ExceptionalCover(
        m=m,
        s_hi=s_hi,
        blocks=tuple(blocks),
        measure_bound_bracket=cover_measure_bound(model.seq, m),
    )
