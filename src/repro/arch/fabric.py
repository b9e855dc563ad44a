"""The 2D fabric of Slices and L2 cache banks (Fig. 3).

A full CASH chip contains hundreds of Slices and cache banks laid out on
a 2D switched fabric.  Neither Slices nor banks need to be contiguous
for a virtual core to function, but the runtime groups adjacent tiles to
reduce operand communication and cache access latency (Section III-A).
All Slices are interchangeable and equally connected, so fragmentation
is fixed by simply rescheduling Slices to virtual cores.

This module provides spatial allocation: given a virtual-core request
(S Slices, B banks) it carves a compact region out of the free tiles,
preferring tiles adjacent to ones already chosen.

The fabric keeps a row-major free bitmask per tile kind plus integer
free counters, updated in lockstep on every ownership change.  With
:data:`repro.perf.FAST` enabled, utilization and free counts come from
the counters and seed selection is a radius sweep over the mask: a
seed's span is the smallest radius whose Manhattan diamond holds the
requested free Slices and banks, and in rotated coordinates
(``u = x + y``, ``v = x - y``) every diamond is an axis-aligned square
whose count is four prefix-sum lookups.  The scalar twins rescan all
tiles and grow a region from every free Slice; both modes pick the same
seed, so placement is bit-identical.  The mask is derived state: it is
not pickled and is rebuilt from the tiles on unpickling.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import perf
from repro.analysis import sanitize

from repro.arch.cache import CacheBank
from repro.arch.network import Coordinate, manhattan
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.slice_unit import Slice
from repro.arch.vcore import VCoreConfig


class FabricError(RuntimeError):
    """Raised when an allocation request cannot be satisfied."""


class TileKind(enum.Enum):
    SLICE = "slice"
    L2_BANK = "l2_bank"


#: Free-mask bit of each kind.  A tile has one kind, so a mask word is
#: 0 or one bit, and a sum of words counts free banks in the low 32 bits
#: and free Slices above them.
_BIT = {TileKind.SLICE: 1 << 32, TileKind.L2_BANK: 1}
_BANK_FIELD = (1 << 32) - 1


@dataclass
class Tile:
    """One fabric tile: either a Slice or an L2 cache bank."""

    kind: TileKind
    position: Coordinate
    owner_vcore: Optional[int] = None
    slice_unit: Optional[Slice] = None
    bank: Optional[CacheBank] = None

    @property
    def is_free(self) -> bool:
        return self.owner_vcore is None


@dataclass(frozen=True)
class Allocation:
    """The tiles granted to one virtual core."""

    vcore_id: int
    config: VCoreConfig
    slice_positions: Tuple[Coordinate, ...]
    bank_positions: Tuple[Coordinate, ...]

    @property
    def positions(self) -> Tuple[Coordinate, ...]:
        return self.slice_positions + self.bank_positions

    def mean_slice_to_bank_distance(self) -> float:
        """Average Manhattan distance from each Slice to each bank."""
        if not self.slice_positions or not self.bank_positions:
            return 0.0
        total = sum(
            manhattan(s, b)
            for s in self.slice_positions
            for b in self.bank_positions
        )
        return total / (len(self.slice_positions) * len(self.bank_positions))


class Fabric:
    """A ``width x height`` checkerboard of Slices and L2 banks.

    Even (x+y) tiles are Slices and odd tiles are banks, approximating
    the interleaved layout of Fig. 3 with a 1:1 Slice:bank ratio.  Use
    ``bank_ratio`` to change the mix (e.g. 2 banks per Slice).
    """

    def __init__(
        self,
        width: int = 16,
        height: int = 16,
        bank_ratio: int = 1,
        slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
        cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"fabric dimensions must be positive, got {width}x{height}")
        if bank_ratio <= 0:
            raise ValueError(f"bank_ratio must be positive, got {bank_ratio}")
        self.width = width
        self.height = height
        self.slice_params = slice_params
        self.cache_params = cache_params
        self._tiles: Dict[Coordinate, Tile] = {}
        self._allocations: Dict[int, Allocation] = {}
        # Sanitizer shadow-recount sampling counter (REPRO_SANITIZE=1).
        self._sanitize_ticks = 0
        self._kind_totals: Dict[TileKind, int] = {
            TileKind.SLICE: 0,
            TileKind.L2_BANK: 0,
        }
        next_slice = 0
        next_bank = 0
        for y in range(height):
            for x in range(width):
                position = (x, y)
                # Interleave: one Slice for every `bank_ratio` banks.
                if (x + y * width) % (bank_ratio + 1) == 0:
                    unit = Slice(
                        slice_id=next_slice,
                        position=position,
                        params=slice_params,
                        cache_params=cache_params,
                    )
                    self._tiles[position] = Tile(
                        kind=TileKind.SLICE, position=position, slice_unit=unit
                    )
                    self._kind_totals[TileKind.SLICE] += 1
                    next_slice += 1
                else:
                    bank = CacheBank(
                        level=cache_params.l2_bank,
                        bank_id=next_bank,
                        params=cache_params,
                    )
                    self._tiles[position] = Tile(
                        kind=TileKind.L2_BANK, position=position, bank=bank
                    )
                    self._kind_totals[TileKind.L2_BANK] += 1
                    next_bank += 1
        self._build_index()

    def _build_index(self) -> None:
        """Derive the free index and the seed-sweep geometry from ``_tiles``.

        ``_free_mask[y * width + x]`` holds the tile's kind bit while it
        is free and 0 while it is owned; ``_free_count`` holds per-kind
        totals.  Both are only *consulted* under perf.FAST, the scalar
        scans stay the reference.  ``_rotated`` maps a flat tile id to
        its cell on the rotated grid (``u = x + y``,
        ``v = x - y + height - 1``) and ``_rotated_uv`` holds the
        cell's prefix-table row offset ``u * (side + 1)`` and column ``v``.
        """
        width, height = self.width, self.height
        side = width + height - 1
        ys, xs = np.divmod(np.arange(width * height), width)
        us, vs = xs + ys, xs - ys + height - 1
        self._rotated = us * side + vs
        self._rotated_uv = np.stack([us * (side + 1), vs])
        self._free_mask, self._free_count = self._scan_index()

    def _scan_index(self) -> Tuple[np.ndarray, Dict[TileKind, int]]:
        """Reference full scan of ``_tiles`` into a fresh mask and counts."""
        mask = np.zeros(self.width * self.height, dtype=np.int64)
        for (x, y), tile in self._tiles.items():
            if tile.is_free:
                mask[y * self.width + x] = _BIT[tile.kind]
        counts = {
            kind: int(np.count_nonzero(mask == bit)) for kind, bit in _BIT.items()
        }
        return mask, counts

    def __getstate__(self) -> Dict[str, object]:
        # The index is a pure function of ``_tiles``; checkpoints carry
        # only the tiles and ``__setstate__`` rebuilds it bit for bit.
        state = dict(self.__dict__)
        for name in ("_free_mask", "_free_count", "_rotated", "_rotated_uv"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._build_index()

    @property
    def tiles(self) -> Dict[Coordinate, Tile]:
        return self._tiles

    def tile(self, position: Coordinate) -> Tile:
        try:
            return self._tiles[position]
        except KeyError:
            raise KeyError(f"no tile at {position}") from None

    def kind_total(self, kind: TileKind) -> int:
        """How many tiles of ``kind`` the fabric has (free or not)."""
        return self._kind_totals[kind]

    def _check_index(self, site: str) -> None:
        """Sampled shadow recount of the free index (REPRO_SANITIZE=1)."""
        self._sanitize_ticks += 1
        if not sanitize.should_sample(self._sanitize_ticks):
            return
        reference, counts = self._scan_index()
        if counts != self._free_count or not np.array_equal(
            reference, self._free_mask
        ):
            diverged = np.flatnonzero(reference != self._free_mask)
            sanitize.violation(
                "shadow-recount",
                "repro.arch.fabric.Fabric._free_mask",
                site,
                f"index diverged from full scan (counters "
                f"{self._free_count!r}, scan {counts!r}, first diverged "
                f"tile ids {diverged[:4].tolist()!r})",
            )

    def count_free(self, kind: TileKind) -> int:
        if perf.FAST:
            if sanitize.ENABLED:
                self._check_index("count_free")
            return self._free_count[kind]
        return sum(
            1 for tile in self._tiles.values() if tile.kind is kind and tile.is_free
        )

    def _free_positions(self, kind: TileKind) -> List[Coordinate]:
        if perf.FAST:
            if sanitize.ENABLED:
                self._check_index("_free_positions")
            # Flat ids ascend in row-major order, which is exactly the
            # order ``_tiles`` was populated in and the scan enumerates.
            ys, xs = np.divmod(
                np.flatnonzero(self._free_mask == _BIT[kind]), self.width
            )
            return list(zip(xs.tolist(), ys.tolist()))
        return [
            position
            for position, tile in self._tiles.items()
            if tile.kind is kind and tile.is_free
        ]

    def _best_seed(self, need_slices: int, need_banks: int) -> Coordinate:
        """FAST seed search: the scalar scan's winner without growing.

        Region growth visits tiles in order of Manhattan distance from
        the seed and traverses occupied tiles, so the region a seed
        produces is the nearest free tiles of each kind and its span is
        the smallest radius ``r`` whose diamond (tiles within distance
        ``r``) holds ``need_slices`` free Slices, the seed included, and
        ``need_banks`` free banks.  With ``u = x + y`` and
        ``v = x - y + height - 1`` a diamond is the square
        ``|du| <= r, |dv| <= r`` on the rotated grid, so a 2-D prefix
        sum of the scattered mask counts both kinds (one 32-bit field
        each) for every seed in four lookups.  Qualifying is monotone
        in ``r``: the sweep gallops up from a lower bound (a diamond
        holds at most ``2r^2 + 2r + 1`` tiles) and bisects below the
        first radius at which any seed qualifies, keeping only those
        seeds; radius ``width + height - 2`` covers the fabric from
        every seed, so the least span is always found.  The survivors
        stay in row-major order, so the first is ``argmin(spans)``'s
        first minimal entry: the scalar loop's first strictly-best seed.
        The caller has checked that enough tiles of each kind are free.
        """
        if sanitize.ENABLED:
            self._check_index("_best_seed")
        side = self.width + self.height - 1
        grid = np.zeros(side * side, dtype=np.int64)
        grid[self._rotated] = self._free_mask
        table = np.zeros((side + 1, side + 1), dtype=np.int64)
        np.cumsum(
            np.cumsum(grid.reshape(side, side), axis=0), axis=1, out=table[1:, 1:]
        )
        table = table.ravel()
        seeds = np.flatnonzero(self._free_mask == _BIT[TileKind.SLICE])
        uv = self._rotated_uv[:, seeds]
        step = np.array([[side + 1], [1]])
        need = need_slices * _BIT[TileKind.SLICE]
        low = 0
        while 2 * low * (low + 1) + 1 < need_slices + need_banks:
            low += 1
        high, stride = side - 1, 1
        while low < high:
            radius = min(low + stride - 1, (low + high) // 2)
            lo = np.maximum(uv - radius * step, 0)
            hi = np.minimum(uv + (radius + 1) * step, side * step)
            counts = (
                table[hi[0] + hi[1]] - table[lo[0] + hi[1]]
                - table[hi[0] + lo[1]] + table[lo[0] + lo[1]]
            )
            qualified = (counts >= need) & ((counts & _BANK_FIELD) >= need_banks)
            if qualified.any():
                high = radius
                seeds, uv = seeds[qualified], uv[:, qualified]
            else:
                low, stride = radius + 1, 2 * stride
        y, x = divmod(int(seeds[0]), self.width)
        return (x, y)

    def _neighbors(self, position: Coordinate) -> List[Coordinate]:
        x, y = position
        out = []
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append((nx, ny))
        return out

    def _grow_region(
        self, seed: Coordinate, need_slices: int, need_banks: int
    ) -> Optional[Tuple[List[Coordinate], List[Coordinate]]]:
        """Grow a compact region from ``seed`` with the needed tile mix.

        Best-first growth by distance to the seed keeps the region
        near-square, minimizing operand and cache distances.
        """
        slices: List[Coordinate] = []
        banks: List[Coordinate] = []
        visited: Set[Coordinate] = set()
        frontier: List[Tuple[int, Coordinate]] = [(0, seed)]
        while frontier and (len(slices) < need_slices or len(banks) < need_banks):
            _, position = heapq.heappop(frontier)
            if position in visited:
                continue
            visited.add(position)
            tile = self._tiles[position]
            if tile.is_free:
                if tile.kind is TileKind.SLICE and len(slices) < need_slices:
                    slices.append(position)
                elif tile.kind is TileKind.L2_BANK and len(banks) < need_banks:
                    banks.append(position)
            for neighbor in self._neighbors(position):
                if neighbor not in visited:
                    heapq.heappush(
                        frontier, (manhattan(seed, neighbor), neighbor)
                    )
        if len(slices) < need_slices or len(banks) < need_banks:
            return None
        return slices, banks

    def allocate(self, vcore_id: int, config: VCoreConfig) -> Allocation:
        """Allocate a virtual core; raises :class:`FabricError` if full."""
        if vcore_id in self._allocations:
            raise FabricError(f"vcore {vcore_id} already allocated")
        need_slices = config.slices
        need_banks = config.l2_banks
        free_slices = self.count_free(TileKind.SLICE)
        if free_slices < need_slices:
            raise FabricError(
                f"need {need_slices} free Slices, have {free_slices}"
            )
        free_banks = self.count_free(TileKind.L2_BANK)
        if free_banks < need_banks:
            raise FabricError(f"need {need_banks} free banks, have {free_banks}")
        best: Optional[Tuple[List[Coordinate], List[Coordinate]]] = None
        if perf.FAST:
            seed = self._best_seed(need_slices, need_banks)
            best = self._grow_region(seed, need_slices, need_banks)
        else:
            best_span = None
            for seed in self._free_positions(TileKind.SLICE):
                region = self._grow_region(seed, need_slices, need_banks)
                if region is None:
                    continue
                slices, banks = region
                span = max(
                    manhattan(seed, position) for position in slices + banks
                )
                if best_span is None or span < best_span:
                    best, best_span = region, span
                    if span <= 1:
                        break
        if best is None:
            raise FabricError(
                f"fabric too fragmented for {config}; rescheduling of "
                "existing virtual cores is required"
            )
        slices, banks = best
        allocation = Allocation(
            vcore_id=vcore_id,
            config=config,
            slice_positions=tuple(slices),
            bank_positions=tuple(banks),
        )
        self._set_owner(allocation, vcore_id)
        self._allocations[vcore_id] = allocation
        return allocation

    def _set_owner(self, allocation: Allocation, owner: Optional[int]) -> None:
        """Hand ``allocation``'s tiles to ``owner`` (None frees them),
        keeping the free mask and counters in lockstep."""
        free = owner is None
        mask, width = self._free_mask, self.width
        for kind, positions in (
            (TileKind.SLICE, allocation.slice_positions),
            (TileKind.L2_BANK, allocation.bank_positions),
        ):
            word = _BIT[kind] if free else 0
            for x, y in positions:
                tile = self._tiles[(x, y)]
                tile.owner_vcore = owner
                if tile.slice_unit is not None:
                    tile.slice_unit.owner_vcore = owner
                mask[y * width + x] = word
            self._free_count[kind] += len(positions) if free else -len(positions)

    def try_allocate_exact(self, allocation: Allocation) -> bool:
        """Re-seat a previously released allocation on its exact tiles.

        The event-driven service parks idle tenants (releasing their
        tiles) and re-seats them when the next burst arrives; if the
        old region is still free this is O(region) — no seed search,
        no growth.  Returns False (fabric untouched) when any old tile
        is taken, in which case the caller falls back to a regular
        :meth:`allocate`.
        """
        if allocation.vcore_id in self._allocations:
            raise FabricError(
                f"vcore {allocation.vcore_id} already allocated"
            )
        for position in allocation.positions:
            tile = self._tiles.get(position)
            if tile is None or not tile.is_free:
                return False
        self._set_owner(allocation, allocation.vcore_id)
        self._allocations[allocation.vcore_id] = allocation
        return True

    def release(self, vcore_id: int) -> None:
        allocation = self._allocations.pop(vcore_id, None)
        if allocation is None:
            raise FabricError(f"vcore {vcore_id} is not allocated")
        self._set_owner(allocation, None)

    def reallocate(self, vcore_id: int, config: VCoreConfig) -> Allocation:
        """Resize a virtual core (release + allocate, keeping the id)."""
        self.release(vcore_id)
        return self.allocate(vcore_id, config)

    def allocation(self, vcore_id: int) -> Allocation:
        try:
            return self._allocations[vcore_id]
        except KeyError:
            raise FabricError(f"vcore {vcore_id} is not allocated") from None

    @property
    def allocations(self) -> Dict[int, Allocation]:
        return dict(self._allocations)

    def allocation_for(self, vcore_id: int) -> Optional[Allocation]:
        """O(1) lookup without the defensive copy ``allocations`` takes."""
        return self._allocations.get(vcore_id)

    def has_allocation(self, vcore_id: int) -> bool:
        return vcore_id in self._allocations

    def occupied_tiles(self) -> int:
        """How many tiles are owned right now (integer utilization twin).

        The service engine accounts utilization in exact integer
        tile-intervals so that multiplying over a skipped idle stretch
        equals per-interval accumulation bit for bit.
        """
        if perf.FAST:
            return len(self._tiles) - sum(self._free_count.values())
        return sum(1 for tile in self._tiles.values() if not tile.is_free)

    def utilization(self) -> float:
        return self.occupied_tiles() / len(self._tiles)

    def defragment(self) -> int:
        """Re-pack all allocations compactly; returns vcores moved.

        Because Slices are interchangeable (Section III-A), fixing
        fragmentation is just rescheduling: release everything and
        re-allocate each virtual core in descending size order.
        """
        allocations = sorted(
            self._allocations.values(),
            key=lambda a: a.config.tiles,
            reverse=True,
        )
        for allocation in allocations:
            self.release(allocation.vcore_id)
        moved = 0
        for allocation in allocations:
            new = self.allocate(allocation.vcore_id, allocation.config)
            if set(new.positions) != set(allocation.positions):
                moved += 1
        return moved
