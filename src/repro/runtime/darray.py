"""Distributed-array bookkeeping for the SPMD executor.

Models the data distribution at runtime: which processor (rank) owns
which elements, neighbour relations on the processor grid, and the halo
bands nearest-neighbour messages fill (the paper's §4.8 "overlap
regions").  Index math is kept in *global* coordinates — each rank's
storage is a full-shape array plus a validity mask — so the executor
stays simple while ownership and data movement remain completely
faithful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..distribution.layout import DistFormat, Layout
from ..errors import SimulationError
from ..sections.rsd import RSD, DimSection

try:  # numpy >= 2 puts a Python wrapper in front of this C function
    from numpy._core.multiarray import count_nonzero
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy import count_nonzero


def all_valid(valid: np.ndarray) -> bool:
    """Every element of the validity view is set (one C call)."""
    return count_nonzero(valid) == valid.size


def fresh(values, expected) -> bool:
    """``values`` carry the bits the sequential semantics hold in
    ``expected``.  With :func:`all_valid` the runtime's one freshness
    idiom; :func:`repro.runtime.kernels.verify` spells the same fast
    paths inline over kernel rows.  The fast path is an element-wise
    compare and a count, two C calls; only a mismatch reaches the
    NaN-aware compare: a NaN the semantics also produce is not stale,
    anything else is."""
    return not count_nonzero(values != expected) or np.array_equal(
        values, expected, equal_nan=True
    )


def np_index(rsd: RSD) -> tuple:
    """The 0-based numpy index of a (1-based, inclusive) section."""
    return tuple(slice(d.lo - 1, d.hi, d.step) for d in rsd.dims)


@dataclass(frozen=True)
class GridRank:
    """One processor: its linear id and its grid coordinates."""

    rank: int
    coords: tuple[int, ...]


def grid_ranks(shape: tuple[int, ...]) -> list[GridRank]:
    """All processors of a grid, row-major."""
    ranks = []
    for rank, coords in enumerate(itertools.product(*(range(s) for s in shape))):
        ranks.append(GridRank(rank, coords))
    return ranks


def shifted_coords(
    coords: tuple[int, ...], shifts: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Grid coordinates shifted by ``shifts``; None when off the edge
    (boundary processors have no partner in that direction)."""
    out = []
    for c, s, extent in zip(coords, shifts, shape):
        c2 = c + s
        if not 0 <= c2 < extent:
            return None
        out.append(c2)
    return tuple(out)


class Ownership:
    """Owned regions of one array layout, as RSDs in global coordinates."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def owned_rsd(self, coords: tuple[int, ...]) -> RSD:
        """The region owned by the processor at grid ``coords``.

        BLOCK dims give contiguous spans, CYCLIC dims strided
        progressions, collapsed dims the whole extent.
        """
        dims = []
        for dim, mapping in enumerate(self.layout.dims):
            if mapping.format is DistFormat.COLLAPSED:
                dims.append(DimSection(1, mapping.extent))
                continue
            axis = mapping.grid_axis
            assert axis is not None
            coord = coords[axis]
            if mapping.format is DistFormat.BLOCK:
                lo, hi = self.layout.local_span(dim, coord)
                dims.append(DimSection(lo, hi))
            else:  # CYCLIC
                procs = self.layout.procs_along(dim)
                dims.append(DimSection(coord + 1, mapping.extent, procs))
        return RSD(tuple(dims))

    def halo_band(
        self,
        coords: tuple[int, ...],
        elem_shifts: dict[int, int],
    ) -> RSD:
        """The owned region of ``coords`` extended by ``|delta|`` elements
        on the read side of each shifted dimension — the overlap region a
        shift of ``elem_shifts`` can legitimately fill."""
        owned = self.owned_rsd(coords)
        dims = []
        for dim, section in enumerate(owned.dims):
            delta = elem_shifts.get(dim, 0)
            if delta == 0 or section.is_empty:
                dims.append(section)
                continue
            extent = self.layout.dims[dim].extent
            if delta > 0:
                dims.append(
                    DimSection(section.lo, min(section.hi + delta, extent),
                               section.step)
                )
            else:
                dims.append(
                    DimSection(max(section.lo + delta, 1), section.hi,
                               section.step)
                )
        return RSD(tuple(dims))

    def shifted_needs(
        self, coords: tuple[int, ...], elem_shifts: dict[int, int]
    ) -> RSD:
        """The elements a processor *reads* under an element shift: its
        owned region translated by the shift (clipped to the array).

        Exact for BLOCK (the translated span) and CYCLIC (the translated
        progression is exactly the wrapped neighbour's progression, modulo
        the array boundary).
        """
        owned = self.owned_rsd(coords)
        dims = []
        for dim, section in enumerate(owned.dims):
            delta = elem_shifts.get(dim, 0)
            if delta == 0 or section.is_empty:
                dims.append(section)
                continue
            extent = self.layout.dims[dim].extent
            dims.append(section.shifted(delta).clipped(1, extent))
        return RSD(tuple(dims))

    def owner_rank_coords(self, element: tuple[int, ...]) -> tuple[int, ...]:
        """Grid coordinates of the processor owning a global element."""
        coords = [0] * len(self.layout.grid.shape)
        for dim, index in enumerate(element):
            mapping = self.layout.dims[dim]
            if mapping.grid_axis is None:
                continue
            coords[mapping.grid_axis] = self.layout.owner_coord(dim, index)
        return tuple(coords)


class RankStorage:
    """One rank's view of one array: full-shape values plus a validity
    mask.  Reads outside the valid region are the runtime face of a
    placement bug."""

    def __init__(
        self,
        array: str,
        shape: tuple[int, ...],
        buffers: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.array = array
        self.shape = shape
        if buffers is None:
            self.values = np.zeros(shape)
            self.valid = np.zeros(shape, dtype=bool)
        else:
            # Transport-allocated storage (e.g. shared-memory views): the
            # executor and the transport workers must see the same bytes.
            self.values, self.valid = buffers
            assert self.values.shape == shape
            assert self.valid.shape == shape and self.valid.dtype == bool

    def install(self, rsd: RSD, values: np.ndarray, idx=None) -> None:
        if rsd.is_empty:
            return
        if idx is None:
            idx = np_index(rsd)
        self.values[idx] = values
        self.valid[idx] = True

    def extract(self, rsd: RSD, idx=None) -> np.ndarray:
        # ``idx``, when given, is ``np_index(rsd)``, known to the caller.
        if rsd.is_empty:
            return np.zeros(tuple(0 for _ in rsd.dims))
        if idx is None:
            idx = np_index(rsd)
        if not all_valid(self.valid[idx]):
            raise SimulationError(
                f"extracting invalid data from {self.array} {rsd}"
            )
        return np.array(self.values[idx], copy=True)

    def read(self, element: tuple[int, ...]) -> float:
        idx = tuple(c - 1 for c in element)
        if not self.valid[idx]:
            raise SimulationError(
                f"read of {self.array}{element}: element not present on "
                f"this rank (missing or misplaced communication)"
            )
        return float(self.values[idx])

    def write(self, element: tuple[int, ...], value: float) -> None:
        idx = tuple(c - 1 for c in element)
        self.values[idx] = value
        self.valid[idx] = True
