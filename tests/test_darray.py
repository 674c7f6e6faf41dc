"""Distributed-array bookkeeping tests (ownership, halos, rank storage)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distribution.layout import DimMapping, DistFormat, Layout, ProcessorGrid
from repro.errors import SimulationError
from repro.runtime.darray import (
    Ownership,
    RankStorage,
    grid_ranks,
    shifted_coords,
)
from repro.sections.rsd import RSD, DimSection


def layout_2d(n=16, pr=4, pc=2) -> Layout:
    return Layout(
        "a",
        ProcessorGrid("p", (pr, pc)),
        (
            DimMapping(DistFormat.BLOCK, n, grid_axis=0),
            DimMapping(DistFormat.BLOCK, n, grid_axis=1),
        ),
    )


class TestGridRanks:
    def test_enumeration_row_major(self):
        ranks = grid_ranks((2, 3))
        assert len(ranks) == 6
        assert ranks[0].coords == (0, 0)
        assert ranks[1].coords == (0, 1)
        assert ranks[3].coords == (1, 0)

    def test_shifted_coords(self):
        assert shifted_coords((1, 1), (1, 0), (4, 2)) == (2, 1)
        assert shifted_coords((3, 1), (1, 0), (4, 2)) is None  # off the edge
        assert shifted_coords((0, 0), (-1, 0), (4, 2)) is None
        assert shifted_coords((2, 0), (0, 0), (4, 2)) == (2, 0)


class TestOwnership:
    def test_block_regions_partition(self):
        own = Ownership(layout_2d())
        seen = np.zeros((16, 16), dtype=int)
        for gr in grid_ranks((4, 2)):
            rsd = own.owned_rsd(gr.coords)
            seen[
                rsd.dims[0].lo - 1 : rsd.dims[0].hi,
                rsd.dims[1].lo - 1 : rsd.dims[1].hi,
            ] += 1
        assert (seen == 1).all()

    def test_cyclic_regions_partition(self):
        layout = Layout(
            "c",
            ProcessorGrid("p", (3,)),
            (DimMapping(DistFormat.CYCLIC, 10, grid_axis=0),),
        )
        own = Ownership(layout)
        elements = []
        for gr in grid_ranks((3,)):
            elements.extend(own.owned_rsd(gr.coords).dims[0].elements())
        assert sorted(elements) == list(range(1, 11))

    def test_collapsed_dim_owned_everywhere(self):
        layout = Layout(
            "g",
            ProcessorGrid("p", (2,)),
            (
                DimMapping(DistFormat.COLLAPSED, 8),
                DimMapping(DistFormat.BLOCK, 8, grid_axis=0),
            ),
        )
        own = Ownership(layout)
        rsd = own.owned_rsd((1,))
        assert rsd.dims[0] == DimSection(1, 8)
        assert rsd.dims[1] == DimSection(5, 8)

    def test_owner_rank_coords(self):
        own = Ownership(layout_2d())
        assert own.owner_rank_coords((1, 1)) == (0, 0)
        assert own.owner_rank_coords((16, 16)) == (3, 1)
        assert own.owner_rank_coords((5, 9)) == (1, 1)

    def test_halo_band_extends_read_side(self):
        own = Ownership(layout_2d())
        owned = own.owned_rsd((1, 0))
        band = own.halo_band(owned, {0: 1})  # +1 shift in dim 0
        assert band.dims[0].lo == owned.dims[0].lo
        assert band.dims[0].hi == owned.dims[0].hi + 1
        assert band.dims[1] == owned.dims[1]

    def test_halo_band_negative_shift(self):
        own = Ownership(layout_2d())
        owned = own.owned_rsd((1, 0))
        band = own.halo_band(owned, {0: -2})
        assert band.dims[0].lo == owned.dims[0].lo - 2

    def test_halo_band_clips_at_array_bounds(self):
        own = Ownership(layout_2d())
        # last block: nothing above
        band = own.halo_band(own.owned_rsd((3, 0)), {0: 1})
        assert band.dims[0].hi == 16


class TestRankStorage:
    def test_install_and_read(self):
        store = RankStorage("a", (4, 4))
        store.values[0:2, :] = 1.0
        store.valid[0:2, :] = True
        assert store.read((1, 3)) == 1.0

    def test_read_invalid_raises(self):
        store = RankStorage("a", (4, 4))
        with pytest.raises(SimulationError, match="not present"):
            store.read((3, 3))

    def test_write_validates(self):
        store = RankStorage("a", (4, 4))
        store.write((2, 2), 5.0)
        assert store.read((2, 2)) == 5.0

    def test_extract_strided(self):
        store = RankStorage("a", (8,))
        store.values[:] = np.arange(8.0)
        store.valid[:] = True
        got = store.extract(RSD.of((1, 7, 2)))
        np.testing.assert_array_equal(got, [0, 2, 4, 6])

    def test_extract_partial_invalid_raises(self):
        store = RankStorage("a", (8,))
        store.values[0:4] = 1.0
        store.valid[0:4] = True
        with pytest.raises(SimulationError):
            store.extract(RSD.of((3, 6)))
