"""The read cover is exact.

A nest kernel verifies, per rank and array, the *cover* of the regions
its static references read (:func:`repro.sections.rsd.cover`) instead of
one region per reference.  The cover must hold exactly the references'
elements — nothing dropped, nothing added — or a check would be skipped
or a legitimately absent element demanded.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.perf.stats import RuntimeStats
from repro.runtime.plans import concretize_nest, rank_kbox, ref_region
from repro.runtime.spmd import execution_image
from repro.sections.rsd import RSD, DimSection, cover

dims = st.builds(
    DimSection, st.integers(0, 7), st.integers(-1, 9), st.integers(1, 3)
)


@st.composite
def section_lists(draw):
    rank = draw(st.integers(1, 3))
    section = st.builds(
        lambda ds: RSD(tuple(ds)), st.lists(dims, min_size=rank, max_size=rank)
    )
    return draw(st.lists(section, min_size=0, max_size=5))


def elements(section: RSD) -> set:
    return set(itertools.product(*(d.elements() for d in section.dims)))


def union(sections) -> set:
    return set().union(*(elements(s) for s in sections))


class TestCoverAlgebra:
    @given(section_lists())
    @settings(max_examples=300, deadline=None)
    def test_same_elements_and_irreducible(self, sections):
        covered = cover(sections)
        assert union(covered) == union(sections)
        assert not any(s.is_empty for s in covered)
        for a, b in itertools.permutations(covered, 2):
            assert not a.contains(b)
            assert not a.hull(b)[1], f"{a} and {b} still merge exactly"

    @given(section_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_input_order_is_irrelevant(self, sections, rng: random.Random):
        shuffled = list(sections)
        rng.shuffle(shuffled)
        assert cover(shuffled) == cover(sections)
        assert cover(sections + sections[:1]) == cover(sections)

    def test_empties_and_nothing(self):
        assert cover([]) == ()
        assert cover([RSD.of((3, 2)), RSD.of((1, 0))]) == ()

    def test_a_point_inside_a_strided_section_is_subsumed(self):
        """``hull`` alone would widen the stride to reach the point."""
        strided, point = RSD.of((1, 9, 2)), RSD.of((5, 5))
        assert not strided.hull(point)[1]
        assert cover([point, strided]) == (strided,)

    def test_an_inexact_hull_is_never_taken(self):
        corner_to_corner = [RSD.of((1, 2), (1, 2)), RSD.of((3, 4), (3, 4))]
        assert set(cover(corner_to_corner)) == set(corner_to_corner)


def shifted(n: int, di: int, dj: int) -> RSD:
    """What ``a(i+di, j+dj)`` reads over ``i, j = 2 .. n-1``."""
    return RSD.of((2 + di, n - 1 + di), (2 + dj, n - 1 + dj))


class TestStencils:
    N = 12

    def test_four_point_stencil_is_two_boxes(self):
        refs = [shifted(self.N, *d) for d in ((-1, 0), (1, 0), (0, -1), (0, 1))]
        covered = cover(refs)
        assert set(covered) == {
            RSD.of((1, self.N), (2, self.N - 1)),
            RSD.of((2, self.N - 1), (1, self.N)),
        }

    def test_five_point_stencil_is_two_boxes_because_a_cross_is_no_box(self):
        refs = [
            shifted(self.N, *d)
            for d in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
        ]
        covered = cover(refs)
        assert len(covered) == 2
        assert union(covered) == union(refs)
        assert (1, 1) not in union(covered)  # the corners stay out

    def test_nine_point_stencil_is_one_box(self):
        refs = [
            shifted(self.N, di, dj)
            for di in (-1, 0, 1) for dj in (-1, 0, 1)
        ]
        assert cover(refs) == (RSD.of((1, self.N), (1, self.N)),)


def _rank_reads(program: str, params: dict, sid: int, loop_env: dict):
    """Per rank: the regions the references of the nest around
    assignment ``sid`` read, array by array."""
    result = compile_program(BENCHMARKS[program], params=params)
    image = execution_image(result)
    plans, _ = image.nest_tables(RuntimeStats())
    (plan,) = [p for p in plans.values() if p.assign.sid == sid]
    conc = concretize_nest(
        plan, {**result.info.params, **loop_env}, result.info
    )
    out = {}
    for gr in image.ranks:
        kbox = rank_kbox(conc, image.owned[gr.rank, conc.lhs.name])
        if kbox is None:
            continue
        reads: dict[str, list] = {}
        for cref in conc.refs.values():
            reads.setdefault(cref.name, []).append(ref_region(cref, kbox))
        out[gr.rank] = reads
    return out


class TestBenchmarkNests:
    def test_gravity_s25_verifies_two_sections_per_rank(self):
        """``pot = 0.8*pot + 0.2*acc/SQRT(pot*pot + 0.5)``: four
        references, three of them the same ``pot`` section."""
        reads = _rank_reads(
            "gravity", {"n": 8, "pr": 2, "pc": 2}, 25, {"i": 2, "sm": 1}
        )
        assert len(reads) == 4
        for per_array in reads.values():
            assert {a: len(r) for a, r in per_array.items()} == {
                "pot": 3, "acc": 1,
            }
            covered = {a: cover(r) for a, r in per_array.items()}
            assert sum(len(c) for c in covered.values()) == 2
            for array, regions in per_array.items():
                assert union(covered[array]) == union(regions)

    def test_gravity_s11_four_point_stencil(self):
        """``acc = glast(+1, .) + glast(-1, .) + glast(., +1) +
        glast(., -1) + sg``: four overlapping shifts whose exact union
        is two boxes."""
        reads = _rank_reads(
            "gravity", {"n": 8, "pr": 2, "pc": 2}, 11, {"i": 2}
        )
        for per_array in reads.values():
            (regions,) = per_array.values()
            assert len(regions) == 4 and len(cover(regions)) == 2
            assert union(cover(regions)) == union(regions)
