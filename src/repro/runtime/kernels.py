"""Kernel execution for the SPMD runtime: a kernel is a table, and the
ranks are one of its axes.

The element-wise executor interprets every iteration of a planned nest:
it walks the RHS expression tree per element, evaluates each subscript,
and tests each read against the sequential shadow one value at a time.
All of that but the values is geometry, constant for a given (nest,
concrete loop geometry) pair — so it becomes a *template*: data built
once per program, kept in the program's
:class:`~repro.runtime.spmd.ExecutionImage`, bound to each run's views
and run by one loop per template kind.

* A :class:`NestTemplate` (per ``(nest sid, loop geometry)``, keyed like
  CommPlans) holds per rank its *check rows* — the sections of the cover
  of its reads of each array, with their element counts — and its
  *store row* — the LHS region and the slice of the RHS block it owns.
  Only the RHS, the same on every rank, is compiled
  (:func:`repro.codegen.kernels.rhs_source`).  Subscript offsets that
  vary across firings (an enclosing loop variable indexing a serial
  dimension) are runtime arguments: the rows and RHS blocks that ride
  them are moved per firing (:func:`moved`), after a bounds test that
  raises :class:`~repro.runtime.plans.PlanFallback` so the nest runs
  element-wise.  Offsets that move along a *distributed* dimension would
  change rank participation, so such nests run element-wise with the
  reason recorded (:attr:`KernelEngine.ineligible`).

* A CommPlan's :class:`CopyTemplate` (hung on the plan) is its
  transfers with their element counts, run by :func:`run_copy`: storage
  to storage, nothing compiled.

A run keeps every rank's storage of an array in one stacked ``(P,
*shape)`` pair (:mod:`repro.runtime.darray`), so the rows of all ranks
are *one* flat index per array, built with the template: a firing is
one validity gather and count per array, one value gather compared
with one shadow gather, one store scatter — whatever the grid.  A flat
index is an offset, not a view, so it serves every run of the image
unchanged.  Rows above :data:`CROSSOVER` elements stay numpy views of
one rank's storage, where a view is cheaper than a copy; both kinds go
through the one :func:`verify`.  Only a failure walks the rows again,
rank by rank, as views, to name it.

The movement accounting (remote reads, bcopy calls, elements written)
is translation-invariant across firings of one geometry and is counted
at build time.  The RHS block is computed with the same IEEE operations,
in the same order, as the element-wise interpreter, so final state is
bitwise-identical; the validity and staleness oracle (:func:`verify`)
tests the same elements — per rank and array the *cover* of the
references' regions (:func:`~repro.sections.rsd.cover`: exactly their
elements, in the fewest sections) instead of one element at a time — and
names the same statement, rank, array and failure kind, so every failure
mode the interpreter detects, the kernel detects.  Messages are
formatted only when a check fails.
"""

from __future__ import annotations

import math
import time
import types
import weakref
from dataclasses import dataclass

import numpy as np

from ..affine import NonAffineError
from ..codegen.kernels import (
    NestSpec,
    analyze_kernel_spec,
    compile_fn,
    rhs_source,
)
from ..errors import SimulationError
from ..sections.rsd import cover
from .darray import count_nonzero, fresh, np_index, positions
from .plans import (
    CommPlan,
    NestPlan,
    PlanFallback,
    block_alignment,
    concretize_nest,
    rank_kbox,
    ref_np_index,
    ref_region,
    var_axis_block,
)

__all__ = [
    "CopyTemplate", "KernelEngine", "NestTemplate", "flat_row", "moved",
    "owned_rows", "shared", "verify",
]

#: What :func:`verify` reports: every row passes, or the kind of failure.
PASS, INVALID, STALE = 0, 1, 2


def verify(rows) -> int:
    """The runtime's freshness test over check rows.

    A row is ``(valid, values, expected, count)``: the validity and
    value views of one section on one rank, the shadow's view of it and
    its element count.  Every validity count is tested before any value,
    the :func:`~repro.runtime.darray.all_valid` / ``fresh`` pair with
    their fast paths inline (no Python call on a pass, the NaN-aware
    compare only behind a mismatch).  Returns ``PASS``, ``INVALID`` or
    ``STALE``.  A runner tests all of a firing's rows in one call and
    only on a failure walks them group by group (:func:`first_fault`)
    to name the group the failure belongs to.
    """
    for valid, _, _, count in rows:
        if count_nonzero(valid) != count:
            return INVALID
    for _, values, expected, _ in rows:
        if count_nonzero(values != expected) and not fresh(
            values, expected
        ):
            return STALE
    return PASS


def first_fault(groups) -> tuple:
    """``(fault, key)`` of the first of ``groups`` — ``(key, rows)``
    each, tested in order, validity before values within a group — that
    fails :func:`verify`."""
    for key, rows in groups:
        fault = verify(rows)
        if fault:
            return fault, key
    raise AssertionError("no failing group")  # the caller saw one fail


def moved(index: tuple, dims: tuple, args) -> tuple:
    """``index`` (relative to the runtime arguments) at this firing:
    each ``(dim, arg)`` of ``dims`` adds ``args[arg]`` to a point or to
    both ends of a slice."""
    out = list(index)
    for d, arg in dims:
        part, at = out[d], args[arg]
        out[d] = (
            part + at if type(part) is int
            else slice(part.start + at, part.stop + at, part.step)
        )
    return tuple(out)


#: Rows holding more elements than this stay numpy views of one rank's
#: storage; smaller ones join their array's one flat gather over every
#: rank.  A gather copies, at several times a view's cost per element,
#: but takes one numpy call for all the rows it holds.  The value is
#: measured over the ``run_compute`` classes (``benchmarks/crossover.py``;
#: table in docs/PERFORMANCE.md, "Ranks are an axis"): 256 and 512 tie,
#: 1024 and gathering everything slow the 2x2 classes, and the smaller
#: value keeps the smaller indices.
CROSSOVER = 256


#: Every flat index the templates and images of the process hold, by
#: its bytes: an index is an offset, not a view of one run's storage,
#: so statements writing one region, arrays of one layout, copies of
#: one boundary and images of one program under two strategies share
#: one.  Weak: an index lives as long as something holding it.
_INDICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def shared(index: np.ndarray) -> np.ndarray:
    """``index`` (of numpy's index type), read-only, or the equal one
    the process already holds.  Two builders racing on one index only
    lose the share, never an index."""
    key = np.ascontiguousarray(index, dtype=np.intp).tobytes()
    kept = _INDICES.get(key)
    if kept is None:
        kept = np.frombuffer(key, dtype=np.intp)
        _INDICES[key] = kept
    return kept


def flat_row(index: np.ndarray, size: int) -> tuple:
    """``(index, at)``: a flat ``index`` into a stacked pair whose arrays
    hold ``size`` elements, and ``at``, the same elements' positions in
    one array — the shadow's — both :func:`shared`."""
    return shared(index), shared(index % size)


def owned_rows(ranks, owned_index: dict, name: str, shape: tuple) -> tuple:
    """Array ``name``'s owned regions over its stacked pair, ``(flat,
    wide)``: the regions of at most :data:`CROSSOVER` elements as one
    :func:`flat_row` (``None`` if no region is that small), and the
    ranks whose larger region stays a view
    (``owned_index[rank, name]``)."""
    size = math.prod(shape)
    grid = positions(shape)
    flat, wide = [], []
    for gr in ranks:
        own = grid[owned_index[gr.rank, name]].reshape(-1)
        if own.size > CROSSOVER:
            wide.append(gr.rank)
        else:
            flat.append(own + gr.rank * size)
    if flat:
        return flat_row(np.concatenate(flat), size), tuple(wide)
    return None, tuple(wide)


class _Stacked:
    """Build-time flat positions over a program's stacked arrays: rank
    ``r``'s element at ``index`` of ``array`` lies at ``r * size +
    positions[index]`` of the flattened ``(P, *shape)`` pair, its
    shadow element at the same position modulo ``size``.  A position
    taken at the building firing that rides runtime arguments (``args``:
    their values there) moves with them (:meth:`shifts`)."""

    def __init__(self, info, nranks: int, args) -> None:
        self.info = info
        self.nranks = nranks
        self.args = args
        self._arrays: dict[str, tuple] = {}

    def _array(self, array: str) -> tuple:
        got = self._arrays.get(array)
        if got is None:
            shape = self.info.shape(array)
            size = math.prod(shape)
            got = self._arrays[array] = (
                positions(shape), size,
                tuple(math.prod(shape[d + 1:]) for d in range(len(shape))),
            )
        return got

    def at(self, rank: int, array: str, index: tuple) -> np.ndarray:
        """The positions of rank ``rank``'s ``index``, in its shape."""
        grid, size, _ = self._array(array)
        return grid[index] + rank * size

    def size(self, array: str) -> int:
        return self._array(array)[1]

    def shifts(self, array: str, dims: tuple):
        """How positions riding the ``(dim, arg)`` pairs ``dims`` move:
        ``((arg, stride), ...)`` and their offset at the building
        firing (:func:`_offset`); ``None`` for fixed ones."""
        if not dims:
            return None
        strides = self._array(array)[2]
        pairs = tuple((arg, strides[d]) for d, arg in dims)
        return pairs, sum(self.args[arg] * stride for arg, stride in pairs)


def _offset(shifts: tuple, args) -> int:
    """How far positions taken at the building firing move at this one."""
    pairs, delta = shifts
    delta = -delta
    for arg, stride in pairs:
        delta += args[arg] * stride
    return delta


def _flats(stacks: dict, shadow: dict) -> dict:
    """Per array the flattened ``(valid, values, shadow)`` a flat index
    reads: views of one run's stacked pair and its shadow array."""
    out = {}
    for name, (values, valid) in stacks.items():
        truth = shadow[name]
        assert values.flags.c_contiguous and truth.flags.c_contiguous
        out[name] = (
            valid.reshape(-1), values.reshape(-1), truth.reshape(-1)
        )
    return out


@dataclass
class NestTemplate:
    """One nest geometry, independent of any run's storage.

    ``rhs`` is the compiled rank-independent RHS, called with the
    firing's runtime arguments and then the aligned shadow block of each
    RHS reference: ``views`` first — ``(array, index, align)``, the
    shadow's ``index`` of ``array`` taken to iteration-box order by
    ``align``, a :func:`~repro.runtime.plans.block_alignment`, bound
    once per run — then ``blocks``, ``(array, index, dims, align)``,
    sliced per firing.  ``bounds`` holds ``(arg, lo, hi, extent,
    array)``: a firing is in bounds when ``1 <= args[arg] + lo`` and
    ``args[arg] + hi <= extent``.

    ``ranks`` holds one ``(rank, checks, store)`` per rank that writes.
    ``checks`` is ``((array, fixed, moving), ...)``: the sections of the
    cover of the rank's reads of ``array``, ``(index, count)`` when
    fixed at build time and ``(index, count, dims)`` when they ride
    runtime arguments.  ``store`` is ``(index, dims, part, count)``: the
    LHS region, the index of the block, in LHS order, that fills it and
    its element count.  ``advance`` is the shadow's ``(index, dims)`` of
    the LHS.  An index with ``dims`` is relative to the runtime
    arguments and moves with the ``(dim, arg)`` pairs ``dims`` names
    (:func:`moved`); ``dims`` is empty for an index fixed at build time.
    The accounting constants are firing-invariant and counted once, at
    build time — ``sections`` is the number of check rows.

    A firing runs the rows of at most :data:`CROSSOVER` elements over
    every rank at once, as flat indices into the stacked arrays
    (:class:`_Stacked`); the larger ones of ``ranks`` stay views.
    ``gathers`` holds ``(array, shifts, index, at, count)``: the small
    check rows of every rank of one array riding one set of arguments
    (``shifts``, ``None`` when fixed: :meth:`_Stacked.shifts`) as one
    :func:`flat_row`.  ``scatter`` is ``(dest, src, shifts)``, the
    small stores: element ``src[i]`` of the flattened block goes to
    ``dest[i]``.
    """

    rhs: types.FunctionType
    views: tuple
    blocks: tuple
    bounds: tuple
    ranks: tuple
    advance: tuple
    sid: int
    lhs: str
    gathers: tuple = ()
    scatter: tuple | None = None
    elements: int = 0
    bcopy_calls: int = 0
    remote_reads: int = 0
    sections: int = 0

    def bind(self, storage: dict, flats: dict, shadow: dict):
        """The template over one run's rank ``storage``, its flattened
        stacked arrays ``flats`` (:func:`_flats`) and its ``shadow``
        arrays: a function firing it under the runtime arguments.

        A firing tests the bounds (raising ``PlanFallback`` before
        anything is written), computes the block, checks every rank's
        reads, stores every rank's share and advances the shadow.  All
        checks come before any store: a rank's store touches only its
        own storage, which no other rank's rows read, so the first
        failure is the same.  All rows — one gather per array and the
        wide rows' views — go through one :func:`verify`; only a failure
        walks them rank by rank, as views, to name it."""
        rhs, bounds, ranks = self.rhs, self.bounds, self.ranks
        views = tuple([
            shadow[array][index].transpose(perm).reshape(shape)
            for array, index, (perm, shape) in self.views
        ])
        blocks = tuple([
            (shadow[array], index, dims, perm, shape)
            for array, index, dims, (perm, shape) in self.blocks
        ])
        gathers = tuple([
            (*flats[array], index, at, shifts, count)
            for array, shifts, index, at, count in self.gathers
        ])
        fixed_wide, moving_wide, stores, moving_stores = [], [], [], []
        for rank, checks, (at, at_dims, part, stored) in ranks:
            per_rank = storage[rank]
            for array, fixed, moving in checks:
                store, truth = per_rank[array], shadow[array]
                fixed_wide += [
                    (store.valid[ix], store.values[ix], truth[ix], count)
                    for ix, count in fixed if count > CROSSOVER
                ]
                moving_wide += [
                    (store.valid, store.values, truth, count, ix, dims)
                    for ix, count, dims in moving if count > CROSSOVER
                ]
            if stored > CROSSOVER:
                store = per_rank[self.lhs]
                if at_dims:
                    moving_stores.append(
                        (store.values, store.valid, at, at_dims, part)
                    )
                else:
                    stores.append((store.values[at], store.valid[at], part))
        scatter = self.scatter
        if scatter is not None:
            scatter = (*flats[self.lhs][:2], *scatter)
        index, dims = self.advance
        shadow_lhs = shadow[self.lhs] if dims else shadow[self.lhs][index]
        message = self.message

        def fire(args) -> None:
            for arg, lo, hi, extent, array in bounds:
                at = args[arg]
                if not (1 <= at + lo and at + hi <= extent):
                    raise PlanFallback(f"subscript of {array} out of bounds")
            val = rhs(*args, *views, *[
                raw[moved(ix, ix_dims, args)].transpose(perm).reshape(shape)
                for raw, ix, ix_dims, perm, shape in blocks
            ])
            rows = []
            for valid, values, truth, ix, at, shifts, count in gathers:
                if shifts:
                    delta = _offset(shifts, args)
                    ix, at = ix + delta, at + delta
                rows.append(
                    (valid.take(ix), values.take(ix), truth.take(at), count)
                )
            rows += fixed_wide
            for valid, values, truth, count, ix, ix_dims in moving_wide:
                ix = moved(ix, ix_dims, args)
                rows.append((valid[ix], values[ix], truth[ix], count))
            if verify(rows):
                raise SimulationError(message(*first_fault(
                    _rank_rows(ranks, storage, shadow, args)
                )))
            if scatter is not None:
                valid, values, dest, src, shifts = scatter
                if shifts:
                    dest = dest + _offset(shifts, args)
                values[dest] = val.reshape(-1).take(src)
                valid[dest] = True
            for values, valid, part in stores:
                values[...] = val[part]
                valid[...] = True
            for values, valid, ix, ix_dims, part in moving_stores:
                ix = moved(ix, ix_dims, args)
                values[ix] = val[part]
                valid[ix] = True
            # Shadow advance, last: every check above compares against
            # the shadow as it was before the firing.
            shadow_lhs[moved(index, dims, args) if dims else ...] = val

        return fire

    def message(self, fault: int, key: tuple) -> str:
        rank, array = key
        if fault == INVALID:
            return (
                f"read of {array} at s{self.sid}: elements not present "
                f"on rank {rank} (missing or misplaced communication)"
            )
        return (
            f"rank {rank} read stale {array} at s{self.sid}: rank data "
            f"disagrees with the sequential semantics"
        )


def _rank_rows(ranks: tuple, storage: dict, shadow: dict, args):
    """A nest template's check rows as views, ``((rank, array), rows)``
    rank by rank and array by array: the walk :func:`first_fault` takes
    after a failed firing."""
    for rank, groups, _ in ranks:
        per_rank = storage[rank]
        for array, fixed, moving in groups:
            store, truth = per_rank[array], shadow[array]
            rows = [
                (store.valid[ix], store.values[ix], truth[ix], count)
                for ix, count in fixed
            ]
            for ix, count, dims in moving:
                ix = moved(ix, dims, args)
                rows.append((store.valid[ix], store.values[ix], truth[ix],
                             count))
            yield (rank, array), rows


def _stays_view(t, count: int) -> bool:
    """Whether transfer ``t`` of ``count`` source elements is copied
    view to view rather than through its array's gather: unmasked and
    above :data:`CROSSOVER`."""
    return t.mask is None and count > CROSSOVER


@dataclass
class CopyTemplate:
    """A CommPlan's direct-copy template: ``runs`` splits the plan's
    transfers, in order, into runs of one phase.  A run is
    ``(transfers, gathers)``: each transfer with the number of elements
    its source must hold (the masked ones for a diagonal transfer), and
    per array and number of remote destinations ``k`` one ``(array,
    src, at, moves, counts, count)`` — the ``count`` source elements of
    every transfer that does not stay a view (:func:`_stays_view`),
    masks folded in, as one :func:`flat_row`, and per transfer its
    element count and the ``k`` offsets from its source's positions to
    its destinations' (``None`` for ``k == 0``)."""

    runs: tuple
    bcopy_calls: int = 0
    sections: int = 0

    @classmethod
    def of(cls, plan: CommPlan, info, nranks: int) -> "CopyTemplate":
        stacked = _Stacked(info, nranks, None)
        runs: list[list] = []
        for t in plan.transfers:
            if not runs or runs[-1][-1][0].phase != t.phase:
                runs.append([])
            runs[-1].append(
                (t, t.region.count() if t.mask is None else int(t.mask.sum()))
            )
        return cls(
            runs=tuple(_copy_run(run, stacked) for run in runs),
            bcopy_calls=sum(1 + len(t.dsts) for t in plan.transfers),
            sections=len(plan.transfers),
        )

    def bind(self, storage: dict, flats: dict, shadow: dict) -> tuple:
        """Per run of one phase ``(transfers, gathers, wide)`` over one
        run's storage: the gathers with their flattened arrays and
        destinations, each view transfer's source check row with the
        destination views it fills."""
        runs = []
        for transfers, gathers in self.runs:
            wide = []
            for t, count in transfers:
                if not _stays_view(t, count):
                    continue
                ix, array = t.index, t.array
                src = storage[t.src][array]
                wide.append(((
                    src.valid[ix], src.values[ix], shadow[array][ix], count,
                ), tuple([
                    (storage[dst][array].values[ix],
                     storage[dst][array].valid[ix])
                    for dst in t.dsts if dst != t.src
                ])))
            runs.append((transfers, tuple([
                (*flats[array], src, at,
                 None if moves is None
                 else src + np.repeat(moves, counts, axis=1),
                 count)
                for array, src, at, moves, counts, count in gathers
            ]), tuple(wide)))
        return tuple(runs)


def _copy_run(run: list, stacked: _Stacked) -> tuple:
    """One phase's transfers as ``(transfers, gathers)``.  A transfer
    delivers nothing to its own source (the element is already there,
    checked), so only remote destinations are scattered to."""
    by_array: dict[tuple, list] = {}
    for t, count in run:
        if _stays_view(t, count):
            continue
        size = stacked.size(t.array)
        at = stacked.at(t.src, t.array, t.index)
        by_array.setdefault(
            (t.array, len(t.dsts) - (t.src in t.dsts)), []
        ).append((
            at.reshape(-1) if t.mask is None else at[t.mask],
            [(dst - t.src) * size for dst in t.dsts if dst != t.src],
        ))
    gathers = []
    for (array, k), items in by_array.items():
        src, at = flat_row(
            np.concatenate([at for at, _ in items]), stacked.size(array)
        )
        moves = counts = None
        if k:
            moves = np.array([offsets for _, offsets in items]).T
            counts = np.array([len(at) for at, _ in items])
        gathers.append((array, src, at, moves, counts, len(src)))
    return tuple(run), tuple(gathers)


def _transfer_row(storage: dict, shadow: dict, t, count: int) -> tuple:
    """Transfer ``t``'s source check row as views: what
    :func:`first_fault` walks after a failed run."""
    src = storage[t.src][t.array]
    views = (src.valid[t.index], src.values[t.index], shadow[t.array][t.index])
    if t.mask is not None:
        views = tuple(view[t.mask] for view in views)
    return (*views, count)


def run_copy(runs: tuple, storage: dict, shadow: dict) -> None:
    """One CommPlan on the direct-copy path: per run of one phase,
    verify every source, then install every transfer.  Phases keep
    their order (a later phase may forward what an earlier one
    delivered); within one, no transfer reads what another delivers —
    the transports send a phase as one round on the same premise — so
    the first failure is the one a transfer-by-transfer walk meets,
    rank by rank over views of ``storage`` and ``shadow``."""
    for transfers, gathers, wide in runs:
        rows = [
            (valid.take(src), values.take(src), truth.take(at), count)
            for valid, values, truth, src, at, _, count in gathers
        ]
        rows += [row for row, _ in wide]
        if verify(rows):
            raise SimulationError(copy_message(*first_fault(
                (t, (_transfer_row(storage, shadow, t, count),))
                for t, count in transfers
            )))
        for (valid, values, _, _, _, dst, _), row in zip(gathers, rows):
            if dst is not None:
                values[dst] = row[1]
                valid[dst] = True
        for (_, data, _, _), installs in wide:
            for values, valid in installs:
                values[...] = data
                valid[...] = True


def copy_message(fault: int, t) -> str:
    """The failure of transfer ``t``'s source check, in words."""
    if t.mask is not None:
        if fault == INVALID:
            return (
                f"diagonal forwarding of {t.array}: source rank "
                f"{t.src} missing forwarded data"
            )
        return f"stale data shipped for {t.array} (diagonal phase)"
    if fault == INVALID:
        return f"extracting invalid data from {t.array} {t.region}"
    return (
        f"stale data shipped for {t.array} {t.region}: sender holds "
        f"values that disagree with the sequential semantics"
    )


class KernelEngine:
    """Dispatches kernel templates for one :class:`SPMDExecutor`:
    templates come from (and on a miss go into) the executor's image,
    the bound rows are this run's.

    :meth:`try_exec_nest` returns ``True`` when the nest ran as a kernel
    and ``False`` when the caller must run it element-wise: the nest is
    kernel-ineligible (reason in :attr:`ineligible`) or a runtime offset
    could not be bound.  Each ``False`` counts one ``fallback_firings``.
    """

    def __init__(self, executor) -> None:
        # The run's parts, not the executor: a reference back would tie
        # executor, storage and bound kernels into a cycle only the
        # cyclic collector frees, and rank storage is the bulk of a run.
        self.image = image = executor.image
        self.info = image.info
        self.stats = executor.stats
        self.storage = executor.storage
        self.shadow = executor.shadow
        self.flats = _flats(executor.stacks, executor.shadow.arrays)
        self.specs: dict[int, NestSpec] = image.kernel_specs
        #: assign sid -> why the nest cannot take the kernel path
        self.ineligible: dict[int, str] = image.kernel_ineligible
        self._nest_runs: dict[tuple, tuple] = {}
        self._copy_rows: dict[tuple, tuple] = {}

    # -- nest kernels ------------------------------------------------------

    def try_exec_nest(self, plan: NestPlan, env: dict) -> bool:
        """Fire ``plan`` under the enclosing loop environment ``env``."""
        stats = self.stats
        image = self.image
        spec, _ = image.publish(
            self.specs, plan.outer_sid,
            lambda: analyze_kernel_spec(plan, self.info),
        )
        if spec.reason is not None:
            self.ineligible[plan.assign.sid] = spec.reason
            stats.fallback_firings += 1
            return False

        axes = []
        try:
            for lo, hi, step in plan.bounds:
                lo_v = lo.evaluate(env)
                count = max(0, (hi.evaluate(env) - lo_v) // step + 1)
                if count == 0:
                    return True  # empty iteration space: nothing to do
                axes.append((lo_v, step, count))
            args = [int(a.evaluate(env)) for a in spec.dyn_args]
        except NonAffineError:
            stats.fallback_firings += 1
            return False
        args.extend(
            float(self.shadow._lookup(name)) for name in spec.scal_args
        )

        key = (plan.outer_sid, tuple(axes))
        bound = self._nest_runs.get(key)
        built = False
        if bound is None:
            t0 = time.perf_counter()
            try:
                kern, built = image.publish(
                    image.nest_templates, key,
                    lambda: self._build_nest(spec, env),
                )
                bound = self._nest_runs[key] = (kern, kern.bind(
                    self.storage, self.flats, self.shadow.arrays
                ))
            except PlanFallback:
                stats.fallback_firings += 1
                return False
            finally:
                stats.plan_compile_s += time.perf_counter() - t0
        if built:
            stats.kernel_compiles += 1
        else:
            stats.kernel_cache_hits += 1

        kern, fire = bound
        try:
            fire(args)
        except PlanFallback:
            # a runtime offset stepped out of bounds: the element-wise
            # path is the one that can report the precise iteration
            stats.fallback_firings += 1
            return False
        stats.kernel_firings += 1
        stats.vectorized_firings += 1
        stats.elements_written += kern.elements
        stats.bcopy_calls += kern.bcopy_calls
        stats.remote_reads += kern.remote_reads
        stats.sections_verified += kern.sections
        return True

    # -- nest template construction ---------------------------------------

    def _build_nest(self, spec: NestSpec, env: dict) -> NestTemplate:
        """Build the rows of one nest geometry and compile its
        rank-independent RHS.  Reads the building run's shadow arrays
        only to prove layout facts every run shares (same shapes, same C
        order); nothing of the run ends up in the template."""
        info = self.info
        image = self.image
        planner = image.planner
        plan = spec.plan
        conc = concretize_nest(plan, env, info)
        assert conc is not None  # caller proved counts > 0
        full = conc.full_box()
        name = conc.lhs.name
        layout = info.layout(name)
        # Indices that ride runtime arguments are kept relative to them.
        at_build = [int(a.evaluate(env)) for a in spec.dyn_args]
        origin = [-arg for arg in at_build]
        dims_of = spec.dyn_dims.get
        stacked = _Stacked(info, len(image.ranks), at_build)

        # Runtime-offset bounds, one test per distinct form.
        bounds: dict[tuple, None] = {}
        refs = [("lhs", 0, plan.lhs), *(
            ("rhs", rid, rp) for rid, rp in plan.rhs_refs.items()
        )]
        for kind, rid, rp in refs:
            extents = info.shape(rp.name)
            for d, arg in dims_of((kind, rid), ()):
                sp = rp.subs[d]
                lo = hi = 0
                if sp.var is not None:
                    lo_v, step, count = conc.axes[plan.vars.index(sp.var)]
                    lo = sp.coeff * lo_v
                    hi = lo + sp.coeff * step * (count - 1)
                bounds[arg, lo, hi, extents[d], rp.name] = None

        # RHS reference blocks: prebound aligned shadow views when fixed,
        # sliced per firing and passed in when they ride the arguments.
        views: list[tuple] = []
        blocks: list[tuple] = []
        fixed_refs: list[int] = []
        moving_refs: list[int] = []
        for j, (rid, cref) in enumerate(conc.refs.items()):
            shadow_arr = self.shadow.arrays[cref.name]
            idx = ref_np_index(cref, full)
            align = block_alignment(cref, full)
            dims = dims_of(("rhs", rid), ())
            # A prebound block must be a live view of the shadow array
            # (reshape inserting size-1 axes never copies, but don't let
            # that assumption fail silently).
            if not dims and np.shares_memory(
                shadow_arr[idx].transpose(align[0]).reshape(align[1]),
                shadow_arr,
            ):
                fixed_refs.append(j)
                views.append((cref.name, idx, align))
            else:
                moving_refs.append(j)
                blocks.append(
                    (cref.name, moved(idx, dims, origin), dims, align)
                )
        rhs = compile_fn(
            rhs_source(spec, conc, fixed_refs + moving_refs),
            f"s{plan.assign.sid}",
            {"_np": np, **{
                f"_ax{axis}": var_axis_block(conc, axis, full)
                for axis in range(len(plan.vars))
            }},
        )

        lhs_dims = dims_of(("lhs", 0), ())
        lhs_axes = [d[1] for d in conc.lhs.dims if d[0] == "a"]
        # The block's elements, numbered in LHS order: what each store
        # takes from it.
        block = positions(tuple(conc.shape[a] for a in lhs_axes))
        remote_reads = 0
        sections = 0
        ranks: list[tuple] = []
        gathers: dict[tuple, list] = {}
        dests: list[np.ndarray] = []
        srcs: list[np.ndarray] = []
        for gr in image.ranks:
            if layout.distributed_dims:
                kbox = rank_kbox(conc, image.owned[gr.rank, name])
                if kbox is None:
                    continue
                # The rank's share of the block, in LHS order.
                part = tuple(
                    slice(k0, k0 + kstep * (kcount - 1) + 1, kstep)
                    for k0, kstep, kcount in (kbox[a] for a in lhs_axes)
                )
            else:
                kbox, part = full, ...
            # Cover, then check.  Per array read and per set of runtime
            # arguments its references ride: the fewest sections that
            # hold exactly their elements.  References riding the same
            # arguments translate rigidly, so their cover is one for
            # every firing, moved with the arguments.
            reads: dict[str, dict[tuple, list]] = {}
            for rid, cref in conc.refs.items():
                region = ref_region(cref, kbox)
                reads.setdefault(cref.name, {}).setdefault(
                    dims_of(("rhs", rid), ()), []
                ).append(region)
                # movement accounting, hoisted to build time: regions on
                # dynamic (serial, in-bounds) dims translate rigidly, so
                # the local/remote split is firing-invariant.
                owned = planner.owner_semantics_region(cref.name, gr)
                local = (
                    region.intersect(owned).count() if owned is not None
                    else 0
                )
                repeat = 1
                for axis, (_, _, kcount) in enumerate(kbox):
                    if axis not in cref.axes:
                        repeat *= kcount
                remote_reads += (region.count() - local) * repeat
            checks = []
            for array, by_dims in reads.items():
                fixed, moving = [], []
                for dims, regions in by_dims.items():
                    for section in cover(regions):
                        index, count = np_index(section), section.count()
                        if count <= CROSSOVER:
                            gathers.setdefault((array, dims), []).append(
                                stacked.at(gr.rank, array, index)
                                .reshape(-1)
                            )
                        if dims:
                            moving.append(
                                (moved(index, dims, origin), count, dims)
                            )
                        else:
                            fixed.append((index, count))
                sections += len(fixed) + len(moving)
                checks.append((array, tuple(fixed), tuple(moving)))
            index = ref_np_index(conc.lhs, kbox)
            rel = moved(index, lhs_dims, origin)
            dest = stacked.at(gr.rank, name, index)
            if dest.size <= CROSSOVER:
                dests.append(dest.reshape(-1))
                srcs.append(np.broadcast_to(block[part], dest.shape).reshape(-1))
            ranks.append(
                (gr.rank, tuple(checks), (rel, lhs_dims, part, dest.size))
            )

        return NestTemplate(
            rhs=rhs,
            views=tuple(views),
            blocks=tuple(blocks),
            bounds=tuple(bounds),
            ranks=tuple(ranks),
            gathers=tuple(
                (array, stacked.shifts(array, dims), *flat_row(
                    np.concatenate(rows), stacked.size(array)
                ), sum(len(row) for row in rows))
                for (array, dims), rows in gathers.items()
            ),
            scatter=(
                shared(np.concatenate(dests)), shared(np.concatenate(srcs)),
                stacked.shifts(name, lhs_dims),
            ) if dests else None,
            advance=(
                moved(ref_np_index(conc.lhs, full), lhs_dims, origin),
                lhs_dims,
            ),
            sid=plan.assign.sid,
            lhs=name,
            elements=math.prod(conc.shape),
            bcopy_calls=len(ranks),
            remote_reads=remote_reads,
            sections=sections,
        )

    # -- communication copy templates --------------------------------------

    def execute_plan_copy(self, key: tuple, plan: CommPlan) -> None:
        """Run one CommPlan on the direct-copy data path from its bound
        rows (validity + staleness + view-to-view installs, no
        intermediate block copies).  ``key`` is the plan's key in the
        image's table: it names this run's binding of the plan's copy
        template."""
        stats = self.stats
        bound = self._copy_rows.get(key)
        built = False
        if bound is None:
            t0 = time.perf_counter()
            kern = plan.copy
            if kern is None:
                with self.image.lock:
                    kern = plan.copy
                    if kern is None:
                        kern = plan.copy = CopyTemplate.of(
                            plan, self.info, len(self.image.ranks)
                        )
                        built = True
            bound = self._copy_rows[key] = (kern, kern.bind(
                self.storage, self.flats, self.shadow.arrays
            ))
            stats.plan_compile_s += time.perf_counter() - t0
        if built:
            stats.kernel_compiles += 1
        else:
            stats.kernel_cache_hits += 1
        kern, runs = bound
        run_copy(runs, self.storage, self.shadow.arrays)
        stats.kernel_firings += 1
        stats.bcopy_calls += kern.bcopy_calls
        stats.sections_verified += kern.sections
        stats.messages += len(plan.wire_pairs)
        stats.bytes_moved += plan.wire_bytes
