"""Per-rank kernel execution for the SPMD runtime: a kernel is a table.

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
  transfers with their element counts, bound to rows of source, shadow
  and destination views and run by :func:`run_copy`: storage to storage,
  nothing compiled.

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
from .darray import count_nonzero, fresh, np_index
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

__all__ = ["CopyTemplate", "KernelEngine", "NestTemplate", "moved", "verify"]

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
    runtime arguments.  ``store`` is ``(index, dims, part)``: the LHS
    region and the index of the block, in LHS order, that fills it.
    ``advance`` is the shadow's ``(index, dims)`` of the LHS.  An index
    with ``dims`` is relative to the runtime arguments and moves with
    the ``(dim, arg)`` pairs ``dims`` names (:func:`moved`); ``dims`` is
    empty for an index fixed at build time.  The accounting constants
    are firing-invariant and counted once, at build time — ``sections``
    is the number of check rows.
    """

    rhs: types.FunctionType
    views: tuple
    blocks: tuple
    bounds: tuple
    ranks: tuple
    advance: tuple
    sid: int
    lhs: str
    elements: int = 0
    bcopy_calls: int = 0
    remote_reads: int = 0
    sections: int = 0

    def bind(self, storage: dict, shadow: dict):
        """The template over one run's rank ``storage`` and ``shadow``
        arrays: a function firing it under the runtime arguments.

        A firing tests the bounds (raising ``PlanFallback`` before
        anything is written), computes the block, checks every rank's
        reads, stores every rank's share and advances the shadow.  All
        checks come before any store: a rank's store touches only its
        own storage, which no other rank's rows read, so the first
        failure is the same.  All rows go through one :func:`verify`;
        only a failure walks them group by group to name it."""
        rhs, bounds = self.rhs, self.bounds
        views = tuple([
            shadow[array][index].transpose(perm).reshape(shape)
            for array, index, (perm, shape) in self.views
        ])
        blocks = tuple([
            (shadow[array], index, dims, perm, shape)
            for array, index, dims, (perm, shape) in self.blocks
        ])
        checks, moving, stores, moving_stores = [], [], [], []
        for rank, groups, (index, dims, part) in self.ranks:
            per_rank = storage[rank]
            for array, fixed, more in groups:
                store, truth = per_rank[array], shadow[array]
                valid, values = store.valid, store.values
                checks.append(((rank, array), tuple([
                    (valid[ix], values[ix], truth[ix], count)
                    for ix, count in fixed
                ])))
                moving.append(tuple([
                    (valid, values, truth, count, ix, ix_dims)
                    for ix, count, ix_dims in more
                ]))
            store = per_rank[self.lhs]
            if dims:
                moving_stores.append(
                    (store.values, store.valid, index, dims, part)
                )
            else:
                stores.append((store.values[index], store.valid[index], part))
        rows = tuple([row for _, fixed in checks for row in fixed])
        if not any(moving):
            moving = None
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
            test = rows
            if moving is not None:
                moved_rows = [_moved_rows(more, args) for more in moving]
                test += tuple([row for more in moved_rows for row in more])
            if verify(test):
                groups = checks
                if moving is not None:
                    groups = [
                        (key, fixed + more)
                        for (key, fixed), more in zip(checks, moved_rows)
                    ]
                raise SimulationError(message(*first_fault(groups)))
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


def _moved_rows(rows: tuple, args) -> tuple:
    """Check rows over whole arrays, ``(valid, values, truth, count,
    index, dims)``, as rows over this firing's sections."""
    out = []
    for valid, values, truth, count, index, dims in rows:
        ix = moved(index, dims, args)
        out.append((valid[ix], values[ix], truth[ix], count))
    return tuple(out)


@dataclass
class CopyTemplate:
    """A CommPlan's direct-copy template: ``runs`` splits the plan's
    transfers, in order, into runs of one phase, each transfer with the
    number of elements its source must hold (the masked ones for a
    diagonal transfer)."""

    runs: tuple
    bcopy_calls: int = 0
    sections: int = 0

    @classmethod
    def of(cls, plan: CommPlan) -> "CopyTemplate":
        runs: list[list] = []
        for t in plan.transfers:
            if not runs or runs[-1][-1][0].phase != t.phase:
                runs.append([])
            runs[-1].append(
                (t, t.region.count() if t.mask is None else int(t.mask.sum()))
            )
        return cls(
            runs=tuple(tuple(run) for run in runs),
            bcopy_calls=sum(1 + len(t.dsts) for t in plan.transfers),
            sections=len(plan.transfers),
        )

    def bind(self, storage: dict, shadow: dict) -> tuple:
        """Per run of one phase ``(transfers, rows, installs, masked)``:
        each transfer's source check row, each ``(values, valid, data,
        mask)`` a destination takes, and whether any row needs a mask."""
        runs = []
        for run in self.runs:
            transfers, rows, installs = [], [], []
            for t, count in run:
                ix, array, mask = t.index, t.array, t.mask
                src = storage[t.src][array]
                data = src.values[ix]
                transfers.append(t)
                rows.append((src.valid[ix], data, shadow[array][ix], count))
                for dst in t.dsts:
                    store = storage[dst][array]
                    installs.append(
                        (store.values[ix], store.valid[ix], data, mask)
                    )
            runs.append((
                tuple(transfers), tuple(rows), tuple(installs),
                any(t.mask is not None for t in transfers),
            ))
        return tuple(runs)


def run_copy(runs: tuple) -> None:
    """One CommPlan on the direct-copy path: per run of one phase,
    verify every source, then install every transfer.  Phases keep
    their order (a later phase may forward what an earlier one
    delivered); within one, no transfer reads what another delivers —
    the transports send a phase as one round on the same premise — so
    the first failure is the one a transfer-by-transfer walk meets."""
    for transfers, rows, installs, masked in runs:
        if masked:  # a diagonal transfer checks only what it ships
            rows = tuple([
                row if t.mask is None else (
                    *(view[t.mask] for view in row[:3]), row[3]
                )
                for t, row in zip(transfers, rows)
            ])
        if verify(rows):
            raise SimulationError(copy_message(*first_fault(
                (t, (row,)) for t, row in zip(transfers, rows)
            )))
        for values, valid, data, mask in installs:
            if mask is None:
                values[...] = data
                valid[...] = True
            else:
                values[mask] = data[mask]
                valid[mask] = True


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
                bound = self._nest_runs[key] = (
                    kern, kern.bind(self.storage, self.shadow.arrays)
                )
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
        origin = [-int(a.evaluate(env)) for a in spec.dyn_args]
        dims_of = spec.dyn_dims.get

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
        remote_reads = 0
        sections = 0
        ranks: list[tuple] = []
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
                rown = image.ownership[cref.name]
                owned = planner.owner_semantics_region(
                    info.layout(cref.name), rown, gr
                )
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
                        if dims:
                            moving.append(
                                (moved(index, dims, origin), count, dims)
                            )
                        else:
                            fixed.append((index, count))
                sections += len(fixed) + len(moving)
                checks.append((array, tuple(fixed), tuple(moving)))
            index = moved(ref_np_index(conc.lhs, kbox), lhs_dims, origin)
            ranks.append((gr.rank, tuple(checks), (index, lhs_dims, part)))

        return NestTemplate(
            rhs=rhs,
            views=tuple(views),
            blocks=tuple(blocks),
            bounds=tuple(bounds),
            ranks=tuple(ranks),
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
                        kern = plan.copy = CopyTemplate.of(plan)
                        built = True
            bound = self._copy_rows[key] = (
                kern, kern.bind(self.storage, self.shadow.arrays)
            )
            stats.plan_compile_s += time.perf_counter() - t0
        if built:
            stats.kernel_compiles += 1
        else:
            stats.kernel_cache_hits += 1
        kern, rows = bound
        run_copy(rows)
        stats.kernel_firings += 1
        stats.bcopy_calls += kern.bcopy_calls
        stats.sections_verified += kern.sections
        stats.messages += len(plan.wire_pairs)
        stats.bytes_moved += plan.wire_bytes
