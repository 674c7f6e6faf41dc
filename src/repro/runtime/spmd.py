"""SPMD execution of compiled programs on simulated processor ranks.

This is the strongest end-to-end validation in the repository: the
compiled program — owner-computes iteration split plus the placed
communication schedule — runs on P simulated processors, each holding
only the data it owns plus whatever communication delivered, and must
produce exactly the same final arrays as the sequential F90 semantics.

Faithfulness points:

* each rank stores owned regions plus halo/buffer data behind a validity
  mask; reading an element no message delivered is an immediate error
  (the paper's miscompiled-placement failure mode);
* nearest-neighbour messages fill only the overlap band between a rank
  and its partner in the shift direction (paper §4.8's overlap regions) —
  a shift cannot masquerade as a broadcast; diagonal shifts travel as
  sequential *augmented* axis exchanges whose second phase forwards the
  corner data the first delivered (pHPF's coalescing, paper §2.2);
* every delivered or read value is cross-checked against a sequentially
  executed shadow state, so *stale* (correct-shape, wrong-time) data is
  detected too;
* reductions compute per-rank partials over owned elements only, then
  combine — the paper's §6.2 inverted communication structure.

Inspect once, execute many: everything about executing a compiled
program that depends on neither a run's storage nor its data seed — the
lowered schedule, nest plans, communication plans with their transport
lowerings, kernel templates — lives in an :class:`ExecutionImage` owned
by the :class:`~repro.core.pipeline.CompilationResult`.  The first
executor of a result builds it (lazily, as the run reaches each
operation); every later one, on any backend, only binds it to fresh
storage.

Execution is plan-compiled (:mod:`repro.runtime.plans`): scalarized loop
nests the vectorizer proves rectangular run as fused kernels
(:mod:`repro.runtime.kernels`) — the per-element validity, staleness, and
remote-read accounting collapses into bulk mask/equality checks over the
same regions, every rank's at once over the stacked storage — and each
communication firing executes a cached
:class:`~repro.runtime.plans.CommPlan` of flat slice copies instead of
re-deriving partners and overlap regions.  Everything else — statements
the vectorizer declines, nests the kernel engine finds ineligible, and
every statement when ``vectorize=False`` — takes the element-wise path,
so the two modes are mutually checking; the equivalence suite asserts
bitwise-identical final state.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..codegen.spmd import ScheduledProgram, lower_schedule
from ..comm.entries import CommEntry
from ..comm.patterns import ReductionMapping
from ..core.pipeline import CompilationResult
from ..cost.lower_bound import reduction_tree_messages
from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..perf.stats import RuntimeStats
from ..sections.rsd import RSD, DimSection
from ..transport import (
    DeadlockError,
    RankCrashError,
    RuntimeDegradationEvent,
    TransportError,
    make_transport,
)
from ..transport.base import combine_pieces
from ..transport.lowering import (
    LoweredComm,
    independent_runs,
    lower_comm,
    lower_reduction,
    merge_lowered,
    tree_sizes,
)
from .darray import GridRank, Ownership, RankStorage, grid_ranks
from .darray import all_valid, fresh, np_index  # the freshness idiom
from .interp import Interpreter
from .kernels import KernelEngine, owned_rows
from .plans import (
    CommPlan,
    CommPlanner,
    NestPlan,
    plan_nests,
    send_once,
    translate_plan,
)


def _placed_key(result: CompilationResult) -> tuple:
    """What a schedule lowering reads from ``result.placed``: tests and
    fault-injection harnesses edit that list in place, and an image
    built before such an edit must not outlive it."""
    return tuple(
        (op.position, tuple(entry.id for entry in op.entries))
        for op in result.placed
    )


class ExecutionImage:
    """The inspector half of executing one compiled program.

    Holds what is a function of the program alone: the lowered schedule,
    the rank grid with its ownership tables and planner, the nest plans
    with their fallback reasons, the CommPlan table (each plan carrying
    its transport lowerings and copy-kernel template), the kernel specs
    and nest-kernel templates, and the geometry of each distinct firing
    (:attr:`firings`: which plan keys an anchor fires under given loop
    variable values; :attr:`reduction_pieces`: how a concrete reduction
    section splits over the ranks).  Holds no rank storage, shadow
    array, transport, thread or process, and nothing that depends on the
    data seed — so any number of executors, one after another or
    concurrently, on any backend, share one image.

    Tables fill as runs reach their keys and entries are never replaced:
    a miss builds under :attr:`lock` and publishes (:meth:`publish`), a
    hit reads without it.  The image is reachable only through the
    result it was built from and keeps what it reads of that result,
    never the result itself, so reference counting frees the two
    together.
    """

    def __init__(self, result: CompilationResult) -> None:
        info = self.info = result.info
        self.placed_key = _placed_key(result)
        self.schedule: ScheduledProgram = lower_schedule(result)
        grids = {
            layout.grid for layout in info.layouts.values()
            if layout.distributed_dims
        }
        if len(grids) > 1:
            raise SimulationError(
                "SPMD execution supports a single processor grid per program"
            )
        self.grid = grids.pop() if grids else info.default_grid
        self.ranks: list[GridRank] = grid_ranks(self.grid.shape)
        self.ownership = {
            name: Ownership(layout) for name, layout in info.layouts.items()
        }
        self.planner = CommPlanner(
            info, self.grid, self.ranks, self.ownership
        )
        self.owned = self.planner.owned
        #: (rank, array) -> the numpy index of the rank's owned region
        self.owned_index = {
            key: np_index(region) for key, region in self.owned.items()
        }
        #: array -> its owned regions over its stacked pair, a flat
        #: index and the ranks whose region stays a view
        #: (:func:`~repro.runtime.kernels.owned_rows`).
        self.owned_flat = {
            name: owned_rows(self.ranks, self.owned_index, name, layout.shape)
            for name, layout in info.layouts.items()
        }
        self.lock = threading.Lock()
        #: (grid shape, anchor, slot at the anchor, sections) -> CommPlan.
        #: The grid shape is part of the key: a plan's ranks, partners and
        #: overlap regions are all grid-relative.
        self.comm_plans: dict[tuple, CommPlan] = {}
        #: canonical (rank-relative) plans: key -> (plan, offsets).
        #: Sections differing only in serial-dimension origins share one
        #: compiled plan, served by translation (gravity's per-iteration
        #: sections otherwise defeat the exact-tuple table).
        self.canon_plans: dict[tuple, tuple[CommPlan, tuple]] = {}
        #: None until the first vectorizing executor asks (nest_tables).
        self.nest_plans: "dict[int, NestPlan] | None" = None
        self.fallback_reasons: dict[int, str] = {}
        self.kernel_specs: dict = {}
        self.kernel_ineligible: dict[int, str] = {}
        #: (nest sid, loop geometry) -> NestTemplate
        self.nest_templates: dict[tuple, object] = {}
        #: (anchor, enclosing loop variables' values) -> the CommPlan key
        #: of each op firing there: a firing's geometry, derived once.
        self.firings: dict[tuple, tuple] = {}
        #: the CommPlan keys of a firing -> its wire operations: per run
        #: of mutually independent ops their merged lowering and the
        #: members' summed plan messages and bytes.
        self.wire_firings: dict[tuple, tuple] = {}
        #: (statement sid, reduction ordinal, concrete section) -> the
        #: (rank, owned piece, numpy index) triples that reduction reads.
        self.reduction_pieces: dict[tuple, tuple] = {}
        #: id(``Reduction.arg``) -> index of the placed reduction op that
        #: covers it: the members of one op share one tree operation.
        self.reduction_group: dict[int, int] = {
            id(entry.use.ref): index
            for index, op in enumerate(result.placed)
            for entry in op.entries
            if entry.is_reduction
        }

    def publish(self, table: dict, key, build) -> tuple:
        """``table[key]``, built by ``build()`` under the lock when
        absent; returns ``(value, built)``.  An exception from ``build``
        publishes nothing."""
        value = table.get(key)
        if value is not None:
            return value, False
        with self.lock:
            value = table.get(key)
            if value is not None:
                return value, False
            value = table[key] = build()
            return value, True

    def nest_tables(
        self, stats: RuntimeStats
    ) -> tuple[dict[int, NestPlan], dict[int, str]]:
        """Nest plans and fallback reasons, planned on first request
        (the time goes to the requesting run's ``plan_compile_s``)."""
        if self.nest_plans is None:
            with self.lock:
                if self.nest_plans is None:
                    t0 = time.perf_counter()
                    plans, self.fallback_reasons = plan_nests(
                        self.info, self.info.program.body
                    )
                    anchored = set(self.schedule.anchors)
                    kept: dict[int, NestPlan] = {}
                    for sid, plan in plans.items():
                        if _nest_has_interior_comm(plan, anchored):
                            self.fallback_reasons[plan.assign.sid] = (
                                "communication anchored inside the nest"
                            )
                        else:
                            kept[sid] = plan
                    self.nest_plans = kept
                    stats.plan_compile_s += time.perf_counter() - t0
        return self.nest_plans, self.fallback_reasons


def _nest_has_interior_comm(plan: NestPlan, anchors: set) -> bool:
    """A communication firing at the loop top or anywhere inside the
    nest forces per-iteration execution."""
    for anchor in anchors:
        if len(anchor) < 2:
            continue
        kind, sid = anchor
        if sid in plan.interior_sids:
            return True
        if kind == "loop_top" and sid == plan.outer_sid:
            return True
    return False


def execution_image(result: CompilationResult) -> ExecutionImage:
    """The image of ``result``, built on first use and kept on it."""
    image = result.execution_image
    if image is None or image.placed_key != _placed_key(result):
        # Two first executors racing here each build an image and the
        # later assignment wins; both images are complete, so the loser
        # merely runs unshared.
        image = result.execution_image = ExecutionImage(result)
    return image


def _check_receipt(receipt, predicted_pairs: dict,
                   predicted_msgs: dict) -> None:
    """The wire-level cross-check: what one operation measured on the
    wire, per (src, dst) pair, must equal what its lowering predicted."""
    for what, measured, predicted in (
        ("bytes", receipt.pair_bytes, predicted_pairs),
        ("messages", receipt.pair_msgs, predicted_msgs),
    ):
        if measured != predicted:
            raise TransportError(
                f"wire accounting mismatch ({receipt.algorithm}): "
                f"measured per-pair {what} {measured} != "
                f"predicted {predicted}"
            )


class SPMDExecutor:
    """One run of a compiled program on simulated ranks: the result's
    :class:`ExecutionImage` bound to this run's rank storage, shadow
    interpreter, transport and counters."""

    def __init__(
        self,
        result: CompilationResult,
        seed: int = 12345,
        vectorize: bool = True,
        transport: "str | None" = None,
        watchdog_s: float = 30.0,
        chaos=None,
        max_rank_restarts: "int | None" = None,
    ) -> None:
        self.result = result
        self.info = result.info
        self.stats = RuntimeStats()
        self.vectorize = vectorize

        # Everything that can refuse the request comes before anything
        # that starts a rank.
        image = self.image = execution_image(result)
        self.schedule = image.schedule
        self.grid = image.grid
        self.ranks = image.ranks
        self.ownership = image.ownership
        self.planner = image.planner
        self._comm_plans = image.comm_plans
        self.nest_plans: dict[int, NestPlan] = {}
        self.fallback_reasons: dict[int, str] = {}
        if vectorize:
            self.nest_plans, self.fallback_reasons = image.nest_tables(
                self.stats
            )

        # Optional message-passing backend.  None keeps the legacy
        # direct-copy data path byte for byte.  ``chaos`` (a FaultPlan
        # or --chaos-spec string) arms deterministic fault injection.
        self.transport = make_transport(
            transport, len(self.ranks), watchdog_s=watchdog_s,
            chaos=chaos, max_rank_restarts=max_rank_restarts,
        )
        self.wire = self.transport.stats if self.transport else None
        try:
            self._bind(seed)
            self.kernels = KernelEngine(self) if vectorize else None
        except BaseException:
            self.close()
            raise

    def _bind(self, seed: int) -> None:
        """This run's state: the sequential shadow (the ground truth
        every delivered value is checked against) and each array's
        stacked storage (:attr:`stacks`), every rank holding its owned
        regions of the initial arrays; :attr:`storage` is rank ``r``'s
        ``[r]`` views of it."""
        self.shadow = Interpreter(self.info, seed)
        init = self.shadow.arrays  # still the initial state; install copies
        specs = [
            (name, layout.shape) for name, layout in self.info.layouts.items()
        ]
        nranks = len(self.ranks)
        if self.transport is not None:
            self.stacks = self.transport.create_storage(specs)
        else:
            self.stacks = {
                name: (
                    np.zeros((nranks, *shape)),
                    np.zeros((nranks, *shape), dtype=bool),
                )
                for name, shape in specs
            }
        for name, (values, valid) in self.stacks.items():
            flat, wide = self.image.owned_flat[name]
            if flat is not None:
                flat, at = flat
                values.reshape(-1)[flat] = init[name].reshape(-1).take(at)
                valid.reshape(-1)[flat] = True
            for rank in wide:
                idx = self.image.owned_index[rank, name]
                values[rank][idx] = init[name][idx]
                valid[rank][idx] = True
        self.storage: dict[int, dict[str, RankStorage]] = {
            gr.rank: {
                name: RankStorage(
                    name, shape,
                    tuple(stack[gr.rank, ...] for stack in self.stacks[name]),
                )
                for name, shape in specs
            }
            for gr in self.ranks
        }
        if self.transport is not None:
            self.transport.start(self.storage)

    # -- helpers -----------------------------------------------------------

    def _env_ints(self) -> dict[str, int]:
        env = {name: int(v) for name, v in self.shadow.env.items()}
        env.update(self.info.params)
        return env

    def _concrete_section(self, entry: CommEntry, node) -> RSD:
        section = self.result.ctx.sections.section_at(entry.use, node)
        return section.concretize(self._env_ints(), self.info.shape(entry.array))

    # -- communication ----------------------------------------------------------

    def _fire(self, anchor: tuple) -> None:
        ops = self.schedule.ops_at(anchor)
        if not ops:
            return
        # Sections are a function of the anchor and the enclosing loop
        # variables (``shadow.env`` holds exactly those, outermost first).
        keys, _ = self.image.publish(
            self.image.firings, (anchor, *self.shadow.env.values()),
            lambda: self._firing_keys(anchor, ops),
        )
        wire = [] if self.transport is not None else None
        for key, op in zip(keys, ops):
            t0 = time.perf_counter()
            plan, built = self.image.publish(
                self._comm_plans, key,
                lambda: self._plan_op(key[:3], op, key[3]),
            )
            if built:
                self.stats.plan_compile_s += time.perf_counter() - t0
            else:
                self.stats.plan_cache_hits += 1
            if wire is None:
                self._execute_plan(key, plan, op.kind)
            else:
                wire.append((plan, op.kind))
        if wire:
            self._fire_wire(keys, wire)

    def _firing_keys(self, anchor: tuple, ops) -> tuple:
        """The CommPlan key of each op at ``anchor`` under the current
        loop environment: an op is named by where it sits in the lowered
        schedule, a plan by that site and its entries' concrete sections.
        Runs under the image lock."""
        keys = []
        for slot, op in enumerate(ops):
            node = self.result.ctx.node_of(op.position)
            sections = tuple(
                None
                if isinstance(entry.pattern.mapping, ReductionMapping)
                else self._concrete_section(entry, node)
                for entry in op.entries
            )
            keys.append((self.grid.shape, anchor, slot, sections))
        return tuple(keys)

    def _plan_op(self, site: tuple, op, sections) -> CommPlan:
        """A plan for a section tuple the image has not seen: translated
        from the op's canonical plan when one fits, compiled otherwise,
        and sending each element once per destination (the canonical
        plan keeps every transfer: a translation may unnest two boxes).
        Runs under the image lock."""
        ckey, offsets = self._canonical_key(site, op, sections)
        base = self.image.canon_plans.get(ckey) if ckey is not None else None
        if base is not None:
            self.stats.plan_cache_hits += 1
            self.stats.plan_translations += 1
            return send_once(translate_plan(base[0], base[1], offsets))
        plan = self.planner.compile_op(op, sections)
        self.stats.plan_compiles += 1
        if ckey is not None:
            self.image.canon_plans[ckey] = (plan, offsets)
        return send_once(plan)

    def _canonical_key(self, site: tuple, op, sections):
        """Rank-relative form of a section tuple, plus the origins that
        were normalized away.

        A dimension is canonicalized when translating a plan along it is
        provably exact: the dimension is *serial* (no grid axis — every
        rank owns its full extent, so partner sets and overlap counts
        cannot depend on the origin), the operation does not shift
        elements along it, and the section lies in bounds (no boundary
        clipping).  Such a dimension's section is replaced by its
        ``(count, step)`` run; the 1-based origin goes into the offsets
        tuple for :func:`translate_plan`.  Returns ``(None, None)`` when
        nothing was canonicalized (the exact cache already suffices).
        """
        canon = []
        offsets = []
        any_rel = False
        for entry, section in zip(op.entries, sections):
            if section is None or isinstance(
                entry.pattern.mapping, ReductionMapping
            ):
                canon.append(None)
                offsets.append(None)
                continue
            layout = self.info.layout(entry.array)
            elem_shifts = dict(entry.pattern.elem_shifts)
            dims_key = []
            origins = []
            for d, sec in enumerate(section.dims):
                if (
                    layout.dims[d].grid_axis is None
                    and elem_shifts.get(d, 0) == 0
                    and not sec.is_empty
                    and sec.lo >= 1
                    and sec.hi <= layout.dims[d].extent
                ):
                    dims_key.append(("rel", sec.count(), sec.step))
                    origins.append(sec.lo)
                    any_rel = True
                else:
                    dims_key.append(sec)
                    origins.append(None)
            canon.append(tuple(dims_key))
            offsets.append(tuple(origins))
        if not any_rel:
            return None, None
        return (*site, tuple(canon)), tuple(offsets)

    def _execute_plan(self, key: tuple, plan: CommPlan, kind: str) -> None:
        """Run one lowered communication operation as flat slice copies
        (the direct-copy path; a transport runs firings, :meth:`_fire_wire`).

        ``messages`` is charged the plan's ``wire_pairs``: deliveries
        between the same (src, dst) count once per operation, however
        many combined entries they carry — as a transport sends them, one
        frame per partner and round.  ``bytes_moved`` is the plan's
        ``wire_bytes``: the union of its sections, each element once per
        destination."""
        if self.kernels is not None:
            self.kernels.execute_plan_copy(key, plan)
            return
        for t in plan.transfers:
            store = self.storage[t.src][t.array]
            if t.mask is None:
                take = ...  # the whole indexed box
                invalid = f"extracting invalid data from {t.array} {t.region}"
                stale = (
                    f"stale data shipped for {t.array} {t.region}: sender "
                    f"holds values that disagree with the sequential semantics"
                )
            else:
                take = t.mask
                invalid = (
                    f"diagonal forwarding of {t.array}: source rank "
                    f"{t.src} missing forwarded data"
                )
                stale = f"stale data shipped for {t.array} (diagonal phase)"
            if not all_valid(store.valid[t.index][take]):
                raise SimulationError(invalid)
            values = store.values[t.index][take]
            if not fresh(values, self.shadow.arrays[t.array][t.index][take]):
                raise SimulationError(stale)
            for dst in t.dsts:
                target = self.storage[dst][t.array]
                target.values[t.index][take] = values
                target.valid[t.index][take] = True
            self.stats.bcopy_calls += 1 + len(t.dsts)
        self.stats.sections_verified += len(plan.transfers)
        self.stats.messages += len(plan.wire_pairs)
        self.stats.bytes_moved += plan.wire_bytes

    # -- transport execution ---------------------------------------------------

    def _fire_wire(self, keys: tuple, members: list) -> None:
        """Execute the ops of one firing — ``members``: each one's
        ``(plan, kind)`` — as real messages (each placed op one frame
        per partner and round, never coalesced with another member's),
        one wire operation per run of mutually independent ops (kept in
        the image): run the validity/staleness oracle over the merged
        rounds, dispatch to the backend, then cross-check the measured
        wire traffic against the lowerings' summed prediction exactly."""
        t0 = time.perf_counter()
        wire_ops, built = self.image.publish(
            self.image.wire_firings, keys,
            lambda: self._merge_firing(members),
        )
        if built:
            self.stats.plan_compile_s += time.perf_counter() - t0
        for lowered, messages, nbytes in wire_ops:
            self._precheck_lowered(lowered)
            receipt = self.transport.execute(lowered)
            _check_receipt(
                receipt, lowered.predicted_pairs, lowered.predicted_msgs
            )
            # Keep the plan-level counters the element-wise path reports,
            # so RuntimeStats stays comparable across execution modes;
            # the raw measured traffic lives in ``self.wire``.
            self.stats.messages += messages
            self.stats.bytes_moved += nbytes

    def _merge_firing(self, members: list) -> tuple:
        """The wire operations of a firing the image has not seen: lower
        every member (kept on its plan), split them into independent
        runs and merge each.  Runs under the image lock."""
        lowerings = []
        for plan, kind in members:
            if plan.lowered is None:
                plan.lowered = lower_comm(kind, plan)
            lowerings.append(plan.lowered)
        runs, tests = independent_runs(lowerings)
        self.stats.firing_merges += 1
        self.stats.firing_dep_tests += tests
        return tuple(
            (
                merge_lowered([lowerings[i] for i in run]),
                sum(len(members[i][0].wire_pairs) for i in run),
                sum(members[i][0].wire_bytes for i in run),
            )
            for run in runs
        )

    def _precheck_lowered(self, lowered: LoweredComm) -> None:
        """The legacy path's validity and staleness oracle, round-aware.

        Sends in round ``r`` may legitimately forward data delivered in
        rounds ``< r`` (diagonal phases), which is not in the sender's
        storage yet when this runs — so delivery is simulated with an
        overlay mask, built only for rounds a later round can read.
        Overlay-delivered elements are shadow-equal by induction (their
        original source was checked here when it sent), so the value
        comparison applies only to elements the sender holds for real
        and that no earlier round overwrote.  A box nothing was
        delivered to earlier in the operation is tested in place."""
        sim: dict[tuple[int, str], np.ndarray] = {}
        shadow = self.shadow.arrays
        last = len(lowered.rounds) - 1
        for rnd_no, rnd in enumerate(lowered.rounds):
            for s in rnd:
                stores = self.storage[s.src]
                for box in s.boxes:
                    store = stores[box.array]
                    overlay = sim.get((s.src, box.array))
                    if overlay is None:
                        valid = store.valid[box.index]
                        values = store.values[box.index]
                        expected = shadow[box.array][box.index]
                        if box.mask is not None:
                            valid = valid[box.mask]
                            values = values[box.mask]
                            expected = expected[box.mask]
                        ok = all_valid(valid)
                    else:
                        region_valid = store.valid[box.index]
                        delivered = overlay[box.index]
                        take = (
                            box.mask if box.mask is not None
                            else np.ones(region_valid.shape, dtype=bool)
                        )
                        ok = all_valid((region_valid | delivered)[take])
                        check = take & region_valid & ~delivered
                        values = store.values[box.index][check]
                        expected = shadow[box.array][box.index][check]
                    if not ok:
                        raise SimulationError(
                            f"extracting invalid data from {box.array} "
                            f"(rank {s.src}, {lowered.algorithm})"
                        )
                    if not fresh(values, expected):
                        raise SimulationError(
                            f"stale data shipped for {box.array}: sender "
                            f"holds values that disagree with the "
                            f"sequential semantics"
                        )
                self.stats.sections_verified += len(s.boxes)
            if rnd_no == last:
                break
            for s in rnd:
                for box in s.boxes:
                    overlay = sim.get((s.dst, box.array))
                    if overlay is None:
                        overlay = sim[(s.dst, box.array)] = np.zeros(
                            self.storage[s.dst][box.array].shape, dtype=bool
                        )
                    if box.mask is None:
                        overlay[box.index] = True
                    else:
                        overlay[box.index][box.mask] = True

    def close(self) -> None:
        """Release the transport backend (workers, shared memory).
        Idempotent; a no-op for the legacy direct-copy path."""
        if self.transport is not None:
            self.transport.shutdown()

    def __enter__(self) -> "SPMDExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- statement execution -------------------------------------------------

    def run(self) -> RuntimeStats:
        self._fire(("start",))
        self._exec_body(self.info.program.body)
        self._fire(("end",))
        self.stats.sync_faults(self.wire)
        self.stats.wire = self.wire
        if self.wire is not None and self.wire.restarts > 0:
            # The run completed on the requested backend, but only by
            # restarting crashed ranks — record that as a (recovered)
            # degradation so --diagnostics-json consumers see it.
            self.stats.degradations.append(RuntimeDegradationEvent(
                reason="rank_restart",
                backend=self.transport.name,
                detail=(
                    f"{self.wire.restarts} rank restart(s), "
                    f"{self.wire.recovery_s:.3f}s recovering"
                ),
                fallback="none (recovered in place)",
            ).to_dict())
        return self.stats

    def _exec_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self._fire(("before_stmt", stmt.sid))
            if isinstance(stmt, ast.Assign):
                self._exec_assign(stmt)
                if stmt.sid in self.fallback_reasons:
                    self.stats.fallback_firings += 1
            elif isinstance(stmt, ast.Do):
                self._fire(("loop_pre", stmt.sid))
                # A planned nest fires as one fused kernel; the engine
                # answers False when it cannot (kernel-ineligible, or a
                # runtime offset it cannot bind) and the loop runs
                # element-wise.
                plan = self.nest_plans.get(stmt.sid)
                if plan is None or not self.kernels.try_exec_nest(
                    plan, self._env_ints()
                ):
                    self._exec_loop(stmt)
                self._fire(("loop_post", stmt.sid))
            elif isinstance(stmt, ast.If):
                if bool(self.shadow.eval_expr(stmt.cond)):
                    self._exec_body(stmt.then_body)
                else:
                    self._exec_body(stmt.else_body)
            self._fire(("after_stmt", stmt.sid))

    # -- element-wise statement execution ---------------------------------------

    def _exec_loop(self, stmt: ast.Do) -> None:
        """Run a DO loop one iteration at a time."""
        lo = self.shadow.eval_index(stmt.lo)
        hi = self.shadow.eval_index(stmt.hi)
        step = self.shadow.eval_index(stmt.step)
        for value in range(lo, hi + 1, step):
            self.shadow.env[stmt.var] = float(value)
            self._fire(("loop_top", stmt.sid))
            self._exec_body(stmt.body)
        self.shadow.env.pop(stmt.var, None)

    def _exec_assign(self, stmt: ast.Assign) -> None:
        reductions = self._compute_reductions(stmt)

        if isinstance(stmt.lhs, ast.VarRef):
            # Replicated scalar: every rank computes; results must agree.
            values = {
                gr.rank: self._eval(stmt.rhs, gr.rank, stmt, reductions)
                for gr in self.ranks
            }
            distinct = set(values.values())
            if len(distinct) != 1:
                raise SimulationError(
                    f"replicated scalar {stmt.lhs.name!r} diverged across "
                    f"ranks at s{stmt.sid}: {sorted(distinct)[:4]}"
                )
            self.shadow.exec_stmt(stmt)
            return

        element = tuple(
            self.shadow.eval_index(sub.expr) for sub in stmt.lhs.subscripts
        )
        layout = self.info.layout(stmt.lhs.name)
        if not layout.distributed_dims:
            # Replicated array: every rank computes and stores (results
            # must agree, like scalars).
            values = {
                gr.rank: self._eval(stmt.rhs, gr.rank, stmt, reductions)
                for gr in self.ranks
            }
            if len(set(values.values())) != 1:
                raise SimulationError(
                    f"replicated array {stmt.lhs.name!r} diverged at s{stmt.sid}"
                )
            for gr in self.ranks:
                self.storage[gr.rank][stmt.lhs.name].write(
                    element, values[gr.rank]
                )
            self.shadow.exec_stmt(stmt)
            return

        # Owner-computes: the owner of the written element evaluates.
        own = self.ownership[stmt.lhs.name]
        owner = self.planner.rank_of(own.owner_rank_coords(element))
        value = self._eval(stmt.rhs, owner, stmt, reductions)
        self.storage[owner][stmt.lhs.name].write(element, value)
        self.shadow.exec_stmt(stmt)

    def _compute_reductions(self, stmt: ast.Assign) -> dict[int, float]:
        """Allreduce every reduction intrinsic in the statement: per-rank
        partials over owned elements, combined globally — one tree per
        placed reduction op (the schedule's combining, paper §6.2), a
        reduction no placed op covers on its own, and all of the
        statement's trees in one wire operation.  Every piece is
        verified fresh before anything is sent."""
        groups: dict[object, list[tuple[ast.Reduction, dict]]] = {}
        nodes = (
            n for n in ast.walk_expr(stmt.rhs) if isinstance(n, ast.Reduction)
        )
        for ordinal, node in enumerate(nodes):
            ref = node.arg
            name = ref.name
            section = self._section_of_ref(ref)
            owners, _ = self.image.publish(
                self.image.reduction_pieces, (stmt.sid, ordinal, section),
                lambda: self._owned_pieces(name, section),
            )
            if not owners:
                raise SimulationError(f"reduction over empty section {ref}")
            pieces: dict[int, np.ndarray] = {}
            for rank, piece, index in owners:
                values = pieces[rank] = self.storage[rank][name].extract(
                    piece, index
                )
                if not fresh(values, self.shadow.arrays[name][index]):
                    raise SimulationError(
                        f"stale data shipped for {name} {piece}: sender holds "
                        f"values that disagree with the sequential semantics"
                    )
            self.stats.sections_verified += len(owners)
            group = self.image.reduction_group.get(
                id(ref), ("alone", id(node))
            )
            groups.setdefault(group, []).append((node, pieces))
        out: dict[int, float] = {}
        if not groups:
            return out
        trees = list(groups.values())
        pieces = [[vectors for _, vectors in tree] for tree in trees]
        ops = [[node.op for node, _ in tree] for tree in trees]
        if self.transport is not None:
            # Every tree of the statement in one wire operation: gather
            # trees + broadcasts through the backend; the combine order
            # is canonical (rank-sorted), so each value is bit-identical
            # to the direct combine below.
            values, receipt = self.transport.reduce(pieces, ops)
            self._check_reduce_receipt(pieces, receipt)
        else:
            values = [
                [combine_pieces(p, op) for p, op in zip(tree_pieces, tree_ops)]
                for tree_pieces, tree_ops in zip(pieces, ops)
            ]
        for tree, tree_values in zip(trees, values):
            for (node, _), value in zip(tree, tree_values):
                out[id(node)] = value
            self.stats.reductions += len(tree)
            self.stats.messages += reduction_tree_messages(len(self.ranks))
        return out

    def _check_reduce_receipt(self, pieces: list, receipt) -> None:
        """Measured == predicted for one reduce: the prediction is
        :func:`lower_reduction` of the statement's trees from the sizes
        of the partials every rank holds."""
        nranks = len(self.ranks)
        lowered = lower_reduction(tree_sizes(pieces, nranks), nranks)
        _check_receipt(
            receipt, lowered.predicted_pairs, lowered.predicted_msgs
        )

    def _owned_pieces(self, name: str, section: RSD) -> tuple:
        """``section`` of array ``name`` split over the ranks owning part
        of it, as (rank, piece, numpy index).  Runs under the image lock."""
        pieces = (
            (gr.rank, section.intersect(self.image.owned[gr.rank, name]))
            for gr in self.ranks
        )
        return tuple(
            (rank, piece, np_index(piece))
            for rank, piece in pieces if not piece.is_empty
        )

    def _section_of_ref(self, ref: ast.ArrayRef) -> RSD:
        dims = []
        shape = self.info.shape(ref.name)
        for dim, sub in enumerate(ref.subscripts):
            if isinstance(sub, ast.Index):
                v = self.shadow.eval_index(sub.expr)
                dims.append(DimSection(v, v))
            else:
                lo = 1 if sub.lo is None else self.shadow.eval_index(sub.lo)
                hi = shape[dim] if sub.hi is None else self.shadow.eval_index(sub.hi)
                step = 1 if sub.step is None else self.shadow.eval_index(sub.step)
                dims.append(DimSection(lo, hi, step))
        return RSD(tuple(dims))

    # -- per-rank expression evaluation -----------------------------------------

    def _eval(
        self,
        expr: ast.Expr,
        rank: int,
        stmt: ast.Assign,
        reductions: dict[int, float],
    ) -> float:
        if isinstance(expr, ast.Num):
            return float(expr.value)
        if isinstance(expr, ast.VarRef):
            return float(self.shadow._lookup(expr.name))
        if isinstance(expr, ast.Reduction):
            return reductions[id(expr)]
        if isinstance(expr, ast.ArrayRef):
            element = tuple(
                self.shadow.eval_index(sub.expr) for sub in expr.subscripts
            )
            at = tuple(c - 1 for c in element)
            store = self.storage[rank][expr.name]
            if not store.valid[at]:
                raise SimulationError(
                    f"read of {expr.name}{element} at s{stmt.sid}: element "
                    f"not present on rank {rank} (missing or misplaced "
                    f"communication)"
                )
            value = float(store.values[at])
            # Cross-check against ground truth: catches stale halos.
            truth = float(self.shadow.arrays[expr.name][at])
            if value != truth and not fresh(value, truth):
                raise SimulationError(
                    f"rank {rank} read stale {expr.name}{element} at "
                    f"s{stmt.sid}: has {value!r}, semantics say {truth!r}"
                )
            own = self.ownership[expr.name]
            layout = self.info.layout(expr.name)
            gr = self.ranks[rank]
            here = self.planner.coords_for(layout, gr)
            if own.owner_rank_coords(element) != here:
                self.stats.remote_reads += 1
            return value
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, rank, stmt, reductions)
            right = self._eval(expr.right, rank, stmt, reductions)
            return float(Interpreter._binop(expr.op, left, right))
        if isinstance(expr, ast.UnOp):
            value = self._eval(expr.operand, rank, stmt, reductions)
            return -value if expr.op == "-" else float(not value)
        if isinstance(expr, ast.Intrinsic):
            args = [self._eval(a, rank, stmt, reductions) for a in expr.args]
            return float(Interpreter._intrinsic(expr.name, args))
        raise SimulationError(f"cannot evaluate {expr!r}")

    # -- results ------------------------------------------------------------

    def assemble(self) -> dict[str, np.ndarray]:
        """Global arrays stitched from each rank's owned region: the
        small regions of an array in one gather."""
        out: dict[str, np.ndarray] = {}
        for name, layout in self.info.layouts.items():
            values = self.stacks[name][0]
            flat, wide = self.image.owned_flat[name]
            result = np.zeros(layout.shape)
            if flat is not None:
                flat, at = flat
                result.reshape(-1)[at] = values.reshape(-1).take(flat)
            for rank in wide:
                idx = self.image.owned_index[rank, name]
                result[idx] = values[rank][idx]
            out[name] = result
        for name, value in self.shadow.scalars.items():
            out[name] = np.float64(value)
        return out


def execute_spmd(
    result: CompilationResult,
    seed: int = 12345,
    vectorize: bool = True,
    transport: "str | None" = None,
    watchdog_s: float = 30.0,
    chaos=None,
    max_rank_restarts: "int | None" = None,
) -> tuple[dict[str, np.ndarray], RuntimeStats]:
    """Run a compiled program on simulated ranks; returns the assembled
    final state and movement statistics.  Raises on any missing-data or
    staleness violation.  ``vectorize=False`` forces the element-wise
    reference path for every statement and the interpreted copy loop
    for every communication (the reference the kernels are checked
    against); ``transport`` selects a real message-passing backend
    (``inline``/``threaded``/``multiprocess``) instead of the default
    direct-copy data path.

    ``chaos`` arms deterministic fault injection (a
    :class:`~repro.transport.integrity.FaultPlan` or ``--chaos-spec``
    string).  Under chaos the run is self-healing: crashed ranks are
    restarted in place (up to ``max_rank_restarts``), and when recovery
    is impossible — restart budget exhausted, or a watchdog deadlock
    with faults armed — the program is re-executed on the deterministic
    ``inline`` backend and the degradation recorded in
    ``stats.degradations`` (W07xx).  A clean run (``chaos=None``) never
    degrades: transport errors propagate as before."""
    executor = SPMDExecutor(
        result, seed, vectorize=vectorize, transport=transport,
        watchdog_s=watchdog_s, chaos=chaos,
        max_rank_restarts=max_rank_restarts,
    )
    degraded = None
    try:
        try:
            stats = executor.run()
            arrays = executor.assemble()
        except RankCrashError as exc:
            degraded = RuntimeDegradationEvent(
                reason="restarts_exhausted",
                backend=exc.backend,
                detail=str(exc),
                fallback="inline",
                ranks=tuple(exc.dead_ranks),
            )
        except DeadlockError as exc:
            chaos_armed = (
                executor.transport is not None
                and executor.transport.chaos is not None
            )
            if not chaos_armed:
                raise  # a clean-run deadlock is a real bug: propagate
            degraded = RuntimeDegradationEvent(
                reason="deadlock",
                backend=executor.transport.name,
                detail=str(exc),
                fallback="inline",
            )
    finally:
        executor.close()
    if degraded is None:
        return arrays, stats
    # Graceful degradation: re-execute the whole program on the
    # deterministic inline backend, faults off.
    fallback = SPMDExecutor(
        result, seed, vectorize=vectorize, transport="inline",
        watchdog_s=watchdog_s,
    )
    try:
        stats = fallback.run()
        arrays = fallback.assemble()
    finally:
        fallback.close()
    stats.sync_faults(executor.wire)  # carry the failed attempt's ledger
    stats.degradations.append(degraded.to_dict())
    return arrays, stats
