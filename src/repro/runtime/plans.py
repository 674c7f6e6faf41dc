"""Precompiled execution plans for the SPMD runtime.

The element-wise executor re-derives everything on every firing: each
scalarized loop iteration walks the expression tree in Python, and each
communication firing re-computes partner ranks, overlap regions, and
eligibility masks from the symbolic section.  This module is the
inspector half of an inspector/executor split — pay the symbolic
analysis once, then run flat block operations:

* **Nest plans** (:func:`plan_nests`): a scalarized loop nest whose body
  is a single affine, injectively-subscripted assignment is lowered to a
  :class:`NestPlan`.  At runtime the plan is concretized against the
  enclosing loop environment (:func:`concretize_nest`) into numpy slice
  geometry, so the whole nest executes as one block operation per rank
  instead of ``count`` interpreted iterations.  Statements the vectorizer
  cannot prove rectangular keep the element-wise path; the reason is
  recorded so the executor can report degradations.

* **Communication plans** (:class:`CommPlanner`): every
  :class:`~repro.core.state.PlacedComm` is lowered once per concrete
  section tuple into a :class:`CommPlan` — a list of
  :class:`PlannedTransfer` records holding concrete per-rank numpy index
  tuples, partner ranks, forwarding masks (for the diagonal augmented
  exchanges), and wire byte/pair accounting.  Executing a plan is a
  handful of ``bcopy``-style slice copies; firing the same operation
  again with the same concrete sections reuses the plan from a cache
  keyed only by the enclosing loop variables' effect on the section.
  A plan the executor runs sends each element once per destination
  (:func:`send_once`): a combined entry's box nested inside another's
  is not sent twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..affine import Affine, NonAffineError
from ..comm.patterns import ReductionMapping, ShiftMapping
from ..distribution.layout import DistFormat
from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo
from ..sections.rsd import RSD, DimSection
from .darray import np_index


class PlanFallback(Exception):
    """A planned nest cannot be executed as a block under the current
    runtime environment (e.g. a bound symbol only the interpreter can
    resolve); the caller falls back to element-wise execution."""


# ---------------------------------------------------------------------------
# Nest vectorization: static analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubscriptPlan:
    """One affine subscript split into ``base + coeff * var`` where
    ``var`` is a nest variable (or absent)."""

    base: Affine
    var: str | None = None
    coeff: int = 0


@dataclass(frozen=True)
class RefPlan:
    """The subscript geometry of one array reference inside a nest."""

    name: str
    subs: tuple[SubscriptPlan, ...]


@dataclass
class NestPlan:
    """A perfect loop nest proven rectangular: single assignment body,
    affine bounds and subscripts, injective LHS."""

    outer_sid: int
    loops: tuple[ast.Do, ...]
    vars: tuple[str, ...]
    bounds: tuple[tuple[Affine, Affine, int], ...]  # (lo, hi, step) per loop
    assign: ast.Assign
    lhs: RefPlan
    rhs_refs: dict[int, RefPlan]  # id(ArrayRef) -> plan
    interior_sids: frozenset[int]


def _plan_ref(
    info: ProgramInfo, ref: ast.ArrayRef, vars: tuple[str, ...]
) -> "RefPlan | str":
    """Subscript geometry of one reference, or a fallback reason."""
    var_set = set(vars)
    subs: list[SubscriptPlan] = []
    used: set[str] = set()
    for sub in ref.subscripts:
        if not isinstance(sub, ast.Index):
            return "section subscript inside a loop nest"
        try:
            form = info.affine(sub.expr)
        except NonAffineError:
            return f"non-affine subscript {sub.expr} of {ref.name}"
        present = [v for v in vars if form.coeff(v) != 0]
        if len(present) > 1:
            return f"subscript of {ref.name} couples two loop variables"
        if present:
            (v,) = present
            if v in used:
                return f"loop variable {v} indexes two dimensions of {ref.name}"
            used.add(v)
            subs.append(SubscriptPlan(form.substitute(v, 0), v, form.coeff(v)))
        else:
            subs.append(SubscriptPlan(form))
    return RefPlan(ref.name, tuple(subs))


def analyze_nest(info: ProgramInfo, do: ast.Do) -> "NestPlan | str":
    """Prove one DO nest rectangular, or explain why it is not."""
    loops = [do]
    while len(loops[-1].body) == 1 and isinstance(loops[-1].body[0], ast.Do):
        loops.append(loops[-1].body[0])
    innermost = loops[-1]
    if len(innermost.body) != 1 or not isinstance(innermost.body[0], ast.Assign):
        return "loop body is not a single assignment"
    assign = innermost.body[0]
    vars = tuple(l.var for l in loops)
    if len(set(vars)) != len(vars):
        return "duplicate loop variable in nest"

    bounds: list[tuple[Affine, Affine, int]] = []
    for loop in loops:
        try:
            lo = info.affine(loop.lo)
            hi = info.affine(loop.hi)
            step = info.affine(loop.step)
        except NonAffineError:
            return "non-affine loop bounds"
        if not step.is_constant or step.const < 1:
            return "non-constant or non-positive loop step"
        if (lo.symbols | hi.symbols) & set(vars):
            return "loop bounds depend on nest variables"
        bounds.append((lo, hi, step.const))

    if not isinstance(assign.lhs, ast.ArrayRef):
        return "scalar assignment inside a loop nest"
    lhs = _plan_ref(info, assign.lhs, vars)
    if isinstance(lhs, str):
        return lhs
    counts = {v: 0 for v in vars}
    for sp in lhs.subs:
        if sp.var is not None:
            counts[sp.var] += 1
            if sp.coeff < 0:
                return "negative stride on the written array"
    if any(c != 1 for c in counts.values()):
        return "loop variable absent from LHS (non-injective write)"

    for node in ast.walk_expr(assign.rhs):
        if isinstance(node, ast.Reduction):
            return "reduction inside a loop nest"
    rhs_refs: dict[int, RefPlan] = {}
    for node in ast.array_refs(assign.rhs):
        rp = _plan_ref(info, node, vars)
        if isinstance(rp, str):
            return rp
        if node.name == lhs.name and rp.subs != lhs.subs:
            return "potentially overlapping read of the written array"
        rhs_refs[id(node)] = rp

    interior = frozenset(
        {l.sid for l in loops[1:]} | {assign.sid}
    )
    return NestPlan(
        outer_sid=do.sid,
        loops=tuple(loops),
        vars=vars,
        bounds=tuple(bounds),
        assign=assign,
        lhs=lhs,
        rhs_refs=rhs_refs,
        interior_sids=interior,
    )


def plan_nests(
    info: ProgramInfo, body: list[ast.Stmt]
) -> tuple[dict[int, NestPlan], dict[int, str]]:
    """Plan every DO nest in ``body``.

    Returns ``(plans, fallbacks)``: plans keyed by the outer loop's sid,
    and — for every assignment that will keep the element-wise path
    because some enclosing loop failed the analysis — the reason, keyed
    by the assignment's sid.  Assignments outside any loop execute once
    and are not counted as degradations.
    """
    plans: dict[int, NestPlan] = {}
    fallbacks: dict[int, str] = {}
    # Statements in program order, each with the reason its innermost
    # enclosing unplanned loop gave (None outside any loop).
    work: list[tuple[ast.Stmt, "str | None"]] = [
        (stmt, None) for stmt in reversed(body)
    ]
    while work:
        stmt, reason = work.pop()
        if isinstance(stmt, ast.Do):
            outcome = analyze_nest(info, stmt)
            if isinstance(outcome, NestPlan):
                plans[stmt.sid] = outcome
            else:
                work += [(s, outcome) for s in reversed(stmt.body)]
        elif isinstance(stmt, ast.If):
            work += [
                (s, reason)
                for s in reversed(stmt.then_body + stmt.else_body)
            ]
        elif isinstance(stmt, ast.Assign) and reason is not None:
            fallbacks[stmt.sid] = reason
    return plans, fallbacks


# ---------------------------------------------------------------------------
# Nest concretization: plan + loop environment -> numpy geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcreteRef:
    """One reference's geometry under a concrete environment.

    ``dims`` holds, per array dimension, either ``('p', index)`` — a
    1-based point — or ``('a', axis, start, stride)``: the element read
    at iteration ``k`` of nest axis ``axis`` is ``start + stride * k``
    (``start`` 1-based, for the *full* iteration box).
    """

    name: str
    dims: tuple[tuple, ...]
    axes: tuple[int, ...]  # nest axes present, ascending


@dataclass
class ConcreteNest:
    """A nest plan bound to one runtime environment."""

    plan: NestPlan
    axes: tuple[tuple[int, int, int], ...]  # (first value, step, count) per var
    shape: tuple[int, ...]  # iteration box extents
    lhs: ConcreteRef
    refs: dict[int, ConcreteRef]  # id(ArrayRef) -> geometry

    def full_box(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((0, 1, count) for count in self.shape)


def concretize_nest(
    plan: NestPlan, env: dict[str, int], info: ProgramInfo
) -> ConcreteNest | None:
    """Bind a nest plan to the enclosing loop environment.

    Returns ``None`` for an empty iteration space; raises
    :class:`PlanFallback` when a bound or subscript cannot be resolved
    statically (the caller reverts to element-wise execution).
    """
    axes: list[tuple[int, int, int]] = []
    for lo, hi, step in plan.bounds:
        try:
            lo_v = lo.evaluate(env)
            hi_v = hi.evaluate(env)
        except NonAffineError as exc:
            raise PlanFallback(f"unresolvable loop bound: {exc}") from exc
        count = max(0, (hi_v - lo_v) // step + 1)
        if count == 0:
            return None
        axes.append((lo_v, step, count))
    shape = tuple(count for _, _, count in axes)

    var_axis = {v: i for i, v in enumerate(plan.vars)}

    def bind(rp: RefPlan) -> ConcreteRef:
        dims: list[tuple] = []
        extents = info.shape(rp.name)
        present: list[int] = []
        for d, sp in enumerate(rp.subs):
            try:
                base = sp.base.evaluate(env)
            except NonAffineError as exc:
                raise PlanFallback(f"unresolvable subscript: {exc}") from exc
            if sp.var is None:
                if not 1 <= base <= extents[d]:
                    raise PlanFallback(
                        f"subscript of {rp.name} out of bounds"
                    )
                dims.append(("p", base))
                continue
            axis = var_axis[sp.var]
            lo_v, step, count = axes[axis]
            start = base + sp.coeff * lo_v
            stride = sp.coeff * step
            last = start + stride * (count - 1)
            if not (1 <= min(start, last) and max(start, last) <= extents[d]):
                raise PlanFallback(f"subscript of {rp.name} out of bounds")
            present.append(axis)
            dims.append(("a", axis, start, stride))
        return ConcreteRef(rp.name, tuple(dims), tuple(sorted(present)))

    return ConcreteNest(
        plan=plan,
        axes=tuple(axes),
        shape=shape,
        lhs=bind(plan.lhs),
        refs={rid: bind(rp) for rid, rp in plan.rhs_refs.items()},
    )


def ref_np_index(cref: ConcreteRef, kbox: tuple[tuple[int, int, int], ...]):
    """numpy index tuple (array-dim order) for ``cref`` restricted to the
    iteration sub-box ``kbox`` (per nest axis: k0, kstep, kcount)."""
    idx: list = []
    for d in cref.dims:
        if d[0] == "p":
            idx.append(d[1] - 1)
            continue
        _, axis, start, stride = d
        k0, kstep, kcount = kbox[axis]
        first = start + stride * k0 - 1  # 0-based
        st = stride * kstep
        last = first + st * (kcount - 1)
        if st > 0:
            idx.append(slice(first, last + 1, st))
        else:
            stop = last - 1
            idx.append(slice(first, stop if stop >= 0 else None, st))
    return tuple(idx)


def ref_region(cref: ConcreteRef, kbox) -> RSD:
    """The (1-based) element region ``cref`` touches over ``kbox``."""
    dims: list[DimSection] = []
    for d in cref.dims:
        if d[0] == "p":
            dims.append(DimSection(d[1], d[1]))
            continue
        _, axis, start, stride = d
        k0, kstep, kcount = kbox[axis]
        first = start + stride * k0
        st = stride * kstep
        last = first + st * (kcount - 1)
        lo, hi = (first, last) if st > 0 else (last, first)
        dims.append(DimSection(lo, hi, abs(st) if kcount > 1 else 1))
    return RSD(tuple(dims))


def block_alignment(cref: ConcreteRef, kbox) -> tuple[tuple, tuple]:
    """The ``(transpose, reshape)`` pair taking a raw slice of ``cref``
    (array-dim order) to iteration-box order, with size-1 axes for nest
    axes the reference does not carry."""
    order = [d[1] for d in cref.dims if d[0] == "a"]  # nest axis per block axis
    perm = tuple(int(i) for i in np.argsort(order))
    target = tuple(
        kbox[a][2] if a in cref.axes else 1 for a in range(len(kbox))
    )
    return perm, target


def var_axis_block(conc: ConcreteNest, axis: int, kbox) -> np.ndarray:
    """The loop variable's runtime values over ``kbox``, aligned on its
    nest axis (so ``a(i) = i * 2`` style value uses vectorize too)."""
    lo_v, step, _ = conc.axes[axis]
    k0, kstep, kcount = kbox[axis]
    values = (
        lo_v + step * (k0 + kstep * np.arange(kcount, dtype=np.float64))
    )
    shape = tuple(kcount if a == axis else 1 for a in range(len(kbox)))
    return values.reshape(shape)


def rank_kbox(conc: ConcreteNest, owned: RSD):
    """The iteration sub-box whose LHS elements fall inside ``owned``;
    ``None`` when the rank owns none (or a scalar LHS dim misses)."""
    kbox: list[tuple[int, int, int] | None] = [None] * len(conc.shape)
    for dim, d in enumerate(conc.lhs.dims):
        osec = owned.dims[dim]
        if d[0] == "p":
            if not osec.contains_point(d[1]):
                return None
            continue
        _, axis, start, stride = d  # stride > 0: LHS coeffs are positive
        count = conc.shape[axis]
        prog = DimSection(start, start + stride * (count - 1), stride)
        inter = prog.intersect(osec)
        if inter.is_empty:
            return None
        k0 = (inter.lo - start) // stride
        kcount = inter.count()
        kstep = inter.step // stride if kcount > 1 else 1
        kbox[axis] = (k0, kstep, kcount)
    assert all(b is not None for b in kbox)
    return tuple(kbox)


# ---------------------------------------------------------------------------
# Communication plans
# ---------------------------------------------------------------------------


@dataclass
class PlannedTransfer:
    """One block move: extract ``index`` from rank ``src``'s storage and
    install it on every rank in ``dsts``.  ``mask`` (diagonal augmented
    exchanges only) restricts the move to the eligible elements of the
    indexed box; masked transfers have exactly one destination.

    ``nbytes`` is the per-destination payload size on the wire and
    ``phase`` the execution round: a transfer in phase ``k`` may read
    data delivered by phases ``< k`` (the diagonal augmented exchanges
    forward corner data), so a message-passing backend must order
    phases with a barrier between them.

    ``entry_idx`` records which of the operation's entries produced the
    transfer, so a cached plan can be *translated* to a different
    section offset entry by entry (:func:`translate_plan`).
    """

    array: str
    src: int
    dsts: tuple[int, ...]
    index: tuple
    region: RSD | None = None
    mask: np.ndarray | None = None
    nbytes: int = 0
    phase: int = 0
    entry_idx: int = 0


@dataclass
class CommPlan:
    """A lowered communication operation: flat transfers plus the wire
    accounting the element-wise executor would have produced.  The plan
    an executor runs sends each element once per destination
    (:func:`send_once`); ``wire_pairs`` are its messages — one per
    partner, however many combined entries it carries — and
    ``wire_bytes`` its payload bytes.

    What is derived from a plan hangs on the plan, so it lives and dies
    with it: ``lowered`` holds the transport send schedule, ``copy`` the
    direct-copy kernel template.
    """

    transfers: list[PlannedTransfer]
    wire_pairs: frozenset[tuple[int, int]]
    wire_bytes: int
    lowered: object = field(default=None, compare=False, repr=False)
    copy: object = field(default=None, compare=False, repr=False)

    def pair_bytes(self) -> dict[tuple[int, int], int]:
        """Plan-time per-pair wire bytes (self-deliveries excluded) —
        the ground truth transport-measured traffic is checked against."""
        out: dict[tuple[int, int], int] = {}
        for t in self.transfers:
            for dst in t.dsts:
                if dst != t.src:
                    key = (t.src, dst)
                    out[key] = out.get(key, 0) + t.nbytes
        return out


class CommPlanner:
    """Lowers placed communication operations into :class:`CommPlan`\\ s.

    Owns no storage: partner ranks, overlap regions, and forwarding
    masks depend only on the layout tables and the concrete sections, so
    a plan compiled once is valid for every firing that produces the
    same sections — in this run or a later one.
    """

    def __init__(self, info, grid, ranks, ownership) -> None:
        self.info = info
        self.grid = grid
        self.ranks = ranks
        self.ownership = ownership
        self._rank_at = {gr.coords: gr.rank for gr in ranks}
        #: (rank, array) -> the region the rank owns
        self.owned: dict[tuple[int, str], RSD] = {
            (gr.rank, name): ownership[name].owned_rsd(
                self.coords_for(layout, gr)
            )
            for gr in ranks
            for name, layout in info.layouts.items()
        }

    # -- rank topology -----------------------------------------------------

    def coords_for(self, layout, gr) -> tuple[int, ...]:
        """Grid coordinates of ``gr`` under ``layout``: all distributed
        layouts share the program's grid; replicated layouts use
        coordinate 0 everywhere."""
        if layout.grid == self.grid:
            return gr.coords
        return tuple(0 for _ in layout.grid.shape)

    def shift_partner(
        self, layout, coords: tuple[int, ...], proc_shifts: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """Partner coordinates for a shift: CYCLIC axes wrap around the
        grid, BLOCK axes stop at the mesh edge."""
        wrap_axes = {
            m.grid_axis
            for m in layout.dims
            if m.grid_axis is not None and m.format is DistFormat.CYCLIC
        }
        out = []
        for axis, (c, s, extent) in enumerate(
            zip(coords, proc_shifts, self.grid.shape)
        ):
            c2 = c + s
            if axis in wrap_axes:
                c2 %= extent
            elif not 0 <= c2 < extent:
                return None
            out.append(c2)
        return tuple(out)

    def rank_of(self, coords: tuple[int, ...]) -> int:
        try:
            return self._rank_at[coords]
        except KeyError:
            raise SimulationError(
                f"no rank at grid coordinates {coords}"
            ) from None

    def owner_semantics_region(self, layout, own, gr):
        """The region whose ``owner_rank_coords`` equal this rank's — the
        element-wise path's locality test.  Grid axes no dimension maps
        to default to coordinate 0 there, so ranks elsewhere on such an
        axis own nothing under that test (returns None)."""
        coords = self.coords_for(layout, gr)
        referenced = {
            m.grid_axis for m in layout.dims if m.grid_axis is not None
        }
        for axis, coord in enumerate(coords):
            if axis not in referenced and coord != 0:
                return None
        return own.owned_rsd(coords)

    # -- lowering ----------------------------------------------------------

    def compile_op(self, op, sections) -> CommPlan:
        """Lower one PlacedComm given each entry's concrete section
        (``None`` for reduction-mapping entries, which move no data at
        their anchor)."""
        transfers: list[PlannedTransfer] = []
        pairs: set[tuple[int, int]] = set()
        nbytes = 0
        for entry_idx, (entry, section) in enumerate(
            zip(op.entries, sections)
        ):
            before = len(transfers)
            if section is None or section.is_empty:
                continue
            mapping = entry.pattern.mapping
            if isinstance(mapping, ReductionMapping):
                continue
            layout = self.info.layout(entry.array)
            own = self.ownership[entry.array]
            if isinstance(mapping, ShiftMapping):
                elem_shifts = dict(entry.pattern.elem_shifts)
                axes = [
                    a for a, s in enumerate(mapping.proc_shifts) if s != 0
                ]
                if len(axes) == 1:
                    nbytes += self._plan_axis_shift(
                        entry, section, layout, own, mapping, elem_shifts,
                        transfers, pairs,
                    )
                else:
                    nbytes += self._plan_diagonal_shift(
                        entry, section, layout, own, mapping, elem_shifts,
                        axes, transfers, pairs,
                    )
            else:
                nbytes += self._plan_assemble(
                    entry, section, layout, own, transfers, pairs
                )
            for t in transfers[before:]:
                t.entry_idx = entry_idx
        return CommPlan(transfers, frozenset(pairs), nbytes)

    def _plan_assemble(
        self, entry, section, layout, own, transfers, pairs
    ) -> int:
        """Assemble the section from its owners onto every rank."""
        nbytes = 0
        all_ranks = tuple(gr.rank for gr in self.ranks)
        for gr in self.ranks:
            piece = section.intersect(self.owned[gr.rank, entry.array])
            if piece.is_empty:
                continue
            size = piece.count()
            transfers.append(PlannedTransfer(
                array=entry.array,
                src=gr.rank,
                dsts=all_ranks,
                index=np_index(piece),
                region=piece,
                nbytes=size * layout.elem_bytes,
            ))
            for dst in all_ranks:
                if dst != gr.rank:
                    pairs.add((gr.rank, dst))
                    nbytes += size * layout.elem_bytes
        return nbytes

    def _plan_axis_shift(
        self, entry, section, layout, own, mapping, elem_shifts,
        transfers, pairs,
    ) -> int:
        """Single-axis shift: each rank receives its shifted needs from
        the partner along the one moving axis."""
        nbytes = 0
        for gr in self.ranks:
            src_coords = self.shift_partner(
                layout, gr.coords, mapping.proc_shifts
            )
            if src_coords is None:
                continue  # boundary: no partner in this direction
            needs = own.shifted_needs(gr.coords, elem_shifts)
            recv = section.intersect(needs).intersect(
                own.owned_rsd(src_coords)
            )
            if recv.is_empty:
                continue
            src_rank = self.rank_of(src_coords)
            transfers.append(PlannedTransfer(
                array=entry.array,
                src=src_rank,
                dsts=(gr.rank,),
                index=np_index(recv),
                region=recv,
                nbytes=recv.count() * layout.elem_bytes,
            ))
            pairs.add((src_rank, gr.rank))
            nbytes += recv.count() * layout.elem_bytes
        return nbytes

    def _plan_diagonal_shift(
        self, entry, section, layout, own, mapping, elem_shifts, axes,
        transfers, pairs,
    ) -> int:
        """Diagonal shift via sequential augmented axis exchanges: phase
        k moves along one axis; eligibility masks simulated at plan time
        decide which elements each phase forwards (corner data travels
        two hops, paper §2.2)."""
        # Cyclic dims interleave owners; the augmented-band scheme below
        # is block-halo specific, so assemble instead.
        for dim in elem_shifts:
            if layout.dims[dim].format is DistFormat.CYCLIC:
                return self._plan_assemble(
                    entry, section, layout, own, transfers, pairs
                )
        nbytes = 0
        boxes = {
            gr.rank: section.intersect(own.halo_band(gr.coords, elem_shifts))
            for gr in self.ranks
        }
        eligible: dict[int, np.ndarray] = {}
        for gr in self.ranks:
            mask = np.zeros(layout.shape, dtype=bool)
            owned = self.owned[gr.rank, entry.array]
            if not owned.is_empty:
                mask[np_index(owned)] = True
            eligible[gr.rank] = mask

        for phase_no, axis in enumerate(axes):
            phase_shift = tuple(
                s if a == axis else 0
                for a, s in enumerate(mapping.proc_shifts)
            )
            phase: list[tuple[int, int, tuple, np.ndarray]] = []
            for gr in self.ranks:
                src_coords = self.shift_partner(
                    layout, gr.coords, phase_shift
                )
                if src_coords is None:
                    continue
                box = boxes[gr.rank]
                if box.is_empty:
                    continue
                src_rank = self.rank_of(src_coords)
                idx = np_index(box)
                take = eligible[src_rank][idx] & ~eligible[gr.rank][idx]
                if not take.any():
                    continue
                phase.append((gr.rank, src_rank, idx, take))
            for dst_rank, src_rank, idx, take in phase:
                transfers.append(PlannedTransfer(
                    array=entry.array,
                    src=src_rank,
                    dsts=(dst_rank,),
                    index=idx,
                    mask=take,
                    nbytes=int(take.sum()) * layout.elem_bytes,
                    phase=phase_no,
                ))
                elig = eligible[dst_rank][idx]
                elig[take] = True
                eligible[dst_rank][idx] = elig
                pairs.add((src_rank, dst_rank))
                nbytes += int(take.sum()) * layout.elem_bytes
        return nbytes


def translate_plan(
    plan: CommPlan,
    base_offsets: tuple,
    offsets: tuple,
) -> CommPlan:
    """Shift a cached plan to a translated section tuple.

    ``base_offsets``/``offsets`` hold, per entry, a tuple of 1-based
    section origins for the dimensions the executor canonicalized (and
    ``None`` for dimensions — or whole entries — it did not).  The
    caller guarantees the two section tuples agree on everything except
    those origins, and that canonicalized dimensions are *serial* (no
    grid axis, full-extent ownership) and unshifted by the operation:
    under those conditions partner ranks, transfer counts, per-element
    eligibility masks, and wire accounting are translation-invariant, so
    translating is just adding the per-dimension delta to every index
    slice and region bound.  Masks and the pair/byte totals are shared
    with the base plan (they are read-only at execution time).
    """
    deltas: list = []
    changed = False
    for base_entry, new_entry in zip(base_offsets, offsets):
        if base_entry is None:
            deltas.append(None)
            continue
        dd = tuple(
            (n - b) if b is not None else 0
            for b, n in zip(base_entry, new_entry)
        )
        deltas.append(dd)
        if any(dd):
            changed = True
    if not changed:
        return plan

    transfers: list[PlannedTransfer] = []
    for t in plan.transfers:
        dd = deltas[t.entry_idx] if t.entry_idx < len(deltas) else None
        if dd is None or not any(dd):
            transfers.append(t)
            continue
        index = tuple(
            part if dd[d] == 0 else
            slice(part.start + dd[d], part.stop + dd[d], part.step)
            for d, part in enumerate(t.index)
        )
        region = t.region
        if region is not None:
            region = RSD(tuple(
                sec if dd[d] == 0 else
                DimSection(sec.lo + dd[d], sec.hi + dd[d], sec.step)
                for d, sec in enumerate(region.dims)
            ))
        transfers.append(PlannedTransfer(
            array=t.array,
            src=t.src,
            dsts=t.dsts,
            index=index,
            region=region,
            mask=t.mask,
            nbytes=t.nbytes,
            phase=t.phase,
            entry_idx=t.entry_idx,
        ))
    return CommPlan(transfers, plan.wire_pairs, plan.wire_bytes)


def send_once(plan: CommPlan) -> CommPlan:
    """``plan`` sending the union of its sections: each element at most
    once per destination and phase.  An unmasked transfer whose box lies
    inside another unmasked box of the same array, phase and source
    loses the destinations the two share — the other box delivers those
    elements, with the same values, in the same round.  Of two equal
    boxes the earlier transfer keeps them.  Partial overlaps and masked
    transfers stay as planned; ``wire_bytes`` is what is left, and
    ``wire_pairs`` cannot change (the outer box still reaches every
    partner).  Returns ``plan`` itself when nothing nests.

    Runs on the plan the executor uses, after :func:`translate_plan`:
    entries translate by their own deltas, so a box that nests in the
    canonical plan need not nest in a translated one."""
    transfers = plan.transfers
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(transfers):
        if t.mask is None:
            for dst in t.dsts:
                groups.setdefault((t.phase, t.src, dst, t.array), []).append(i)
    dropped: dict[int, set[int]] = {}
    for (_, _, dst, _), members in groups.items():
        if len(members) < 2:
            continue
        for i in members:
            inner = transfers[i].region
            if any(
                transfers[j].region.contains(inner)
                and (j < i or not inner.contains(transfers[j].region))
                for j in members if j != i
            ):
                dropped.setdefault(i, set()).add(dst)
    if not dropped:
        return plan
    kept: list[PlannedTransfer] = []
    nbytes = 0
    for i, t in enumerate(transfers):
        gone = dropped.get(i)
        if gone:
            dsts = tuple(d for d in t.dsts if d not in gone)
            if not dsts:
                continue
            t = replace(t, dsts=dsts)
        kept.append(t)
        nbytes += t.nbytes * sum(dst != t.src for dst in t.dsts)
    return CommPlan(kept, plan.wire_pairs, nbytes)
