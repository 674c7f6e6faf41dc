"""Fused per-rank kernel execution for the SPMD runtime.

The element-wise executor interprets every iteration of a planned nest:
it walks the RHS expression tree per element, evaluates each subscript,
and tests each read against the sequential shadow one value at a time.
All of that but the values is geometry, constant for a given (nest,
concrete loop geometry) pair — so plans become *compiled code*:

* Kernels are built once per program and bound once per run.  The
  program's :class:`~repro.runtime.spmd.ExecutionImage` keeps a
  :class:`KernelTemplate` per ``(nest sid, concrete loop geometry)`` —
  keyed like CommPlans.  A miss emits a specialized Python
  function (:mod:`repro.codegen.kernels`), compiles it, and records a
  *binding recipe*: which ``values`` / ``valid`` / shadow view each free
  name of the body takes, region by region.  :class:`KernelEngine` (one per executor)
  binds a template to this run's storage on its first firing, so a
  firing is one call of straight-line code over prebound numpy views:
  fused RHS statement, per-rank validity/staleness checks, per-rank
  stores, shadow advance.  The movement accounting (remote reads, bcopy
  calls, elements written) is translation-invariant across firings of
  one geometry and is precomputed at build time.

* Subscript offsets that vary across firings (an enclosing loop variable
  indexing a serial dimension) become runtime arguments evaluated per
  firing; offsets that move along a *distributed* dimension would change
  rank participation, so such nests run element-wise with the reason
  recorded (:attr:`KernelEngine.ineligible`).

* The legacy direct-copy communication path gets the same treatment:
  :meth:`KernelEngine.execute_plan_copy` compiles each CommPlan's
  transfer list (the template hangs on the plan) into one straight-line
  function over prebound views —
  boundary data moves storage-to-storage without the interpreted loop's
  intermediate block copy, with the oracle checks emitted inline.

Correctness posture: the emitted code computes each element with the
same IEEE operations, in the same order, as the element-wise
interpreter, so final state is bitwise-identical; the validity and
staleness oracles test the same elements — per rank and array the
*cover* of the references' regions (:func:`~repro.sections.rsd.cover`:
exactly their elements, in the fewest sections) instead of one element
at a time — and name the same statement, rank, array and failure kind,
so every failure mode the interpreter detects, the kernel detects.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass

import numpy as np

from ..affine import NonAffineError
from ..codegen.kernels import (
    NestSpec,
    analyze_kernel_spec,
    bind_fn,
    box_slice_literal,
    compile_fn,
    emit_index,
    fused_rhs_source,
)
from ..errors import SimulationError
from ..sections.rsd import cover
from .darray import count_nonzero, fresh, np_index
from .plans import (
    CommPlan,
    NestPlan,
    PlanFallback,
    aligned_block,
    block_alignment,
    concretize_nest,
    rank_kbox,
    ref_np_index,
    ref_region,
    var_axis_block,
)

__all__ = ["KernelEngine", "KernelTemplate"]


@dataclass
class KernelTemplate:
    """One emitted kernel, independent of any run's storage.

    ``static`` holds the free names bound to run-independent objects
    (numpy, error types, masks, loop-variable blocks).  ``recipe`` names
    the rest, one item per region: ``(rank, array, index, align, valid,
    values, shadow)`` binds the names ``valid`` / ``values`` to ``index``
    of rank ``rank``'s validity / value array and ``shadow`` to the same
    region of the sequential shadow — ``None`` for a view the body does
    not use, the whole array when ``index`` is ``None``, the shadow view
    taken to iteration-box order when ``align`` holds a
    :func:`~repro.runtime.plans.block_alignment`.  The accounting
    constants are firing-invariant and counted once, at build time —
    ``sections`` is the number of (rank, section) freshness tests the
    body makes, after the read cover.
    """

    code: types.CodeType
    static: dict
    recipe: tuple
    elements: int = 0
    bcopy_calls: int = 0
    remote_reads: int = 0
    sections: int = 0

    def __post_init__(self) -> None:
        # A template lives as long as its program: share each name with
        # the code object's (interned) copy instead of keeping a second.
        self.recipe = tuple(
            (*item[:4], *(n and sys.intern(n) for n in item[4:]))
            for item in self.recipe
        )

    def bind(self, storage: dict, shadow: dict):
        """The kernel as a function over one run's rank ``storage`` and
        ``shadow`` arrays."""
        ns = dict(self.static)
        for rank, array, index, align, valid, values, shadowed in self.recipe:
            if shadowed:
                view = shadow[array]
                if index is not None:
                    view = view[index]
                if align is not None:
                    view = view.transpose(align[0]).reshape(align[1])
                ns[shadowed] = view
            if rank is None:
                continue
            store = storage[rank][array]
            if valid:
                ns[valid] = (
                    store.valid if index is None else store.valid[index]
                )
            if values:
                ns[values] = (
                    store.values if index is None else store.values[index]
                )
        return bind_fn(self.code, ns)


class KernelEngine:
    """Dispatches fused kernels for one :class:`SPMDExecutor`: templates
    come from (and on a miss go into) the executor's image, the bound
    functions are this run's.

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
        self._nest_fns: dict[tuple, tuple] = {}
        self._copy_fns: dict[tuple, tuple] = {}

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
        bound = self._nest_fns.get(key)
        built = False
        if bound is None:
            t0 = time.perf_counter()
            try:
                kern, built = image.publish(
                    image.nest_templates, key,
                    lambda: self._build_nest(spec, env),
                )
                bound = self._nest_fns[key] = (
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

        kern, call = bound
        try:
            call(*args)
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

    # -- nest kernel construction -----------------------------------------

    def _build_nest(self, spec: NestSpec, env: dict) -> KernelTemplate:
        """Emit and compile one nest geometry.  Reads the building run's
        shadow arrays only to prove layout facts every run shares (same
        shapes, same C order); nothing of the run ends up in the
        template."""
        info = self.info
        image = self.image
        planner = image.planner
        plan = spec.plan
        conc = concretize_nest(plan, env, info)
        assert conc is not None  # caller proved counts > 0
        full = conc.full_box()
        name = conc.lhs.name
        layout = info.layout(name)
        sid = plan.assign.sid

        static = {"_np": np, "_PF": PlanFallback, **_CHECK_NAMES}
        recipe: list[tuple] = []
        nargs = len(spec.dyn_args) + len(spec.scal_args)
        body: list[str] = []

        def bases_of(rp):
            return [sp.base.evaluate(env) for sp in rp.subs]

        # Runtime bounds checks for every dynamic-offset dimension: the
        # build-time concretization proved *this* firing in bounds; other
        # firings of the same geometry must re-prove their offsets.
        emitted_checks: set[str] = set()
        all_refs = [("lhs", 0, plan.lhs)] + [
            ("rhs", rid, rp) for rid, rp in plan.rhs_refs.items()
        ]
        for kind, rid, rp in all_refs:
            extents = info.shape(rp.name)
            for d, sp in enumerate(rp.subs):
                dyn = spec.dyn_dims.get((kind, rid, d))
                if dyn is None:
                    continue
                if sp.var is None:
                    cond = f"1 <= _q{dyn.arg} <= {extents[d]}"
                else:
                    axis = plan.vars.index(sp.var)
                    lo_v, step, count = conc.axes[axis]
                    off = sp.coeff * lo_v
                    last = off + sp.coeff * step * (count - 1)
                    cond = (
                        f"1 <= _q{dyn.arg} + {off} and "
                        f"_q{dyn.arg} + {last} <= {extents[d]}"
                    )
                line = (
                    f"    if not ({cond}): raise "
                    f"_PF('subscript of {rp.name} out of bounds')"
                )
                if line not in emitted_checks:
                    emitted_checks.add(line)
                    body.append(line)

        # RHS reference blocks: prebound aligned views when static, an
        # inline slice + align call when the offset is a runtime argument.
        ref_exprs: dict[int, str] = {}
        ref_bases: dict[int, list] = {}
        dyn_ref: dict[int, bool] = {}
        for j, (rid, rp) in enumerate(plan.rhs_refs.items()):
            cref = conc.refs[rid]
            bases = ref_bases[rid] = bases_of(rp)
            is_dyn = any(
                ("rhs", rid, d) in spec.dyn_dims for d in range(len(rp.subs))
            )
            if not is_dyn:
                shadow_arr = self.shadow.arrays[cref.name]
                idx = ref_np_index(cref, full)
                blk = aligned_block(shadow_arr[idx], cref, full)
                # The prebound block must be a live view of the shadow
                # array (reshape inserting size-1 axes never copies, but
                # don't let that assumption fail silently).
                is_dyn = not np.shares_memory(blk, shadow_arr)
                if not is_dyn:
                    recipe.append((
                        None, cref.name, idx, block_alignment(cref, full),
                        None, None, f"_b{j}",
                    ))
            dyn_ref[rid] = is_dyn
            if is_dyn:
                recipe.append(
                    (None, cref.name, None, None, None, None, f"_arr{j}")
                )
                static[f"_align{j}"] = _aligner(cref, full)
                ix = emit_index(spec, "rhs", rid, rp, cref, full, bases)
                body.append(f"    _b{j} = _align{j}(_arr{j}[{ix}])")
            ref_exprs[rid] = f"_b{j}"

        for axis in range(len(plan.vars)):
            static[f"_ax{axis}"] = var_axis_block(conc, axis, full)

        expr = fused_rhs_source(spec, conc, ref_exprs)
        body.append(
            f"    _blk = _np.broadcast_to("
            f"_np.asarray({expr}, _np.float64), {conc.shape!r})"
        )

        perm = tuple(d[1] for d in conc.lhs.dims if d[0] == "a")
        body.append(f"    _val = _blk.transpose({perm!r})")
        lhs_bases = bases_of(plan.lhs)
        lhs_dyn = any(
            ("lhs", 0, d) in spec.dyn_dims for d in range(len(plan.lhs.subs))
        )

        remote_reads = 0
        bcopy = 0
        sections = 0
        ref_index = {rid: j for j, rid in enumerate(plan.rhs_refs)}

        def emit_rank(gr, kbox) -> None:
            nonlocal remote_reads, sections
            r = gr.rank
            # Cover, then check.  Per array read: the static references'
            # regions, and one (valid, values, shadow, size) test per
            # dynamic-offset reference (its region moves with the firing).
            reads: dict[str, tuple[list, list]] = {}
            for rid, cref in conc.refs.items():
                j = ref_index[rid]
                region = ref_region(cref, kbox)
                statics, checks = reads.setdefault(cref.name, ([], []))
                if not dyn_ref[rid]:
                    statics.append(region)
                else:
                    recipe.append((
                        r, cref.name, None, None,
                        f"_rv{j}_{r}", f"_rs{j}_{r}", None,
                    ))
                    ix = emit_index(
                        spec, "rhs", rid, plan.rhs_refs[rid], cref, kbox,
                        ref_bases[rid],
                    )
                    checks.append((
                        f"_rv{j}_{r}[{ix}]", f"_rs{j}_{r}[{ix}]",
                        f"_arr{j}[{ix}]", region.count(),
                    ))
                # movement accounting, hoisted to build time: regions on
                # dynamic (serial, in-bounds) dims translate rigidly, so
                # the local/remote split is firing-invariant.
                rlayout = info.layout(cref.name)
                rown = image.ownership[cref.name]
                owned = planner.owner_semantics_region(rlayout, rown, gr)
                local = (
                    region.intersect(owned).count() if owned is not None
                    else 0
                )
                repeat = 1
                for axis, (_, _, kcount) in enumerate(kbox):
                    if axis not in cref.axes:
                        repeat *= kcount
                remote_reads += (region.count() - local) * repeat

            for a, (array, (statics, checks)) in enumerate(reads.items()):
                # Static references verify the fewest sections that hold
                # exactly their elements.
                for n, section in enumerate(cover(statics)):
                    names = tuple(f"_{c}{a}_{n}_{r}" for c in "vse")
                    recipe.append(
                        (r, array, np_index(section), None, *names)
                    )
                    checks.append((*names, section.count()))
                invalid = (
                    f"read of {array} at s{sid}: elements not present "
                    f"on rank {r} (missing or misplaced communication)"
                )
                stale = (
                    f"rank {r} read stale {array} at s{sid}: rank data "
                    f"disagrees with the sequential semantics"
                )
                lines = [emit_checks(*c, invalid, stale) for c in checks]
                body.extend(valid for valid, _ in lines)
                body.extend(same for _, same in lines)
                sections += len(checks)

            if layout.distributed_dims:
                value = f"_blk[{box_slice_literal(kbox)}].transpose({perm!r})"
            else:
                value = "_val"
            if not lhs_dyn:
                idx = ref_np_index(conc.lhs, kbox)
                recipe.append(
                    (r, name, idx, None, f"_lv{r}", f"_lw{r}", None)
                )
                body.append(f"    _lw{r}[...] = {value}")
                body.append(f"    _lv{r}[...] = True")
            else:
                recipe.append(
                    (r, name, None, None, f"_flv{r}", f"_flw{r}", None)
                )
                ix = emit_index(
                    spec, "lhs", 0, plan.lhs, conc.lhs, kbox, lhs_bases
                )
                body.append(f"    _flw{r}[{ix}] = {value}")
                body.append(f"    _flv{r}[{ix}] = True")

        if not layout.distributed_dims:
            for gr in image.ranks:
                emit_rank(gr, full)
                bcopy += 1
        else:
            for gr in image.ranks:
                kbox = rank_kbox(conc, image.owned[gr.rank, name])
                if kbox is None:
                    continue
                emit_rank(gr, kbox)
                bcopy += 1

        # Shadow advance, last: every check above compares against the
        # shadow as it was before the firing.
        if not lhs_dyn:
            recipe.append((
                None, name, ref_np_index(conc.lhs, full), None,
                None, None, "_shwv",
            ))
            body.append("    _shwv[...] = _val")
        else:
            recipe.append((None, name, None, None, None, None, "_shw"))
            ix = emit_index(spec, "lhs", 0, plan.lhs, conc.lhs, full, lhs_bases)
            body.append(f"    _shw[{ix}] = _val")

        sig = ", ".join(f"_q{i}" for i in range(nargs))
        source = f"def _kernel({sig}):\n" + "\n".join(body) + "\n"
        elements = 1
        for count in conc.shape:
            elements *= count
        return KernelTemplate(
            code=compile_fn(source, f"s{sid}"),
            static=static,
            recipe=recipe,
            elements=elements,
            bcopy_calls=bcopy,
            remote_reads=remote_reads,
            sections=sections,
        )

    # -- communication copy kernels ----------------------------------------

    def execute_plan_copy(self, key: tuple, plan: CommPlan) -> None:
        """Run one CommPlan on the legacy direct-copy data path as a
        single compiled function (validity + staleness + slice-to-slice
        installs over prebound views, no intermediate block copies).
        ``key`` is the plan's key in the image's table: it names this
        run's binding of the plan's copy template."""
        stats = self.stats
        bound = self._copy_fns.get(key)
        built = False
        if bound is None:
            t0 = time.perf_counter()
            kern = plan.copy
            if kern is None:
                with self.image.lock:
                    kern = plan.copy
                    if kern is None:
                        kern = plan.copy = _build_copy(plan)
                        built = True
            bound = self._copy_fns[key] = (
                kern, kern.bind(self.storage, self.shadow.arrays)
            )
            stats.plan_compile_s += time.perf_counter() - t0
        if built:
            stats.kernel_compiles += 1
        else:
            stats.kernel_cache_hits += 1
        kern, call = bound
        call()
        stats.kernel_firings += 1
        stats.bcopy_calls += kern.bcopy_calls
        stats.sections_verified += kern.sections
        stats.messages += len(plan.wire_pairs)
        stats.bytes_moved += plan.wire_bytes


def emit_checks(
    valid: str, values: str, expected: str, size: int,
    invalid: str, stale: str,
) -> tuple[str, str]:
    """The emitted form of :func:`~repro.runtime.darray.all_valid` and
    :func:`~repro.runtime.darray.fresh` over ``size`` elements: their
    fast paths inline (no Python call on a pass), the NaN-aware slow
    path behind a mismatch.  Returns the validity line and the
    staleness line."""
    return (
        f"    if _cnz({valid}) != {size}: raise _err({invalid!r})",
        f"    _cnz({values} != {expected}) and "
        f"_stale({values}, {expected}, {stale!r})",
    )


def _stale(values, expected, message: str) -> None:
    """The slow path of an emitted staleness test: a mismatch was seen;
    raise unless it is a NaN the semantics hold too."""
    if not fresh(values, expected):
        raise SimulationError(message)


_CHECK_NAMES = {"_err": SimulationError, "_cnz": count_nonzero, "_stale": _stale}


def _build_copy(plan: CommPlan) -> KernelTemplate:
    static = dict(_CHECK_NAMES)
    recipe: list[tuple] = []
    body: list[str] = []
    bcopy = 0
    for k, t in enumerate(plan.transfers):
        recipe.append((
            t.src, t.array, t.index, None,
            f"_sv{k}", f"_sd{k}", f"_ex{k}",
        ))
        recipe.extend(
            (dst, t.array, t.index, None,
             f"_dm{k}_{dst}", f"_dv{k}_{dst}", None)
            for dst in t.dsts
        )
        if t.mask is None:
            take, moved = "[...]", f"_sd{k}"
            body.extend(emit_checks(
                f"_sv{k}", f"_sd{k}", f"_ex{k}", t.region.count(),
                f"extracting invalid data from {t.array} {t.region}",
                f"stale data shipped for {t.array} {t.region}: sender "
                f"holds values that disagree with the sequential semantics",
            ))
        else:
            take, moved = f"[_mk{k}]", f"_t{k}"
            static[f"_mk{k}"] = t.mask
            valid, same = emit_checks(
                f"_sv{k}{take}", moved, f"_ex{k}{take}", int(t.mask.sum()),
                f"diagonal forwarding of {t.array}: source rank "
                f"{t.src} missing forwarded data",
                f"stale data shipped for {t.array} (diagonal phase)",
            )
            body += [valid, f"    {moved} = _sd{k}{take}", same]
        for dst in t.dsts:
            body.append(f"    _dv{k}_{dst}{take} = {moved}")
            body.append(f"    _dm{k}_{dst}{take} = True")
        bcopy += 1 + len(t.dsts)
    if not body:
        body.append("    pass")
    source = "def _copy():\n" + "\n".join(body) + "\n"
    return KernelTemplate(
        code=compile_fn(source, "commplan"),
        static=static,
        recipe=recipe,
        bcopy_calls=bcopy,
        sections=len(plan.transfers),
    )


def _aligner(cref, kbox):
    """A partially-applied :func:`aligned_block` safe to close over."""

    def align(raw):
        return aligned_block(raw, cref, kbox)

    return align
