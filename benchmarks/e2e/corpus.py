"""Inputs of the end-to-end benchmark: programs, sizes, op classes, refs.

Everything a workload feeds the system under test is built here from the
workload seed.  The seed changes what the program can observe but not
what the exact count metrics depend on: it shuffles the op order, renames
the arrays of the synthetic programs, picks the data seed of executions
and draws the service's request keys.  Problem sizes and program shapes
are constants of this file, so ``call_sites_per_program``,
``wire_msgs_per_op`` and ``wire_bytes_per_lb`` repeat exactly across
seeds and any difference is a change in the compiler or runtime.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.evaluation.programs import BENCHMARKS

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

#: Data seeds with checked-in reference digests.  The workload seed
#: picks one; the element-wise interpreter takes up to 30 s per program
#: at the run sizes, too long to recompute in every run.
DATA_SEEDS = (11, 23, 37, 41)

STRATEGIES = ("orig", "nored", "comb")

#: compile_corpus / serve_mixed sizes.  Compile time and call sites do
#: not depend on ``n`` below the combining threshold (checked up to 16);
#: small sizes keep the oracle and the executions of verification cheap,
#: smaller still for the three-dimensional programs.  Trip counts only
#: matter to verification cost.
COMPILE_SIZES = {
    "shallow": ({"nsteps": 2}, (8, 9, 10)),
    "gravity": ({}, (6, 7, 8)),
    "trimesh": ({"nsweeps": 2}, (8, 9, 10)),
    "trimesh_gauss": ({"nsweeps": 2}, (8, 9, 10)),
    "hydflo_flux": ({"nsteps": 1}, (6, 7, 8)),
    "hydflo_hydro": ({"nsteps": 1}, (6, 7, 8)),
}
SYNTH_PHASES = (16, 32, 64)

#: run_compute / run_wire sizes: the largest at which every program
#: stays numerically bounded and a round stays near two seconds.
RUN_SIZES = {
    "shallow": {"n": 64, "nsteps": 6},
    "gravity": {"n": 20},
    "trimesh": {"n": 48, "nsweeps": 3},
    "trimesh_gauss": {"n": 48, "nsweeps": 3},
    "hydflo_flux": {"n": 24, "nsteps": 4},
    "hydflo_hydro": {"n": 24, "nsteps": 4},
}
RUN_GRIDS = ((2, 2), (4, 4))
WIRE_PROGRAMS = ("gravity", "shallow", "hydflo_flux")
#: multiprocess runs at 1x2: two rank processes fill the two cores of
#: the reference box; more ranks than cores measures the scheduler.
WIRE_BACKENDS = (("threaded", (2, 2)), ("multiprocess", (1, 2)))

SMOKE_RUN_SIZES = {
    "shallow": {"n": 12, "nsteps": 2},
    "gravity": {"n": 8},
    "trimesh": {"n": 12, "nsweeps": 1},
    "trimesh_gauss": {"n": 12, "nsweeps": 1},
    "hydflo_flux": {"n": 8, "nsteps": 1},
    "hydflo_hydro": {"n": 8, "nsteps": 1},
}


@dataclass(frozen=True)
class OpClass:
    """One distinct program x params x strategy x backend."""

    name: str
    program: str
    source: str = field(repr=False)
    params: tuple[tuple[str, int], ...]
    strategy: str
    backend: Optional[str] = None

    @property
    def param_dict(self) -> dict[str, int]:
        return dict(self.params)


def _params(program_sizes: dict[str, int], grid: tuple[int, int]) -> tuple:
    merged = dict(program_sizes, pr=grid[0], pc=grid[1])
    return tuple(sorted(merged.items()))


def workload_rng(workload: str, seed: int) -> random.Random:
    """String seeding hashes with sha512, so it ignores the hash salt."""
    return random.Random(f"e2e:{workload}:{seed}")


def data_seed_for(seed: int) -> int:
    return DATA_SEEDS[seed % len(DATA_SEEDS)]


# -- synthetic multi-phase stencils -----------------------------------------

_SHIFTS = ("3:n, 2:n-1", "1:n-2, 2:n-1", "2:n-1, 3:n", "2:n-1, 1:n-2")
_SYNTH_ARRAYS = 8


def synthetic_stencil(phases: int, names: random.Random) -> str:
    """A time-stepped program of ``phases`` stencil updates over eight
    (BLOCK, BLOCK) arrays, two shifted reads each, so entries grow as
    2 x phases and candidate chains with them: quadratic behaviour in
    core/dependence/sections shows on the larger members.

    The structure (which array each phase writes and reads, in which
    direction) comes from a fixed generator so compile time is the same
    for every workload seed; ``names`` only renames the arrays.
    """
    shape = random.Random(f"e2e:synthetic:{phases}")
    pool = [f"{a}{b}" for a in "abcdefghkmpqrstuvw" for b in "0123456789"]
    arrays = names.sample(pool, _SYNTH_ARRAYS)
    lines = [
        f"PROGRAM synth{phases}",
        "  PARAM n = 8", "  PARAM pr = 2", "  PARAM pc = 2",
        "  PARAM nsteps = 1",
        "  PROCESSORS procs(pr, pc)",
        "  TEMPLATE t(n, n)",
        "  DISTRIBUTE t(BLOCK, BLOCK) ONTO procs",
    ]
    lines += [f"  REAL {a}(n, n) ALIGN WITH t" for a in arrays]
    lines.append("  DO step = 1, nsteps")
    for _ in range(phases):
        target, left, right = shape.sample(range(_SYNTH_ARRAYS), 3)
        lsec, rsec = shape.sample(_SHIFTS, 2)
        t, a, b = arrays[target], arrays[left], arrays[right]
        lines.append(
            f"    {t}(2:n-1, 2:n-1) = 0.5 * {t}(2:n-1, 2:n-1) + "
            f"0.25 * ({a}({lsec}) + {b}({rsec}))"
        )
    lines += ["  END DO", "END PROGRAM", ""]
    return "\n".join(lines)


# -- op classes ---------------------------------------------------------------


def compile_classes(seed: int, smoke: bool = False) -> list[OpClass]:
    """6 Figure 10 programs x 3 strategies x 3 sizes, plus three
    synthetic stencils x 3 strategies."""
    phases = (12,) if smoke else SYNTH_PHASES
    out = fig10_compile_classes(smoke)
    names = workload_rng("synthetic-names", seed)
    for count in phases:
        source = synthetic_stencil(count, names)
        for strategy in STRATEGIES:
            out.append(OpClass(
                f"synth{count}:{strategy}", f"synth{count}", source,
                _params({"n": 8, "nsteps": 1}, (2, 2)), strategy,
            ))
    return out


def fig10_compile_classes(smoke: bool = False) -> list[OpClass]:
    """Also the hot key set of serve_mixed."""
    return [
        OpClass(
            f"{program}:{strategy}:n{n}", program, source,
            _params(dict(COMPILE_SIZES[program][0], n=n), (2, 2)), strategy,
        )
        for program, source in BENCHMARKS.items()
        for strategy in STRATEGIES
        for n in COMPILE_SIZES[program][1][:1 if smoke else None]
    ]


def run_compute_classes(smoke: bool = False) -> list[OpClass]:
    sizes = SMOKE_RUN_SIZES if smoke else RUN_SIZES
    grids = RUN_GRIDS[:1] if smoke else RUN_GRIDS
    return [
        OpClass(
            f"{program}:{strategy}:{grid[0]}x{grid[1]}", program, source,
            _params(sizes[program], grid), strategy,
        )
        for program, source in BENCHMARKS.items()
        for strategy in ("orig", "comb")
        for grid in grids
    ]


def run_wire_classes(smoke: bool = False) -> list[OpClass]:
    sizes = SMOKE_RUN_SIZES if smoke else RUN_SIZES
    return [
        OpClass(
            f"{program}:{strategy}:{backend}", program, BENCHMARKS[program],
            _params(sizes[program], grid), strategy, backend,
        )
        for program in WIRE_PROGRAMS
        for strategy in ("orig", "comb")
        for backend, grid in WIRE_BACKENDS
    ]


#: Parameter space of never-seen service keys, per program: ranges in
#: which call sites stay what they are at the hot sizes, wide enough
#: that a run never exhausts them.
FRESH_SPACE = {
    "shallow": {"n": (8, 16), "nsteps": (1, 100000)},
    "gravity": {"n": (8, 400), "pr": (2, 4), "pc": (2, 4)},
    "trimesh": {"n": (8, 16), "nsweeps": (1, 100000)},
    "trimesh_gauss": {"n": (8, 16), "nsweeps": (1, 100000)},
    "hydflo_flux": {"n": (8, 16), "nsteps": (1, 100000)},
    "hydflo_hydro": {"n": (8, 16), "nsteps": (1, 100000)},
}


class FreshKeys:
    """Seeded generator of (program, strategy, params) never issued
    before in this run and never in the hot set."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.combos = [(p, s) for p in BENCHMARKS for s in STRATEGIES]
        self.seen = {
            (c.program, c.strategy, c.params) for c in fig10_compile_classes()
        }

    def make(self, slot: int) -> OpClass:
        program, strategy = self.combos[slot % len(self.combos)]
        for _ in range(1000):
            drawn = {"pr": 2, "pc": 2}
            for name, (lo, hi) in FRESH_SPACE[program].items():
                drawn[name] = self.rng.randint(lo, hi)
            params = tuple(sorted(drawn.items()))
            if (program, strategy, params) not in self.seen:
                self.seen.add((program, strategy, params))
                return OpClass(
                    f"fresh:{program}:{strategy}", program,
                    BENCHMARKS[program], params, strategy,
                )
        raise RuntimeError(f"fresh key space of {program} exhausted")


# -- references -----------------------------------------------------------------


def arrays_digest(arrays: dict) -> str:
    """sha256 over the final state, names sorted; bitwise equality of
    two states is equality of their digests."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name], dtype=np.float64)
        h.update(f"{name}{value.shape}".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def _ref_key(cls: OpClass, with_grid: bool) -> str:
    items = [
        f"{k}={v}" for k, v in cls.params if with_grid or k not in ("pr", "pc")
    ]
    return f"{cls.program}|{','.join(items)}"


class Refs:
    """Checked-in references, produced only by the element-wise
    interpreter (digests) and ``repro.cost.lower_bound`` (floors); a
    class without an entry is computed live and the time charged to the
    caller."""

    def __init__(self, path: Path = REFS_PATH) -> None:
        self.path = path
        data = json.loads(path.read_text()) if path.exists() else {}
        self.digests: dict[str, str] = data.get("digests", {})
        self.floors: dict[str, int] = data.get("floors", {})
        self.live = 0

    def digest(self, cls: OpClass, info, data_seed: int) -> str:
        key = f"{_ref_key(cls, with_grid=False)}|seed={data_seed}"
        known = self.digests.get(key)
        if known is None:
            known = self.compute_digest(info, data_seed)
            self.live += 1
        return known

    def floor(self, cls: OpClass, info) -> int:
        known = self.floors.get(_ref_key(cls, with_grid=True))
        if known is None:
            known = self.compute_floor(info)
            self.live += 1
        return known

    @staticmethod
    def compute_digest(info, data_seed: int) -> str:
        from repro import interpret

        return arrays_digest(interpret(info, data_seed))

    @staticmethod
    def compute_floor(info) -> int:
        from repro.cost.lower_bound import lower_bound

        return lower_bound(info).wire_floor_bytes

    def regenerate(self, verify: bool) -> bool:
        """Recompute every reference the default sizes need.  With
        ``verify`` compare against the file instead of rewriting it."""
        from repro import compile_program

        digests: dict[str, str] = {}
        floors: dict[str, int] = {}
        classes = (
            fig10_compile_classes() + run_compute_classes()
            + run_wire_classes()
        )
        for cls in classes:
            if cls.strategy != "orig":
                continue  # references do not depend on the strategy
            info = compile_program(
                cls.source, cls.param_dict, cls.strategy
            ).info
            fkey = _ref_key(cls, with_grid=True)
            if fkey not in floors:
                floors[fkey] = self.compute_floor(info)
                print(f"floor  {fkey} = {floors[fkey]}")
            for data_seed in DATA_SEEDS:
                dkey = f"{_ref_key(cls, with_grid=False)}|seed={data_seed}"
                if dkey not in digests:
                    digests[dkey] = self.compute_digest(info, data_seed)
                    print(f"digest {dkey} = {digests[dkey][:16]}")
        if verify:
            ok = digests == self.digests and floors == self.floors
            print("refs.json matches" if ok else "refs.json DIFFERS")
            return ok
        self.path.write_text(json.dumps(
            {"data_seeds": list(DATA_SEEDS),
             "digests": digests, "floors": floors},
            indent=1, sort_keys=True,
        ) + "\n")
        return True
