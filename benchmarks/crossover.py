"""Where a kernel row should stop being a gather: the crossover table.

Rows of at most ``repro.runtime.kernels.CROSSOVER`` elements join their
array's one flat gather over every rank; larger ones stay numpy views of
one rank's storage.  This script times the 24 ``run_compute`` classes of
the end-to-end benchmark (benchmark sizes, one data seed) under several
crossovers in one process, the forms alternating run by run, and prints
per crossover the geometric mean of the per-class median times, its
ratio to the all-views form (every row a view, one per rank: the form
before the stacked layout) and the worst class ratio::

    PYTHONPATH=src python benchmarks/crossover.py --reps 9

A crossover takes effect when an image is built and when a run binds
it, so each form executes its own compiled copy of every class, with
``CROSSOVER`` set to the form's value.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import corpus  # noqa: E402

from repro.core.pipeline import compile_program  # noqa: E402
from repro.runtime import kernels  # noqa: E402
from repro.runtime.spmd import execute_spmd  # noqa: E402

#: The forms timed: no gathers at all, three crossovers, all gathers.
FORMS = {
    "all views": 0,
    "256": 256,
    "512": 512,
    "1024": 1024,
    "all gathers": 2**62,
}


def build(crossover: int, classes: list, seed: int) -> dict:
    """Every class compiled and executed once (the image built) under
    ``crossover``."""
    kernels.CROSSOVER = crossover
    results = {}
    for cls in classes:
        result = compile_program(cls.source, cls.param_dict, cls.strategy)
        execute_spmd(result, seed=seed)
        results[cls.name] = result
    return results


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    warnings.simplefilter("ignore")  # the programs overflow on purpose
    classes = corpus.run_compute_classes()
    saved = kernels.CROSSOVER
    times = {form: {c.name: [] for c in classes} for form in FORMS}
    try:
        built = {
            form: build(value, classes, args.seed)
            for form, value in FORMS.items()
        }
        for _ in range(args.reps):
            for cls in classes:
                for form, value in FORMS.items():
                    kernels.CROSSOVER = value
                    t0 = time.perf_counter()
                    execute_spmd(built[form][cls.name], seed=args.seed)
                    times[form][cls.name].append(time.perf_counter() - t0)
    finally:
        kernels.CROSSOVER = saved
    medians = {
        form: {name: statistics.median(ts) for name, ts in per.items()}
        for form, per in times.items()
    }
    base = medians["all views"]
    print("| form | gmean of per-class medians | vs all views | worst class |")
    print("|---|---|---|---|")
    for form, per in medians.items():
        ratios = {name: per[name] / base[name] for name in per}
        worst = max(ratios, key=ratios.get)
        print(
            f"| {form} | {gmean(per.values()) * 1e3:.2f} ms "
            f"| ×{gmean(ratios.values()):.3f} "
            f"| {worst} ×{ratios[worst]:.2f} |"
        )


if __name__ == "__main__":
    main()
