"""Pipeline-wide performance layer.

This package holds everything that makes the compiler fast without
changing what it computes:

* :mod:`repro.perf.stats` — cache hit/miss instrumentation shared by the
  analysis caches (sections, dependence verdicts, combinability,
  subsumption, live ranges), and the SPMD executor's runtime counters;
* :mod:`repro.perf.cache` — the two-tier schedule cache shared by the
  batch driver and the compile service;
* :mod:`repro.perf.batch` — the parallel batch-compile driver with a
  content-hash result cache (the "heavy traffic" serving scenario).

Speed is measured by the end-to-end benchmark (``benchmarks/e2e``,
declared in ``BENCHMARK.json``), not from inside this package.

Every *memo cache* is ablatable through
:attr:`repro.core.context.CompilerOptions.enable_caches`; cached and
uncached pipelines are asserted byte-identical by
``tests/test_perf_caches.py``.  Data-structure changes (position
interning, dense dominator tables, the CommSet inverted index) are exact
by construction and always on.

Submodules are imported lazily — ``import repro.perf`` must stay cheap
because :mod:`repro.core.context` imports :mod:`repro.perf.stats`.
"""
