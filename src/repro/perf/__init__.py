"""Pipeline-wide performance layer.

This package holds everything that makes the compiler fast without
changing what it computes:

* :mod:`repro.perf.stats` — cache hit/miss instrumentation shared by the
  analysis caches (sections, dependence verdicts, combinability,
  subsumption, live ranges), and the SPMD executor's runtime counters;
* :mod:`repro.perf.cache` — the two-tier schedule cache behind the
  compile service, which the batch driver and ``repro serve`` share;
* :mod:`repro.perf.batch` — the batch-compile driver: a job list sent
  through the compile service (the "heavy traffic" serving scenario).

Speed is measured by the end-to-end benchmark (``benchmarks/e2e``,
declared in ``BENCHMARK.json``), not from inside this package.

Every *memo cache* is always on; ``tests/test_perf_caches.py`` checks
each verdict it serves against the same query on a fresh object.
Data-structure changes (position interning, dense dominator tables, the
CommSet inverted index) are exact by construction.

Submodules are imported lazily — ``import repro.perf`` must stay cheap
because :mod:`repro.core.context` imports :mod:`repro.perf.stats`.
"""
