"""The perf ledger: one benchmark harness for the whole labeling stack.

``benchmarks/perf/run.py`` is the entry point; see ``README.md`` beside it
for the workloads, the metrics and how they interact.  ``stats`` is pure
(stdlib + numpy) and unit-tested by ``test_harness.py``; every other
module drives ``repro`` through its public API only.
"""
