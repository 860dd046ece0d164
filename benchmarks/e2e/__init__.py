"""Layered end-to-end benchmark: audio -> words through the serving tier
and the in-process server, plus the accelerator design-space sweep.

Entry points: ``python3 benchmarks/e2e/run.py`` (the BENCHMARK.json
command) or ``PYTHONPATH=src python -m benchmarks.e2e``; see README.md in
this directory for every metric and workload name.
"""
