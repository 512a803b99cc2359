"""The perf ledger: calibrated end-to-end and per-layer benchmark.

``PYTHONPATH=src python -m benchmarks.ledger`` — see README.md here.
"""
