"""Deliberately hazardous module that trips every determinism-lint rule.

Never imported by the package or the tests — it exists as ground truth for
``tests/test_lint.py`` and the CI job, which assert that
``python -m repro lint tests/fixtures/lint_bad_example.py`` exits non-zero
and reports every rule in the catalogue.
"""

import heapq
import random
import time


def bad_event_queue():
    """Hand-rolled heapq event queue instead of the kernel scheduler."""
    queue = []
    heapq.heappush(queue, (0, "boot"))
    return heapq.heappop(queue)


def bad_jitter():
    """Draws entropy from the OS pool and the wall clock."""
    rng = random.Random()
    return rng.random() + time.time()


def bad_schedule(pending={1, 2, 3}):
    """Hash-ordered scheduling keyed on allocation addresses."""
    order = {}
    for flow in set(pending):
        order[id(flow)] = flow
    return order


def bad_deadline(now):
    """Exact float comparison in time logic."""
    return now == 0.001

