"""Ordered map of a function over independent tasks on the usable CPUs.

``pmap(fn, items)`` returns ``[fn(item) for item in items]``. The pipeline
uses it where the iterations of a loop share nothing: the patients of a
phantom cohort, the studies of an extraction and the outer folds of a
cross-validation. Each task's result depends on its item alone, so the
outputs do not depend on how many workers ran them.

The worker count is the number of CPUs this process may run on (its affinity
mask), capped by the number of tasks; there is no flag, setting or
environment variable. With one worker, or one task, the map is a plain loop
in this process, so ``taskset -c 0 vcfclass ...`` runs serially. Otherwise
the tasks run on a pool of forked processes: ``fn`` must be a module-level
function (or a ``functools.partial`` of one), and every argument and result
is pickled. Threads are no use here, since the work is Python code that holds
the interpreter lock.

The pool's processes are all forked before its helper threads start. On the
first task to fail, in task order, the pending tasks are cancelled, the
workers joined, and that task's exception is raised with its own message, as
the serial loop would raise it. No worker outlives the call.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the affinity mask is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def pmap(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``, computed on up to ``usable_cpus()``
    processes; results come back in task order."""
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here, so that a one-CPU run does not carry the pool's modules
    # (about 2 MB of resident memory).
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
