"""The package's worker threads: one budget and one ordered runner.

`run_in_order` runs the CSV writer's chunks, the d = 1 SUD core bounds and
the blocks of the minimum gap.  Each caller asks `worker_count` for its
threads, so none of them runs on more than WORKERS, and the results are
consumed in index order, so what a call returns does not depend on the count.
"""

from __future__ import annotations

import os
import threading

# Most threads that one `run_in_order` call runs on, the calling thread
# among them.  Python code and short numpy calls hold the interpreter lock,
# so two threads gain less than 2x.  On a 2-vCPU Xeon (medians of 21
# interleaved runs) two threads against one wrote the three-grid's CSV at
# r = 200 in 0.118 s against 0.157 s, bounded a d = 1 SUD run's cores
# (N = 2^14, 256 twists) in 24 against 34 ms, and took `_min_gap` of the
# same three-grid from 74 to 63 ms, for 15-25% more CPU time.  Each thread
# holds one more result or slot: a CSV chunk (2.2 MB at peak), so a third
# thread would pass the 6 MB that two chunks fit, or max(1.5 MB, 24 bytes
# x core length) of SUD core buffers, since a block holds at least one
# twist row.  At N = 2^20 (tracemalloc), four twists peaked 0.7 MB below
# one twist on one thread, and 7.5 MB and 32.6 MB above it on two and three.
WORKERS = 2


def worker_count() -> int:
    """min(WORKERS, the CPUs this process may run on)."""
    if hasattr(os, "sched_getaffinity"):
        return min(WORKERS, len(os.sched_getaffinity(0)))
    return min(WORKERS, os.cpu_count() or 1)


def run_in_order(consume, make, count: int, workers: int):
    """Call consume(make(i)) for i = 0, ..., count - 1 in index order, on
    this thread (t = 0) and W - 1 more, W = min(workers, count).

    Thread t makes the indices i = t mod W.  After each make(i) it waits
    until every earlier result is consumed, consumes its own and goes on to
    i + W.  So each thread holds one result at a time, and make(i + W)
    starts only after consume(make(i)) has returned: make(i) may use slot
    i % W of W buffers, its own thread's.  An exception from make(i) is
    raised here when i is due; it, or one from consume, stops the other
    threads.  No thread outlives the call.  numpy's error state is per
    context, so an np.errstate around this call does not reach the others.
    """
    workers = max(1, min(workers, count))
    cond = threading.Condition()
    done = 0
    stop = False
    failure = None

    def work(t):
        nonlocal done, stop, failure
        for i in range(t, count, workers):
            try:
                result, error = make(i), None
            except BaseException as exc:  # raised when make(i) is due
                result, error = None, exc
            with cond:
                cond.wait_for(lambda: stop or done == i)
                if stop:
                    return
            try:
                if error is not None:
                    raise error
                consume(result)
            except BaseException as exc:  # the calling thread raises it
                with cond:
                    failure, stop = exc, True
                    cond.notify_all()
                return
            del result  # freed before this thread makes i + workers
            with cond:
                done += 1
                cond.notify_all()

    threads = []
    try:
        for t in range(1, workers):
            thread = threading.Thread(target=work, args=(t,))
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException:  # a thread that failed to start, or an interrupt
        with cond:
            stop = True
            cond.notify_all()
        raise
    finally:
        for thread in threads:
            thread.join()
    if failure is not None:
        raise failure
