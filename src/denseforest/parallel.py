"""The package's worker threads: one budget and one ordered runner.

`run_in_order` runs the CSV writer's chunks, the d = 1 SUD core bounds and
the blocks of the minimum gap.  Each caller asks `worker_count` for its
threads, so none of them runs on more than WORKERS, and each consumes its
results in index order, so what it returns does not depend on the count.
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
# thread would pass the 6 MB that two chunks fit, or 1.5 MB of SUD core
# buffers.
WORKERS = 2


def worker_count() -> int:
    """min(WORKERS, the CPUs this process may run on)."""
    if hasattr(os, "sched_getaffinity"):
        return min(WORKERS, len(os.sched_getaffinity(0)))
    return min(WORKERS, os.cpu_count() or 1)


def run_in_order(consume, make, count: int, workers: int):
    """Call consume(make(i)) for i = 0, ..., count - 1, consuming in index
    order, with make(i) run by this thread or by one of `workers` - 1 more.

    Each thread takes the next index only while fewer than `workers` are
    taken but not yet consumed, so at most `workers` results are held at
    once, and make(i + workers) starts only after consume(make(i)) has
    returned: make(i) may use slot i % workers of `workers` buffers.  The
    thread that makes the result due next consumes it and every later one
    already made, one thread at a time, so a result is consumed as soon as
    it and those before it are made.  An exception from
    make(i) is raised here when make(i) is due; it, or one from consume,
    stops the other threads.  No thread outlives the call.  numpy's error
    state is per context, so an np.errstate around this call does not reach
    the other threads.
    """
    cond = threading.Condition()
    results = {}
    taken = done = 0
    consuming = stop = False
    failure = None

    def take():
        """The next index to make, or None (called holding cond)."""
        nonlocal taken
        if stop or taken == count or taken - done == workers:
            return None
        taken += 1
        return taken - 1

    def consume_due():
        """Consume the due results in order, unless another thread is."""
        nonlocal consuming, done, stop, failure
        with cond:
            if consuming:
                return
            consuming = True
        while True:
            with cond:
                if stop or done not in results:
                    consuming = False
                    return
                result, exc = results.pop(done)
            try:
                if exc is not None:
                    raise exc
                consume(result)
            except BaseException as error:  # the calling thread raises it
                with cond:
                    failure, stop, consuming = error, True, False
                    cond.notify_all()
                return
            del result  # freed before its slot goes to the next index
            with cond:
                done += 1
                cond.notify_all()

    def work():
        while True:
            with cond:
                cond.wait_for(lambda: stop or taken == count
                              or taken - done < workers)
                i = take()
            if i is None:
                return
            try:
                result = make(i), None
            except BaseException as exc:  # raised when make(i) is due
                result = None, exc
            with cond:
                results[i] = result
            del result
            consume_due()

    threads = []
    try:
        for _ in range(min(workers, count) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
        with cond:
            cond.wait_for(lambda: stop or done == count)
        if failure is not None:
            raise failure
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in threads:
            thread.join()
