"""Run one function over contiguous index ranges, each range in a forked child.

run_ranges(fn, n, smallest) splits 0..n-1 into contiguous ranges, one per
usable CPU but each at least `smallest` long, and calls fn(lo, hi, report)
once per range.  The caller states only how small a range may be; the
worker count is picked here alone (_WORKERS).  With two or more ranges each
call runs in a child made by os.fork(): it shares the parent's memory as it
was at the fork, so nothing is pickled or imported to start it.  A child
sends what it has to say on a pipe to the parent: progress records, then its
result or its exception, pickled here and unpickled in the parent, so this is
the one module that knows how a result travels.  The parent reads a pickle
into one anonymous mapping of its size, freed once unpickled, so the bytes in
transit grow no heap buffer that would leave holes behind.  A child imports
nothing (every class it pickles was imported before the fork), logs nothing,
calls no BLAS, collects no garbage (so no finalizer of an object copied from
the parent runs) and leaves through os._exit, so no stdio buffer or exit
handler of the parent runs twice and no lock that another thread of the
parent held at the fork is touched.  With one range, or without os.fork, the
calls run in the calling process.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import selectors
import signal
import struct

__all__ = ["run_ranges", "split_ranges"]

# Every pipe message starts with a record of three int64.  (a, b, c) with
# a >= 0 is a progress record, passed on as progress(a, b, c); (_RESULT, size,
# 0) and (_ERROR, size, 0) are followed by size bytes of the child's pickled
# result or exception, and nothing follows them.
_RECORD = struct.Struct("=3q")
_RESULT, _ERROR = -2, -1
_READ = 1 << 16


try:  # most ranges a call is split into: one per usable CPU
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without CPU affinity
    _WORKERS = os.cpu_count() or 1


def run_ranges(fn, n: int, smallest: int, progress=lambda a, b, c: None,
               what: str = "items") -> list:
    """Return [fn(lo, hi, report) for each range], in range order.

    0..n-1 is split into max(1, min(_WORKERS, n // smallest)) contiguous
    ranges whose sizes differ by at most one.  fn may return any picklable
    object; a child's comes back as its pickled copy, so it compares equal.
    report(a, b, c), with a >= 0, calls progress(a, b, c) in the calling
    process, in the order each child sent them.  A child's exception is
    raised again here with its type and message; a child that ends any other
    way than by returning makes the call raise RuntimeError, so no partial
    result comes back.  Children still running when the call leaves, by
    return or by exception (KeyboardInterrupt included), are killed; every
    child is reaped.  `what` names the indices in that RuntimeError.
    """
    ranges = split_ranges(n, smallest)
    workers = len(ranges)
    if workers == 1 or not hasattr(os, "fork"):
        return [fn(lo, hi, progress) for lo, hi in ranges]
    results = [None] * workers
    pids, index, received = {}, {}, {}   # read end -> pid while not reaped, -> range index, -> bytes
    payloads = {}  # read end -> (tag, mapping its pickle is read into), from its header on
    try:
        for i, (lo, hi) in enumerate(ranges):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, lo, hi, w)
            os.close(w)
            pids[r], index[r], received[r] = pid, i, bytearray()
        with selectors.DefaultSelector() as sel:
            for r in pids:
                sel.register(r, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    r = key.fd
                    data = os.read(r, _READ)
                    if r in payloads:
                        payloads[r][1].write(data)
                    elif data:
                        received[r] += data
                        _relay(received[r], progress)
                        if len(received[r]) >= _RECORD.size:  # the result's header
                            tag, size, _ = _RECORD.unpack_from(received[r])
                            payloads[r] = tag, mmap.mmap(-1, size)
                            payloads[r][1].write(received.pop(r)[_RECORD.size:])
                    if data:
                        continue
                    sel.unregister(r)
                    _, status = os.waitpid(pids.pop(r), 0)
                    i = index[r]
                    results[i] = _outcome(payloads.pop(r, None), status, *ranges[i], what)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in index:
            os.close(r)
    return results


def split_ranges(n: int, smallest: int) -> list[tuple[int, int]]:
    """The (lo, hi) ranges run_ranges(fn, n, smallest) calls fn on, in order."""
    workers = max(1, min(_WORKERS, n // smallest))
    edges = [n * w // workers for w in range(workers + 1)]
    return list(zip(edges, edges[1:]))


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _child(fn, lo: int, hi: int, fd: int):
    """Body of a forked child: run one range, report through fd, never return."""
    gc.disable()
    code = 1
    try:
        try:
            tag, payload = _RESULT, pickle.dumps(
                fn(lo, hi, lambda a, b, c: _write_all(fd, _RECORD.pack(a, b, c))))
        except BaseException as exc:
            tag, payload = _ERROR, pickle.dumps(exc)
        _write_all(fd, _RECORD.pack(tag, len(payload), 0))
        _write_all(fd, payload)
        code = int(tag == _ERROR)
    finally:
        os._exit(code)


def _relay(received: bytearray, progress) -> None:
    """Pass on the progress records at the head of received, and drop them."""
    size = _RECORD.size
    while len(received) >= size:
        record = _RECORD.unpack_from(received)
        if record[0] < 0:
            break
        progress(*record)
        del received[:size]


def _outcome(payload, status: int, lo: int, hi: int, what: str):
    """A finished child's result from its (tag, mapping), or None when it sent
    no header; raise its exception, or how it died."""
    tag, buf = payload or (0, None)
    if tag == (_ERROR if status else _RESULT) and buf.tell() == len(buf):
        value = pickle.loads(buf)  # written by our own forked child
        if status:
            raise value
        return value
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    raise RuntimeError(f"the worker for {what} {lo}-{hi - 1} died ({how}) "
                       "before finishing its range")
