"""Host and process readings from /proc (stdlib only, no psutil).

Everything the benchmark needs to know about the machine it runs on:
CPU time of the server process (all threads), its peak RSS, the
host-wide steal share, a fixed pure-Python loop that shows how fast this
core is *right now*, and the two measures that keep the hypervisor out of
the numbers: one CPU for everything, and a poller that never lets it halt.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "CALIBRATION_NOMINAL_MS",
    "SLICE_NOMINAL_NS",
    "calibrate_ms",
    "calibrate_slice_ns",
    "cpu_ns",
    "rss_peak_mib",
    "HostSample",
    "host_sample",
    "steal_share",
    "fs_type",
    "pin_to_one_cpu",
    "IdlePoll",
]

_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def cpu_ns(pid: int) -> int:
    """CPU time (user + system, every thread) *pid* has consumed, in ns.

    Sums the per-task ``schedstat`` run time, which the scheduler keeps
    in nanoseconds; hosts without schedstats fall back to the 10 ms
    ``utime + stime`` ticks of ``/proc/<pid>/stat``.
    """
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                continue  # the thread exited between listdir and open
        if total:
            return total
    except (FileNotFoundError, NotADirectoryError):
        pass
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_NS


def rss_peak_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MiB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class HostSample(NamedTuple):
    """One reading of the aggregate ``cpu`` line of ``/proc/stat``."""

    total: int
    steal: int


def host_sample() -> HostSample:
    with open("/proc/stat", "rb") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest is in user)
    steal = fields[7] if len(fields) > 7 else 0
    return HostSample(sum(fields[:8]), steal)


def steal_share(before: HostSample, after: HostSample) -> float:
    """Share of all CPU ticks between two samples the hypervisor stole."""
    total = after.total - before.total
    return (after.steal - before.steal) / total if total > 0 else 0.0


#: What the two calibration readings are on the sizing host (a 2-vCPU
#: Firecracker guest) when no neighbour is slowing it down.  Timings are
#: reported scaled to this speed; on another machine the constants only
#: rescale every timing by the same factor.  A slice costs more per
#: iteration than the block: it runs between the server's requests, on
#: cold caches.
CALIBRATION_NOMINAL_MS = 10.0
SLICE_NOMINAL_NS = 90_000

_CALIBRATION_BUFFER = bytearray(1 << 18)


def _calibration_loop(iterations: int) -> None:
    """The host-speed yardstick: a fixed pure-Python loop.

    It mixes what the server's hot path is made of -- dict reads and
    writes, struct packing into a buffer larger than L1, small bytes
    slices, list churn -- and calls nothing under ``src/``.  It runs on
    the CPU the server runs on; how long it takes, against the nominal
    constants above, is how much a neighbour on the sibling hyperthread
    is slowing that CPU down right now (up to 2.2x on the sizing host,
    for minutes at a time).

    It is not blind to the program, though: run in slices between the
    server's requests it starts on caches the server has just used, so a
    server with a larger footprint makes it a little slower (the same
    minute, ``rooms_sharded`` read 4 % above ``rooms_single``).  That is
    also why it works -- the half of a slice that runs cold follows the
    server's timings more closely than the half that runs warm -- and why
    ``host.speed_index`` and the ``raw.*`` readings are printed with
    every run: two commits measured alternately see the same host, so an
    index that differs between them was moved by the change, and the
    ``raw.*`` values are then the ones to compare.
    """
    counts: dict[int, int] = {}
    slices: list[bytes] = []
    pack_into = struct.pack_into
    buf = _CALIBRATION_BUFFER
    pos = 0
    for i in range(iterations):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        pack_into(">IH", buf, pos, i, key)
        pos = (pos + 4099) & 0x3FFFF
        if pos > 0x3FFF0:
            pos = 0
        slices.append(bytes(buf[pos:pos + 16]))
        if len(slices) > 64:
            slices.clear()


def calibrate_ms() -> float:
    """One block of the calibration loop (about 10 ms), for work that has
    no rounds: it brackets a set-up and every micro-benchmark."""
    start = time.thread_time_ns()
    _calibration_loop(20_000)
    return (time.thread_time_ns() - start) / 1e6


def calibrate_slice_ns() -> int:
    """One slice of the calibration loop (about 0.1 ms).

    The generator runs a slice every 2 ms *during* every round, so the
    slices sample the host speed over the very interval the round
    measures -- readings taken before and after a round turned out not to
    describe it.  Thread CPU time, not wall time: being preempted by the
    server half-way through must not read as a slow host.
    """
    start = time.thread_time_ns()
    _calibration_loop(150)
    return time.thread_time_ns() - start


def pin_to_one_cpu() -> int | None:
    """Confine this process (and the children it starts from now on) to
    the highest-numbered CPU it may use; returns that CPU.

    Server, generator and idle poller share one CPU on purpose: with two
    busy vCPUs the host decides from minute to minute whether they are
    hyperthreads of one core (1.4x slower each) or not, and every
    cross-CPU wake-up is a trip through the hypervisor.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class IdlePoll:
    """A ``SCHED_IDLE`` busy loop (``idle_poll.py``) on this process's CPU.

    It runs only when nothing else wants the CPU, so it costs the
    measured processes nothing, but the vCPU never halts: waking the
    server is then a context switch inside the guest (~10 us) instead of
    a wake-up by the hypervisor's scheduler (150 us to 10 ms on the
    sizing host, depending on how busy the VM was in the last seconds).
    """

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def start(self) -> bool:
        script = Path(__file__).resolve().parent / "idle_poll.py"
        try:
            self._proc = subprocess.Popen([sys.executable, str(script)])
        except OSError:
            return False
        return True

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._proc = None


def fs_type(path: str | Path) -> str:
    """Filesystem type holding *path* (longest matching mount point)."""
    target = os.path.realpath(path)
    best, best_type = "", "unknown"
    with open("/proc/mounts", "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, best_type = mount, parts[2]
    return best_type
