"""Launcher of the server under test: one ``CoronaServer`` child process.

Product defaults throughout, plus ``reduction=ReduceByCount(1024)`` so
log length, state size and RSS stay bounded over a run of any length.

Protocol with the parent (the load generator), one JSON object per line:

* stdout, once: ``{"ready": true, "port": ..., "pid": ..., "start_s": ...}``
  after the listener is bound (``start_s`` covers ``CoronaServer.start``,
  i.e. WAL recovery when ``--store`` points at a used directory);
* stdin ``trace-start``: install the span wrappers (see ``tracer.py``)
  and start recording -- until then the process runs untouched code;
* stdin ``trace-cut <label>``: answer with the spans aggregated since
  the previous cut, then keep recording;
* stdin EOF or SIGTERM: stop the server and exit, writing the kept spans
  to ``--trace-out`` first if tracing was started.  Tying the lifetime
  to the pipe means the server cannot outlive a crashed generator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def _say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def serve(shards: int, store_dir: str | None, trace_out: str | None) -> None:
    from repro.core.reduction import ReduceByCount
    from repro.core.server import ServerConfig
    from repro.runtime.server import CoronaServer
    from repro.storage.store import GroupStore

    config = ServerConfig(reduction=ReduceByCount(1024))
    store = GroupStore(store_dir) if store_dir else None
    server = CoronaServer(config=config, store=store, shards=shards)
    began = time.perf_counter()
    _host, port = await server.start("127.0.0.1", 0)
    start_s = time.perf_counter() - began

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    tracer = None
    pending = bytearray()
    stdin_fd = sys.stdin.fileno()

    def on_command(line: str) -> None:
        nonlocal tracer
        words = line.split()
        if not words:
            return
        if words[0] == "trace-start" and tracer is None:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            tracer.enabled = True
            _say({"trace": "started"})
        elif words[0] == "trace-cut" and tracer is not None:
            _say({"trace": words[1] if len(words) > 1 else "", **tracer.cut()})

    def on_stdin() -> None:
        data = os.read(stdin_fd, 4096)
        if not data:
            loop.remove_reader(stdin_fd)
            stop.set()
            return
        pending.extend(data)
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            on_command(line.decode("ascii", "replace"))

    loop.add_reader(stdin_fd, on_stdin)
    _say({"ready": True, "port": port, "pid": os.getpid(), "start_s": start_s})
    await stop.wait()
    if tracer is not None:
        tracer.enabled = False
    await server.stop()
    if tracer is not None and trace_out:
        tracer.dump(trace_out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--store", default=None,
                        help="GroupStore directory (persistent groups)")
    parser.add_argument("--trace-out", default=None,
                        help="where to write the span file at exit")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"server_proc: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    asyncio.run(serve(args.shards, args.store, args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
