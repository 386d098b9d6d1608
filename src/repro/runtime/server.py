"""CoronaServer: the production entry point for a single stateful server.

Wraps a :class:`~repro.core.server.ServerCore` in an
:class:`~repro.runtime.host.AsyncioHost` over TCP (or any transport), with
optional stable storage and automatic crash recovery at startup.

Example::

    server = CoronaServer(store=GroupStore("/var/lib/corona"))
    address = await server.start("0.0.0.0", 7700)
    ...
    await server.stop()

With ``shards=N`` the server runs group-sharded: a front router plus N
worker shards on the same event loop, each with its own core, mailbox
and WAL segment set under ``<store_root>/shard<i>`` — separate units of
state, failure and migration, not extra CPU parallelism (see
:mod:`repro.runtime.shard`)::

    server = CoronaServer(shards=4, store_root="/var/lib/corona")
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from repro.core.server import ServerConfig, ServerCore
from repro.net.tcp import TcpTransport
from repro.net.transport import Transport
from repro.runtime.host import AsyncioHost
from repro.runtime.shard import ShardedHost
from repro.storage.store import GroupStore

__all__ = ["CoronaServer"]


class CoronaServer:
    """One Corona group-communication server."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        store: GroupStore | None = None,
        transport: Transport | None = None,
        shards: int = 1,
        store_root: str | Path | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if shards > 1 and store is not None:
            raise ValueError(
                "a sharded server partitions storage per shard: "
                "pass store_root=... instead of store=..."
            )
        self.config = config or ServerConfig()
        if store is None and (shards == 1 or store_root is None):
            # a copy: the caller's config object is not ours to change
            self.config = dataclasses.replace(self.config, persist=False)
        self.store = store
        self.store_root = Path(store_root) if store_root is not None else None
        self.transport = transport or TcpTransport()
        self.shards = shards
        self.host: AsyncioHost | ShardedHost | None = None
        self.core: ServerCore | None = None
        #: Groups recovered from stable storage by :meth:`start`.
        self.recovered_groups = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Any:
        """Recover persistent groups, bind, and serve; returns the bound
        address (useful when *port* is 0)."""
        if self.shards > 1:
            self.host = ShardedHost(
                self.config,
                self.transport,
                shards=self.shards,
                store_root=self.store_root,
            )
            address = await self.host.listen((host, port))
            # the snapshots each worker published before it started
            self.recovered_groups = sum(
                len(worker.recovered_groups) for worker in self.host.workers
            )
            return address
        recovered = self.store.recover_all() if self.store is not None else None
        self.recovered_groups = len(recovered or ())
        self.core = ServerCore(self.config, clock=_host_clock(), recovered=recovered)
        self.host = AsyncioHost(self.core, self.transport, store=self.store)
        return await self.host.listen((host, port))

    async def stop(self) -> None:
        """Stop serving and flush storage."""
        if self.host is not None:
            await self.host.stop()
        if self.store is not None:
            self.store.close()

    async def __aenter__(self) -> "CoronaServer":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()


def _host_clock():
    from repro.core.clock import MonotonicClock

    return MonotonicClock()
