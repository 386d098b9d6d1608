"""CoronaClient: the async application-facing API.

Wraps a :class:`~repro.core.client.ClientCore` in an asyncio host and
turns the request/reply protocol into awaitables::

    client = await CoronaClient.connect(("localhost", 7700), "alice")
    await client.create_group("room", persistent=True)
    view = await client.join_group("room")
    client.on_event("delivery", lambda ev: print(ev.record.data))
    await client.bcast_update("room", "doc", b"hello")
    await client.close()

Unsolicited events — deliveries, membership notices, group deletion,
partition rebases/forks, disconnection — reach the application through
``on_event`` callbacks and/or the ``events()`` async iterator.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Callable

from repro.core.client import (
    ClientConfig,
    ClientCore,
    GroupView,
    ReplyEvent,
    TransferProgress,
)
from repro.core.clock import MonotonicClock
from repro.core.errors import NotConnectedError, RequestTimeoutError
from repro.core.events import (
    NOTIFY_CONNECTED,
    NOTIFY_DISCONNECTED,
    NOTIFY_ERROR,
    NOTIFY_REPLY,
    NOTIFY_TRANSFER_PROGRESS,
)
from repro.net.tcp import TcpTransport
from repro.net.transport import Transport
from repro.runtime.host import AsyncioHost
from repro.wire.messages import (
    DeliveryMode,
    MemberRole,
    ObjectState,
    TransferSpec,
)

__all__ = ["CoronaClient"]


class CoronaClient:
    """One connected Corona client."""

    def __init__(self, core: ClientCore, host: AsyncioHost) -> None:
        self.core = core
        self.host = host
        self._futures: dict[int, asyncio.Future] = {}
        self._callbacks: dict[str, list[Callable[[Any], None]]] = {}
        self._event_queue: asyncio.Queue[tuple[str, Any]] = asyncio.Queue()
        self._connected = asyncio.get_running_loop().create_future()
        self._closed = False
        host.on_notify(self._on_notify)

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        address: Any,
        client_id: str,
        transport: Transport | None = None,
        request_timeout: float = 10.0,
        connect_timeout: float = 10.0,
        auto_reconnect: bool = False,
        reconnect_backoff: float = 0.5,
        token: str = "",
    ) -> "CoronaClient":
        """Dial a Corona server and complete the Hello handshake.

        With ``auto_reconnect`` the client redials after a connection
        loss (exponential backoff) and rejoins every group it has not left
        with an incremental ``SINCE_SEQNO`` state transfer; the application
        sees "disconnected" then "rejoined" events.
        """
        core = ClientCore(
            ClientConfig(
                client_id=client_id,
                request_timeout=request_timeout,
                auto_reconnect=auto_reconnect,
                reconnect_backoff=reconnect_backoff,
                token=token,
            ),
            clock=MonotonicClock(),
        )
        host = AsyncioHost(core, transport or TcpTransport())
        client = cls(core, host)
        host.invoke(lambda: core.connect(address))
        await asyncio.wait_for(client._connected, connect_timeout)
        return client

    async def close(self) -> None:
        """Disconnect and release resources: a closed client is freed
        without the cycle collector."""
        self._closed = True
        await self.host.stop()
        self.host.release()
        self._callbacks.clear()

    async def __aenter__(self) -> "CoronaClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def client_id(self) -> str:
        return self.core.config.client_id

    def view(self, group: str) -> GroupView:
        """The local replica of a joined group's shared state.

        Raises ``KeyError`` once a leave of *group* has been acked: the
        client no longer keeps that replica (a ``GroupView`` the app got
        from :meth:`join_group` stays valid, just no longer updated)."""
        return self.core.views[group]

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def on_event(self, kind: str, callback: Callable[[Any], None]) -> None:
        """Register a callback for one event kind ("delivery",
        "membership", "group_deleted", "rebased", "forked",
        "disconnected", "transfer_progress")."""
        self._callbacks.setdefault(kind, []).append(callback)

    def on_transfer_progress(
        self, callback: Callable[[TransferProgress], None]
    ) -> None:
        """Progress of chunked join transfers (docs/protocol.md §3.5.2).

        Called with a :class:`~repro.core.client.TransferProgress`
        (``group``, ``received_bytes``, ``total_bytes``) after every
        reassembled chunk — a join over a slow link can drive a progress
        bar instead of appearing hung.
        """
        self.on_event(NOTIFY_TRANSFER_PROGRESS, callback)

    async def events(self) -> AsyncIterator[tuple[str, Any]]:
        """Async iterator over every unsolicited event."""
        while not self._closed:
            yield await self._event_queue.get()

    def _on_notify(self, kind: str, payload: Any) -> None:
        if kind == NOTIFY_CONNECTED:
            if not self._connected.done():
                self._connected.set_result(payload)
            return
        if kind == NOTIFY_REPLY:
            self._resolve(payload)
            return
        if kind == NOTIFY_ERROR and not self._connected.done():
            self._connected.set_exception(payload)
            return
        for callback in self._callbacks.get(kind, []):
            callback(payload)
        self._event_queue.put_nowait((kind, payload))
        if kind == NOTIFY_DISCONNECTED and not self._connected.done():
            self._connected.set_exception(NotConnectedError("server refused"))

    def _resolve(self, reply: ReplyEvent) -> None:
        future = self._futures.pop(reply.request_id, None)
        if future is None or future.done():
            return
        if reply.ok:
            future.set_result(reply.value)
        else:
            future.set_exception(reply.error or RequestTimeoutError("request failed"))

    async def _request(self, method: str, *args: Any, **kwargs: Any) -> Any:
        request_id = self.host.invoke(
            lambda: getattr(self.core, method)(*args, **kwargs)
        )
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        return await future

    # ------------------------------------------------------------------
    # service requests (paper §3.2)
    # ------------------------------------------------------------------

    async def create_group(
        self,
        group: str,
        persistent: bool = False,
        initial_state: tuple[ObjectState, ...] = (),
    ) -> None:
        """Create a group with an initial shared state."""
        await self._request("create_group", group, persistent, initial_state)

    async def delete_group(self, group: str) -> None:
        """Delete a group; its shared state is lost."""
        await self._request("delete_group", group)

    async def join_group(
        self,
        group: str,
        role: MemberRole = MemberRole.PRINCIPAL,
        transfer: TransferSpec | None = None,
        notify_membership: bool = False,
    ) -> GroupView:
        """Join and receive the shared state per *transfer*."""
        return await self._request(
            "join_group", group, role, transfer, notify_membership
        )

    async def leave_group(self, group: str) -> None:
        """Leave a group unobtrusively; the client drops its replica."""
        await self._request("leave_group", group)

    async def get_membership(self, group: str) -> tuple:
        """Current group-wide membership."""
        return await self._request("get_membership", group)

    async def list_groups(self) -> tuple:
        """Groups known to the service."""
        return await self._request("list_groups")

    async def bcast_state(
        self,
        group: str,
        object_id: str,
        data: bytes,
        mode: DeliveryMode = DeliveryMode.INCLUSIVE,
    ) -> None:
        """Replace a shared object's state, group-wide."""
        await self._request("bcast_state", group, object_id, data, mode)

    async def bcast_update(
        self,
        group: str,
        object_id: str,
        data: bytes,
        mode: DeliveryMode = DeliveryMode.INCLUSIVE,
    ) -> None:
        """Append an incremental change to a shared object, group-wide."""
        await self._request("bcast_update", group, object_id, data, mode)

    async def acquire_lock(self, group: str, object_id: str, blocking: bool = True) -> str:
        """Acquire the per-object update lock."""
        return await self._request("acquire_lock", group, object_id, blocking)

    async def release_lock(self, group: str, object_id: str) -> None:
        """Release a held per-object lock."""
        await self._request("release_lock", group, object_id)

    async def reduce_log(self, group: str) -> None:
        """Ask the service to reduce the group's state log now."""
        await self._request("reduce_log", group)

    async def ping(self) -> float:
        """Round-trip probe; returns the server's clock reading."""
        return await self._request("ping")
