"""The job server's client: one asyncio connection, pipelined requests.

:class:`AsyncServiceClient` speaks the JSONL protocol of
:mod:`repro.service.protocol` and is stdlib-only.  It is what ``repro
submit`` uses for its one round trip, and the building block of the
chaos drill's load generator (:mod:`repro.service.chaos`) and the
service benchmark.
"""

from __future__ import annotations

import asyncio

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import encode_request, parse_response


def parse_address(address: str) -> tuple[str, "str | int | None"]:
    """``unix:/path`` -> ("unix", path); ``host:port`` -> (host, port)."""
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ProtocolError(
            f"address {address!r} is neither 'unix:<path>' nor "
            f"'<host>:<port>'"
        )
    return host or "127.0.0.1", int(port)


class AsyncServiceClient:
    """Asyncio JSONL client: one connection, pipelined requests."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncServiceClient":
        kind, where = parse_address(self.address)
        try:
            if kind == "unix":
                self._reader, self._writer = \
                    await asyncio.open_unix_connection(str(where))
            else:
                self._reader, self._writer = \
                    await asyncio.open_connection(kind, int(where))
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to {self.address}: {exc}"
            ) from exc
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def send(self, rid: str, kind: str, *,
                   tenant: str = "default",
                   params: dict | None = None,
                   deadline_s: float | None = None) -> None:
        if self._writer is None:
            raise ServiceError("client is not connected")
        self._writer.write(encode_request(
            rid, kind, tenant=tenant, params=params or {},
            deadline_s=deadline_s,
        ).encode())
        await self._writer.drain()

    async def read_response(self) -> dict | None:
        """Next response line, or ``None`` at EOF."""
        if self._reader is None:
            raise ServiceError("client is not connected")
        line = await self._reader.readline()
        if not line:
            return None
        return parse_response(line)
