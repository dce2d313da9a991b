"""A dependency-free ASGI micro-kernel with FastAPI-shaped ergonomics.

The control plane wants the layering of a FastAPI service — routers,
pydantic request models, 422 on validation failure, JSON responses,
streamed responses, lifespan hooks — but the repository's hard
constraint is the stock toolchain (pydantic is available; FastAPI,
starlette, and httpx are not).  This module implements the small slice
of that surface the server actually uses, as a spec-compliant ASGI 3
application, so the app runs unchanged under uvicorn/hypercorn when
they exist and under :mod:`repro.server.http` (stdlib asyncio) when
they do not.

Deliberate simplifications versus the real frameworks:

* handlers receive a single :class:`Request` and parse/validate their
  own body via :func:`validate` (explicit, no signature introspection);
* path templates support ``{name}`` segments only (no converters);
* one body message per request (the server buffers uploads).
"""

from __future__ import annotations

import inspect
import json
import traceback
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)
from types import SimpleNamespace
from urllib.parse import parse_qsl

import pydantic


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, detail: Any):
        super().__init__(f"{status}: {detail}")
        self.status = status
        self.detail = detail


def validate(model: type, payload: Any) -> Any:
    """Validate ``payload`` against a pydantic model or raise a 422.

    The 422 body mirrors FastAPI's shape: ``{"detail": [{loc, msg,
    type}, ...]}`` so clients written against the real framework keep
    working.
    """
    try:
        return model.model_validate(payload)
    except pydantic.ValidationError as exc:
        detail = [
            {
                "loc": list(error.get("loc", ())),
                "msg": error.get("msg", "invalid"),
                "type": error.get("type", "value_error"),
            }
            for error in exc.errors()
        ]
        raise HTTPError(422, detail) from None


class Request:
    """One HTTP request: scope fields plus the fully buffered body."""

    def __init__(self, scope: dict, body: bytes, path_params: Dict[str, str]):
        self.scope = scope
        self.method: str = scope["method"]
        self.path: str = scope["path"]
        self.path_params = path_params
        self.query_params: Dict[str, str] = dict(
            parse_qsl(scope.get("query_string", b"").decode("latin-1"))
        )
        self.headers: Dict[str, str] = {
            key.decode("latin-1").lower(): value.decode("latin-1")
            for key, value in scope.get("headers", [])
        }
        self.body = body
        #: ``app.state`` of the application that routed this request.
        self.state: SimpleNamespace = scope.get("app_state") or SimpleNamespace()

    def json(self) -> Any:
        """The body parsed as JSON; 422 on malformed input."""
        if not self.body:
            raise HTTPError(
                422,
                [{"loc": ["body"], "msg": "request body required",
                  "type": "value_error.missing"}],
            )
        try:
            return json.loads(self.body)
        except ValueError:
            raise HTTPError(
                422,
                [{"loc": ["body"], "msg": "invalid JSON body",
                  "type": "value_error.json"}],
            ) from None
        except RecursionError:  # nesting deeper than the parser can walk
            raise HTTPError(
                422,
                [{"loc": ["body"], "msg": "JSON body nested too deeply",
                  "type": "value_error.json"}],
            ) from None


class Response:
    """A fully materialized response."""

    media_type = "text/plain; charset=utf-8"

    def __init__(
        self,
        content: Any = b"",
        status: int = 200,
        media_type: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        self.status = status
        self.body = self.render(content)
        self.headers = dict(headers or {})
        self.headers.setdefault(
            "content-type", media_type or type(self).media_type
        )

    def render(self, content: Any) -> bytes:
        if isinstance(content, bytes):
            return content
        return str(content).encode("utf-8")


class JSONResponse(Response):
    media_type = "application/json"

    def render(self, content: Any) -> bytes:
        return json.dumps(content, sort_keys=True).encode("utf-8")


class StreamingResponse(Response):
    """Chunked response fed from an async iterator (SSE lives here)."""

    def __init__(
        self,
        iterator: AsyncIterator[Any],
        status: int = 200,
        media_type: str = "text/event-stream",
        headers: Optional[Dict[str, str]] = None,
    ):
        self.iterator = iterator
        self.status = status
        self.body = b""
        self.headers = dict(headers or {})
        self.headers.setdefault("content-type", media_type)
        self.headers.setdefault("cache-control", "no-cache")


Handler = Callable[[Request], Awaitable[Any]]


class Router:
    """Route table; ``include`` grafts sub-routers under a prefix."""

    def __init__(self):
        self.routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, path: str, handler: Handler) -> None:
        segments = tuple(part for part in path.strip("/").split("/") if part)
        self.routes.append((method.upper(), segments, handler))

    def get(self, path: str):
        return lambda handler: (self.add("GET", path, handler), handler)[1]

    def post(self, path: str):
        return lambda handler: (self.add("POST", path, handler), handler)[1]

    def delete(self, path: str):
        return lambda handler: (self.add("DELETE", path, handler), handler)[1]

    def include(self, router: "Router", prefix: str = "") -> None:
        lead = tuple(part for part in prefix.strip("/").split("/") if part)
        for method, segments, handler in router.routes:
            self.routes.append((method, lead + segments, handler))


def _match(
    template: Tuple[str, ...], parts: Tuple[str, ...]
) -> Optional[Dict[str, str]]:
    if len(template) != len(parts):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(template, parts):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


class App(Router):
    """ASGI 3 application: routing + lifespan + error mapping."""

    def __init__(self):
        super().__init__()
        self.state = SimpleNamespace()
        self.on_startup: List[Callable] = []
        self.on_shutdown: List[Callable] = []

    # ------------------------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - no websockets
            raise RuntimeError(f"unsupported scope type {scope['type']!r}")
        await self._http(scope, receive, send)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                try:
                    for hook in self.on_startup:
                        await _maybe_await(hook())
                except Exception as exc:  # pragma: no cover - startup bug
                    await send(
                        {"type": "lifespan.startup.failed",
                         "message": repr(exc)}
                    )
                    return
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                try:
                    for hook in self.on_shutdown:
                        await _maybe_await(hook())
                except Exception as exc:  # pragma: no cover - shutdown bug
                    await send(
                        {"type": "lifespan.shutdown.failed",
                         "message": repr(exc)}
                    )
                    return
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------
    async def _http(self, scope, receive, send) -> None:
        body = bytearray()
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                return
            body.extend(message.get("body", b""))
            if not message.get("more_body"):
                break
        scope = dict(scope)
        scope["app_state"] = self.state
        response = await self._dispatch(scope, bytes(body))
        await self._send_response(response, send)

    async def _dispatch(self, scope: dict, body: bytes) -> Response:
        parts = tuple(
            part for part in scope["path"].strip("/").split("/") if part
        )
        allowed: List[str] = []
        for method, template, handler in self.routes:
            params = _match(template, parts)
            if params is None:
                continue
            if method != scope["method"]:
                allowed.append(method)
                continue
            request = Request(scope, body, params)
            try:
                return _coerce(await _maybe_await(handler(request)))
            except HTTPError as exc:
                return JSONResponse({"detail": exc.detail}, status=exc.status)
            except Exception:  # noqa: BLE001 - map handler bugs to 500
                return JSONResponse(
                    {"detail": "internal server error",
                     "traceback": traceback.format_exc()},
                    status=500,
                )
        if allowed:
            return JSONResponse({"detail": "method not allowed"}, status=405)
        return JSONResponse({"detail": "not found"}, status=404)

    async def _send_response(self, response: Response, send) -> None:
        headers = [
            (key.encode("latin-1"), value.encode("latin-1"))
            for key, value in response.headers.items()
        ]
        await send(
            {"type": "http.response.start",
             "status": response.status,
             "headers": headers}
        )
        if isinstance(response, StreamingResponse):
            try:
                async for chunk in response.iterator:
                    if isinstance(chunk, str):
                        chunk = chunk.encode("utf-8")
                    await send(
                        {"type": "http.response.body",
                         "body": chunk,
                         "more_body": True}
                    )
            except ConnectionError:  # client went away mid-stream
                return
            await send(
                {"type": "http.response.body", "body": b"",
                 "more_body": False}
            )
            return
        await send(
            {"type": "http.response.body", "body": response.body,
             "more_body": False}
        )


def _coerce(result: Any) -> Response:
    """Map a handler's return value onto a Response."""
    if isinstance(result, Response):
        return result
    if isinstance(result, pydantic.BaseModel):
        return JSONResponse(result.model_dump(mode="json"))
    if isinstance(result, (dict, list)):
        return JSONResponse(result)
    if result is None:
        return Response(b"", status=204)
    return Response(result)


async def _maybe_await(value):
    if inspect.isawaitable(value):
        return await value
    return value


class LifespanManager:
    """Drives an app's lifespan protocol (shared by server and tests)."""

    def __init__(self, app: App):
        import asyncio

        self.app = app
        self._to_app: "asyncio.Queue" = asyncio.Queue()
        self._from_app: "asyncio.Queue" = asyncio.Queue()
        self._task = asyncio.ensure_future(
            app({"type": "lifespan"}, self._to_app.get, self._from_app.put)
        )

    async def startup(self) -> None:
        await self._to_app.put({"type": "lifespan.startup"})
        message = await self._from_app.get()
        if message["type"] != "lifespan.startup.complete":
            raise RuntimeError(f"app startup failed: {message}")

    async def shutdown(self) -> None:
        await self._to_app.put({"type": "lifespan.shutdown"})
        message = await self._from_app.get()
        await self._task
        if message["type"] != "lifespan.shutdown.complete":
            raise RuntimeError(f"app shutdown failed: {message}")
