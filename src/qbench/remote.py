"""HTTP job client for remote backends, plus the bundled mock server.

Wire protocol (UTF-8 JSON, bitstrings with qubit 0 leftmost):

    POST /jobs   body {"circuits": [...], "shots": n, "seed": s,
                       "idempotency_key": str}
                 -> 201 {"job_id": str}; the id derives from the key, so
                    resubmitting a key returns the same id with 200.
    GET /jobs/{id}
                 -> 200 {"status": "queued"|"running"|"done"|"failed",
                         "results": [{"counts": {bitstring: int}}]}
                 -> 404 for unknown ids.  A job answers "running" until it ends.
    GET /device  -> 200 the served DeviceModel's JSON document.

The client reads ``/device`` once, on first use.  It talks over one
HTTP/1.1 connection that it keeps alive across batches and reopens when it
fails; every request is retried once on transport failure, a submission with
its idempotency key, so a flaky link cannot double-execute a batch.  It reads
no proxy settings.  The mock server wraps any local backend and is good
enough to integration-test every metric without hardware.

``http.client`` is imported by a client's first request and ``http.server``
when a mock server is built, so importing this module (as ``qbench.cli``
does) loads no HTTP stack on the local path.
"""
from __future__ import annotations

import contextlib
import json
import threading
import time
import uuid

from .backends import (Backend, BackendError, CapabilityError, JobNotFoundError, SubmitTimeout,
                       submit_and_wait)
from .circuits import Circuit
from .device import DeviceModel
from .serialization import circuit_from_dict, circuit_to_dict
from .simulator import ShotTable

# finished jobs the mock server keeps for late retrieval; older ones answer 404
_FINISHED_JOBS_KEPT = 64
_JOB_ID_NAMESPACE = uuid.UUID("5d0b3e64-2a7c-4f1e-9c55-1d3f0a6b8e21")  # job id = uuid5(key)
_JOB_STATUSES = ("queued", "running", "done", "failed")


class RemoteBackend(Backend):
    """Client for the job protocol above.

    ``n_qubits`` and ``connectivity``, when given, only check the served
    device: a mismatch raises :class:`CapabilityError`.  ``run`` submits a
    batch, waits up to ``timeout_s`` for it and builds its tables from the
    ``done`` document that ``wait`` returns, so a finished job costs no
    extra GET.  On :class:`SubmitTimeout` the handle stays valid for
    ``wait`` and ``result``, up to the ``_FINISHED_JOBS_KEPT`` latest.  The
    client forgets a handle once it has read the job's ``done`` document, or
    once ``wait`` (which ``result`` calls) raises :class:`BackendError` for a
    failed job or any other error.  A request that fails twice on the network
    raises :class:`BackendError`.
    """

    def __init__(
        self,
        base_url: str,
        n_qubits: int | None = None,
        connectivity: frozenset[tuple[int, int]] | None = None,
        poll_interval_s: float = 0.05,
        timeout_s: float = 60.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self._conn = None  # opened by the first request; kept alive across batches
        self._path = ""  # the URL's path prefix, set with the connection
        self._expected = (n_qubits, connectivity)
        self._device: DeviceModel | None = None
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        # handle -> (circuit widths, shots), to check the reply
        self._context: dict[str, tuple[list[int], int]] = {}
        self._timed_out: dict[str, None] = {}  # handles run gave up on, oldest first

    def __del__(self) -> None:
        if self._conn is not None:  # the kept-alive socket is the client's to close
            self._conn.close()

    @property
    def device(self) -> DeviceModel:
        if self._device is None:
            try:
                device = DeviceModel.from_json_dict(self._get("/device"))
            except (AttributeError, KeyError, TypeError, ValueError) as err:
                raise BackendError(f"malformed device document: {err}") from err
            n_qubits, connectivity = self._expected
            if (n_qubits not in (None, device.n_qubits)
                    or connectivity not in (None, device.edge_set())):
                raise CapabilityError(f"served device has {device.n_qubits} qubits and edges "
                                      f"{device.edges}, not the ones expected")
            self._device = device
        return self._device

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        handle = self.submit(circuits, shots, seed)
        try:
            return self._tables(handle, self.wait(handle, self.timeout_s))
        except SubmitTimeout:  # keep the handle for late retrieval, within the cap
            self._timed_out[handle] = None
            while len(self._timed_out) > _FINISHED_JOBS_KEPT:
                self._forget(next(iter(self._timed_out)))
            raise

    def submit(self, circuits: list[Circuit], shots: int, seed: int) -> str:
        body = {
            "circuits": [circuit_to_dict(c) for c in circuits],
            "shots": int(shots),
            "seed": int(seed),
            "idempotency_key": str(uuid.uuid4()),
        }
        code, reply = self._request("submit", "/jobs", body)
        if 400 <= code < 500:
            raise CapabilityError(f"submit rejected: {code} {_preview(reply)}")
        handle = _json_object("submit", code, reply, ok=(200, 201)).get("job_id")
        if not isinstance(handle, str):
            raise BackendError(f"submit reply has no job id: {_preview(reply)}")
        self._context[handle] = ([c.n_qubits for c in circuits], int(shots))
        return handle

    def _request(self, what: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        """POST ``body`` (GET without one) over the kept-alive connection and
        return the reply's code and body.  A transport failure closes the
        connection and is retried once on a new one, a submission with its
        idempotency key; a second failure raises :class:`BackendError`."""
        import http.client
        from urllib.parse import urlsplit

        if body is None:
            method, payload, headers = "GET", None, {}
        else:
            method, payload = "POST", json.dumps(body, allow_nan=False).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        for attempt in range(2):
            try:
                if self._conn is None:  # built here, so a malformed URL fails like a refused one
                    url = urlsplit(self.base_url)
                    connection = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
                    self._conn, self._path = connection(url.netloc, timeout=30), url.path
                self._conn.request(method, self._path + path, payload, headers)
                resp = self._conn.getresponse()
                return resp.status, resp.read()
            except (OSError, ValueError, http.client.HTTPException) as err:
                if self._conn is not None:
                    self._conn.close()  # the next request opens a new connection
                if attempt:
                    raise BackendError(f"{what} failed: {err}") from err
                time.sleep(0.1)

    def _get(self, path: str, not_found: type[BackendError] = BackendError) -> dict:
        """GET a JSON object; a 404 raises ``not_found``, any other failure
        (transport, error code, body) :class:`BackendError`."""
        code, reply = self._request(f"GET {path}", path)
        if code == 404:
            raise not_found(f"GET {path} failed: 404 {_preview(reply)}")
        return _json_object(f"GET {path}", code, reply, ok=(200,))

    def status(self, handle: str) -> dict:
        """The job's status document; any reply but a JSON object with a
        known ``status`` raises :class:`BackendError`."""
        doc = self._get(f"/jobs/{handle}", JobNotFoundError)
        if doc.get("status") not in _JOB_STATUSES:
            raise BackendError(f"job {handle} returned a malformed status: {str(doc)[:200]}")
        return doc

    def wait(self, handle: str, timeout_s: float = 60.0) -> dict:
        """Poll until the job is done and return its ``done`` status document."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                doc = self.status(handle)
                if doc["status"] == "failed":
                    raise BackendError(f"job {handle} failed: {doc.get('error', '')}")
            except BackendError:  # nothing to retrieve later
                self._forget(handle)
                raise
            if doc["status"] == "done":
                return doc
            if time.monotonic() >= deadline:
                raise SubmitTimeout(handle)
            time.sleep(self.poll_interval_s)

    def result(self, handle: str) -> list[ShotTable]:
        return self._tables(handle, self.wait(handle, 0.0))

    def _forget(self, handle: str) -> tuple[list[int], int] | None:
        self._timed_out.pop(handle, None)
        return self._context.pop(handle, None)

    def _tables(self, handle: str, doc: dict) -> list[ShotTable]:
        """Validate a ``done`` document against the submitted batch; forgets the handle."""
        if (context := self._forget(handle)) is None:
            raise JobNotFoundError(f"job {handle} was not submitted by this client")
        widths, shots = context
        entries = doc.get("results", [])
        if len(entries) != len(widths):
            raise BackendError(
                f"job {handle} returned {len(entries)} results for {len(widths)} circuits"
            )
        try:
            return [
                ShotTable(
                    counts={k: int(v) for k, v in entry["counts"].items()},
                    shots=shots,
                    n_qubits=n,
                )
                for entry, n in zip(entries, widths)
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise BackendError(f"job {handle} returned a malformed result: {err}") from err


def _preview(reply: bytes) -> str:
    return reply[:200].decode("utf-8", "replace")


def _json_object(what: str, code: int, reply: bytes, ok: tuple[int, ...]) -> dict:
    """The reply's JSON object; any other code or body raises :class:`BackendError`."""
    if code not in ok:
        raise BackendError(f"{what} failed: {code} {_preview(reply)}")
    try:
        doc = json.loads(reply)
    except ValueError as err:  # UnicodeDecodeError is one too
        raise BackendError(f"{what} reply is not JSON: {err}") from err
    if not isinstance(doc, dict):
        raise BackendError(f"{what} reply is not a JSON object: {_preview(reply)}")
    return doc


class MockServer:
    """In-process job server wrapping a local backend.

    A job's id is ``uuid5`` of its idempotency key.  Its submission stores it
    as ``running``, then runs it through :func:`submit_and_wait` to ``done``,
    or to ``failed`` with the error's text when the batch is refused or the
    backend raises.  The ``_FINISHED_JOBS_KEPT`` latest finished jobs are
    kept, and every running one; an older id answers 404.  A body that does
    not decode answers 400 and stores nothing.  It speaks HTTP/1.1 and keeps
    connections open until the client closes them or :meth:`stop` does.
    """

    def __init__(self, backend: Backend, host: str = "127.0.0.1") -> None:
        self.backend = backend
        # job id -> status document; running jobs, then finished ones in the order they ended
        self._jobs: dict[str, dict] = {}
        self._handlers: dict = {}  # client socket -> its handler thread, for stop
        self._lock = threading.Lock()

        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # a reply is two writes (headers, body); without TCP_NODELAY the
            # body waits for the client's delayed ACK of the headers
            disable_nagle_algorithm = True

            def log_message(self, *args) -> None:
                pass

            def _reply(self, code: int, doc: dict) -> None:
                payload = json.dumps(doc).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def _body(self) -> bytes:
                """The request body, read before any reply: on a kept-alive
                connection unread bytes would be parsed as the next request."""
                return self.rfile.read(int(self.headers.get("Content-Length", 0)))

            def do_POST(self) -> None:
                body = self._body()
                if self.path != "/jobs":
                    self._reply(404, {"error": "unknown endpoint"})
                    return
                try:
                    code, doc = server.handle_submit(json.loads(body))
                except (KeyError, TypeError, ValueError) as err:
                    code, doc = 400, {"error": str(err)}
                self._reply(code, doc)

            def do_GET(self) -> None:
                self._body()
                if self.path == "/device":
                    self._reply(200, server.backend.device.to_json_dict())
                elif self.path.startswith("/jobs/"):
                    job_id = self.path[len("/jobs/"):]
                    self._reply(*server.handle_status(job_id))
                else:
                    self._reply(404, {"error": "unknown endpoint"})

        class HTTPServer(ThreadingHTTPServer):
            """Keeps each connection's socket and handler thread, so ``stop``
            can close the one and join the other."""

            def process_request(self, request, client_address) -> None:
                thread = threading.Thread(target=self.process_request_thread,
                                          args=(request, client_address), daemon=True)
                with server._lock:
                    server._handlers = {sock: t for sock, t in server._handlers.items()
                                        if t.is_alive()}
                    server._handlers[request] = thread
                thread.start()

            def shutdown_request(self, request) -> None:
                with server._lock:  # so stop never shuts down a closed socket's reused fd
                    super().shutdown_request(request)

        self._httpd = HTTPServer((host, 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    # -- protocol handlers -------------------------------------------------

    def handle_submit(self, body: dict) -> tuple[int, dict]:
        """Decode the whole body before the job is stored, so a rejected one
        (``KeyError``, ``TypeError``, ``ValueError``) stores nothing."""
        circuits = [circuit_from_dict(d) for d in body["circuits"]]
        shots, seed, key = int(body["shots"]), int(body["seed"]), body["idempotency_key"]
        if not isinstance(key, str):
            raise TypeError(f"idempotency_key must be a string, not {type(key).__name__}")
        job_id = str(uuid.uuid5(_JOB_ID_NAMESPACE, key))
        with self._lock:
            if job_id in self._jobs:
                return 200, {"job_id": job_id}
            self._jobs[job_id] = {"status": "running", "results": []}
        self._execute(job_id, circuits, shots, seed)
        return 201, {"job_id": job_id}

    def handle_status(self, job_id: str) -> tuple[int, dict]:
        with self._lock:
            if job_id not in self._jobs:
                return 404, {"error": f"unknown job {job_id}"}
            return 200, dict(self._jobs[job_id])

    def _execute(self, job_id: str, circuits: list[Circuit], shots: int, seed: int) -> None:
        """Run the batch and store its end; forget the oldest finished jobs beyond the cap."""
        try:
            tables = submit_and_wait(self.backend, circuits, shots, seed)
            doc = {"status": "done", "results": [{"counts": dict(t.counts)} for t in tables]}
        except CapabilityError as err:
            doc = {"status": "failed", "error": str(err), "results": []}
        except Exception as err:  # any backend fault fails the job, not the server
            doc = {"status": "failed", "error": f"{type(err).__name__}: {err}", "results": []}
        with self._lock:
            del self._jobs[job_id]
            self._jobs[job_id] = doc  # to the end of the map
            finished = [j for j, d in self._jobs.items() if d["status"] != "running"]
            for old in finished[:-_FINISHED_JOBS_KEPT]:
                del self._jobs[old]

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def start(self) -> "MockServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every open connection and join its handler."""
        import socket  # loaded by http.server; here only a sys.modules lookup

        self._httpd.shutdown()
        with self._lock:
            handlers = list(self._handlers.items())
            for sock, _ in handlers:
                with contextlib.suppress(OSError):  # closed by its handler, or reset
                    sock.shutdown(socket.SHUT_RDWR)  # the handler reads EOF and returns
        for _, thread in handlers:
            thread.join()
        self._httpd.server_close()

    def __enter__(self) -> "MockServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
