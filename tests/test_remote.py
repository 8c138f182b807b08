"""Job-protocol tests against the bundled mock server."""
import contextlib
import dataclasses
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest

import qbench.remote
from helpers import http_json
from qbench.backends import (
    Backend,
    BackendError,
    CapabilityError,
    JobNotFoundError,
    LocalSimBackend,
    SubmitTimeout,
    submit_and_wait,
)
from qbench.circuits import Circuit, TimingModel, measure_all, x
from qbench.cli import EXIT_METRIC_INVALID, cli_main
from qbench.device import DeviceModel, ideal_device, starmon5_reference_model
from qbench.remote import MockServer, RemoteBackend
from qbench.reporting import RunStore
from qbench.serialization import circuit_to_dict
from qbench.simulator import ShotTable
from qbench.system import CLOPSConfig, CLOPSPartialError, run_clops


# Imports qbench the way a local CLI run does, then builds a client and a server.
_IMPORT_PROBE = """
import json, sys
import qbench.cli, qbench.remote
from qbench.backends import LocalSimBackend
from qbench.device import ideal_device
http_stack = ("requests", "urllib3", "http.client", "http.server")
local = sorted(m for m in http_stack if m in sys.modules)
qbench.remote.RemoteBackend("http://127.0.0.1:9", n_qubits=2)
qbench.remote.MockServer(LocalSimBackend(ideal_device(2)))._httpd.server_close()
remote = sorted(m for m in http_stack if m in sys.modules)
print(json.dumps({"local": local, "remote": remote}))
"""


def test_local_path_imports_no_http_stack():
    src = os.path.dirname(os.path.dirname(qbench.remote.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == {"local": [], "remote": ["http.client", "http.server"]}


@pytest.fixture()
def server():
    with MockServer(LocalSimBackend(ideal_device(3))) as srv:
        yield srv


def _circuit() -> Circuit:
    return Circuit(3, (x(0), measure_all()), label="probe")


class TestProtocol:
    def test_submit_and_result(self, server):
        backend = RemoteBackend(server.url, n_qubits=3)
        tables = submit_and_wait(backend, [_circuit()], 50, seed=1)
        assert tables[0].counts == {"100": 50}
        assert tables[0].n_qubits == 3

    def test_run_reads_status_once(self, server, monkeypatch):
        """``run`` builds its tables from the ``done`` document ``wait`` saw."""
        seen = []
        handle_status = server.handle_status
        monkeypatch.setattr(server, "handle_status",
                            lambda job_id: seen.append(job_id) or handle_status(job_id))
        backend = RemoteBackend(server.url, n_qubits=3)
        assert backend.run([_circuit()], 10, seed=1)[0].counts == {"100": 10}
        assert len(seen) == 1

    def test_unknown_job_is_404(self, server):
        assert http_json(server.url, "GET", "/jobs/not-a-job")[0] == 404
        backend = RemoteBackend(server.url, n_qubits=3)
        with pytest.raises(JobNotFoundError):
            backend.status("not-a-job")

    def test_idempotent_resubmission(self, server):
        body = {
            "circuits": [circuit_to_dict(_circuit())],
            "shots": 10,
            "seed": 2,
            "idempotency_key": "fixed-key-123",
        }
        first = http_json(server.url, "POST", "/jobs", body)
        second = http_json(server.url, "POST", "/jobs", body)
        assert first[0] == 201
        assert second[0] == 200
        assert first[1]["job_id"] == second[1]["job_id"]

    def test_malformed_body_rejected(self, server):
        assert http_json(server.url, "POST", "/jobs", {"shots": 1})[0] == 400

    def test_capability_failure_surfaces(self, server):
        backend = RemoteBackend(server.url, n_qubits=6)  # wider than the device
        wide = Circuit(6, (x(5), measure_all()))
        handle = backend.submit([wide], 5, seed=1)
        with pytest.raises(BackendError, match="failed"):
            backend.wait(handle, timeout_s=2.0)


def _valid_body(key: str) -> dict:
    return {"circuits": [circuit_to_dict(_circuit())], "shots": 10, "seed": 2,
            "idempotency_key": key}


class GatedBackend(LocalSimBackend):
    """Holds every batch inside ``run`` until ``release`` is set."""

    def __init__(self, device: DeviceModel) -> None:
        super().__init__(device)
        self.started, self.release = threading.Event(), threading.Event()

    def run(self, circuits, shots, seed) -> list[ShotTable]:
        self.started.set()
        assert self.release.wait(timeout=30.0)
        return super().run(circuits, shots, seed)


def test_retry_of_a_running_job_gets_its_id():
    """A key retried while its job runs gets the job's id, which answers
    ``running`` until the job ends and ``done`` after."""
    local = GatedBackend(ideal_device(3))
    body, first = _valid_body("retried"), []
    with MockServer(local) as srv:
        def post() -> None:
            first.append(http_json(srv.url, "POST", "/jobs", body))

        thread = threading.Thread(target=post)
        thread.start()
        try:
            assert local.started.wait(timeout=30.0)
            code, reply = http_json(srv.url, "POST", "/jobs", body)
            assert code == 200
            job_id = reply["job_id"]
            assert http_json(srv.url, "GET", f"/jobs/{job_id}") == (
                200, {"status": "running", "results": []})
            backend = RemoteBackend(srv.url, n_qubits=3, poll_interval_s=0.01)
            with pytest.raises(SubmitTimeout):
                backend.wait(job_id, timeout_s=0.05)
        finally:
            local.release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert first == [(201, {"job_id": job_id})]
        done = {"status": "done", "results": [{"counts": {"100": 10}}]}
        assert http_json(srv.url, "GET", f"/jobs/{job_id}") == (200, done)
        assert backend.wait(job_id, timeout_s=5.0) == done


class TestRejectedSubmission:
    """A body the server cannot decode answers 400 and registers nothing."""

    @pytest.mark.parametrize(
        "body",
        [
            {**_valid_body("k1"), "circuits": [{"n_qubits": 3, "ops": [{"kind": "BAD",
                                                                        "qubits": [0]}]}]},
            {**_valid_body("k2"), "shots": "many"},
            {**_valid_body("k3"), "seed": None},
            [],
            {**_valid_body("k4"), "circuits": 5},
            {**_valid_body("k5"), "circuits": [5]},
            {**_valid_body("k6"), "idempotency_key": ["a", "list"]},
            {**_valid_body("k7"), "idempotency_key": 7},
        ],
        ids=["bad_gate", "bad_shots", "null_seed", "list_body", "int_circuits",
             "int_circuit", "list_key", "int_key"],
    )
    def test_rejected_body_leaves_nothing(self, server, body):
        conn = http.client.HTTPConnection(urlsplit(server.url).netloc, timeout=30)
        try:
            for _ in range(2):  # a retry with the rejected key is rejected again
                conn.request("POST", "/jobs", json.dumps(body).encode("utf-8"),
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400
                assert "error" in json.loads(resp.read())
                assert server._jobs == {}
            conn.request("POST", "/jobs", json.dumps(_valid_body("fresh")).encode("utf-8"),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()  # the same connection still serves
            assert resp.status == 201 and "job_id" in json.loads(resp.read())
        finally:
            conn.close()
        assert len(server._jobs) == 1

    def test_many_rejected_keys_leave_nothing(self, server):
        body = {**_valid_body(""), "circuits": [{"n_qubits": 3, "ops": [{"kind": "BAD"}]}]}
        for i in range(200):
            reply = http_json(server.url, "POST", "/jobs", {**body, "idempotency_key": f"k{i}"})
            assert reply[0] == 400
        assert server._jobs == {}


class QueuedServer(MockServer):
    """A mock server whose jobs stay queued while ``hold`` is on, until
    :meth:`complete_all` runs them.  Held jobs sit in the server's job store
    as ``running``, which its cap never forgets."""

    def __init__(self, backend: Backend) -> None:
        super().__init__(backend)
        self.hold = True
        self._held: dict[str, tuple] = {}  # job id -> _execute's other arguments

    def _execute(self, job_id, *args) -> None:
        if self.hold:
            self._held[job_id] = args
        else:
            super()._execute(job_id, *args)

    def handle_status(self, job_id: str) -> tuple[int, dict]:
        if job_id in self._held:
            return 200, {"status": "queued", "results": []}
        return super().handle_status(job_id)

    def complete_all(self) -> None:
        for job_id, args in list(self._held.items()):
            super()._execute(job_id, *args)
            del self._held[job_id]  # after the run, so a poll never sees a 404


class TestTimeout:
    def test_timeout_then_late_retrieval(self):
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3, poll_interval_s=0.02, timeout_s=0.15)
            with pytest.raises(SubmitTimeout) as err:
                submit_and_wait(backend, [_circuit()], 10, seed=1)
            handle = err.value.handle
            srv.complete_all()
            backend.wait(handle, timeout_s=5.0)
            tables = backend.result(handle)
            assert tables[0].counts == {"100": 10}

    def test_run_forgets_finished_jobs(self, server):
        backend = RemoteBackend(server.url, n_qubits=3)
        for seed in range(20):
            backend.run([_circuit()], 5, seed=seed)
        assert backend._context == {}

    def test_result_forgets_the_handle(self):
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, poll_interval_s=0.02, timeout_s=0.05)
            with pytest.raises(SubmitTimeout) as err:
                backend.run([_circuit()], 10, seed=1)
            srv.complete_all()
            assert backend.result(err.value.handle)[0].counts == {"100": 10}
            assert backend._context == {} and backend._timed_out == {}
            with pytest.raises(JobNotFoundError):
                backend.result(err.value.handle)

    def test_timed_out_handles_are_bounded(self, monkeypatch):
        cap = 2
        monkeypatch.setattr(qbench.remote, "_FINISHED_JOBS_KEPT", cap)
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, poll_interval_s=0.02, timeout_s=0.05)
            handles = []
            for seed in range(cap + 2):
                with pytest.raises(SubmitTimeout) as err:
                    backend.run([_circuit()], 10, seed=seed)
                handles.append(err.value.handle)
                assert list(backend._context) == list(backend._timed_out) == handles[-cap:]
            monkeypatch.setattr(qbench.remote, "_FINISHED_JOBS_KEPT", 64)  # the server keeps all
            srv.complete_all()
            with pytest.raises(JobNotFoundError, match="not submitted by this client"):
                backend.result(handles[0])
            for handle in handles[-cap:]:
                assert backend.result(handle)[0].counts == {"100": 10}
            assert backend._context == {} and backend._timed_out == {}

    def test_result_on_a_queued_job_keeps_the_handle(self):
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            handle = backend.submit([_circuit()], 5, seed=1)
            with pytest.raises(SubmitTimeout) as err:
                backend.result(handle)
            assert err.value.handle == handle and list(backend._context) == [handle]
            srv.complete_all()
            assert backend.result(handle)[0].counts == {"100": 5}

    def test_result_before_done_raises(self):
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            handle = backend.submit([_circuit()], 5, seed=1)
            with pytest.raises(SubmitTimeout):
                backend.result(handle)


class TestServerMemory:
    def test_finished_jobs_are_bounded(self, monkeypatch):
        cap = 4
        monkeypatch.setattr(qbench.remote, "_FINISHED_JOBS_KEPT", cap)
        with QueuedServer(LocalSimBackend(ideal_device(3))) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            queued = [backend.submit([_circuit()], 5, seed=s) for s in range(2)]
            srv.hold = False
            done = []
            for seed in range(3 * cap):
                done.append(backend.submit([_circuit()], 5, seed=seed))
                assert len(srv._jobs) == len(queued) + min(len(done), cap)
            for handle in queued:
                assert backend.status(handle)["status"] == "queued"
            assert [backend.status(h)["status"] for h in done[-cap:]] == ["done"] * cap
            with pytest.raises(JobNotFoundError):
                backend.result(done[0])
            srv.complete_all()
            assert len(srv._jobs) == cap
            assert backend.result(queued[1])[0].counts == {"100": 5}
            with pytest.raises(JobNotFoundError):
                backend.status(done[-cap])


class CannedBackend(Backend):
    """Answers every batch with the same tables, whatever it asked for."""

    def __init__(self, tables: list[ShotTable]) -> None:
        self.tables = tables

    @property
    def device(self):
        return ideal_device(3)

    def run(self, circuits, shots, seed) -> list[ShotTable]:
        return self.tables


class RaisingBackend(CannedBackend):
    """Fails every batch inside ``run``."""

    def run(self, circuits, shots, seed) -> list[ShotTable]:
        raise RuntimeError("device lost")


class TestFailedJob:
    def test_backend_exception_fails_the_job(self):
        with MockServer(RaisingBackend([])) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            with pytest.raises(BackendError, match="RuntimeError: device lost") as err:
                backend.run([_circuit()], 10, seed=1)
            assert not isinstance(err.value, JobNotFoundError)
            assert len(srv._jobs) == 1

    def test_result_raises_the_error_and_forgets_the_handle(self):
        with MockServer(RaisingBackend([])) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            handle = backend.submit([_circuit()], 10, seed=1)
            with pytest.raises(BackendError, match="failed: RuntimeError: device lost") as err:
                backend.result(handle)
            assert err.type is BackendError
            assert backend._context == {} and backend._timed_out == {}

    def test_failed_jobs_are_bounded(self, monkeypatch):
        cap = 3
        monkeypatch.setattr(qbench.remote, "_FINISHED_JOBS_KEPT", cap)
        with MockServer(RaisingBackend([])) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            for seed in range(2 * cap):
                with pytest.raises(BackendError, match="failed"):
                    backend.run([_circuit()], 10, seed=seed)
            assert len(srv._jobs) == cap


class TestForgottenHandles:
    def test_failed_and_malformed_jobs_leave_no_handle(self):
        with MockServer(RaisingBackend([])) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            for seed in range(200):
                with pytest.raises(BackendError, match="RuntimeError: device lost"):
                    backend.run([_circuit()], 10, seed=seed)
            srv.backend = CannedBackend([ShotTable(counts={}, shots=0, n_qubits=3)])
            with pytest.raises(BackendError, match="malformed result"):
                backend.run([_circuit()], 10, seed=200)
        assert backend._context == {} and backend._timed_out == {}

    def test_malformed_result_forgets_a_timed_out_handle(self):
        with QueuedServer(CannedBackend([])) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3, poll_interval_s=0.02, timeout_s=0.05)
            with pytest.raises(SubmitTimeout) as err:
                backend.run([_circuit()], 10, seed=1)
            srv.complete_all()
            with pytest.raises(BackendError, match="0 results for 1 circuits"):
                backend.result(err.value.handle)
            assert backend._context == {} and backend._timed_out == {}


class TestReplyValidation:
    @pytest.mark.parametrize(
        "tables, message",
        [
            ([], "0 results for 1 circuits"),
            ([ShotTable(counts={}, shots=0, n_qubits=3)], "malformed"),
            ([ShotTable(counts={"100": 5}, shots=5, n_qubits=3)], "malformed"),
            ([ShotTable(counts={"10": 10}, shots=10, n_qubits=2)], "malformed"),
        ],
        ids=["missing", "empty_counts", "short_counts", "wrong_width"],
    )
    def test_bad_reply_is_backend_error(self, tables, message):
        with MockServer(CannedBackend(tables)) as srv:
            backend = RemoteBackend(srv.url, n_qubits=3)
            with pytest.raises(BackendError, match=message):
                backend.run([_circuit()], 10, seed=1)


class _StatusHandler(BaseHTTPRequestHandler):
    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.dumps({"error": "stub"}).encode("utf-8")
        self.send_response(self.server.reply_code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class WideBackend(CannedBackend):
    """Answers with a 64-qubit reply, one bit wider than an outcome index holds."""

    @property
    def device(self):
        return ideal_device(64)


def test_reply_wider_than_a_register_is_backend_error():
    reply = SimpleNamespace(counts={"1" + "0" * 63: 10})
    with MockServer(WideBackend([reply])) as srv:
        backend = RemoteBackend(srv.url, n_qubits=64)
        with pytest.raises(BackendError, match="malformed.*at most 63 qubits"):
            backend.run([Circuit(64, (x(0), measure_all()))], 10, seed=1)


class TestSubmitErrors:
    @pytest.mark.parametrize(
        "code, expected",
        [(400, CapabilityError), (422, CapabilityError), (500, BackendError), (503, BackendError)],
    )
    def test_status_code_classified(self, code, expected):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StatusHandler)
        httpd.reply_code = code
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address
            backend = RemoteBackend(f"http://{host}:{port}", n_qubits=3)
            with pytest.raises(BackendError, match=str(code)) as err:
                backend.submit([_circuit()], 5, seed=1)
            assert err.type is expected
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize("timeouts", [1, 2])
    def test_timeout_retried_once_with_same_key(self, server, monkeypatch, timeouts):
        real_request = http.client.HTTPConnection.request
        keys = []

        def flaky_request(conn, method, url, body=None, *args, **kwargs):
            if method == "POST":
                keys.append(json.loads(body)["idempotency_key"])
                if len(keys) <= timeouts:
                    raise TimeoutError("injected timeout")
            return real_request(conn, method, url, body, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", flaky_request)
        backend = RemoteBackend(server.url, n_qubits=3)
        if timeouts == 1:
            assert backend.run([_circuit()], 10, seed=1)[0].counts == {"100": 10}
        else:
            with pytest.raises(BackendError, match="submit failed"):
                backend.submit([_circuit()], 10, seed=1)
        assert len(keys) == 2 and keys[0] == keys[1]


class _BadStatusHandler(BaseHTTPRequestHandler):
    """Accepts every submission, then answers each status GET with ``server.reply``."""

    def log_message(self, *args) -> None:
        pass

    def _send(self, code: int, payload: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._send(201, json.dumps({"job_id": "stub-job"}).encode("utf-8"))

    def do_GET(self) -> None:
        if self.path == "/device" and not getattr(self.server, "device_reply", False):
            # a valid device, so the bad reply is the status one
            self._send(200, json.dumps(ideal_device(3).to_json_dict()).encode("utf-8"))
            return
        self._send(*self.server.reply)


# (status code, body) of each bad status reply, and the class it must raise
BAD_STATUS_REPLIES = {
    "http_500": ((500, b'{"error": "internal"}'), BackendError),
    "http_503": ((503, b"unavailable"), BackendError),
    "html_body": ((200, b"<html>maintenance</html>"), BackendError),
    "empty_object": ((200, b"{}"), BackendError),
    "json_list": ((200, b'[{"status": "done"}]'), BackendError),
    "unknown_status": ((200, b'{"status": "exploded"}'), BackendError),
    "status_not_a_string": ((200, b'{"status": ["done"]}'), BackendError),
    "failed_job": ((200, b'{"status": "failed", "error": "device lost", "results": []}'),
                   BackendError),
}


@pytest.fixture(scope="module")
def bad_status_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _BadStatusHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    try:
        yield httpd, f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


class TestStatusErrors:
    """Every status reply the protocol does not define, and a failed job's, is
    a ``BackendError``, raised at once, through the library and through the CLI."""

    @pytest.mark.parametrize("case", sorted(BAD_STATUS_REPLIES))
    def test_run_forgets_the_handle(self, bad_status_server, case):
        httpd, url = bad_status_server
        httpd.reply, expected = BAD_STATUS_REPLIES[case]
        backend = RemoteBackend(url, n_qubits=3, poll_interval_s=0.01, timeout_s=2.0)
        with pytest.raises(expected):
            backend.run([_circuit()], 10, seed=1)
        assert backend._context == {} and backend._timed_out == {}

    @pytest.mark.parametrize("case", sorted(BAD_STATUS_REPLIES))
    def test_run_and_result_raise(self, bad_status_server, case):
        httpd, url = bad_status_server
        httpd.reply, expected = BAD_STATUS_REPLIES[case]
        backend = RemoteBackend(url, n_qubits=3, poll_interval_s=0.01, timeout_s=2.0)
        with pytest.raises(BackendError) as err:
            backend.run([_circuit()], 10, seed=1)
        assert err.type is expected
        handle = backend.submit([_circuit()], 10, seed=1)
        for call in (backend.result, backend.wait):
            with pytest.raises(BackendError) as err:
                call(handle)
            assert err.type is expected

    @pytest.mark.parametrize("case", sorted(BAD_STATUS_REPLIES))
    def test_cli_exits_one_without_record(self, bad_status_server, tmp_path, capsys, case):
        httpd, url = bad_status_server
        httpd.reply = BAD_STATUS_REPLIES[case][0]
        code = cli_main(["rb", "--backend", "remote", "--remote-url", url,
                         "--qubit", "0", "--shots", "8", "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:")
        assert RunStore(str(tmp_path)).records() == []


def _record_accepts(httpd) -> list:
    """The list of sockets ``httpd`` accepts from now on."""
    accepted = []
    get_request = httpd.get_request

    def counted_get_request():
        sock, address = get_request()
        accepted.append(sock)
        return sock, address

    httpd.get_request = counted_get_request
    return accepted


@contextlib.contextmanager
def _serving(handler):
    """A threaded stub server running ``handler``, its URL, and the list of
    sockets it accepts."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    accepted = _record_accepts(httpd)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    try:
        yield httpd, f"http://{host}:{port}", accepted
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


class _BadSubmitHandler(_BadStatusHandler):
    """Serves a valid device, then answers each submission with
    ``server.reply``; a reply of None drops the connection unanswered."""

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.server.reply is not None:
            self._send(*self.server.reply)


# (status code, body) of each bad submit reply; None is a dropped connection
BAD_SUBMIT_REPLIES = {
    "html_body": (201, b"<html>maintenance</html>"),
    "json_list": (201, b"[]"),
    "empty_object": (201, b"{}"),
    "job_id_not_a_string": (201, b'{"job_id": 3}'),
    "http_500": (500, b'{"error": "internal"}'),
    "dropped": None,
}


@pytest.fixture(scope="module")
def bad_submit_server():
    with _serving(_BadSubmitHandler) as (httpd, url, _):
        httpd.device_reply = False
        yield httpd, url


class TestSubmitReplyErrors:
    """Every submit reply the protocol does not define is a ``BackendError``,
    through the library and through the CLI."""

    @pytest.mark.parametrize("case", sorted(BAD_SUBMIT_REPLIES))
    def test_library_raises_backend_error(self, bad_submit_server, case):
        httpd, url = bad_submit_server
        httpd.reply = BAD_SUBMIT_REPLIES[case]
        backend = RemoteBackend(url, n_qubits=3)
        for call in (backend.submit, backend.run):
            with pytest.raises(BackendError) as err:
                call([_circuit()], 10, seed=1)
            assert err.type is BackendError
        assert backend._context == {}

    @pytest.mark.parametrize("case", sorted(BAD_SUBMIT_REPLIES))
    def test_cli_exits_one_without_record(self, bad_submit_server, tmp_path, capsys, case):
        httpd, url = bad_submit_server
        httpd.reply = BAD_SUBMIT_REPLIES[case]
        code = cli_main(["rb", "--backend", "remote", "--remote-url", url,
                         "--qubit", "0", "--shots", "8", "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert RunStore(str(tmp_path)).records() == []


class _IdleDropHandler(BaseHTTPRequestHandler):
    """Answers over HTTP/1.1 as if keeping the connection alive, then drops
    it, as a server does with a connection left idle past its timeout."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:
        doc = (ideal_device(3).to_json_dict() if self.path == "/device"
               else {"status": "queued", "results": []})
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = True


class TestConnection:
    """One kept-alive connection per client, reopened when it drops."""

    def test_runs_share_one_connection_until_stop(self):
        srv = MockServer(LocalSimBackend(ideal_device(3)))
        accepted, handlers = _record_accepts(srv._httpd), []
        finish_request = srv._httpd.finish_request

        def recorded_finish_request(request, address):
            handlers.append(threading.current_thread())
            finish_request(request, address)

        srv._httpd.finish_request = recorded_finish_request
        srv.start()
        try:
            backend = RemoteBackend(srv.url, n_qubits=3)
            for seed in range(5):
                assert backend.run([_circuit()], 10, seed=seed)[0].counts == {"100": 10}
            assert backend.n_qubits == 3
            assert len(accepted) == 1
            # a reply's body goes out without waiting for the ACK of its headers
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            srv.stop()
        assert handlers and not any(thread.is_alive() for thread in handlers)
        with pytest.raises(BackendError, match="failed"):
            backend.run([_circuit()], 10, seed=1)

    def test_unknown_post_leaves_the_connection_usable(self, server):
        conn = http.client.HTTPConnection(urlsplit(server.url).netloc, timeout=30)
        try:
            conn.request("POST", "/nowhere", b'{"circuits": []}')
            resp = conn.getresponse()
            assert (resp.status, resp.getheader("Connection")) == (404, None)
            resp.read()
            conn.request("GET", "/device")
            resp = conn.getresponse()
            assert resp.status == 200
            assert DeviceModel.from_json_dict(json.loads(resp.read())) == ideal_device(3)
        finally:
            conn.close()

    @pytest.mark.parametrize("scheme, connection", [("http", http.client.HTTPConnection),
                                                    ("https", http.client.HTTPSConnection)])
    def test_url_scheme_and_path_prefix(self, monkeypatch, scheme, connection):
        seen = []

        def refused(conn, method, url, *args, **kwargs):
            seen.append((type(conn), conn.host, conn.port, method, url))
            raise ConnectionRefusedError("injected")

        monkeypatch.setattr(http.client.HTTPConnection, "request", refused)
        backend = RemoteBackend(f"{scheme}://qpu.example:8443/api/v1/")
        with pytest.raises(BackendError, match="GET /jobs/j1 failed: injected"):
            backend.status("j1")
        assert seen == [(connection, "qpu.example", 8443, "GET", "/api/v1/jobs/j1")] * 2

    def test_get_reopens_a_dropped_connection(self):
        with _serving(_IdleDropHandler) as (_, url, accepted):
            backend = RemoteBackend(url)
            assert backend.n_qubits == 3
            for _ in range(2):
                assert backend.status("stub-job")["status"] == "queued"
            assert len(accepted) == 3


class TestClopsOverRemote:
    def test_submit_failure_keeps_completed_rounds(self, server, monkeypatch):
        """Round 3's submission times out twice: two rounds were completed."""
        real_request = http.client.HTTPConnection.request
        posts = []

        def post_failing_round_3(conn, method, url, *args, **kwargs):
            if method == "POST":
                posts.append(url)
                if len(posts) in (3, 4):  # round 3 and its one retry
                    raise TimeoutError("injected timeout")
            return real_request(conn, method, url, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", post_failing_round_3)
        backend = RemoteBackend(server.url, n_qubits=3)
        cfg = CLOPSConfig(m_templates=2, k_updates=5, shots=10)
        with pytest.raises(CLOPSPartialError) as err:
            run_clops(backend, cfg, measured_qv=4, seed=1)
        assert err.value.rounds_completed == 2
        assert len(posts) == 4


class TestDeviceEndpoint:
    """The client reads its device from ``GET /device``, once, on first use."""

    @pytest.mark.parametrize("device", [starmon5_reference_model(), ideal_device(5)],
                             ids=["starmon5", "ideal"])
    def test_json_round_trip_is_exact(self, device):
        doc = json.loads(json.dumps(device.to_json_dict()))
        assert DeviceModel.from_json_dict(doc) == device
        if device.edges is None:  # infinite coherence travels as null
            assert doc["qubits"][0]["t1_us"] is None

    def test_client_reads_the_served_device_once(self, monkeypatch):
        local = LocalSimBackend(starmon5_reference_model())
        with MockServer(local) as srv:
            gets = []
            real_request = http.client.HTTPConnection.request

            def counted_request(conn, method, url, *args, **kwargs):
                gets.append((method, url))
                return real_request(conn, method, url, *args, **kwargs)

            monkeypatch.setattr(http.client.HTTPConnection, "request", counted_request)
            backend = RemoteBackend(srv.url)
            assert gets == []
            assert backend.device == local.device
            assert backend.preferred_qubit_order() == [2, 3, 1, 0, 4]
            assert local.preferred_qubit_order() == [2, 3, 1, 0, 4]
            assert (backend.n_qubits, backend.connectivity) == (5, local.connectivity)
            assert backend.timing is None  # CLOPS measures its window over the network
            assert gets == [("GET", "/device")]

    @pytest.mark.parametrize("n_qubits, connectivity", [(3, None), (None, frozenset({(0, 1)})),
                                                        (3, frozenset({(0, 1), (1, 2)}))])
    def test_check_arguments_must_match_the_served_device(self, server, n_qubits, connectivity):
        backend = RemoteBackend(server.url, n_qubits=n_qubits, connectivity=connectivity)
        if connectivity is None:
            assert backend.n_qubits == 3
            return
        with pytest.raises(CapabilityError, match="not the ones expected"):
            backend.device

    def test_q_factor_reads_the_served_gate_time(self):
        slow = dataclasses.replace(ideal_device(2), timing=TimingModel(single_qubit_gate_ns=40.0))
        with MockServer(LocalSimBackend(slow)) as srv:
            assert RemoteBackend(srv.url).device.timing.single_qubit_gate_ns == 40.0


def _refused_url() -> str:
    """A local address nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


# (status code, body) of each bad device reply; None is a refused connection
BAD_DEVICE_REPLIES = {
    "http_404": (404, b'{"error": "unknown endpoint"}'),  # a server from before /device
    "http_500": (500, b'{"error": "internal"}'),
    "html_body": (200, b"<html>maintenance</html>"),
    "json_list": (200, b'[{"qubits": []}]'),
    "no_qubits": (200, b'{"qubits": []}'),
    "refused": None,
}


class TestDeviceErrors:
    """Every bad device reply is a ``BackendError``: through the library, and
    through the CLI as exit 1 with one error line and no record."""

    @pytest.fixture()
    def url(self, bad_status_server, request):
        httpd, url = bad_status_server
        reply = BAD_DEVICE_REPLIES[request.param]
        if reply is None:
            yield _refused_url()
            return
        httpd.reply = reply
        httpd.device_reply = True
        yield url
        httpd.device_reply = False

    @pytest.mark.parametrize("url", sorted(BAD_DEVICE_REPLIES), indirect=True)
    def test_library_raises_backend_error(self, url):
        backend = RemoteBackend(url)
        with pytest.raises(BackendError):
            backend.device
        with pytest.raises(BackendError):
            submit_and_wait(backend, [_circuit()], 10, seed=1)

    @pytest.mark.parametrize("qubit", [[], ["--qubit", "0"]], ids=["all_qubits", "qubit"])
    @pytest.mark.parametrize("url", sorted(BAD_DEVICE_REPLIES), indirect=True)
    def test_cli_exits_one_without_record(self, url, qubit, tmp_path, capsys):
        code = cli_main(["rb", "--backend", "remote", "--remote-url", url, *qubit,
                         "--shots", "8", "--out", str(tmp_path)])
        assert code == EXIT_METRIC_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert RunStore(str(tmp_path)).records() == []
