"""The unix-socket transport — the one ``repro serve`` runs by default.

An in-thread :meth:`ReproService.serve_socket` with the stub runner of
``test_commands.py``, driven through :class:`ServiceClient` exactly as
``repro submit`` drives it, plus the guard that keeps a second daemon
from taking over a live daemon's socket.
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import threading
from pathlib import Path

import pytest

from repro.service import ReproService, ServiceClient, ServiceError

from .test_commands import SCENARIO, StubRunner


@pytest.fixture
def socket_daemon(tmp_path):
    """``(path, start)``: ``start()`` serves a stub-runner daemon on
    ``path`` in a thread.  Every daemon is shut down at test exit.

    The socket lives under a short ``/tmp`` directory because AF_UNIX
    paths cap at about 108 bytes, which ``tmp_path`` can exceed.
    """
    sock_dir = Path(tempfile.mkdtemp(prefix="repro-", dir="/tmp"))
    path = sock_dir / "s.sock"
    running: list[tuple[ReproService, threading.Thread]] = []

    def start() -> tuple[ReproService, threading.Thread]:
        service = ReproService(runner=StubRunner(),
                               cache=tmp_path / "cache",
                               save_reports=False)
        thread = threading.Thread(target=service.serve_socket,
                                  args=(path,), daemon=True)
        thread.start()
        running.append((service, thread))
        return service, thread

    yield path, start
    for service, thread in running:
        service.request_shutdown("test")
        thread.join(timeout=30)
        assert not thread.is_alive()
    shutil.rmtree(sock_dir, ignore_errors=True)


class TestSocketTransport:
    def test_submit_result_status_shutdown_through_the_client(
            self, socket_daemon):
        path, start = socket_daemon
        _, thread = start()
        with ServiceClient(path) as client:
            submitted = client.request("submit", scenario=SCENARIO,
                                       sets=2)
            assert submitted["ok"] is True
            done = client.request("result", job=submitted["job"],
                                  timeout=20)
            assert done["state"] == "done"
            assert done["result"]["payload"] == {"kind": "stub"}
            listed = client.request("status")["jobs"]
            assert [job["job"] for job in listed] == [submitted["job"]]
            assert listed[0]["state"] == "done"
            response = client.request("shutdown")
            assert response["ok"] is True and response["pending"] == 0
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not path.exists()    # the daemon removes its socket

    def test_malformed_and_blank_lines(self, socket_daemon):
        path, start = socket_daemon
        start()
        with ServiceClient(path) as client:
            assert client.request("ping")["ok"] is True
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(str(path))
            raw.settimeout(20)      # a lost request fails, not hangs
            with raw.makefile("rw", encoding="utf-8") as stream:
                stream.write('not json\n\n{"id": 3, "cmd": "ping"}\n')
                stream.flush()
                malformed = json.loads(stream.readline())
                assert malformed["ok"] is False
                assert "malformed request" in malformed["error"]
                # the blank line got no reply; the next request did
                assert json.loads(stream.readline())["id"] == 3


class TestSocketOwnership:
    def test_second_daemon_refuses_a_live_socket(self, socket_daemon,
                                                 tmp_path):
        path, start = socket_daemon
        start()
        with ServiceClient(path) as client:
            client.request("submit", scenario=SCENARIO)
            assert client.request("ping")["jobs"] == 1

        second = ReproService(runner=StubRunner(),
                              cache=tmp_path / "second-cache",
                              save_reports=False)
        outcome: dict = {}

        def serve_second() -> None:
            try:
                outcome["exit"] = second.serve_socket(path)
            except ServiceError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=serve_second, daemon=True)
        thread.start()
        thread.join(timeout=10)
        if thread.is_alive():       # it took the socket over: stop it
            second.request_shutdown("test")
            thread.join(timeout=30)
        assert "already listening" in outcome.get("error", ""), outcome
        # the live daemon (the one holding a job) still answers
        with ServiceClient(path) as client:
            assert client.request("ping")["jobs"] == 1

    def test_stale_socket_is_replaced(self, socket_daemon):
        path, start = socket_daemon
        # a socket file nobody accepts on, as a killed daemon leaves it
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()
        assert path.is_socket()
        start()
        with ServiceClient(path) as client:
            assert client.request("ping")["ok"] is True
