"""Spawn, probe and stop ``repro serve`` subprocesses.

Each server runs in a process group of its own, so the benchmark finds the
whole process tree (coordinator, pool workers, the multiprocessing
resource tracker) by process group: to sum its peak RSS, and to wait
until every member has exited before the run ends.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import ENGINE_SEED, METHOD, WORKERS

HOST = "127.0.0.1"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def serve_args(workload, source: Path, port: int) -> list[str]:
    """``repro serve`` arguments for one workload (coalescing stays on)."""
    args = [
        "serve", "--store" if workload.durable else "--snapshot", str(source),
        "--methods", METHOD, "--workers", str(WORKERS),
        "--seed", str(ENGINE_SEED), "--host", HOST, "--port", str(port),
    ]
    if workload.cache_size:
        args += ["--cache-size", str(workload.cache_size)]
    return args


def _proc_stat(pid: str) -> tuple[str, int] | None:
    """``(state, process group)`` of one pid, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    fields = raw[raw.rindex(b")") + 2:].split()
    return fields[0].decode(), int(fields[2])


class Server:
    """One ``repro serve`` process tree.

    ``spans_path`` starts it through ``perfbench/traced_serve.py``, which
    records layer spans and writes them to that path (see :meth:`dump_spans`).
    """

    def __init__(self, root: Path, args: list[str], log_path: Path,
                 spans_path: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                    str(spans_path), *args]
        self.port = int(args[args.index("--port") + 1])
        self.spans_path = spans_path
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True,
        )

    # -- readiness and probes -------------------------------------------

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Poll ``/healthz`` until it answers 200; seconds since the spawn."""
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before it "
                    f"was ready:\n{self.log_tail()}"
                )
            if self._healthz() == 200:
                return time.monotonic() - self.spawned
            if time.monotonic() - self.spawned > timeout:
                raise RuntimeError(f"server not ready after {timeout}s:\n{self.log_tail()}")
            time.sleep(0.002)

    def _healthz(self) -> int | None:
        try:
            with socket.create_connection((HOST, self.port), timeout=2.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n"
                             b"Connection: close\r\n\r\n")
                head = sock.recv(64)
        except OSError:
            return None
        parts = head.split(b" ", 2)
        return int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else None

    def get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} answered {response.status}")
            return body
        finally:
            connection.close()

    def metrics(self) -> dict[str, float]:
        """The ``/metrics`` exposition as ``{name: value}``."""
        values = {}
        for line in self.get("/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def members(self) -> list[int]:
        """Live (non-zombie) pids of the server's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _proc_stat(entry)
                if stat is not None and stat[1] == self.process.pid and stat[0] != "Z":
                    pids.append(int(entry))
        return pids

    def rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) summed over the process tree, in MiB."""
        total_kb = 0
        for pid in self.members():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    # -- shutdown --------------------------------------------------------

    def dump_spans(self, timeout: float = 30.0) -> Path:
        """Ask a traced server to write its spans; wait for the file."""
        if self.spans_path is None:
            raise RuntimeError("server was not started traced")
        self.spans_path.unlink(missing_ok=True)
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"no spans written after {timeout}s")
            time.sleep(0.01)
        return self.spans_path

    @property
    def running(self) -> bool:
        return self.process.poll() is None

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful close), then wait for the whole tree."""
        if self.running:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reap_group()

    def kill(self) -> None:
        """SIGKILL the serving processes, as a machine crash would.

        The coordinator first, then its pool workers (forked workers hold
        copies of each other's pipe ends, so they would not notice the
        coordinator's death on their own).  The multiprocessing resource
        tracker is left alone: once every other process is gone it unlinks
        the shared memory the coordinator leaked, then exits.
        """
        if self.running:
            self.process.kill()
            self.process.wait()
        for pid in self.members():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"resource_tracker" in handle.read():
                        continue
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                continue
        self._reap_group()

    def _reap_group(self, timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        while self.members():
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                deadline = time.monotonic() + timeout
            time.sleep(0.02)
        self._log.close()
