"""Server process control and a keep-alive HTTP client.

:class:`Server` boots ``parhde serve`` (or the traced launcher) in its
own process group, reads the bound port from its log, sums the peak RSS of the
server and its descendants, and stops the whole process group.
:class:`Conn` is one persistent HTTP/1.1 connection that times each
request and reconnects after a transport error.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import TRACE_DIR_ENV

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


def _processes() -> list[tuple[int, int, int]]:
    """``(pid, ppid, pgid)`` of every process that is not a zombie."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            out.append((int(stat.parent.name), int(fields[1]), int(fields[2])))
    return out


def _descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for pid, ppid, _ in _processes():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``parhde serve`` process tree, started and stopped as a unit."""

    def __init__(self, work: Path, args: list[str], *, trace_dir: Path | None = None):
        self.work = work
        self.args = args
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.log = work / f"server-{time.monotonic_ns()}.log"

    def start(self, timeout: float = 120.0) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            env[TRACE_DIR_ENV] = str(self.trace_dir)
            prog = [str(BENCH_DIR / "trace_launch.py")]
        else:
            prog = ["-m", "repro"]
        cmd = [sys.executable, *prog, "serve", "--host", "127.0.0.1",
               "--port", "0", "--drain-timeout", "5", *self.args]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True,
            )
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            match = _LISTENING.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(2))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log.read_text(errors='replace')[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its live descendants."""
        return sum(_peak_rss_kb(p) for p in _descendants(self.proc.pid)) / 1024

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL whatever is left."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Grandchildren are left to init; wait until none is running.
        end = time.monotonic() + 10
        while time.monotonic() < end and any(
            pgid == self.proc.pid for _, _, pgid in _processes()
        ):
            time.sleep(0.02)


class Conn:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int):
        self.port = port
        self._http: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None

    def call(self, method: str, path: str, doc: dict | None = None):
        """Return ``(status, body, t_send, t_recv)``; status 0 = transport error."""
        if self._http is None:
            self._http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        body = json.dumps(doc).encode() if doc is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        t_send = time.perf_counter()
        try:
            self._http.request(method, path, body=body, headers=headers)
            resp = self._http.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b"", t_send, time.perf_counter()
        return resp.status, data, t_send, time.perf_counter()

    def json(self, method: str, path: str, doc: dict | None = None) -> dict:
        """Call and decode, raising on any failure (set-up and stats only)."""
        status, data, _, _ = self.call(method, path, doc)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {data[:300]!r}")
        return json.loads(data)
