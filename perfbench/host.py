"""Host facts read from outside the program: the peak resident set of the
driver and the Ray workers, and a record of how busy the machine was around a run."""

from __future__ import annotations

import os
import time


def descendants(root: int) -> list:
    """PIDs of every live process below ``root`` (by parent links)."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for kid in children.get(todo.pop(), []):
            out.append(kid)
            todo.append(kid)
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart this process's VmHWM count (so corpus building, which is
    not the program, does not set the driver's peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def peak_rss(root: int) -> dict:
    """VmHWM in MiB of the driver ``root`` and of every Ray worker process
    below it, keyed ``"<pid> <title>"``.  A worker is a process Ray starts
    as ``default_worker.py`` and retitles ``ray::<task or actor>``; Ray's
    GCS, raylet and agents are not workers and are left out."""
    out = {f"{root} driver": _status_kb(root, "VmHWM") / 1024.0}
    for pid in descendants(root):
        cmd = _cmdline(pid)
        if cmd.startswith("ray::") or "default_worker.py" in cmd:
            title = cmd.split()[0] if cmd.startswith("ray::") else "default_worker"
            out[f"{pid} {title}"] = _status_kb(pid, "VmHWM") / 1024.0
    return out


def wait_gone(pids: list, timeout: float = 30.0) -> list:
    """Wait until none of ``pids`` is alive (a zombie counts as gone);
    SIGKILL what is left after ``timeout``.  Returns the PIDs killed."""
    import signal

    deadline = time.monotonic() + timeout
    live = list(pids)
    while live and time.monotonic() < deadline:
        live = [p for p in live if _alive(p)]
        if live:
            time.sleep(0.1)
    for p in live:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    while any(_alive(p) for p in live):
        time.sleep(0.05)
    return live


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cpu_burn_s() -> float:
    """Seconds for a fixed pure-Python loop: a busy neighbour shows up as a
    slower burn.  Median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def host_record(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "cpu_burn_s": cpu_burn_s(),
        "time": time.time(),
    }
