"""Child processes, one at a time, each waited for with its own rusage."""

import os
import subprocess
import tempfile
from dataclasses import dataclass


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    cpu_s: float
    maxrss_mb: float


def run_child(cmd, env, cwd, scratch):
    """Run ``cmd`` to completion.  Output goes through temporary files
    under ``scratch`` (no pipes to drain) and ``os.wait4`` supplies the CPU time and peak
    RSS of this child alone.  The child never outlives the call."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )
