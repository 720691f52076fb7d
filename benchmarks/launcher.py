"""Start CLI processes for the benchmark and report their own peak RSS.

Linux carries the resident set of the process that forks into the child's
``ru_maxrss``: the child starts as a copy of its parent. The benchmark
process holds generated graphs and numpy, so its children would all report
at least its size. This launcher imports only a few standard modules and
stays small, so the peak it reads from ``os.wait4`` is the child's own.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout. A request names ``args``, ``cwd``, ``env``, ``stdout``, ``stderr``
and optionally ``stdin_file``, whose bytes are written to the child
through a pipe. The reply holds ``wall`` (seconds from start to exit),
``code`` (exit code) and ``maxrss_kb``. End of input ends the launcher.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time


def _feed(path, pipe):
    try:
        with open(path, "rb") as fh:
            shutil.copyfileobj(fh, pipe, 1 << 16)
        pipe.close()
    except BrokenPipeError:
        pass


def run(request):
    stdin_file = request.get("stdin_file")
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["args"],
            stdin=subprocess.PIPE if stdin_file else subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=request["cwd"],
            env=request["env"],
        )
        writer = None
        if stdin_file:
            writer = threading.Thread(target=_feed, args=(stdin_file, proc.stdin))
            writer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if writer is not None:
            writer.join()
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
