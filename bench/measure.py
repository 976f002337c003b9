"""Run one command; print its wall time, CPU time and peak RSS as one JSON line.

Usage: python3 -I -S bench/measure.py STDOUT_FILE STDERR_FILE COMMAND...

CPU time and peak RSS come from ``os.wait4``, which reports the command's
own usage plus that of every descendant it waited for (the sweep's pool
workers included); peak RSS is the largest of any single process in that
tree. Linux carries a process's memory high-water mark across exec, so the
command is started from this small interpreter rather than from the
benchmark, whose own peak would otherwise be reported.
"""

import json
import os
import sys
import time


def main(argv):
    out_path, err_path, *command = argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
