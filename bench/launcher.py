"""Start the cli workload's cold processes, one at a time, on request.

    python3 bench/launcher.py

Reads one JSON list per line on stdin: the arguments of a process to run,
in this process's working directory and environment.  Answers one JSON
object per line: ``{"code", "stdout", "stderr"}``, with ``code`` null when
the process did not start or did not end within the timeout.  An empty
list asks for ``{"peak_rss_mb"}``, the largest peak RSS of the processes
started so far.  Ends at the end of its input.

It imports only the standard library, so that it stays small: Linux counts
the memory of the process that starts a child in the child's peak RSS.
"""

import json
import resource
import subprocess
import sys

TIMEOUT_S = 60


def run(argv):
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"code": None, "stdout": "", "stderr": str(exc)}
    return {"code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def main():
    for line in sys.stdin:
        argv = json.loads(line)
        if argv:
            reply = run(argv)
        else:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            reply = {"peak_rss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
