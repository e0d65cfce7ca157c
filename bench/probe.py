"""Machine-speed probe, run beside one benchmark worker in its own process.

    python3 bench/probe.py WORKER_PID < /dev/null

Every PERIOD_S, moves itself to the CPU the worker's main thread last ran
on and times a fixed pure-Python loop there, until its standard input
reaches end of file; then prints the durations as one JSON list.

The speed of a shared virtual machine drifts by up to a factor of two
over minutes, and it can differ between its CPUs; the loop slows down
with the CPU it runs on.  ``bench/run.py`` scales each worker's times by
REF_SPIN_S over the mean loop time taken while that worker ran.  The
probe is not part of the process under test, and it times the loop in
thread CPU time, so the time it waits for a CPU that the program holds
does not count: the program cannot change its factor by how it
schedules its work.
"""

import json
import os
import select
import sys
import time

SPIN_ITERATIONS = 15_000
PERIOD_S = 0.1


def spin():
    """Fixed pure-Python work; returns its duration in thread CPU seconds."""
    t0 = time.thread_time()
    x = 0.0
    for i in range(SPIN_ITERATIONS):
        x += i * 0.5
    return time.thread_time() - t0


def last_cpu(pid):
    """The CPU a process last ran on (field 39 of /proc/PID/stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rpartition(")")[2].split()[36])


def main():
    pid = int(sys.argv[1])
    samples = []
    while not samples or not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        try:
            os.sched_setaffinity(0, {last_cpu(pid)})
        except OSError:
            pass  # the worker has ended; the last sample stays where the probe is
        samples.append(spin())
    sys.stdout.write(json.dumps(samples) + "\n")


if __name__ == "__main__":
    main()
