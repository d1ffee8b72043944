#!/usr/bin/env python3
"""Build and run the repository benchmark once.

    python3 polybench/run.py --workload <popular|campaign|drift> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
polybench/ (and the repository libraries under src/) into
.bench_build/polybench; later runs rebuild only what changed.  The last
line of stdout is the run's JSON result; everything else goes to stderr.

A watchdog ends the run as failed, naming the phase, when the process
crashes or a phase overruns a multiple of its nominal length.  A failed
run prints no result and exits non-zero; it is never retried.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "polybench")
# A phase may take this many times its nominal length, plus slack, before
# the run counts as hung.
PHASE_MULTIPLE = 4.0
PHASE_SLACK_S = 20.0
# The whole measured process, whatever its phases say.
RUN_LIMIT_S = 160.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; the build's own output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_watched(command):
    """Runs the benchmark binary under the watchdog.

    Returns (stdout text, None) on a clean exit, or (None, reason)."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    state = {"phase": "start", "since": time.monotonic(), "budget": 60.0}
    lock = threading.Lock()
    out_lines = []

    def pump_stderr():
        for line in process.stderr:
            sys.stderr.write(line)
            if line.startswith("polybench-phase "):
                parts = line.split()
                with lock:
                    state["phase"] = parts[1]
                    state["since"] = time.monotonic()
                    state["budget"] = PHASE_MULTIPLE * float(parts[2]) + PHASE_SLACK_S
        sys.stderr.flush()

    def pump_stdout():
        for line in process.stdout:
            out_lines.append(line)

    readers = [threading.Thread(target=pump_stderr, daemon=True),
               threading.Thread(target=pump_stdout, daemon=True)]
    for reader in readers:
        reader.start()
    started = time.monotonic()
    reason = None
    while process.poll() is None:
        time.sleep(0.2)
        now = time.monotonic()
        with lock:
            phase, since, budget = state["phase"], state["since"], state["budget"]
        if now - since > budget:
            reason = "phase %s exceeded %.0f s" % (phase, budget)
        elif now - started > RUN_LIMIT_S:
            reason = "run exceeded %.0f s in phase %s" % (RUN_LIMIT_S, phase)
        if reason:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            break
    for reader in readers:
        reader.join(timeout=5)
    if reason:
        return None, reason
    if process.returncode != 0:
        with lock:
            phase = state["phase"]
        if process.returncode < 0:
            return None, "crashed with signal %d in phase %s" % (-process.returncode, phase)
        return None, "exited with code %d in phase %s" % (process.returncode, phase)
    return "".join(out_lines), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["popular", "campaign", "drift"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        log("polybench: build failed")
        return 1
    test = subprocess.run([os.path.join(BUILD_DIR, "polybench_reference_test")],
                          stdout=sys.stderr)
    if test.returncode != 0:
        log("polybench: the reference scorer's own test failed")
        return 1

    command = [os.path.join(BUILD_DIR, "polybench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    output, reason = run_watched(command)
    if reason:
        log("polybench: FAILED RUN (%s %s seed %d): %s"
            % (args.workload, "traced" if args.trace == "1" else "untraced",
               args.seed, reason))
        return 1
    lines = [line for line in output.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("polybench: the benchmark printed no result")
        return 1
    if set(result) != RESULT_KEYS:
        log("polybench: malformed result: %s" % lines[-1])
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
