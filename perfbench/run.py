#!/usr/bin/env python3
"""Build tpan and bench.exe from source, then run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}; the line
before it records the run's environment and details. Runs also append
their records to .perfbench/results.ndjson, and traced runs write their
spans next to it.
"""

import hashlib
import os
import subprocess
import sys

WORKLOADS = ["derive-corpus", "serve-hot", "serve-fresh", "check-fuzz"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
TPAN = os.path.join("_build", "default", "bin", "tpan.exe")
OUT = ".perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    args = {"--self-test": False}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--self-test":
            args[a] = True
            i += 1
        elif a in ("--workload", "--seed", "--seconds", "--trace") and i + 1 < len(argv):
            args[a] = argv[i + 1]
            i += 2
        else:
            fail("unknown argument %r" % a)
    if not args["--self-test"]:
        for k in ("--workload", "--seed", "--seconds", "--trace"):
            if k not in args:
                fail("missing %s" % k)
        if args["--workload"] not in WORKLOADS:
            fail("unknown workload %r (one of %s)" % (args["--workload"], ", ".join(WORKLOADS)))
        if args["--trace"] not in ("0", "1"):
            fail("--trace takes 0 or 1")
    return args


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        if os.path.isfile(top):
            with open(top, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    for needed in ("dune-project", os.path.join("bin", "dune"), "lib"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a tpan source tree" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    b = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/tpan.exe", "./perfbench/bench.exe"],
        capture_output=True, text=True, env=env,
    )
    if b.returncode != 0:
        sys.stderr.write(b.stderr[-4000:])
        fail("build failed", 1)


def main():
    args = parse(sys.argv[1:])
    build()
    if args["--self-test"]:
        sys.exit(subprocess.run([BENCH, "--self-test"]).returncode)
    cmd = [
        BENCH,
        "--workload", args["--workload"],
        "--seed", args["--seed"],
        "--seconds", args["--seconds"],
        "--trace", args["--trace"],
        "--tpan", TPAN,
        "--commit", revision(),
        "--out", OUT,
    ]
    # its own process group, so a run that overstays can be stopped with
    # the server it started
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(p.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        p.terminate()  # bench.exe stops its server on SIGTERM
        try:
            p.wait(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, 9)
            p.wait()
        fail("run exceeded %ds" % RUN_TIMEOUT_S, 3)


if __name__ == "__main__":
    main()
