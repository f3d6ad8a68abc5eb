#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload save-full --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the trace files all live under
.bench_build/ at the root, so a run reads and writes nothing outside the
checkout. The program's exit code is passed through; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    out = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CACHE_HOME", "home/.cache"),
        ("XDG_CONFIG_HOME", "home/.config"),
    ):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOENV"] = "off"
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
