#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # build and run the benchmark's own tests

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output is sent to stderr,
so the last line of stdout is the benchmark's result line.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path, target: str) -> None:
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the simulator sources (src/) are missing",
              file=sys.stderr)
        return 1
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    try:
        if sys.argv[1:] == ["--test"]:
            build(build_dir, "perfbench_tests")
            return subprocess.run([str(build_dir / "perfbench_tests")],
                                  cwd=build_dir).returncode
        build(build_dir, "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    # A relative scratch path keeps the server's Unix socket path short.
    scratch = os.path.relpath(build_root / f"scratch-{os.getpid()}", ROOT)
    return subprocess.run(
        [str(build_dir / "perfbench"), *sys.argv[1:], "--scratch", scratch],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
