"""Benchmark command.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and every metric with its unit.  The exit code is 1 when a
correctness check fails and 2 when the package cannot be imported.
"""

import argparse
import os
import sys

# One BLAS thread and one process: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    try:
        import driftlimit
    except ImportError as exc:
        print(f"bench: cannot import driftlimit from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(driftlimit.__file__).startswith(SRC + os.sep):
        print(f"bench: driftlimit was imported from {driftlimit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import warnings
    # fires on every AP step of these cases; the test suite filters it too
    warnings.filterwarnings("ignore", message=r"tau\*lam exceeds")

    from runner import report
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
