#!/bin/sh
# Run the five reference runs of this checkout into OUT, one directory each,
# with the printed lines of each run in its stdout.txt:
#
#     scripts/reference_outputs.sh OUT
#
# The package is imported from this checkout's src/.  Two checkouts compare
# with one recursive diff; meta.json differs only in out_dir:
#
#     diff -r -x meta.json OUT_A OUT_B
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
export PYTHONPATH="$root/src"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

run() {
    name=$1
    shift
    mkdir -p "$out/$name"
    python3 -m driftlimit.cli "$@" --out "$out/$name" > "$out/$name/stdout.txt"
}

run simulate simulate --override t_end=1e-7 --override output_interval=10
run simulate_ap simulate --override dt=1e-6 --override t_end=1.2e-5 \
    --override scheme=ap
run diffusion_validate diffusion-validate --scale 0.5
run c_study c-study --scale 0.5
# the default sweep: its 200^2 grid is the one run that builds the
# incomplete factor
run diffusion_validate_full diffusion-validate
