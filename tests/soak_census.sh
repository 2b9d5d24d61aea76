#!/usr/bin/env sh
# Soak census: runs the crash/loss soak (`mermaid_longchaos <seed> 300`) for
# seeds 1-64, four at a time, and prints one line per seed:
#
#   <seed> <exit status> <digest>
#
# The digest is a SHA-256 prefix of the run's stdout followed by its stderr,
# with the source location of a failed check (" at <path>:<line>") stripped
# so that moving code does not change it. The soak is deterministic, so the
# census is an exact oracle: tests/golden/soak_census.txt holds the lines of
# the current code, and CI diffs this script's output against it. A change
# that alters the soak re-captures that file and states its pass count
# before and after.
#
# Each seed runs in its own directory under <out-dir> (the soak rewrites
# trace.json in its working directory), where its stdout.txt, stderr.txt
# and trace.json stay for inspection.
#
# Usage: tests/soak_census.sh <build-dir> <out-dir>
set -eu

# One seed; the script runs itself this way under xargs.
if [ "${1:-}" = "--seed" ]; then
    bin=$2 dir=$3 seed=$4
    rm -rf "$dir"
    mkdir -p "$dir"
    cd "$dir"
    status=0
    # The soak opens its output files itself (exec), so a shell's
    # "Aborted" notice about the dead process never lands in them.
    timeout 600 sh -c 'exec "$0" "$1" 300 > stdout.txt 2> stderr.txt' \
        "$bin" "$seed" 2> /dev/null || status=$?
    digest=$(cat stdout.txt stderr.txt | sed -E 's/ at [^ ]+:[0-9]+//g' |
        sha256sum | cut -c1-16)
    echo "$seed $status $digest" > result.txt
    exit 0
fi

if [ $# -ne 2 ]; then
    echo "usage: $0 <build-dir> <out-dir>" >&2
    exit 2
fi
BIN="$(cd "$1" && pwd)/tests/mermaid_longchaos"
if [ ! -x "$BIN" ]; then
    echo "soak census: no soak binary at $BIN" >&2
    exit 2
fi
mkdir -p "$2"
OUT=$(cd "$2" && pwd)
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"

seq 1 64 | xargs -P 4 -I '{}' "$SELF" --seed "$BIN" "$OUT/seed{}" '{}'
for seed in $(seq 1 64); do
    cat "$OUT/seed$seed/result.txt"
done
