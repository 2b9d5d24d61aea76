#!/usr/bin/env sh
# Runs every benchmark binary in a build tree and collects the
# BENCH_<name>.json (and, with MERMAID_TRACE=1, TRACE_<name>*.json) results.
#
# Each bench runs in its own scratch directory; its JSON artifacts are moved
# to the output directory only when the bench exits 0, so a failing bench can
# never leave half-written or stale results behind, and the script's exit
# status reflects any failure.
#
# After the run every per-bench BENCH_*.json is merged into one
# BENCH_summary.json (a {"benches": [...]} array) so CI uploads a single
# machine-readable artifact covering the whole sweep.
#
# Usage: bench/run_all.sh [--merge-only | --check-golden]
#                         [build-dir] [output-dir]
#   --merge-only    skip running benches; just rebuild BENCH_summary.json
#                   from the JSON already present in output-dir
#   --check-golden  after the sweep, compare every modeled field with
#                   bench/golden/modeled.json and fail on any changed,
#                   missing or new field. The sweep's own modeled fields are
#                   written to output-dir/modeled.json in the golden format;
#                   a change that moves modeled results on purpose copies
#                   that file over the golden one and says why.
#   build-dir       defaults to ./build
#   output-dir      defaults to <build-dir>/bench-results
set -eu

MODE=run
case "${1:-}" in
    --merge-only) MODE=merge; shift ;;
    --check-golden) MODE=check; shift ;;
esac
GOLDEN="$(cd "$(dirname "$0")" && pwd)/golden/modeled.json"

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$BUILD_DIR/bench-results}"

mkdir -p "$OUT_DIR"
OUT_DIR=$(cd "$OUT_DIR" && pwd)

# Concatenates every per-bench JSON object (each file is one complete
# object) into BENCH_summary.json. Plain shell: no jq in the CI image.
merge_summary() {
    summary="$OUT_DIR/BENCH_summary.json"
    tmp="$summary.tmp"
    {
        printf '{\n"benches": [\n'
        first=1
        for f in "$OUT_DIR"/BENCH_*.json; do
            [ -f "$f" ] || continue
            case "$f" in *BENCH_summary.json) continue ;; esac
            [ "$first" = 1 ] || printf ',\n'
            first=0
            cat "$f"
        done
        printf ']\n}\n'
    } > "$tmp"
    mv "$tmp" "$summary"
    echo "merged summary: $summary"
}

# Prints one "<bench>\t<key>\t<value>" line per modeled field of every
# BENCH_*.json in the output directory. Host-time fields vary run to run and
# are skipped: every key containing "wall" (wall_clock_s, *_wall_s, wall_s)
# plus events_per_s and ns_per_switch. Relies on JsonReport's layout of one
# "key": value pair per line.
modeled_fields() {
    for f in "$OUT_DIR"/BENCH_*.json; do
        [ -f "$f" ] || continue
        case "$f" in *BENCH_summary.json) continue ;; esac
        bench=$(basename "$f" .json)
        awk -v bench="${bench#BENCH_}" '
            match($0, /^ +"[^"]+": /) {
                key = substr($0, 1, RLENGTH - 3); sub(/^ +"/, "", key)
                val = substr($0, RLENGTH + 1); sub(/,$/, "", val)
                if (val == "{" || key == "name" || key ~ /wall/ ||
                    key == "events_per_s" || key == "ns_per_switch") next
                printf "%s\t%s\t%s\n", bench, key, val
            }' "$f"
    done | LC_ALL=C sort
}

# Same lines, read back from a golden file ({"<bench>": {"<key>": value}}).
golden_fields() {
    awk '
        /^  "[^"]+": \{$/ {
            bench = $0; sub(/^  "/, "", bench); sub(/": \{$/, "", bench)
        }
        match($0, /^    "[^"]+": /) {
            key = substr($0, 1, RLENGTH - 3); sub(/^ +"/, "", key)
            val = substr($0, RLENGTH + 1); sub(/,$/, "", val)
            printf "%s\t%s\t%s\n", bench, key, val
        }' "$1" | LC_ALL=C sort
}

# Renders sorted field lines as the golden file's JSON.
golden_json() {
    awk -F '\t' '
        BEGIN { printf "{" }
        $1 != cur {
            if (cur != "") printf "\n  },"
            printf "\n  \"%s\": {", $1
            cur = $1; sep = ""
        }
        { printf "%s\n    \"%s\": %s", sep, $2, $3; sep = "," }
        END { if (cur != "") printf "\n  }"; printf "\n}\n" }'
}

check_golden() {
    modeled_fields | golden_json > "$OUT_DIR/modeled.json"
    if [ ! -f "$GOLDEN" ]; then
        echo "golden check: no golden file at $GOLDEN" >&2
        return 1
    fi
    golden_fields "$GOLDEN" > "$OUT_DIR/golden.tsv"
    golden_fields "$OUT_DIR/modeled.json" > "$OUT_DIR/modeled.tsv"
    if awk -F '\t' '
        NR == FNR { want[$1 "/" $2] = $3; next }
        {
            k = $1 "/" $2; seen[k] = 1
            if (!(k in want)) {
                printf "new field     %s = %s\n", k, $3; bad = 1
            } else if (want[k] != $3) {
                printf "changed field %s: golden %s, now %s\n", k, want[k], $3
                bad = 1
            }
        }
        END {
            for (k in want) {
                if (!(k in seen)) {
                    printf "missing field %s (golden %s)\n", k, want[k]; bad = 1
                }
            }
            exit bad
        }' "$OUT_DIR/golden.tsv" "$OUT_DIR/modeled.tsv" >&2; then
        echo "golden check: $(wc -l < "$OUT_DIR/modeled.tsv") modeled fields match $GOLDEN"
    else
        echo "golden check FAILED against $GOLDEN (sweep's fields: $OUT_DIR/modeled.json)" >&2
        return 1
    fi
}

if [ "$MODE" = merge ]; then
    merge_summary
    exit 0
fi

BENCH_DIR=$(cd "$BUILD_DIR/bench" 2>/dev/null && pwd) || {
    echo "no bench binaries under $BUILD_DIR/bench — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 1
}

status=0
for bin in "$BENCH_DIR"/bench_*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    echo "==> $name"
    workdir=$(mktemp -d "${TMPDIR:-/tmp}/mermaid-bench.XXXXXX")
    if (cd "$workdir" && "$bin" > "$OUT_DIR/$name.log" 2>&1); then
        for f in "$workdir"/BENCH_*.json "$workdir"/TRACE_*.json; do
            [ -f "$f" ] && mv "$f" "$OUT_DIR/"
        done
    else
        echo "FAILED: $name (see $OUT_DIR/$name.log)" >&2
        status=1
    fi
    rm -rf "$workdir"
done

merge_summary
if [ "$MODE" = check ]; then
    check_golden || status=1
fi

echo
echo "results in $OUT_DIR:"
found=0
for f in "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/TRACE_*.json; do
    [ -f "$f" ] || continue
    echo "$f"
    found=1
done
[ "$found" = 1 ] || echo "  (no JSON emitted)"
exit $status
