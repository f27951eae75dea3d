#!/usr/bin/env bash
# The repository's benchmark: one command builds it, runs the workloads,
# checks their outputs and prints every metric by name with its unit.
#
#   benchmark/run.sh                          every workload, seed 7
#   benchmark/run.sh --seed 11                another seed
#   benchmark/run.sh --workload hifi-deep     one workload
#   benchmark/run.sh --seconds 30             measure longer (default 10)
#   benchmark/run.sh --smoke                  tiny inputs, seconds for the whole set
#   benchmark/run.sh --aa                     the set twice; non-zero exit on any
#                                             "outside bound" or changed exact count
#   benchmark/run.sh --write-manifest         regenerate ../BENCHMARK.json
#
# One measurement, in the form BENCHMARK.json's command is run:
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# --trace 0 runs the timed binary (end-to-end metrics), --trace 1 the traced
# one (per-layer metrics); the last line of output is one JSON object.
#
# Builds with the plain release profile (no target-cpu flags), offline, into
# $CARGO_TARGET_DIR or benchmark/target.  See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

trace="" aa=0 manifest=0 workload=""
pass=()
while (($#)); do
    case "$1" in
        --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --aa) aa=1; shift ;;
        --write-manifest) manifest=1; shift ;;
        -h | --help) sed -n '2,21p' "${BASH_SOURCE[0]}"; exit 0 ;;
        *) pass+=("$1"); shift ;;
    esac
done

cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
timed="$target/release/timed"
traced="$target/release/traced"

if ((manifest)); then
    "$timed" --write-manifest >"$here/../BENCHMARK.json"
    echo "wrote $here/../BENCHMARK.json" >&2
    exit 0
fi

# One measurement: hand over to the binary the trace flag names.
case "$trace" in
    0) exec "$timed" --workload "$workload" "${pass[@]}" ;;
    1) exec "$traced" --workload "$workload" --out-dir "$out" "${pass[@]}" ;;
    "") ;;
    *) echo "run.sh: --trace takes 0 or 1, not '$trace'" >&2; exit 2 ;;
esac

# The whole set: both binaries on every workload, metric lines kept per set.
if [[ -n "$workload" ]]; then
    workloads=("$workload")
else
    mapfile -t workloads < <("$timed" --list)
fi
mkdir -p "$out"
status=0
run_set() {
    local file="$out/metrics-$1.txt"
    : >"$file"
    for w in "${workloads[@]}"; do
        "$timed" --workload "$w" "${pass[@]}" | tee -a "$file" | grep -v '^{' || status=1
        "$traced" --workload "$w" --out-dir "$out" "${pass[@]}" | tee -a "$file" | grep -v '^{' || status=1
    done
}
run_set A
if ((aa)); then
    run_set B
    "$timed" --compare "$out/metrics-A.txt" "$out/metrics-B.txt" || status=1
fi
if ((status)); then
    echo "run.sh: FAILED (a run failed, an output check failed, or --aa found a regression)" >&2
fi
exit "$status"
