#!/usr/bin/env bash
# Build `sapp` (the program under test) and the benchmark harness from
# source, then hand every argument to the harness:
#
#   bash benchmark/run.sh --workload count_scale --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh all | layers | repeat | compare A B | regen-expected
#
# Honours CARGO_TARGET_DIR (both packages then share it); otherwise each
# package builds into its own target/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"
log="$bench_target/bench-build.log"
mkdir -p "$bench_target"

build() {
    if ! cargo build --release --offline --quiet "$@" >"$log" 2>&1; then
        cat "$log" >&2
        echo "run.sh: cargo build $* failed" >&2
        exit 3
    fi
}
build --manifest-path Cargo.toml --bin sapp
build --manifest-path benchmark/Cargo.toml

export SAPP_BIN="$root_target/release/sapp"
exec "$bench_target/release/bench" "$@"
