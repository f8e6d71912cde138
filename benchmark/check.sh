#!/usr/bin/env bash
# Smoke check for CI: the harness's unit tests, then every op of every
# workload run and checked against its reference (three rounds — the
# untimed warm-up and two timed — and one setup pass; timings from this
# mode mean nothing).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh all --quick --out benchmark/out/quick.json
