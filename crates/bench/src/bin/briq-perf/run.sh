#!/usr/bin/env bash
# Build briq-perf (this package), then run it from the repository root.
#
#   bash crates/bench/src/bin/briq-perf/run.sh --workload batch_cold --seed 1 --seconds 30 --trace 0
#   bash crates/bench/src/bin/briq-perf/run.sh prepare --seed 1
#   bash crates/bench/src/bin/briq-perf/run.sh compare base.jsonl head.jsonl
#
# Arguments that do not start with a subcommand are passed to `run`.
# CARGO_TARGET_DIR, when set, is the build directory (a relative path
# is taken from the repository root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml"

case "${1:-}" in
    run | prepare | compare) ;;
    *) set -- run "$@" ;;
esac
exec "$CARGO_TARGET_DIR/release/briq-perf" "$@"
