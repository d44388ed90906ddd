#!/bin/sh
# A/A agreement: run the whole suite twice on one build and fail if the
# benchmark disagrees with itself by more than its own bounds.
# Usage: benchmark/aa.sh [--runs N] [--seed N] [--seconds S]
# The report goes to standard output and to benchmark/out/aa.json.
set -eu
here=$(dirname "$0")
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- aa "$@"
