#!/usr/bin/env bash
# Local CI gauntlet: format, lint, docs, build, test.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release build and crate pins (lint + debug tests)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# `--lib`: the `hobbit` lib and bin would write the same doc file.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib

if [[ "$FAST" == 0 ]]; then
    echo "==> cargo build --release"
    cargo build --offline --release
    # The root `cargo test` runs no crate unit tests; these hold the wire
    # digest, calibration table and rule pins.
    echo "==> crate pins (cargo test --release --lib)"
    cargo test --release --offline -q -p netsim -p probe -p aggregate -p experiments --lib
    # The other crates' unit tests: the classifier (`hobbit`), metrics,
    # MCL, analysis, registry and testkit.
    echo "==> crate unit tests (cargo test --release --lib)"
    cargo test --release --offline -q -p obs -p hobbit -p mcl -p analysis -p registry -p testkit --lib
fi

echo "==> cargo test -q"
cargo test --offline -q

echo "==> OK"
