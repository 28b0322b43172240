#!/usr/bin/env bash
# Format check, lint and tests for the benchmark package. The package is
# a workspace of its own, so the repository's ci.sh and fiveg-lint do not
# cover it.
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt --check"
cargo fmt --check

echo "== clippy -D warnings"
cargo clippy --offline --locked --all-targets -- -D warnings

echo "== tests"
cargo test --offline --locked
