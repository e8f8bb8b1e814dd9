#!/usr/bin/env sh
# Full local gate: build, test, lint, format. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ripki-lint"
cargo run -q -p ripki-lint -- check

echo "==> cargo fmt --check"
cargo fmt --check

# The repository benchmark is a separate workspace compiled against the
# crates' public API; the workspace steps above cannot see it break.
echo "==> benchmark build + tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> bench gate self-test"
python3 scripts/bench_gate_selftest.py

echo "All checks passed."

# The ROADMAP tracks `wc -l` per crate: a PR's before-row is the table
# its parent's run of this script printed.
echo "==> lines under crates/*/src"
for crate in crates/*/; do
    printf '%-16s %6d\n' "$(basename "$crate")" \
        "$(find "$crate/src" -name '*.rs' -exec cat {} + | wc -l)"
done
printf '%-16s %6d\n' total "$(find crates/*/src -name '*.rs' -exec cat {} + | wc -l)"
