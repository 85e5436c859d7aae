#!/usr/bin/env bash
# Build perfbench when its binary is missing or older than any source or
# manifest it is built from, then run it with the given arguments. Run from
# the repository root.
#
# `cargo run` is not used on purpose: outside a git checkout the telemetry
# crate's build script watches a `.git/HEAD` that does not exist, which makes
# cargo rebuild the whole dependency tree on every invocation.
set -euo pipefail
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
stale() {
    [[ ! -x "$bin" ]] || [[ -n "$(find crates perfbench -path perfbench/target -prune -o \
        \( -name '*.rs' -o -name Cargo.toml -o -name Cargo.lock \) -newer "$bin" -print -quit)" ]]
}
if stale; then
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
fi
exec "$bin" "$@"
