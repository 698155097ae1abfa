#!/usr/bin/env sh
# Service-mode smoke: pipe the canned JSONL request script through
# `antidote serve` and hold the full response transcript to the
# committed golden byte-for-byte. Responses carry no timings and the
# script runs sequentially (--threads 1), so the transcript is
# host-independent.
#
#   ci/serve_smoke.sh          check mode (CI): diff the output
#   ci/serve_smoke.sh --bless  regenerate ci/serve_smoke.golden in place
#
# Protocol-extending changes (a new op, new fields in the deterministic
# metrics subset) change the transcript; bless mode updates the golden
# mechanically so the new bytes land in the same commit for review.
# Exits non-zero on a transcript mismatch or a missing binary.
set -eu

cd "$(dirname "$0")/.."

BIN=target/release/antidote
if [ ! -x "$BIN" ]; then
    echo "serve_smoke: $BIN not built (run: cargo build --release)" >&2
    exit 2
fi

case "${1:-}" in
--bless)
    "$BIN" serve --threads 1 < ci/serve_smoke.jsonl > ci/serve_smoke.golden
    echo "serve_smoke: blessed ci/serve_smoke.golden ($(wc -l < ci/serve_smoke.golden | tr -d ' ') lines)"
    ;;
'')
    "$BIN" serve --threads 1 < ci/serve_smoke.jsonl | diff ci/serve_smoke.golden -
    echo "serve_smoke: OK — the transcript matches the committed golden"
    ;;
*)
    echo "usage: ci/serve_smoke.sh [--bless]" >&2
    exit 2
    ;;
esac
