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

# The request script, with its #@over-long-line marker replaced by a
# metrics request padded to one byte past the service's line cap
# (MAX_LINE_BYTES in crates/cli/src/service.rs, 1 MiB).
script() {
    LC_ALL=C awk '
        $0 == "#@over-long-line" {
            pad = " "
            while (length(pad) < 1048576) pad = pad pad
            print "{\"op\":\"metrics\"}" pad
            next
        }
        { print }
    ' ci/serve_smoke.jsonl
}

case "${1:-}" in
--bless)
    script | "$BIN" serve --threads 1 > ci/serve_smoke.golden
    echo "serve_smoke: blessed ci/serve_smoke.golden ($(wc -l < ci/serve_smoke.golden | tr -d ' ') lines)"
    ;;
'')
    script | "$BIN" serve --threads 1 | diff ci/serve_smoke.golden -
    echo "serve_smoke: OK — the transcript matches the committed golden"
    ;;
*)
    echo "usage: ci/serve_smoke.sh [--bless]" >&2
    exit 2
    ;;
esac
