#!/usr/bin/env bash
# Whole-matrix report lock: regenerates a SHA-256 of every simulated run of
# `paper-figures -scale 0.1` and diffs the set against the committed
# testdata/paper_digests.json. On a mismatch it lists the farm job keys
# whose reports changed (or appeared, or vanished) and exits 1.
#
#   bash scripts/paper_digests.sh            # check (about 80 s on 2 cores)
#   bash scripts/paper_digests.sh --update   # re-bless after an intended change
set -euo pipefail

cd "$(dirname "$0")/.."
WANT=testdata/paper_digests.json
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/paper-figures" ./cmd/paper-figures
"$TMP/paper-figures" -scale 0.1 -json -workers 2 -digest "$TMP/got.json" >/dev/null

if [ "${1:-}" = "--update" ]; then
	cp "$TMP/got.json" "$WANT"
	echo "paper digests: wrote $(grep -c '": "' "$WANT") runs to $WANT"
	exit 0
fi

if cmp -s "$WANT" "$TMP/got.json"; then
	echo "paper digests: all $(grep -c '": "' "$WANT") runs match $WANT"
	exit 0
fi
# One "key": "sum" entry per line, so the changed lines name the runs. The
# trailing commas are stripped first, so a run added or removed at the end
# does not also flag its neighbour.
sed 's/,$//' "$WANT" >"$TMP/want.txt"
sed 's/,$//' "$TMP/got.json" >"$TMP/got.txt"
changed=$(diff "$TMP/want.txt" "$TMP/got.txt" | sed -n 's/^[<>] *"\([0-9a-f]*\)": .*/\1/p' | sort -u || true)
echo "paper digests: $(printf '%s\n' "$changed" | grep -c .) runs differ from $WANT:"
printf '%s\n' "$changed"
echo "If the change is intended, re-bless with: bash scripts/paper_digests.sh --update"
exit 1
