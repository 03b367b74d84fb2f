#!/usr/bin/env bash
# Whole-matrix report lock: regenerates a SHA-256 of every simulated run of
# `paper-figures -scale 0.1` and diffs the set against the committed
# testdata/paper_digests.json. On a mismatch it lists the farm job keys
# whose reports changed (or appeared, or vanished) and exits 1.
#
# The same run's stdout, every figure and table as JSON, is the figures
# lock: it must equal testdata/paper_figures.json byte for byte, so a change
# to how a figure is built from the reports fails here even when every
# report is unchanged. On a mismatch it prints the head of the diff, which
# names the figure and the row.
#
# Both locks hold scale 0.1, where the paper's headline does not hold
# (CPElide's 4-chiplet geomean is below 1): they check bytes, not fidelity.
#
#   bash scripts/paper_digests.sh            # check (about 80 s on 2 cores)
#   bash scripts/paper_digests.sh --update   # re-bless both files after an intended change
set -euo pipefail

cd "$(dirname "$0")/.."
WANT=testdata/paper_digests.json
FIGS=testdata/paper_figures.json
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/paper-figures" ./cmd/paper-figures
# A hang (a farm that never finishes a job) fails in 10 minutes, not never.
timeout 10m "$TMP/paper-figures" -scale 0.1 -json -workers 2 -digest "$TMP/got.json" >"$TMP/figures.json" || {
	rc=$?
	[ "$rc" -ne 124 ] || echo "paper digests: paper-figures did not finish within 10 minutes" >&2
	exit "$rc"
}

if [ "${1:-}" = "--update" ]; then
	cp "$TMP/got.json" "$WANT"
	cp "$TMP/figures.json" "$FIGS"
	echo "paper digests: wrote $(grep -c '": "' "$WANT") runs to $WANT and the figures to $FIGS"
	exit 0
fi

if cmp -s "$WANT" "$TMP/got.json"; then
	echo "paper digests: all $(grep -c '": "' "$WANT") runs match $WANT"
	if cmp -s "$FIGS" "$TMP/figures.json"; then
		echo "paper figures: stdout matches $FIGS"
		exit 0
	fi
	echo "paper figures: stdout differs from $FIGS (every run matches, so a figure is built differently) in:"
	# Name the figure and row (or summary) of each changed hunk of $FIGS.
	diff "$FIGS" "$TMP/figures.json" | sed -n 's/^\([0-9]*\)[0-9,]*[acd].*/\1/p' >"$TMP/lines.txt" || true
	awk 'NR == FNR { at[$1] = 1; next }
		/"Title":/ { title = $0; sub(/^ *"Title": /, "", title); sub(/,$/, "", title); row = "" }
		/"Workload":/ { row = $0; sub(/^ *"Workload": /, "", row); sub(/,$/, "", row) }
		/"Summary":/ { row = "summary" }
		FNR in at { print "  " title " " row }' "$TMP/lines.txt" "$FIGS" | uniq | head -20 || true
	diff -u "$FIGS" "$TMP/figures.json" | head -40 || true
	echo "If the change is intended, re-bless with: bash scripts/paper_digests.sh --update"
	exit 1
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
