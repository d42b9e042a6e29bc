#!/usr/bin/env bash
# Diff the fingerprint of a base commit against the checked-out tree.
#
#   scripts/fingerprint_diff.sh <base-commit>
#
# Prints the diff of the two `scripts/fingerprint.py` outputs and the count
# of changed lines.  It fails only if either fingerprint run fails: a change
# may move values on purpose, and the diff shows which.
set -euo pipefail
base=$1
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && PYTHONPATH=src python scripts/fingerprint.py) > "$tmp/base.txt"
PYTHONPATH=src python scripts/fingerprint.py > "$tmp/head.txt"
diff "$tmp/base.txt" "$tmp/head.txt" || true
echo "fingerprint lines changed: $(diff "$tmp/base.txt" "$tmp/head.txt" | grep -c '^>' || true)"
