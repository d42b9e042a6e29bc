#!/usr/bin/env bash
# Diff the figure reproductions of a base commit against the checked-out tree.
#
#   scripts/figures_diff.sh <base-commit>
#
# Runs each `scripts/fig_*.py` at `--horizon 20000` in a worktree of the base
# and in this tree, each in an empty directory of its own with `--out out`,
# and prints the diff of their stdout and of the files they write, and the
# count of outputs that differ.  It fails only if a run fails: a change may
# move values on purpose, and the diff shows which.
set -euo pipefail
base=$1
head=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/src" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$tmp/src" "$base" >/dev/null
for side in base head; do
  if [ "$side" = base ]; then root=$tmp/src; else root=$head; fi
  for script in "$root"/scripts/fig_*.py; do
    name=$(basename "$script" .py)
    mkdir -p "$tmp/$side/$name"
    (cd "$tmp/$side/$name" && PYTHONPATH="$root/src" python "$script" --horizon 20000 --out out) \
      > "$tmp/$side/$name.stdout"
  done
done
diff -r "$tmp/base" "$tmp/head" || true
echo "figure outputs changed: $(diff -rq "$tmp/base" "$tmp/head" | wc -l)"
