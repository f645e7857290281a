#!/usr/bin/env bash
# Compare a base commit with the checked-out tree, as Markdown on stdout: the
# CLI output digest of each side, each computed by that side's own
# tools/output_digest.py, and the src/lctkit line and code-line counts. It
# reports only and exits 0 whether or not the two differ. Run it from the
# checkout to compare:
#
#   bash -e tools/digest_delta.sh <base-commit> >> report.md
#
# The base commit is checked out in a temporary git worktree, removed on exit.
set -eu

base=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base"

(cd "$work/base" && python3 tools/output_digest.py) > "$work/base.txt"
(cd "$root" && python3 tools/output_digest.py) > "$work/head.txt"

lines() { cat "$1"/src/lctkit/*.py | wc -l; }
base_lines=$(lines "$work/base")
head_lines=$(lines "$root")
# Code lines leave out blank, comment and docstring lines; both sides are
# counted by the head's tools/code_lines.py, which the base may not have.
code() { python3 "$root/tools/code_lines.py" "$1/src/lctkit" | tail -n 1 | awk '{print $1}'; }
base_code=$(code "$work/base")
head_code=$(code "$root")

echo "### Against ${base:0:12}"
echo
if cmp -s "$work/base.txt" "$work/head.txt"; then
    echo "CLI output digest: identical ($(wc -l < "$work/head.txt") groups)."
else
    echo "CLI output digest: these groups differ."
    echo
    # A line is "<sha256>  <group> (<n> runs)"; a group missing on one side
    # differs too.
    awk 'NR == FNR { base[$2] = $1; next }
         { seen[$2] = 1; if (base[$2] != $1) print "- " $2 " " $3 " " $4 }
         END { for (g in base) if (!(g in seen)) print "- " g " (only in the base)" }' \
        "$work/base.txt" "$work/head.txt"
fi
echo
echo "src/lctkit: $base_lines -> $head_lines lines ($((head_lines - base_lines)) net)."
echo "src/lctkit: $base_code -> $head_code code lines ($((head_code - base_code)) net)."
