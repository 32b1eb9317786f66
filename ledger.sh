#!/usr/bin/env bash
# Line ledger of a change: the net lines it adds under crates/*/src, split
# into non-test and test lines, and one total for the root package's
# tests/, examples/, src/ and ci.sh.
#
#   ./ledger.sh BASE [HEAD]     # HEAD defaults to the working tree
#
# A crates/ line is a test line when it lies inside a #[cfg(test)] item —
# from the attribute to the item's closing brace, or to the `;` of a
# braceless item — or anywhere in a file declared `#[cfg(test)] mod x;` or
# below it. Doc comments above the attribute count as non-test. Blank and
# comment lines count like any other, so each figure is a net line count,
# as `git diff --shortstat` gives it. It gates nothing; ci.sh does not run
# it.
set -euo pipefail
cd "$(dirname "$0")"

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE [HEAD]" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
paths=(crates src tests examples ci.sh)

# Print "non-test test root" line counts of the tree in DIR (relative
# paths of its files on stdin).
count() {
    local dir=$1
    (
        cd "$dir"
        cat > "$tmp/files"
        local rust
        mapfile -t rust < <(grep -E '^crates/[^/]+/src/.*\.rs$' "$tmp/files")
        # Files (and module directories) a `#[cfg(test)] mod x;` declares.
        awk '
            FNR == 1 { pending = 0 }
            {
                line = $0
                if (sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", line)) pending = 1
                else if (line !~ /^[ \t]*(#\[|\/\/)/ && line !~ /^[ \t]*$/) {
                    if (pending && match(line, /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/)) {
                        name = substr(line, RSTART, RLENGTH)
                        sub(/^.*mod[ \t]+/, "", name)
                        sub(/[ \t]*;$/, "", name)
                        dir = FILENAME
                        if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]+$/, "", dir)
                        else sub(/\.rs$/, "", dir)
                        print dir "/" name ".rs"
                        print dir "/" name "/"
                    }
                    pending = 0
                }
            }' "${rust[@]}" /dev/null > "$tmp/testmods"
        awk -v mods="$tmp/testmods" '
            BEGIN { while ((getline m < mods) > 0) testmod[m] = 1 }
            # The line without its string and char literals and its // comment.
            function code(s) {
                gsub(/"([^"\\]|\\.)*"/, "", s)
                gsub(/'\''([^'\''\\]|\\.|\\u\{[0-9a-fA-F]+\})'\''/, "", s)
                sub(/\/\/.*/, "", s)
                return s
            }
            function net(s,    o, c) {
                o = gsub(/\{/, "{", s)
                c = gsub(/\}/, "}", s)
                return o - c
            }
            FNR == 1 {
                intest = 0; pending = 0; whole = 0
                for (m in testmod)
                    if (FILENAME == m || (m ~ /\/$/ && index(FILENAME, m) == 1)) whole = 1
            }
            whole { test++; next }
            intest {
                test++
                depth += net(code($0))
                if (depth <= 0) intest = 0
                next
            }
            {
                c = code($0)
                if (!pending && sub(/^[ \t]*#\[cfg\(test\)\]/, "", c)) pending = 1
                if (pending) {
                    test++
                    o = index(c, "{"); s = index(c, ";")
                    if (o && (!s || o < s)) {
                        pending = 0
                        depth = net(c)
                        intest = depth > 0
                    } else if (s) pending = 0
                    next
                }
                nontest++
            }
            END { printf "%d %d", nontest, test }' "${rust[@]}" /dev/null
        echo -n " "
        grep -E '^(tests|examples|src)/|^ci\.sh$' "$tmp/files" | xargs -r cat | wc -l
    )
}

# The ledger's files of the working tree: tracked and untracked, not ignored.
worktree() {
    git ls-files --cached --others --exclude-standard -- "${paths[@]}" |
        while read -r f; do [ -f "$f" ] && echo "$f"; done
}

# Unpack REV's ledger files into DIR and list them.
snapshot() {
    mkdir -p "$2"
    git archive "$1" -- "${paths[@]}" | tar -x -C "$2"
    (cd "$2" && find . -type f | sed 's|^\./||') > "$2.files"
}

snapshot "$1" "$tmp/base"
read -r base_non base_test base_root < <(count "$tmp/base" < "$tmp/base.files")
if [ $# -eq 2 ]; then
    snapshot "$2" "$tmp/head"
    read -r head_non head_test head_root < <(count "$tmp/head" < "$tmp/head.files")
else
    read -r head_non head_test head_root < <(worktree | count .)
fi

printf 'crates/*/src non-test  %+d\n' $((head_non - base_non))
printf 'crates/*/src test      %+d\n' $((head_test - base_test))
printf 'tests/ examples/ src/ ci.sh  %+d\n' $((head_root - base_root))
