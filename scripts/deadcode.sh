#!/bin/sh
# Dead-code gate. Code under internal/ cannot be imported from outside the
# module, so the binaries (cmd/*, examples/*, bench) are its only users.
# This builds them with inlining off, so every function they call keeps a
# symbol, and fails when a function declared in a non-test internal/ file
# is linked into none of them and is not in deadcode.allow. It also fails
# on an allow-list line whose function is linked or no longer declared.
# Run from the repository root: sh scripts/deadcode.sh
set -eu
allow=$(dirname "$0")/deadcode.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)
# Linked symbols as pkg.Func or pkg.Type.Method: generic shapes, pointer
# receivers and closure or method-value suffixes are dropped.
go tool nm "$tmp"/bin/* | sed -n 's|.* T silentshredder/internal/||p' |
	sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/\(\*([^)]*)\)/\1/' \
		-e 's/(-fm|\.abi0)$//' -e 's/\.(func|gowrap|deferwrap)[0-9].*$//' | sort -u >"$tmp/linked"
# Declared functions, named the same way, from the files the build uses.
go list -f '{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}
{{end}}' ./internal/... | while read -r pkg file; do
	sed -En -e '/^func /!d' -e 's/^func \(([^)]*)\) ([A-Za-z0-9_]+).*/\1 \2/' \
		-e 's/^([^ ]* )?\*?([A-Za-z0-9_]+)(\[[^]]*\])? ([A-Za-z0-9_]+)$/\2.\4/p' \
		-e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$file" | sed "s|^|${pkg#silentshredder/internal/}.|"
done | grep -v '^[^.]*\.init$' | sort -u >"$tmp/declared"
comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"
# Allow-list lines read "<pkg.Func> <hook|reader|reference>: <reason>".
if grep -Ev '^(#|$)|^[^ ]+ (hook|reader|reference): .' "$allow"; then
	echo "deadcode: malformed lines in $allow (above)"; exit 1
fi
sed -n 's/^\([^# ]*\) .*/\1/p' "$allow" | sort -u >"$tmp/allowed"
status=0
if comm -23 "$tmp/unlinked" "$tmp/allowed" | grep .; then
	echo "deadcode: no binary reaches the functions above; delete them or allow-list them in $allow"
	status=1
fi
if comm -13 "$tmp/unlinked" "$tmp/allowed" | grep .; then
	echo "deadcode: the allow-list entries above are linked or no longer declared"
	status=1
fi
exit $status
