#!/usr/bin/env bash
# scripts/docscheck.sh — documentation hygiene gate.
#
# Fails on:
#   - relative markdown links (in README.md, DESIGN.md, ROADMAP.md,
#     PAPER.md, PAPERS.md, CHANGES.md) pointing at files that do not
#     exist,
#   - Go packages under internal/ or cmd/ missing a package-level doc
#     comment ("// Package <name> ..."), so `go doc ./internal/...`
#     stays a readable architecture index,
#   - Go comments under internal/ or cmd/ naming a *.md file that exists
#     neither at the repository root nor beside the Go file,
#   - README.md or DESIGN.md naming a With… option (WithPBS, …) that no
#     non-test func under internal/ defines, so a removed option cannot
#     linger in the docs,
#   - gofmt-dirty files.
#
# Dependency-free by design: bash + grep + gofmt, nothing to install.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- relative markdown links must resolve ---------------------------------
docs=(README.md DESIGN.md ROADMAP.md PAPER.md PAPERS.md CHANGES.md)
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  # Extract (target) of [text](target), one per line; ignore web links,
  # mailto, and pure intra-document anchors.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$path" ]; then
      echo "docscheck: $doc links to missing file: $target" >&2
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# --- every package needs a package doc comment ----------------------------
# Library packages must carry the canonical "// Package <name> ..." form;
# command mains just need a doc comment block directly above the package
# clause (godoc renders either).
for dir in internal/*/; do
  [ -d "$dir" ] || continue
  pkg="$(basename "$dir")"
  if ! grep -qs "^// Package $pkg " "$dir"*.go; then
    echo "docscheck: package $dir has no '// Package $pkg ...' doc comment" >&2
    fail=1
  fi
done
for dir in cmd/*/; do
  [ -d "$dir" ] || continue
  if ! grep -hs -B1 '^package main$' "$dir"*.go | grep -qs '^//'; then
    echo "docscheck: command $dir has no doc comment above 'package main'" >&2
    fail=1
  fi
done

# --- markdown files named in Go comments must exist -----------------------
# A comment may name a document by its root-relative path (DESIGN.md,
# perfbench/NOTES.md) or by a path relative to its own directory.
while IFS=: read -r file comment; do
  for name in $(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' <<<"$comment" || true); do
    if [ ! -e "$name" ] && [ ! -e "$(dirname "$file")/$name" ]; then
      echo "docscheck: $file names missing file: $name" >&2
      fail=1
    fi
  done
done < <(grep -rE --include='*.go' '//.*\.md\b' internal cmd |
  sed -n 's|^\([^:]*\):[^/]*//\(.*\)$|\1:\2|p' || true)

# --- With… options named in the prose docs must exist ---------------------
for name in $(grep -ohE '\bWith[A-Z][A-Za-z0-9_]*' README.md DESIGN.md | sort -u); do
  if ! grep -rqsE --include='*.go' --exclude='*_test.go' \
    "^func (\([^)]*\) )?$name\(" internal; then
    echo "docscheck: README.md/DESIGN.md name option $name, which no func under internal/ defines" >&2
    fail=1
  fi
done

# --- gofmt ----------------------------------------------------------------
dirty="$(gofmt -l .)"
if [ -n "$dirty" ]; then
  echo "docscheck: gofmt needed on:" >&2
  echo "$dirty" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docscheck: OK" >&2
