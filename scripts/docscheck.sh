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
#   - README.md or DESIGN.md naming a Benchmark… (BenchmarkEmuStep, …)
#     that no _test.go file defines, so a removed benchmark cannot linger
#     in the docs,
#   - README.md or DESIGN.md naming a backticked `pkg.Ident` (`sim.New`,
#     `ckpt.Version`, …) for a package under internal/ whose non-test Go
#     files declare no func, method, type, var, const or grouped name
#     Ident, so a removed identifier cannot linger in the docs,
#   - README.md or DESIGN.md naming a backticked `pkg.Type.Member`
#     (`sim.Session.RunFor`, …) for a package under internal/ whose
#     non-test Go files declare neither a method `func (… Type) Member(`
#     nor an indented field or interface method Member,
#   - a checkpoint "format vN" in README.md or "Format version N" in
#     DESIGN.md that differs from `const Version` in
#     internal/ckpt/ckpt.go, so the docs cannot drift from the format,
#   - DESIGN.md §4's artifact rows (| `id` | `pbstables -only id` | …)
#     naming other IDs, or another order, than experiments.Artifacts in
#     internal/experiments/artifacts.go,
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

# --- benchmarks named in the prose docs must exist ------------------------
for name in $(grep -ohE '\bBenchmark[A-Z][A-Za-z0-9_]*' README.md DESIGN.md | sort -u); do
  if ! grep -rqsE --include='*_test.go' "^func $name\(" .; then
    echo "docscheck: README.md/DESIGN.md name benchmark $name, which no _test.go defines" >&2
    fail=1
  fi
done

# --- internal identifiers named in the prose docs must exist ------------
while IFS=. read -r pkg name; do
  [ -d "internal/$pkg" ] || continue
  if ! grep -rqsE --include='*.go' --exclude='*_test.go' \
    "^(func (\([^)]*\) )?|type |var |const |[[:space:]]+)$name\b" "internal/$pkg"; then
    echo "docscheck: README.md/DESIGN.md name \`$pkg.$name\`, which no non-test file in internal/$pkg declares" >&2
    fail=1
  fi
done < <(grep -ohE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' README.md DESIGN.md | tr -d '`' | sort -u)

# --- members named in the prose docs must exist --------------------------
while IFS=. read -r pkg typ member; do
  [ -d "internal/$pkg" ] || continue
  if ! grep -rqsE --include='*.go' --exclude='*_test.go' \
    "^(func \([^)]*[ *]$typ\) |[[:space:]]+)$member\b" "internal/$pkg"; then
    echo "docscheck: README.md/DESIGN.md name \`$pkg.$typ.$member\`, which no non-test file in internal/$pkg declares" >&2
    fail=1
  fi
done < <(grep -ohE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*' README.md DESIGN.md | tr -d '`' | sort -u)

# --- checkpoint format versions in the docs must match ckpt.Version -------
version="$(sed -n 's/^const Version = \([0-9][0-9]*\)$/\1/p' internal/ckpt/ckpt.go)"
if [ -z "$version" ]; then
  echo "docscheck: no 'const Version = N' in internal/ckpt/ckpt.go" >&2
  fail=1
fi
while IFS=: read -r doc n; do
  if [ "$n" != "$version" ]; then
    echo "docscheck: $doc names checkpoint format version $n, ckpt.Version is $version" >&2
    fail=1
  fi
done < <({ grep -oE 'format v[0-9]+' README.md | sed 's/^format v/README.md:/'
  grep -oE 'Format version [0-9]+' DESIGN.md | sed 's/^Format version /DESIGN.md:/'; } || true)

# --- DESIGN.md §4 lists exactly the rows of experiments.Artifacts ---------
table_ids="$(sed -n 's/^[[:space:]]*{ID: "\([^"]*\)".*/\1/p' internal/experiments/artifacts.go)"
design_ids="$(sed -n '/^## 4\./,/^## 5\./p' DESIGN.md |
  sed -n 's/^| `\([^`]*\)` | `pbstables -only \1` |.*/\1/p')"
if [ -z "$table_ids" ] || [ "$table_ids" != "$design_ids" ]; then
  echo "docscheck: DESIGN.md §4 lists artifacts [$(echo $design_ids)], experiments.Artifacts has [$(echo $table_ids)]" >&2
  fail=1
fi

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
