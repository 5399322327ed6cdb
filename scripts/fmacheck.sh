#!/usr/bin/env bash
# scripts/fmacheck.sh — fused multiply-add gate.
#
# Go may compile x*y + z into one fused multiply-add on arm64, ppc64le
# and s390x (amd64 never does), which rounds once instead of twice, so
# the same expression can differ in its last bits by GOARCH. Every float
# expression in the repository is written to forbid fusion: an explicit
# conversion such as float64(x*y) + z rounds the product (Go spec,
# "Floating-point operators").
#
# This script cross-compiles every package of the root module for the
# three targets with -gcflags=-S and fails, naming the function and the
# source line, on any fused instruction in a repro/ function. It needs no
# emulator and no target toolchain beyond the Go installation.
#
#   bash scripts/fmacheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ops='FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|WFMADB|WFMSDB'
fail=0
for arch in arm64 ppc64le s390x; do
  # -S prints each function's header ("pkg.Func STEXT ...") and then its
  # instructions ("\t0x0038 00056 (file.go:555)\tFNMSUBD\tF1, ..."). The
  # go command replays the listing of a cached package, so a warm build
  # cache checks the same code as a cold one.
  listing=$(GOARCH=$arch go build -gcflags=-S ./... 2>&1) || {
    echo "fmacheck: GOARCH=$arch build failed:" >&2
    echo "$listing" >&2
    exit 1
  }
  found=$(awk -v ops="$ops" '
    /^[^ \t].* STEXT/ { fn = $1; next }
    fn ~ /^repro\// && $0 ~ ("\\)\t(" ops ")(\t|$)") {
      split($0, f, "\t")
      line = f[2]; sub(/.*\//, "", line); sub(/\).*/, "", line)
      print fn " (" line "): " f[3]
    }' <<<"$listing" | sort -u)
  if [ -n "$found" ]; then
    echo "fmacheck: GOARCH=$arch fuses floating-point operations in:" >&2
    echo "$found" | sed 's/^/  /' >&2
    fail=1
  else
    echo "fmacheck: GOARCH=$arch: no fused operation in a repro/ function"
  fi
done
exit $fail
