#!/usr/bin/env bash
# fma.sh — cross-compile cmd/sweep, cmd/sweepd and cmd/experiments for
# arm64 and fail when a repro/ function holds a fused multiply-add (FMADD, FMSUB, FNMADD,
# FNMSUB, double or single) that the open-site list below does not name,
# or when a listed function no longer holds one.
#
# Usage: scripts/fma.sh
#
# arm64 fuses x*y + z into one instruction that rounds once, where amd64
# rounds the product and the sum apart; an explicit float64(x*y) keeps
# the two roundings on every GOARCH. A fused site can therefore compute
# a different value off amd64, and a record is meant to be the same bytes
# on every GOARCH (DESIGN.md §4). The open sites are ROADMAP's
# per-architecture item; a fix removes its line here. rng's three compute
# brackets with a margin that no rounding crosses; they wait for rng's
# own unfused log and log1p.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # sort and comm must collate alike

# One function per line, as go tool objdump names it.
open_sites='repro/internal/rng.fastGap
repro/internal/rng.proveGapCells
repro/internal/rng.init'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cmds='sweep sweepd experiments'
for cmd in $cmds; do
    GOARCH=arm64 go build -o "$tmp/$cmd" "./cmd/$cmd"
    go tool objdump "$tmp/$cmd" > "$tmp/$cmd.asm"
done
awk '
/^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn) }
/\t(FMADD|FMSUB|FNMADD|FNMSUB)[DS] / && fn ~ /^repro\// { print fn }
' "$tmp"/*.asm | sort -u > "$tmp/found"
printf '%s\n' "$open_sites" | sort -u > "$tmp/open"

status=0
while IFS= read -r fn; do
    echo "fma: $fn holds a fused multiply-add on arm64; round each product explicitly, as float64(x*y)"
    status=1
done < <(comm -23 "$tmp/found" "$tmp/open")
while IFS= read -r fn; do
    echo "fma: $fn holds no fused multiply-add on arm64 any more; drop it from the open sites"
    status=1
done < <(comm -13 "$tmp/found" "$tmp/open")
if [ "$status" -eq 0 ]; then
    echo "fma: the $(wc -l < "$tmp/open") open sites, and no other repro/ function, hold a fused multiply-add on arm64"
fi
exit "$status"
