#!/usr/bin/env bash
# rips_served survives a closed stderr: only its first stderr line is read
# (`2>&1 | head -1`), so every later stderr write hits a closed pipe. A
# ping, one submit and a shutdown must still end in exit 0 and a
# --bench-out document that `bench_diff B B` accepts.
#
# Usage: rips_served_closed_stderr.sh RIPS_SERVED RIPS_JOBCTL BENCH_DIFF
set -u
served=$1
jobctl=$2
bench_diff=$3
dir=$(mktemp -d)
sock=$dir/rips.sock
out=$dir/bench.json
rcfile=$dir/rc
cleanup() {
  pkill -f -- "--socket=$sock" 2>/dev/null
  rm -rf "$dir"
}
trap cleanup EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

{ "$served" --socket="$sock" --bench-out="$out" 2>&1; echo $? > "$rcfile"; } |
  head -1 &
pipeline=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || fail "rips_served never opened $sock"
"$jobctl" --socket="$sock" ping || fail "ping"
"$jobctl" --socket="$sock" submit --tenant=t --roots=16 || fail "submit"
"$jobctl" --socket="$sock" shutdown || fail "shutdown"
wait "$pipeline"
rc=$(cat "$rcfile" 2>/dev/null)
[ "$rc" = 0 ] || fail "rips_served exited $rc (141 is SIGPIPE)"
[ -s "$out" ] || fail "rips_served wrote no --bench-out document"
"$bench_diff" "$out" "$out" || fail "bench_diff refused the document"
echo "PASS: exit 0 with a closed stderr, bench document accepted"
