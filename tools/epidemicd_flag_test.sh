#!/bin/sh
# epidemicd, epidemic_cli and epicheck must refuse a numeric flag they
# cannot read exactly: each bad value below must print the usage text and
# exit 2, instead of running with some other number (--port=72659 wrapped
# to 7123, --id=zero or `sync abc` read as node 0, --depth=-1 read as an
# unbounded search). The CLI refuses before it opens any connection. The
# boundary values that stay valid (--port=0 for an ephemeral port,
# --ae-interval-ms=0 for no anti-entropy thread) must still start the
# daemon, and epidemic_cli must still reach it.
#
#   tools/epidemicd_flag_test.sh <epidemicd> <epidemic_cli> <epicheck>
daemon="$1"
cli="$2"
check="$3"
failed=0

# usage_exit <tool> <args...>: the tool prints the usage text and exits 2.
usage_exit() {
  tool="$1"
  shift
  out="$("$tool" "$@" 2>&1)"
  code=$?
  case "$out" in
    *usage:*) ;;
    *) code=0 ;;
  esac
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $(basename "$tool") $* did not exit 2 with the usage text:"
    echo "$out"
    failed=1
  fi
}
refuse() { usage_exit "$daemon" "$@"; }

refuse --id=0 --nodes=2 --port=72659
refuse --id=0 --nodes=2 --port=-1
refuse --id=0 --nodes=2 --port=
refuse --id=zero --nodes=2 --port=abc
refuse --id=0 --nodes=2x
refuse --id=0 --nodes=2 --peer=1:70001
refuse --id=0 --nodes=2 --peer=1:0
refuse --id=0 --nodes=2 --peer=one:7001
refuse --id=0 --nodes=2 --ae-interval-ms=-5
refuse --id=0 --nodes=2 --ae-interval-ms=5ms
refuse --id=0 --nodes=2 --shards=0
refuse --id=0 --nodes=2 --ae-workers=+1

usage_exit "$cli" --port=72659 stats
usage_exit "$cli" --port=0 stats
usage_exit "$cli" --port=7000 sync abc
usage_exit "$cli" --port=7000 sync -1
usage_exit "$cli" --port=7000 oobget x item

usage_exit "$check" --depth=+3
usage_exit "$check" --depth=-1
usage_exit "$check" --shards=-1
usage_exit "$check" --nodes two
if ! "$check" --items=1 --depth 1 > /dev/null 2>&1; then
  echo "FAIL: epicheck --items=1 --depth 1 did not run clean"
  failed=1
fi

log="$(mktemp)"
"$daemon" --id=0 --nodes=2 --port=0 --ae-interval-ms=0 > "$log" 2>&1 &
pid=$!
tries=0
while ! grep -q "serving on" "$log" && [ "$tries" -lt 50 ]; do
  sleep 0.1
  tries=$((tries + 1))
done
port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([1-9][0-9]*\).*/\1/p' "$log")"
if [ -z "$port" ]; then
  echo "FAIL: --port=0 --ae-interval-ms=0 did not start serving:"
  cat "$log"
  failed=1
elif ! "$cli" --port="$port" stats | grep -q "^replica "; then
  echo "FAIL: epidemic_cli --port=$port stats did not reach the daemon"
  failed=1
fi
kill "$pid" 2> /dev/null
wait "$pid"
rm -f "$log"
exit "$failed"
