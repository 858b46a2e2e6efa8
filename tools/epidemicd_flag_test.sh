#!/bin/sh
# epidemicd must refuse a numeric flag it cannot read exactly: each bad
# value below must print the usage text and exit 2, instead of serving
# with some other number (--port=72659 wrapped to 7123, --id=zero read as
# node 0). The boundary values that stay valid (--port=0 for an ephemeral
# port, --ae-interval-ms=0 for no anti-entropy thread) must still start
# the daemon.
#
#   tools/epidemicd_flag_test.sh <path to epidemicd>
daemon="$1"
failed=0

refuse() {
  out="$("$daemon" "$@" 2>&1)"
  code=$?
  case "$out" in
    *usage:*) ;;
    *) code=0 ;;
  esac
  if [ "$code" -ne 2 ]; then
    echo "FAIL: epidemicd $* did not exit 2 with the usage text:"
    echo "$out"
    failed=1
  fi
}

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

log="$(mktemp)"
"$daemon" --id=0 --nodes=2 --port=0 --ae-interval-ms=0 > "$log" 2>&1 &
pid=$!
tries=0
while ! grep -q "serving on" "$log" && [ "$tries" -lt 50 ]; do
  sleep 0.1
  tries=$((tries + 1))
done
kill "$pid" 2> /dev/null
wait "$pid"
if ! grep -q "serving on 127.0.0.1:[1-9]" "$log"; then
  echo "FAIL: --port=0 --ae-interval-ms=0 did not start serving:"
  cat "$log"
  failed=1
fi
rm -f "$log"
exit "$failed"
