#!/bin/sh
# epidemicd, epidemic_cli and epicheck must refuse a numeric flag they
# cannot read exactly: each bad value below must print the usage text and
# exit 2, instead of running with some other number (--port=72659 wrapped
# to 7123, --id=zero or `sync abc` read as node 0, --depth=-1 read as an
# unbounded search). The CLI refuses before it opens any connection. The
# boundary values that stay valid (--port=0 for an ephemeral port,
# --ae-interval-ms=0 for no anti-entropy thread, a one-node cluster) must
# still start the daemon, and epidemic_cli must still reach it. epicheck
# must run its seeded tamper-ivv defect at two shards and report it. A
# durable daemon (--data-dir) killed with SIGKILL must restart with every
# write it acknowledged.
#
#   tools/epidemicd_flag_test.sh <epidemicd> <epidemic_cli> <epicheck>
daemon="$1"
cli="$2"
check="$3"
failed=0

# expect_exit <code> <text> <tool> <args...>: the tool prints <text> and
# exits <code>.
expect_exit() {
  want="$1"
  text="$2"
  tool="$3"
  shift 3
  out="$("$tool" "$@" 2>&1)"
  code=$?
  case "$out" in
    *"$text"*) ;;
    *) code=none ;;
  esac
  if [ "$code" != "$want" ]; then
    echo "FAIL: $(basename "$tool") $* did not exit $want with '$text':"
    echo "$out"
    failed=1
  fi
}
usage_exit() { expect_exit 2 usage: "$@"; }
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
refuse --id=0 --nodes=0
refuse --id=1 --nodes=1

usage_exit "$cli" --port=72659 stats
usage_exit "$cli" --port=0 stats
usage_exit "$cli" --port=7000 sync abc
usage_exit "$cli" --port=7000 sync -1
usage_exit "$cli" --port=7000 oobget x item

usage_exit "$check" --depth=+3
usage_exit "$check" --depth=-1
usage_exit "$check" --shards=-1
usage_exit "$check" --nodes two
expect_exit 0 "no violations" "$check" --items=1 --depth 1
expect_exit 1 VIOLATION "$check" --shards 2 --mutate tamper-ivv --depth 1

# start <args...>: starts the daemon on an ephemeral port with no
# anti-entropy thread and sets pid and port (port is empty when it did not
# start serving).
start() {
  log="$(mktemp)"
  "$daemon" "$@" --port=0 --ae-interval-ms=0 > "$log" 2>&1 &
  pid=$!
  tries=0
  while ! grep -q "serving on" "$log" && [ "$tries" -lt 50 ]; do
    sleep 0.1
    tries=$((tries + 1))
  done
  port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([1-9][0-9]*\).*/\1/p' "$log")"
  if [ -z "$port" ]; then
    echo "FAIL: $* --port=0 --ae-interval-ms=0 did not start serving:"
    cat "$log"
    failed=1
  fi
  rm -f "$log"
}

# serve <args...>: the daemon serves, and epidemic_cli stats reaches it.
serve() {
  start "$@"
  if [ -n "$port" ] && ! "$cli" --port="$port" stats | grep -q "^replica "; then
    echo "FAIL: epidemic_cli --port=$port stats did not reach $*"
    failed=1
  fi
  kill "$pid" 2> /dev/null
  wait "$pid"
}

serve --id=0 --nodes=2
serve --id=0 --nodes=1

# A durable daemon killed with SIGKILL comes back with every acknowledged
# write: from the journal alone, then from a checkpoint plus the journal.
data="$(mktemp -d)"
durable() { start --id=0 --nodes=1 --data-dir="$data"; }
crash() {
  kill -9 "$pid" 2> /dev/null
  wait "$pid" 2> /dev/null
}
# cli_ok <args...>: epidemic_cli against the running daemon succeeds.
cli_ok() {
  if ! "$cli" --port="$port" "$@" > /dev/null 2>&1; then
    echo "FAIL: epidemic_cli $* failed against a --data-dir daemon"
    failed=1
  fi
}
# expect_get <key> <value>: the running daemon reads <value> for <key>.
expect_get() {
  got="$("$cli" --port="$port" get "$1" 2>&1)"
  if [ "$got" != "$2" ]; then
    echo "FAIL: get $1 after a restart on --data-dir printed '$got', not '$2'"
    failed=1
  fi
}
durable
cli_ok put a 1
crash
durable
expect_get a 1
cli_ok checkpoint
cli_ok put b 2
crash
durable
expect_get a 1
expect_get b 2
crash
rm -rf "$data"
exit "$failed"
