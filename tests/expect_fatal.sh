#!/bin/sh
# The CLI error contract, checked on a real binary:
#
#   sh tests/expect_fatal.sh "[fatal] <message>" <binary> [args...]
#
# passes when the command exits with status exactly 1 and its stderr
# holds the given line verbatim.  An in-process test cannot see this
# path: fatal() throws arcc::Error, and only when it escapes main()
# does the terminate handler print the line and exit(1).
expected=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$err"
if [ "$status" -ne 1 ]; then
    echo "expect_fatal: exit status $status, want 1" >&2
    exit 1
fi
if ! printf '%s\n' "$err" | grep -qxF -- "$expected"; then
    echo "expect_fatal: stderr lacks the line: $expected" >&2
    exit 1
fi
