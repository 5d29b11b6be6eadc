#!/bin/sh
# Each perf harness given on the command line must answer an unknown
# flag, or a flag value that is not a number, with a usage line on
# stderr and exit status 2.
status=0
for bin in "$@"; do
    for args in "--bogus" "--throttle-us abc"; do
        # $args is split on purpose: a flag and its value.
        err=$("$bin" $args 2>&1 >/dev/null)
        rc=$?
        case "$rc:$err" in
            2:*usage:*) ;;
            *)
                echo "FAIL: $bin $args exited $rc, want 2 and a usage line"
                echo "$err"
                status=1
                ;;
        esac
    done
done
exit $status
