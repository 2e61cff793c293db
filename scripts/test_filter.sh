# Shared helper for the check_*.sh gates; source it, do not run it.
#
# A name filter that matches nothing still makes `cargo test` exit 0: every
# target just prints `running 0 tests`. A renamed or deleted test would
# then empty its gate without anyone noticing. `cargo_test_some ARGS...`
# runs `cargo test ARGS...`, prints its output, and fails unless at least
# one `running N tests` line has N >= 1.
#
# Usage (from a check script, after cd-ing to the repo root):
#   . scripts/test_filter.sh
#   cargo_test_some --quiet -p safe-gbm binner

cargo_test_some() {
    _log=$(mktemp)
    _status=0
    cargo test "$@" >"$_log" 2>&1 || _status=$?
    cat "$_log"
    if [ "$_status" -eq 0 ] && ! grep -Eq '^running [1-9][0-9]* tests?$' "$_log"; then
        echo "error: 'cargo test $*' ran no tests; does its name filter still match?" >&2
        _status=1
    fi
    rm -f "$_log"
    return "$_status"
}
