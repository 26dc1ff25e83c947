#!/usr/bin/env bash
# Fails when a CI step's -run pattern selects nothing: every package
# must list at least one matching test, and every |-separated
# alternative must match a test in at least one package. A renamed test
# then breaks the step that names it instead of dropping out silently.
#
#	bash .github/require-tests.sh '<pattern>' <packages...>
set -euo pipefail

pattern=$1
shift
has_test() {
	local listed
	listed=$(go test -list "$1" "${@:2}")
	grep -Eq '^(Test|Fuzz|Example)' <<<"$listed"
}
for pkg in "$@"; do
	has_test "$pattern" "$pkg" || { echo "no test in $pkg matches -run '$pattern'" >&2; exit 1; }
done
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	has_test "$alt" "$@" || { echo "no test in $* matches '$alt' of -run '$pattern'" >&2; exit 1; }
done
