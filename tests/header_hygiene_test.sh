#!/bin/sh
# Verifies that every public header is self-contained: each must compile
# as the sole content of a translation unit (Google style: headers carry
# all the includes they need). Headers are checked in parallel, one
# temporary translation unit per header.
set -eu

SRC_DIR="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
JOBS="$(nproc 2>/dev/null || echo 4)"

# Runs once per header; a failure leaves a .fail report behind.
CHECK_ONE='
  src="$1" tmp="$2" header="$3"
  tu="$tmp/$(printf "%s" "$header" | tr "/" "_").cc"
  printf "#include \"%s\"\n" "$header" > "$tu"
  if ! c++ -std=c++20 -fsyntax-only -I "$src" "$tu" 2> "$tu.err"; then
    { echo "NOT SELF-CONTAINED: $header"; cat "$tu.err"; } > "$tu.fail"
  fi
'
(cd "$SRC_DIR" && find . -name '*.h' | sed 's|^\./||') |
  xargs -P "$JOBS" -I {} sh -c "$CHECK_ONE" sh "$SRC_DIR" "$TMP" {}

status=0
for report in "$TMP"/*.fail; do
  [ -e "$report" ] || continue
  cat "$report"
  status=1
done

if [ "$status" -eq 0 ]; then
  echo "header_hygiene: all headers self-contained"
fi
exit "$status"
