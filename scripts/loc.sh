#!/usr/bin/env bash
# Line counts of the C++ sources (.h and .cpp), the one measure the ROADMAP's
# size targets use: the library (src/), the paper baselines (baselines/),
# the two together, and the tests.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.h' -o -name '*.cpp' | xargs cat | wc -l
}

printf '%-20s %6d\n' "src/" "$(count src)"
printf '%-20s %6d\n' "baselines/" "$(count baselines)"
printf '%-20s %6d\n' "src/ + baselines/" "$(count src baselines)"
printf '%-20s %6d\n' "tests/" "$(count tests)"
