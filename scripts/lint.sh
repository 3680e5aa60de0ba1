#!/usr/bin/env bash
# Style + static analysis gate.
#
# Stage 1: clang-format --dry-run --Werror over src/ baselines/ tests/
# bench/ — fails on any formatting drift from the checked-in .clang-format.
# Stage 2: clang-tidy over src/, the paper baselines (baselines/) and the
# test oracle library (tests/oracle/) with the checked-in .clang-tidy
# profile (bugprone / modernize / performance), against the compile
# commands of the plain build; configure it first if build/ is missing.
#
# The container image does not always ship clang-format or clang-tidy: a
# missing tool prints a notice and its stage degrades to a no-op instead of
# failing the gate.
#
# Usage: scripts/lint.sh [extra clang-tidy args...]
set -euo pipefail
cd "$(dirname "$0")/.."

FORMAT="${CLANG_FORMAT:-clang-format}"
if command -v "$FORMAT" >/dev/null 2>&1; then
  mapfile -t format_sources \
    < <(find src baselines tests bench -name '*.cpp' -o -name '*.h' | sort)
  echo "lint: $FORMAT --dry-run --Werror over ${#format_sources[@]} files"
  "$FORMAT" --dry-run --Werror "${format_sources[@]}"
  echo "lint: format OK"
else
  echo "lint: $FORMAT not found; skipping format check"
fi

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "lint: $TIDY not found; skipping (install clang-tidy to enable)"
  exit 0
fi

if [ ! -f build/compile_commands.json ]; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi
if [ ! -f build/compile_commands.json ]; then
  echo "lint: build/compile_commands.json missing; skipping"
  exit 0
fi

mapfile -t sources < <(find src baselines tests/oracle -name '*.cpp' | sort)
echo "lint: $TIDY over ${#sources[@]} files in src/, baselines/ and tests/oracle/"
"$TIDY" -p build --quiet "$@" "${sources[@]}"
echo "lint: OK"
