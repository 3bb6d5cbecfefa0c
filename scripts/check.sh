#!/bin/bash
# CI gate: build the whole tree under a sanitizer (asserts re-enabled)
# and run the tier-1 test suite under it. A separate build directory per
# sanitizer keeps the instrumented trees from invalidating the normal one.
#
# Usage: ./scripts/check.sh [--fuzz] [ctest-args...]
#   default  AddressSanitizer + UBSan over the whole suite
#   --fuzz   the deterministic fuzz gate: ASan+UBSan build, then each
#            replay_<target> driver replays the committed corpus plus a
#            deep structured-mutation sweep (fuzz/replay_main.cpp). Runs
#            on any toolchain — the libFuzzer build (-DNDSM_FUZZ=ON,
#            clang) is the CI fuzz-smoke job's business, not this one's.
set -e
cd "$(dirname "$0")/.."

# CI steps no mode of this script reproduces: both need clang tooling.
not_covered() {
  echo "NOT_RUN_BY_CHECK_SH: fuzz-smoke libFuzzer harnesses (-DNDSM_FUZZ=ON, needs clang), analysis scripts/tidy.sh (needs clang-tidy)"
}

if [ "${1:-}" = "--fuzz" ]; then
  shift
  BUILD_DIR=build-san
  cmake -B "$BUILD_DIR" -S . -DNDSM_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
  export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
  for t in value_decode transport_frame discovery_msg trace_decode udp_wire wal_replay; do
    "$BUILD_DIR/fuzz/replay_$t" "fuzz/corpus/$t" --mutations 20000 "$@"
  done
  echo "CHECK_OK: fuzz replay green under ASan+UBSan"
  not_covered
  exit 0
fi

BUILD_DIR=build-san
cmake -B "$BUILD_DIR" -S . -DNDSM_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)" "$@"
echo "CHECK_OK: tier-1 green under ASan+UBSan"
not_covered
