#!/usr/bin/env bash
# Sanitizer gate: configures a second build tree under the chosen sanitizer,
# builds everything and runs the tier-1 test suite under it. Catches lifetime
# bugs (e.g. in the event queue's slot pools and the worker crews) that the
# plain build cannot.
#
# Usage: scripts/check.sh [build_dir] [sanitizer]
#   build_dir  defaults to build-<sanitizer>
#   sanitizer  asan  -> -fsanitize=address,undefined   (the default)
#              ubsan -> -fsanitize=undefined only; catches the same UB with
#                       far less memory overhead, and runs where ASan cannot
#                       (e.g. ptrace/ASLR-restricted CI runners)
#              Both also build with -D_GLIBCXX_ASSERTIONS: every libstdc++
#              container index is bounds-checked, which ASan misses inside
#              a vector's spare capacity (the hash-slot and scratch indexing
#              of the Newscast merge, for one).
#              tsan  -> -fsanitize=thread; runs only the concurrency-heavy
#                       tests (parallel utilities + the engine at K > 1).
#                       TSan is incompatible with ASan/UBSan in one binary and
#                       ~10x slower, so the full suite stays on the other gates.
set -euo pipefail

sanitizer="${2:-asan}"
test_filter=""
extra_flags=""
case "${sanitizer}" in
  asan)  san_flags="address,undefined"; extra_flags="-D_GLIBCXX_ASSERTIONS" ;;
  ubsan) san_flags="undefined"; extra_flags="-D_GLIBCXX_ASSERTIONS" ;;
  tsan)
    san_flags="thread"
    # Most tests run the engine at K = 1 and exercise no threads, and golden
    # replays take far too long under TSan's instrumentation; target the code
    # that actually runs worker crews. ParallelFor/ParallelMap cover
    # parallel_for and parallel_map, which run on a WindowCrew
    # (tests/test_parallel.cpp), ParallelEngine the window engine at K > 1
    # (tests/test_parallel_engine.cpp — cross-K determinism under real
    # thread interleaving is exactly what TSan stresses, including the
    # Oracle sampler's in-window liveness reads and a merge from a t = 0
    # partition), WindowCrew the crew barrier itself.
    test_filter='ParallelFor|ParallelMap|ParallelEngine|WindowCrew|HardwareThreads'
    ;;
  *)
    echo "unknown sanitizer '${sanitizer}' (expected asan, ubsan or tsan)" >&2
    exit 2
    ;;
esac
build_dir="${1:-build-${sanitizer}}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=${san_flags} -fno-sanitize-recover=all -fno-omit-frame-pointer ${extra_flags}" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${san_flags}"

cmake --build "${build_dir}" -j "${jobs}"

if [[ -n "${test_filter}" ]]; then
  # --no-tests=error: a filter that silently matches nothing would turn
  # this gate green without running anything.
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -R "${test_filter}" --no-tests=error
  exit 0
fi

ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

# Chaos-soak smoke under the sanitizer: 24 seeded composite fault scenarios
# (partitions x loss x latency x crash x Byzantine) through the full stack
# with retries/hedging on, invariant oracles checked and a cross-shard
# digest replay — the fuzzer tier most likely to surface lifetime bugs.
"${build_dir}/bench/chaos_soak" --smoke

# Second pass over the golden-replay witnesses with the observability layer
# fully enabled (JSONL trace sink + per-cycle sampler): the witnesses must
# hold bit-for-bit, and the sink/sampler code paths run under the sanitizer.
obs_dir="$(mktemp -d)"
trap 'rm -rf "${obs_dir}"' EXIT
BSVC_GOLDEN_OBS="${obs_dir}" \
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -R 'GoldenReplay'
