#!/usr/bin/env bash
# Full local gate: tier-1 build + tests, then the same suite under
# AddressSanitizer/UBSan (catches lifetime bugs the coroutine-heavy
# simulator is prone to), plus an optional standalone UBSan leg. Only the
# RelWithDebInfo leg writes the BENCH_*.json trend files; the ASan leg
# runs the same smokes but its timings are sanitizer numbers.
# Usage: scripts/check.sh [--asan-only|--fast|--ubsan]
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall-clock wrapper for the bench smokes: host time is a tracked output,
# not just noise.
run_timed() {
  local label="$1"; shift
  local t0=$SECONDS
  "$@"
  echo "-- ${label}: $((SECONDS - t0))s wall"
}

fast=0
asan_only=0
ubsan=0
case "${1:-}" in
  --fast) fast=1 ;;
  --asan-only) asan_only=1 ;;
  --ubsan) ubsan=1 ;;
  "") ;;
  *) echo "usage: $0 [--asan-only|--fast|--ubsan]" >&2; exit 2 ;;
esac

if [[ $ubsan -eq 1 ]]; then
  echo "== sanitizers: standalone ubsan build + ctest =="
  cmake --preset ubsan >/dev/null
  cmake --build --preset ubsan -j
  ctest --preset ubsan -j "$(nproc)"
  echo "all checks passed"
  exit 0
fi

if [[ $asan_only -eq 0 ]]; then
  echo "== tier-1: RelWithDebInfo build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"

  echo "== collectives bench smoke (JSON next to the ablations) =="
  run_timed "collectives_scaling" \
    ./build/bench/collectives_scaling --quick --json build/collectives_scaling.json

  echo "== attach fast-path ablation smoke =="
  run_timed "ablation_attach_path" \
    ./build/bench/ablation_attach_path --quick --json build/attach_path.json
  cp build/attach_path.json BENCH_attach_path.json

  echo "== name-service failover crashpoint-sweep smoke =="
  run_timed "ablation_ns_failover" \
    ./build/bench/ablation_ns_failover --quick --json build/ns_failover.json
  cp build/ns_failover.json BENCH_ns_failover.json

  echo "== sharded name-service churn-storm smoke =="
  run_timed "ablation_ns_shard" \
    ./build/bench/ablation_ns_shard --quick --json build/ns_shard.json
  cp build/ns_shard.json BENCH_ns_shard.json

  echo "== capability revocation ablation smoke =="
  run_timed "ablation_capability" \
    ./build/bench/ablation_capability --quick --json build/capability.json
  cp build/capability.json BENCH_capability.json

  echo "== burst-buffer I/O cache ablation smoke =="
  run_timed "ablation_iocache" \
    ./build/bench/ablation_iocache --quick --json build/iocache.json
  cp build/iocache.json BENCH_iocache.json

  echo "== fabric fault-injection ablation smoke =="
  run_timed "ablation_fabric_fault" \
    ./build/bench/ablation_fabric_fault --quick --json build/fabric_fault.json
  cp build/fabric_fault.json BENCH_fabric_fault.json

  echo "== noise-profile paper bench smoke (lazy noise timeline) =="
  run_timed "fig7_noise_profile" ./build/bench/fig7_noise_profile
fi

if [[ $fast -eq 0 ]]; then
  echo "== sanitizers: asan+ubsan build + ctest =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j
  ctest --preset asan -j "$(nproc)"

  echo "== collectives bench smoke (asan) =="
  ./build-asan/bench/collectives_scaling --quick --json build-asan/collectives_scaling.json

  echo "== attach fast-path ablation smoke (asan) =="
  ./build-asan/bench/ablation_attach_path --quick --json build-asan/attach_path.json

  echo "== name-service failover crashpoint-sweep smoke (asan) =="
  ./build-asan/bench/ablation_ns_failover --quick --json build-asan/ns_failover.json

  echo "== sharded name-service churn-storm smoke (asan) =="
  ./build-asan/bench/ablation_ns_shard --quick --json build-asan/ns_shard.json

  echo "== capability revocation ablation smoke (asan) =="
  ./build-asan/bench/ablation_capability --quick --json build-asan/capability.json

  echo "== burst-buffer I/O cache ablation smoke (asan) =="
  ./build-asan/bench/ablation_iocache --quick --json build-asan/iocache.json

  echo "== fabric fault-injection ablation smoke (asan) =="
  run_timed "ablation_fabric_fault (asan)" \
    ./build-asan/bench/ablation_fabric_fault --quick --json build-asan/fabric_fault.json

  echo "== noise-profile paper bench smoke (asan) =="
  run_timed "fig7_noise_profile (asan)" ./build-asan/bench/fig7_noise_profile
fi

echo "all checks passed"
