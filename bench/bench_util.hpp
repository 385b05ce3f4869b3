// Shared support for the experiment harnesses: paper-style table output,
// run-count control, and common topology builders.
//
// Each bench binary regenerates one table or figure of the paper and
// prints (a) the measured series, (b) the paper's reference values, and
// (c) PASS/FAIL qualitative shape checks. Set XEMEM_BENCH_RUNS to override
// the per-configuration repetition count (the simulator is deterministic
// given a seed, so repetitions exist to sample the seeded noise models,
// not hardware jitter).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace xemem::bench {

inline int runs_override(int default_runs) {
  if (const char* env = std::getenv("XEMEM_BENCH_RUNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return default_runs;
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper reference: %s\n\n", paper_ref);
}

/// Host wall-clock stopwatch for the bench footer: simulated results are
/// deterministic per seed; the wall-clock row records what producing them
/// cost in host time.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Standard bench footer: how long the bench took in host time.
inline void wall_clock_row(const WallClock& wc) {
  std::printf("\nhost wall clock: %.0f ms\n", wc.elapsed_ms());
}

/// A qualitative shape assertion, reported PASS/FAIL (benches exit nonzero
/// if any check fails, so CI catches shape regressions).
class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) failed_ = true;
  }
  bool all_passed() const { return !failed_; }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_{false};
};

}  // namespace xemem::bench
