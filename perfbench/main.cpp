// perfbench: runs one workload for a fixed host-time budget and
// prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of stdout.
//
//   perfbench --workload attach_mix|insitu|multinode_io --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// A run repeats rounds of the workload until S host seconds have passed.
// Every round of one seed simulates the same inputs, so its simulated
// results must be bit-identical (the digest is checked round against
// round); host metrics are medians over the rounds. With --trace 1 the
// rounds alternate untraced and traced, so the tracing overhead is the
// difference of the two medians, and the spans of the first traced round
// go to FILE as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  u64 seed{0};
  int seconds{0};
  int trace{0};
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !a.workload.empty() && a.seconds >= 1 &&
         a.seconds <= 120 && (a.trace == 0 || a.trace == 1);
}

void print_json(bool correct, u64 attempted, u64 failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// The end-to-end results, printed by name on every workload; the ones a
/// workload does not exercise read n/a.
void print_e2e_report(const RoundOut& r, const Metrics& e2e, u64 attempted,
                      u64 failed, const std::string& workload) {
  auto row = [](const char* name, double v, const char* unit, const char* note) {
    std::printf("  %-18s %14.6g %-5s %s\n", name, v, unit, note);
  };
  std::printf("end-to-end metrics (host clock: medians over rounds; sim clock: exact per seed):\n");
  row("setup_s", e2e.at("setup_s").value, "s", "host");
  row("host_wall_s", e2e.at("host_wall_s").value, "s", "host, measured phase");
  row("peak_rss_mb", e2e.at("peak_rss_mb").value, "MB", "host");
  char note[96];
  std::snprintf(note, sizeof(note), "host, %llu failed of %llu layer calls",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  row("failed_op_ratio",
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
      "ratio", note);
  const struct {
    const char* name;
    const char* unit;
  } sim_rows[] = {{"attach_gbps", "GB/s"},    {"cycle_p50_us", "us"},
                  {"cycle_tail_us", "us"},    {"insitu_runtime_s", "s"},
                  {"io_op_p50_us", "us"},     {"io_op_tail_us", "us"},
                  {"io_ops_per_sim_s", "1/s"}, {"allreduce_p50_us", "us"}};
  for (const auto& s : sim_rows) {
    auto it = r.sim.find(s.name);
    if (it != r.sim.end()) {
      row(s.name, it->second.value, s.unit, "sim");
    } else {
      std::printf("  %-18s %14s %-5s sim, not exercised by %s\n", s.name, "n/a",
                  s.unit, workload.c_str());
    }
  }
  row("sim_makespan_s", e2e.at("sim_makespan_s").value, "s", "sim, measured phase");
  for (const std::string& line : r.report) std::printf("  %s\n", line.c_str());
  std::printf("  (accuracy rows are informational and not gated; every other "
              "simulated number is unvalidated against the paper)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload attach_mix|insitu|multinode_io --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  RoundOut (*run)(const WorkloadArgs&) = nullptr;
  if (a.workload == "attach_mix") run = run_attach_mix;
  if (a.workload == "insitu") run = run_insitu;
  if (a.workload == "multinode_io") run = run_multinode_io;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  // Build guard: timings from sanitizer or unoptimized builds are not
  // results. Refuse before measuring anything.
  const char* flags = PERFBENCH_CXX_FLAGS;
  const bool sanitized = kSanitizerMacro || std::strstr(flags, "-fsanitize") != nullptr;
  std::printf("perfbench: workload %s, seed %llu, build %s [%s], %s engine\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              PERFBENCH_BUILD_TYPE, flags,
              sim::Engine::default_kind() == sim::EngineKind::serial ? "serial"
                                                                      : "parallel");
  if (sanitized || !kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s build\n",
                 sanitized ? "sanitizer" : "non-optimized");
    return 3;
  }
  if (sim::Engine::default_kind() != sim::EngineKind::serial) {
    std::fprintf(stderr, "perfbench: the benchmark measures the serial engine; "
                         "unset XEMEM_ENGINE\n");
    return 3;
  }

  Tracer tracer;
  WorkloadArgs wa;
  wa.seed = a.seed;
  wa.tracer = &tracer;
  const double t0 = host_now_s();
  std::vector<RoundOut> rounds;
  std::vector<bool> traced;
  double last_round = 0;
  bool trace_written = false;
  u64 spans = 0;
  std::vector<std::string> errors;
  // Round 0 warms the allocator and caches and is left out of the host
  // medians. Then at least three measured rounds (two in trace mode: one
  // of each kind); stop early if another round could overrun a 170 s
  // ceiling.
  const size_t min_rounds = a.trace ? 3 : 4;
  while (true) {
    const double elapsed = host_now_s() - t0;
    if (rounds.size() >= min_rounds && elapsed >= a.seconds) break;
    if (!rounds.empty() && elapsed + 1.5 * last_round > 170.0) break;
    const bool trace_this = a.trace == 1 && !rounds.empty() && rounds.size() % 2 == 0;
    tracer.clear();
    tracer.enable(trace_this);
    const double r0 = host_now_s();
    rounds.push_back(run(wa));
    last_round = host_now_s() - r0;
    traced.push_back(trace_this);
    const RoundOut& r = rounds.back();
    for (const std::string& e : r.ledger.errors()) errors.push_back(e);
    if (r.digest != rounds.front().digest) {
      errors.push_back("round " + std::to_string(rounds.size()) +
                       " simulated results differ from round 1 (nondeterminism)");
    }
    if (trace_this && !trace_written) {
      spans = tracer.spans().size();
      trace_written = true;
      if (!a.trace_out.empty() && !tracer.write_chrome(a.trace_out, r0)) {
        errors.push_back("cannot write the span file " + a.trace_out);
      }
    }
    if (!errors.empty()) break;
  }
  tracer.enable(false);

  const RoundOut& first = rounds.front();
  u64 attempted = 0, failed = 0;
  std::vector<double> setup, wall, wall_traced;
  for (size_t i = 0; i < rounds.size(); ++i) {
    attempted += rounds[i].ledger.attempted();
    failed += rounds[i].ledger.failed();
    if (i == 0) continue;  // warm-up
    setup.push_back(rounds[i].setup_s);
    (traced[i] ? wall_traced : wall).push_back(rounds[i].wall_s);
  }
  const bool correct = errors.empty();
  std::printf("rounds: %zu (1 warm-up, %zu traced), simulated results digest 0x%016llx%s\n",
              rounds.size(), wall_traced.size(),
              static_cast<unsigned long long>(first.digest),
              correct ? ", identical in every round" : "");
  for (const std::string& e : errors) std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());

  Metrics e2e;
  e2e["setup_s"] = {median(setup), "s"};
  e2e["host_wall_s"] = {median(wall), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["sim_makespan_s"] = {first.sim_makespan_s, "s"};
  print_e2e_report(first, e2e, attempted, failed, a.workload);

  Metrics out = e2e;
  if (a.trace == 1) {
    out = first.layer;
    for (auto& [name, m] : out) {
      if (!host_clock_metric(name)) continue;
      std::vector<double> v;
      for (size_t i = 1; i < rounds.size(); ++i) {
        v.push_back(rounds[i].layer.at(name).value);
      }
      m.value = median(v);
    }
    const double events = first.layer.at("sim.events").value;
    out["sim.host_ns_per_event"].value = events > 0 ? median(wall) * 1e9 / events : 0.0;
    out["trace.overhead_s"].value = median(wall_traced) - median(wall);
    out["trace.spans"].value = static_cast<double>(spans);
    std::printf("per-layer metrics (span file: %s):\n",
                a.trace_out.empty() ? "not written" : a.trace_out.c_str());
    for (const auto& [name, m] : out) {
      std::printf("  %-44s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  print_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
