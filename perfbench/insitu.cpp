// insitu: the paper's Figure 8 workload at paper scale — HPCCG + STREAM,
// 600 iterations signalling every 40, a 512 MiB region, the standard noise
// model — in the Kitten/Linux and Linux/Linux configurations, synchronous,
// with recurring attachments, over several seeds derived from the
// workload seed.
//
// About 90% of engine events here are noise firings, so the simulator's
// event loop and the hw layer dominate host time while the attach path
// runs only 15 times per run: the workload an event-loop or noise change
// must speed up without moving insitu_runtime_s.
#include <string>

#include "common/units.hpp"
#include "harness.hpp"
#include "workloads/insitu.hpp"

namespace perfbench {
namespace {

constexpr u32 kSeedsPerConfig = 2;

/// The Figure 8 harness configuration (bench/fig8_single_node_insitu.cpp).
workloads::InsituConfig fig8_config() {
  workloads::InsituConfig cfg;
  cfg.iterations = 600;
  cfg.signal_every = 40;
  cfg.region_bytes = 512_MiB;
  cfg.async = false;
  cfg.recurring = true;
  cfg.sim_compute_ns = 162'000'000;
  cfg.sim_mem_bytes = 1_GiB;
  cfg.stream_passes = 1;
  cfg.grid = 12;
  cfg.stream_elems = 1 << 16;
  cfg.poll_interval = 2'000'000;
  return cfg;
}

/// Same tolerances as the Figure 8 harness (residual) and the CG slab
/// tests (solution error against the all-ones exact solution).
constexpr double kResidualTol = 1e-8;
constexpr double kSolutionTol = 1e-8;

struct RunOut {
  double setup_s{0};
  double wall_s{0};
  double boot_s{0};
  workloads::InsituResult r;
  u64 sim_ns{0};
  Counters before, after;
};

RunOut one_run(bool kitten_sim, u64 seed, u32 track, Tracer& tr, Ledger& led) {
  RunOut out;
  const double h0 = host_now_s();
  sim::Engine eng(seed);
  Node node(hw::Machine::optiplex());
  std::string sim_name = "linux";
  if (kitten_sim) {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    HostCall h(tr, "add_cokernel sim", "pisces");
    node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768_MiB);
    out.boot_s = h.done();
    sim_name = "sim";
  } else {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3, 4, 5, 6, 7});
  }
  double h_measure0 = 0, h_measure1 = 0;
  auto snapshot = [&](Counters& c) {
    c.add_kernel(node.kernel("linux"));
    if (kitten_sim) c.add_kernel(node.kernel("sim"));
    c.add_machine(node.machine());
    c.events = eng.events_processed();
  };
  auto main = [&]() -> sim::Task<void> {
    {
      Call s(tr, "node.start", "xemem", 0, track, 0);
      co_await node.start();
      s.done();
    }
    Rng noise_rng(seed * 977 + 13);
    node.spawn_std_noise(eng, noise_rng);
    snapshot(out.before);
    h_measure0 = host_now_s();
    const u64 t0 = sim::now();
    Call run(tr, kitten_sim ? "insitu Kitten/Linux" : "insitu Linux/Linux",
             "workloads", 0, track, seed);
    out.r = co_await workloads::run_insitu(node, sim_name, "linux", fig8_config());
    run.done();
    out.sim_ns = sim::now() - t0;
    h_measure1 = host_now_s();
    snapshot(out.after);
  };
  // The noise actors run forever; the root's completion ends the run.
  eng.run(main());

  const std::string tag = std::string(kitten_sim ? "Kitten/Linux" : "Linux/Linux") +
                          " seed " + std::to_string(seed);
  led.call(h_measure1 > 0, "run_insitu");
  led.expect(out.r.residual < kResidualTol,
             tag + ": CG residual " + std::to_string(out.r.residual) +
                 " above tolerance");
  led.expect(out.r.solution_error < kSolutionTol,
             tag + ": CG solution error " + std::to_string(out.r.solution_error) +
                 " above tolerance");
  led.expect(out.r.attaches_performed == 15,
             tag + ": expected 15 recurring attachments");
  expect_no_leaks(led, tag + " linux", node.kernel("linux"));
  if (kitten_sim) expect_no_leaks(led, tag + " sim", node.kernel("sim"));
  led.expect(node.machine().pmem().total_refs() == 0,
             tag + ": machine-wide frame references outstanding at exit");
  out.setup_s = h_measure0 - h0;
  out.wall_s = h_measure1 - h_measure0;
  return out;
}

}  // namespace

RoundOut run_insitu(const WorkloadArgs& args) {
  RoundOut out;
  out.layer = per_layer_template();
  Ledger& led = out.ledger;
  Counters before, after;
  Samples runtime_s, analytics_s;
  double kl_sum = 0, boot_s = 0;
  u64 attaches = 0;
  u32 track = 0;
  for (bool kitten_sim : {true, false}) {
    for (u32 k = 0; k < kSeedsPerConfig; ++k) {
      const u64 seed = mix(args.seed, 0x1a5100ull + k);
      RunOut r = one_run(kitten_sim, seed, track++, *args.tracer, led);
      out.setup_s += r.setup_s;
      out.wall_s += r.wall_s;
      boot_s += r.boot_s;
      out.sim_makespan_s += static_cast<double>(r.sim_ns) / 1e9;
      runtime_s.add(r.r.sim_seconds);
      analytics_s.add(r.r.analytics_seconds);
      attaches += r.r.attaches_performed;
      if (kitten_sim) kl_sum += r.r.sim_seconds;
      // Accumulate each run's counter diff into one before/after pair.
      before += r.before;
      after += r.after;
    }
  }
  const double runtime = runtime_s.mean();
  out.sim["insitu_runtime_s"] = {runtime, "s"};

  Metrics& L = out.layer;
  put_counter_diff(L, before, after);
  L["workloads.insitu_runtime_s"].value = runtime;
  L["workloads.insitu_analytics_s"].value = analytics_s.mean();
  L["workloads.attaches_performed"].value = static_cast<double>(attaches);
  L["pisces.boot_ms"].value = boot_s * 1e3;

  // Accuracy (informational, not gated). The repository records one
  // numeric Figure 8 reference: the paper's fastest bar (Kitten/Linux,
  // asynchronous), ~143.5 s, which calibrates the per-iteration work. This
  // workload runs the synchronous model, so part of the gap is the
  // sync/async difference itself.
  const double kl = kl_sum / kSeedsPerConfig;
  char line[200];
  std::snprintf(line, sizeof(line),
                "accuracy: Kitten/Linux runtime %.2f s vs paper Fig. 8 "
                "Kitten/Linux (async) ~143.5 s (relative error %+.1f%%)",
                kl, (kl - 143.5) / 143.5 * 100.0);
  out.report.push_back(line);
  out.digest = digest_of(out);
  return out;
}

}  // namespace perfbench
