// Figure 8: Single-node in-situ benchmark across enclave configurations.
//
// Paper setup (section 6): HPCCG (600 CG iterations, signaling every 40 —
// 15 communication points) composed with STREAM over a 512 MB region on
// the 4-core/8-thread OptiPlex. Four enclave configurations (Table 3):
//
//   Linux/Linux                 — both components in the native Linux enclave
//   Kitten/Linux                — simulation in a Kitten co-kernel
//   Kitten/Linux VM (Linux host)  — analytics in a Palacios VM on Linux
//   Kitten/Linux VM (Kitten host) — analytics in a Palacios VM on Kitten
//
// crossed with synchronous/asynchronous execution (Figure 8 a+b columns)
// and one-time/recurring attachment models (Figure 8(a) vs 8(b)). Each bar
// is mean +/- stddev of 10 runs.
//
// Paper shape: async < sync everywhere; Kitten/Linux best overall; under
// sync, analytics overheads (virtualization, host noise) surface directly;
// recurring + sync is the worst case for the VM configs (rb-tree inserts)
// and also hurts Linux-only badly (fault semantics) with large variance;
// multi-enclave configurations are consistently low-variance.
#include "bench_util.hpp"
#include "workloads/insitu.hpp"

namespace xemem {
namespace {

enum class Config { linux_linux, kitten_linux, kitten_vm_on_linux, kitten_vm_on_kitten };

const char* config_name(Config c) {
  switch (c) {
    case Config::linux_linux: return "Linux/Linux";
    case Config::kitten_linux: return "Kitten/Linux";
    case Config::kitten_vm_on_linux: return "Kitten/Linux VM (Linux host)";
    case Config::kitten_vm_on_kitten: return "Kitten/Linux VM (Kitten host)";
  }
  return "?";
}

workloads::InsituConfig base_config(bool async, bool recurring) {
  workloads::InsituConfig cfg;
  cfg.iterations = 600;
  cfg.signal_every = 40;  // 15 communication points
  cfg.region_bytes = 512ull << 20;
  cfg.async = async;
  cfg.recurring = recurring;
  // Per-iteration simulation work, calibrated so 600 iterations of the
  // undisturbed simulation take ~143.5 s (the paper's fastest async bar):
  // 162 ms CPU + 1 GiB of memory traffic at the 14 GB/s socket (~76.7 ms).
  cfg.sim_compute_ns = 162'000'000;
  cfg.sim_mem_bytes = 1ull << 30;
  cfg.stream_passes = 1;  // analytics: copy-in (2x) + one STREAM pass (10x)
  cfg.grid = 12;
  cfg.stream_elems = 1 << 16;
  cfg.poll_interval = 2'000'000;  // 2 ms (iterations are ~240 ms)
  return cfg;
}

double one_run(Config config, const workloads::InsituConfig& cfg, u64 seed,
               double* residual) {
  sim::Engine eng(seed);
  Node node(hw::Machine::optiplex());
  std::string sim_name, an_name;
  switch (config) {
    case Config::linux_linux:
      node.add_linux_mgmt("linux", 0, {0, 1, 2, 3, 4, 5, 6, 7});
      sim_name = "linux";
      an_name = "linux";
      break;
    case Config::kitten_linux:
      node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768ull << 20);
      sim_name = "sim";
      an_name = "linux";
      break;
    case Config::kitten_vm_on_linux:
      node.add_linux_mgmt("linux", 0, {0, 1});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768ull << 20);
      node.add_vm("vm", "linux", 256ull << 20, {2, 3});
      sim_name = "sim";
      an_name = "vm";
      break;
    case Config::kitten_vm_on_kitten:
      node.add_linux_mgmt("linux", 0, {0, 1});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768ull << 20);
      node.add_cokernel("vmhost", 0, {2, 3}, 384ull << 20);
      node.add_vm("vm", "vmhost", 256ull << 20, {3});
      sim_name = "sim";
      an_name = "vm";
      break;
  }

  double out = 0;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    Rng noise_rng(seed * 977 + 13);
    node.spawn_std_noise(eng, noise_rng);
    auto r = co_await workloads::run_insitu(node, sim_name, an_name, cfg);
    out = r.sim_seconds;
    if (residual) *residual = r.residual;
  };
  eng.run(main());
  return out;
}

struct Cell {
  double mean;
  double stddev;
};

Cell run_cell(Config config, bool async, bool recurring, int runs) {
  RunningStats stats;
  double residual = 1.0;
  for (int r = 0; r < runs; ++r) {
    stats.add(one_run(config, base_config(async, recurring),
                      1000 + static_cast<u64>(r) * 7919 +
                          static_cast<u64>(config) * 131,
                      &residual));
  }
  XEMEM_ASSERT_MSG(residual < 1e-8, "CG failed to converge");
  return Cell{stats.mean(), stats.stddev()};
}

}  // namespace
}  // namespace xemem

int main() {
  using namespace xemem;
  const bench::WallClock wall_clock;
  const int runs = bench::runs_override(10);
  bench::header(
      "Figure 8: Single-node in-situ benchmark (HPCCG + STREAM, 512 MB region)",
      "async < sync in every configuration; Kitten/Linux best; multi-enclave "
      "bars are consistent while Linux-only shows wide error bars, worst "
      "under the recurring+synchronous model (fault semantics / rb-trees)");

  const Config configs[] = {Config::linux_linux, Config::kitten_linux,
                            Config::kitten_vm_on_linux, Config::kitten_vm_on_kitten};

  Cell table[2][2][4];  // [recurring][async][config]
  for (int rec = 0; rec < 2; ++rec) {
    std::printf("--- Figure 8(%c): %s shared memory attachment model ---\n",
                rec == 0 ? 'a' : 'b', rec == 0 ? "one-time" : "recurring");
    std::printf("%-32s %12s %10s %12s %10s\n", "config", "sync_mean_s", "sync_sd",
                "async_mean_s", "async_sd");
    for (int c = 0; c < 4; ++c) {
      table[rec][0][c] = run_cell(configs[c], /*async=*/false, rec == 1, runs);
      table[rec][1][c] = run_cell(configs[c], /*async=*/true, rec == 1, runs);
      std::printf("%-32s %12.2f %10.2f %12.2f %10.2f\n", config_name(configs[c]),
                  table[rec][0][c].mean, table[rec][0][c].stddev,
                  table[rec][1][c].mean, table[rec][1][c].stddev);
    }
    std::printf("\n");
  }

  std::printf("shape checks:\n");
  bench::ShapeChecks checks;
  bool async_faster = true;
  for (int rec = 0; rec < 2; ++rec) {
    for (int c = 0; c < 4; ++c) {
      async_faster = async_faster && table[rec][1][c].mean < table[rec][0][c].mean;
    }
  }
  checks.expect(async_faster, "asynchronous beats synchronous in every cell");

  // "Best" within half a standard deviation: in the async columns the
  // multi-enclave configurations are statistically tied (as in the paper's
  // plot, where those bars are nearly equal).
  bool kl_best = true;
  for (int rec = 0; rec < 2; ++rec) {
    for (int mode = 0; mode < 2; ++mode) {
      for (int c = 0; c < 4; ++c) {
        kl_best = kl_best && table[rec][mode][1].mean <= table[rec][mode][c].mean + 0.3;
      }
    }
  }
  checks.expect(kl_best, "Kitten/Linux outperforms (or ties) every configuration");

  // Isolation claim: the Kitten-hosted configurations (Kitten/Linux and
  // VM-on-Kitten) are far more consistent than Linux-only. (VM-on-Linux
  // legitimately inherits some host-Linux variance under sync, visible in
  // the paper's Figure 8(b) bars as well.)
  const double linux_sd = std::max(table[0][0][0].stddev, table[1][0][0].stddev);
  double isolated_sd = 0;
  for (int c : {1, 3}) {
    isolated_sd = std::max(isolated_sd,
                           std::max(table[0][0][c].stddev, table[1][0][c].stddev));
  }
  checks.expect(linux_sd > 1.5 * isolated_sd,
                "isolated (Kitten-hosted) runs are more consistent than Linux-only");

  checks.expect(table[1][0][0].mean > table[0][0][0].mean + 0.5,
                "recurring+sync visibly hurts Linux-only (fault semantics)");
  checks.expect(table[1][0][2].mean > table[0][0][2].mean + 0.5,
                "recurring+sync visibly hurts the VM-on-Linux config (rb-tree)");
  const double async_gap =
      std::abs(table[1][1][0].mean - table[0][1][0].mean) / table[0][1][0].mean;
  checks.expect(async_gap < 0.02,
                "asynchronous execution largely hides recurring overheads");
  checks.expect(table[0][0][2].mean >= table[0][0][1].mean,
                "sync: virtualized analytics is no faster than native analytics");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
