// Figure 6: Scalability of multi-OS/R shared memory.
//
// Paper setup (section 5.3): 1, 2, 4, or 8 Kitten co-kernel enclaves, each
// on one core with 1.5 GB of memory, each exporting regions of
// 128 MB - 1 GB. One Linux process per enclave attaches to that enclave's
// region in a 1:1 pattern, all concurrently.
//
// Paper result: throughput stays ~13 GB/s as enclaves scale, with a small
// dip from 1 to 2 enclaves (attributed to core-0 IPI serialization in the
// Pisces channel plus contention on shared Linux mm structures) and flat
// behaviour beyond 2 — i.e. no scalability bottleneck in the name server
// or routing protocol.
#include "bench_util.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

double run_config(u32 enclaves, u64 region_bytes, int reps) {
  sim::Engine eng(31337 + enclaves);
  Node node(hw::Machine::r420());
  // Management enclave: service core 0; attacher processes get their own
  // cores (socket-1 cores; enclave *memory* stays on socket 0, matching
  // the paper's single-NUMA memory discipline).
  auto& mgmt = node.add_linux_mgmt(
      "linux", 0, {0, 1, 2, 3, 12, 13, 14, 15, 16, 17, 18, 19});
  for (u32 i = 0; i < enclaves; ++i) {
    node.add_cokernel("k" + std::to_string(i), 0, {4 + i},
                      region_bytes + (64ull << 20));
  }

  RunningStats per_attacher_gbps;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();

    struct Pair {
      os::Process* exporter;
      os::Process* attacher;
      Segid segid;
    };
    std::vector<Pair> pairs(enclaves);
    for (u32 i = 0; i < enclaves; ++i) {
      auto& ck = node.enclave("k" + std::to_string(i));
      pairs[i].exporter = ck.create_process(region_bytes + kPageSize).value();
      pairs[i].attacher = node.enclave("linux")
                              .create_process(1ull << 20,
                                              &node.machine().core(12 + i))
                              .value();
      auto sid = co_await node.kernel("k" + std::to_string(i))
                     .xpmem_make(*pairs[i].exporter,
                                 pairs[i].exporter->image_base(), region_bytes);
      XEMEM_ASSERT(sid.ok());
      pairs[i].segid = sid.value();
    }

    // All attachers run concurrently (the contention is the experiment).
    sim::Barrier done(enclaves + 1);
    auto attacher_loop = [&](u32 i) -> sim::Task<void> {
      auto grant = co_await mgmt.xpmem_get(pairs[i].segid);
      XEMEM_ASSERT(grant.ok());
      u64 attach_ns = 0;  // the paper's metric: attachment throughput only
      for (int r = 0; r < reps; ++r) {
        const u64 t0 = sim::now();
        auto att = co_await mgmt.xpmem_attach(*pairs[i].attacher, grant.value(), 0,
                                              region_bytes);
        attach_ns += sim::now() - t0;
        XEMEM_ASSERT(att.ok());
        XEMEM_ASSERT(
            (co_await mgmt.xpmem_detach(*pairs[i].attacher, att.value())).ok());
      }
      per_attacher_gbps.add(gb_per_s(region_bytes * static_cast<u64>(reps), attach_ns));
      co_await done.arrive_and_wait();
    };
    for (u32 i = 0; i < enclaves; ++i) {
      sim::Engine::current()->spawn(attacher_loop(i));
    }
    co_await done.arrive_and_wait();
  };
  eng.run(main());
  return per_attacher_gbps.mean();
}

}  // namespace
}  // namespace xemem

int main() {
  using namespace xemem;
  const bench::WallClock wall_clock;
  const int reps = bench::runs_override(5);
  bench::header(
      "Figure 6: Cross-enclave throughput vs number of co-kernel enclaves",
      "~13 GB/s per attacher for all sizes; slight dip from 1 to 2 enclaves "
      "(core-0 IPI + Linux mm contention), flat beyond 2");

  const u64 sizes[] = {128ull << 20, 256ull << 20, 512ull << 20, 1024ull << 20};
  const u32 counts[] = {1, 2, 4, 8};

  std::printf("%-10s %10s %10s %10s %10s   (GB/s per attacher)\n", "enclaves",
              "128MB", "256MB", "512MB", "1GB");
  double grid[4][4];
  for (int e = 0; e < 4; ++e) {
    std::printf("%-10u", counts[e]);
    for (int s = 0; s < 4; ++s) {
      grid[e][s] = run_config(counts[e], sizes[s], reps);
      std::printf(" %10.2f", grid[e][s]);
    }
    std::printf("\n");
  }

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  // Attach throughput in the paper's band for every cell.
  bool in_band = true;
  for (auto& row : grid) {
    for (double v : row) in_band = in_band && v > 10.0 && v < 15.0;
  }
  checks.expect(in_band, "every configuration stays in the 10-15 GB/s band");
  checks.expect(grid[1][3] < grid[0][3],
                "1 -> 2 enclaves shows the contention dip (1 GB column)");
  const double dip = (grid[0][3] - grid[1][3]) / grid[0][3];
  checks.expect(dip > 0.01 && dip < 0.20, "the dip is modest (1-20%)");
  checks.expect(grid[3][3] > 0.95 * grid[1][3],
                "no further degradation from 2 to 8 enclaves (scalable)");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
