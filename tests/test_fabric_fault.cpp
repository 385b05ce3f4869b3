// Fabric fault injection, reliable delivery, failure detection and
// survivable collectives (DESIGN.md §13).
#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "net/fabric.hpp"
#include "workloads/multinode.hpp"
#include "xemem/fault.hpp"
#include "xemem/system.hpp"

namespace xemem::net {
namespace {

u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

u64 fold(const FabricStats& f) {
  u64 h = 0;
  h = mix(h, f.fabric_drops);
  h = mix(h, f.fabric_dups);
  h = mix(h, f.fabric_delayed);
  h = mix(h, f.fabric_retransmits);
  h = mix(h, f.fabric_dedup);
  h = mix(h, f.fabric_stale);
  h = mix(h, f.fabric_probes);
  h = mix(h, f.fabric_acks);
  h = mix(h, f.fabric_node_failures);
  h = mix(h, f.collectives_failed);
  h = mix(h, f.rebuilds);
  return h;
}

// ---------------------------------------------------------- spec validation

TEST(FabricFaultDeath, RejectsOutOfRangeProbabilities) {
  FabricFaultSpec bad_drop;
  bad_drop.drop = 1.5;
  EXPECT_DEATH(bad_drop.validate(), "drop must be in");
  FabricFaultSpec bad_dup;
  bad_dup.dup = -0.2;
  EXPECT_DEATH(bad_dup.validate(), "dup must be in");
  FabricFaultSpec inverted;
  inverted.delay_min = 10_us;
  inverted.delay_max = 5_us;
  EXPECT_DEATH(inverted.validate(), "delay window is inverted");
}

TEST(FabricFaultDeath, CommunicatorRejectsInvalidLinkSpec) {
  Communicator comm(2);
  FabricFaultSpec bad;
  bad.delay = 2.0;
  EXPECT_DEATH(comm.set_fabric_faults(bad, 1), "delay must be in");
}

TEST(FabricFaultDeath, ChannelFaultSpecValidatedAtConstruction) {
  // The intra-node channel decorator enforces the same contract.
  xemem::FaultSpec bad;
  bad.drop = -1.0;
  EXPECT_DEATH(bad.validate(), "drop must be in");
  xemem::FaultSpec inverted;
  inverted.delay_min = 10_us;
  inverted.delay_max = 5_us;
  EXPECT_DEATH(inverted.validate(), "delay window is inverted");
}

// ------------------------------------------------------- reliable transport

/// Drive `iters` explicit-rank allreduces on every rank of `comm`, all of
/// which must succeed; returns the per-rank completion counts.
std::vector<int> drive_ok(sim::Engine& eng, Communicator& comm, int iters,
                          u64 bytes) {
  std::vector<int> completed(comm.ranks(), 0);
  auto rank = [&](u32 r) -> sim::Task<void> {
    for (int it = 0; it < iters; ++it) {
      EXPECT_TRUE((co_await comm.allreduce(bytes, r)).ok());
      ++completed[r];
    }
  };
  for (u32 r = 0; r < comm.ranks(); ++r) eng.spawn(rank(r));
  eng.run_until_idle();
  return completed;
}

TEST(FabricFault, LossyLinksStillDeliverEveryCollective) {
  sim::Engine eng;
  Communicator comm(2);
  comm.set_fabric_faults(FabricFaultSpec::loss(0.25), /*seed=*/11);
  const auto completed = drive_ok(eng, comm, 12, 4096);
  for (int c : completed) EXPECT_EQ(c, 12);
  const FabricStats s = comm.stats();
  EXPECT_GT(s.fabric_drops, 0u) << "a 25% loss rate must fire";
  EXPECT_GT(s.fabric_retransmits, 0u) << "drops must trigger retransmits";
  EXPECT_EQ(s.fabric_node_failures, 0u) << "no false-positive deaths";
  EXPECT_EQ(s.collectives_failed, 0u);
  comm.finish_run();  // everything acked, consumed, resumed
}

TEST(FabricFault, DuplicatesAreSuppressedBySequenceDedup) {
  sim::Engine eng;
  Communicator comm(3);
  FabricFaultSpec spec;
  spec.dup = 0.5;
  spec.delay = 0.3;  // reordering stresses the dedup window too
  comm.set_fabric_faults(spec, /*seed=*/12);
  const auto completed = drive_ok(eng, comm, 10, 1024);
  for (int c : completed) EXPECT_EQ(c, 10);
  const FabricStats s = comm.stats();
  EXPECT_GT(s.fabric_dups, 0u);
  EXPECT_GT(s.fabric_delayed, 0u);
  EXPECT_GT(s.fabric_dedup, 0u) << "injected duplicates must be suppressed";
  EXPECT_EQ(s.fabric_node_failures, 0u);
  comm.finish_run();
}

TEST(FabricFault, FaultScheduleIsDeterministicPerSeed) {
  // A deliberately hostile mix — loss, duplication, and hold-back windows
  // exceeding the retransmit deadline — so the run exercises every
  // protocol edge including (possibly) false-positive deaths and
  // rebuilds. The drivers are failure-resilient: the property under test
  // is bit-identical outcomes per seed, not success.
  auto run = [](u64 seed) {
    sim::Engine eng;
    Communicator comm(3);
    FabricFaultSpec spec = FabricFaultSpec::loss(0.15);
    spec.dup = 0.1;
    spec.delay = 0.1;
    comm.set_fabric_faults(spec, seed);
    u64 digest = 0;
    auto rank = [&](u32 r) -> sim::Task<void> {
      u64 it = 0;
      while (it < 8 && comm.alive(r)) {
        const auto st = co_await comm.allreduce(2048, r);
        if (st.ok()) {
          ++it;
          continue;
        }
        if (!comm.alive(r)) break;
        const auto rb = co_await comm.rebuild(r, it);
        if (!rb.ok()) break;
        it = rb.value().app_word;
      }
      digest = mix(digest, (static_cast<u64>(r) << 32) | it);
      digest = mix(digest, sim::now());
    };
    for (u32 r = 0; r < 3; ++r) eng.spawn(rank(r));
    eng.run_until_idle();
    for (u32 r = 0; r < 3; ++r) digest = mix(digest, comm.alive(r) ? 1 : 0);
    return std::make_pair(digest, fold(comm.stats()));
  };
  EXPECT_EQ(run(77), run(77)) << "same seed, same schedule, same outcome";
  EXPECT_NE(run(77).second, run(78).second)
      << "different seeds must draw different fault schedules";
}

TEST(FabricFault, FaultFreeTimingUnchangedByReliabilityLayer) {
  // The acks/timers the reliable layer adds must never gate the data
  // path: a fault-free 4-rank allreduce still completes at exactly
  // rounds * (latency + bytes/bw) past the slowest entry.
  sim::Engine eng;
  Communicator comm(4);
  std::vector<u64> release;
  auto rank = [&](u32 r, sim::Duration arrive) -> sim::Task<void> {
    co_await sim::delay(arrive);
    EXPECT_TRUE((co_await comm.allreduce(16, r)).ok());
    release.push_back(sim::now());
  };
  eng.spawn(rank(0, 1_ms));
  eng.spawn(rank(1, 2_ms));
  eng.spawn(rank(2, 3_ms));
  eng.spawn(rank(3, 9_ms));  // straggler
  eng.run_until_idle();
  ASSERT_EQ(release.size(), 4u);
  for (u64 t : release) {
    EXPECT_GE(t, 9_ms);
    EXPECT_LT(t, 9_ms + 100_us);
  }
  EXPECT_EQ(comm.stats().fabric_retransmits, 0u);
  EXPECT_EQ(comm.stats().fabric_drops, 0u);
}

// ------------------------------------------- failure detection and rebuild

TEST(FabricFault, KillMidCollectiveFailsFastAndSurvivorsRebuild) {
  sim::Engine eng;
  Communicator comm(3);
  constexpr u64 kIters = 6;
  int failures_seen = 0;
  int rebuilds_done = 0;
  int completed = 0;
  auto rank = [&](u32 r) -> sim::Task<void> {
    u64 it = 0;
    while (it < kIters) {
      const auto st = co_await comm.allreduce(4096, r);
      if (st.ok()) {
        ++it;
        continue;
      }
      EXPECT_EQ(st.error(), Errc::node_failed);
      if (!comm.alive(r)) co_return;  // we are the victim
      ++failures_seen;
      const auto rb = co_await comm.rebuild(r, it);
      EXPECT_TRUE(rb.ok());
      if (!rb.ok()) co_return;
      EXPECT_EQ(rb.value().size, 2u);
      it = rb.value().app_word;  // survivors agree where to resume
      ++rebuilds_done;
    }
    ++completed;
  };
  for (u32 r = 0; r < 3; ++r) eng.spawn(rank(r));
  auto killer = [&]() -> sim::Task<void> {
    co_await sim::delay(15_us);  // mid-run: several iterations in flight
    comm.kill_rank(2);
  };
  eng.spawn(killer());
  eng.run_until_idle();  // termination here IS the no-hang assertion
  EXPECT_EQ(completed, 2) << "both survivors must finish all iterations";
  EXPECT_GE(failures_seen, 1);
  EXPECT_EQ(rebuilds_done, 2) << "each survivor commits exactly one rebuild";
  EXPECT_TRUE(comm.alive(0));
  EXPECT_TRUE(comm.alive(1));
  EXPECT_FALSE(comm.alive(2));
  const FabricStats s = comm.stats();
  EXPECT_GE(s.fabric_node_failures, 2u) << "every survivor learns the death";
  EXPECT_GE(s.collectives_failed, 1u);
  EXPECT_EQ(s.rebuilds, 2u);
  ASSERT_EQ(comm.members(0).size(), 2u);
  EXPECT_EQ(comm.members(0), comm.members(1));
  comm.finish_run();
}

TEST(FabricFault, RebuildFoldsMaxAppWordAcrossSurvivors) {
  // One survivor completed iteration it=5 before the failure, the other
  // only it=3: the committed app word is the max, so both resume at 5.
  sim::Engine eng;
  Communicator comm(3);
  std::vector<u64> agreed;
  auto survivor = [&](u32 r, u64 word) -> sim::Task<void> {
    const auto st = co_await comm.barrier(r);
    EXPECT_FALSE(st.ok());
    const auto rb = co_await comm.rebuild(r, word);
    EXPECT_TRUE(rb.ok());
    if (!rb.ok()) co_return;
    agreed.push_back(rb.value().app_word);
    EXPECT_EQ(rb.value().size, 2u);
  };
  eng.spawn(survivor(0, 5));
  eng.spawn(survivor(1, 3));
  auto killer = [&]() -> sim::Task<void> {
    co_await sim::delay(1_us);
    comm.kill_rank(2);
  };
  eng.spawn(killer());
  eng.run_until_idle();
  ASSERT_EQ(agreed.size(), 2u);
  EXPECT_EQ(agreed[0], 5u);
  EXPECT_EQ(agreed[1], 5u);
  comm.finish_run();
}

TEST(FabricFault, DeadPeerDetectedUnderLossToo) {
  // Loss plus a kill: the reliable layer must still converge on the death
  // (no retransmit storm misread, no hang) and the survivors complete.
  sim::Engine eng;
  Communicator comm(4);
  FabricFaultSpec spec = FabricFaultSpec::loss(0.10);
  comm.set_fabric_faults(spec, /*seed=*/21);
  constexpr u64 kIters = 5;
  int completed = 0;
  auto rank = [&](u32 r) -> sim::Task<void> {
    u64 it = 0;
    while (it < kIters) {
      const auto st = co_await comm.allreduce(2048, r);
      if (st.ok()) {
        ++it;
        continue;
      }
      if (!comm.alive(r)) co_return;
      const auto rb = co_await comm.rebuild(r, it);
      if (!rb.ok()) co_return;
      it = rb.value().app_word;
    }
    ++completed;
  };
  for (u32 r = 0; r < 4; ++r) eng.spawn(rank(r));
  auto killer = [&]() -> sim::Task<void> {
    co_await sim::delay(20_us);
    comm.kill_rank(1);
  };
  eng.spawn(killer());
  eng.run_until_idle();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(comm.stats().rebuilds, 3u);
  comm.finish_run();
}

// --------------------------------------------------- end-of-run hygiene

TEST(FabricFault, CommunicatorReusableAcrossEngineRuns) {
  // Regression for the stale-state-across-runs bug class (PR 9): the
  // implicit-rank call counter and per-slot wait state must not leak from
  // one engine run into the next. Identical traffic in a fresh engine
  // must land on the identical virtual timeline.
  Communicator comm(3);
  auto once = [&]() {
    sim::Engine eng;
    int completed = 0;
    auto rank = [&]() -> sim::Task<void> {
      for (int it = 0; it < 4; ++it) {
        EXPECT_TRUE((co_await comm.allreduce(512)).ok());
      }
      ++completed;
    };
    for (int r = 0; r < 3; ++r) eng.spawn(rank());
    eng.run_until_idle();
    EXPECT_EQ(completed, 3);
    comm.finish_run();
    return eng.now();
  };
  const u64 first = once();
  const u64 second = once();
  EXPECT_EQ(first, second)
      << "a reused Communicator must behave like a fresh one";
}

TEST(FabricFaultDeath, FinishRunFlagsLeakedWaiter) {
  // One rank enters a barrier no peer ever joins: the probe budget runs
  // out (bounding the event chain so run_until_idle terminates) and
  // finish_run must abort on the suspended waiter.
  sim::Engine eng;
  Communicator comm(2);
  auto lonely = [&]() -> sim::Task<void> {
    (void)co_await comm.barrier(0);
  };
  eng.spawn(lonely());
  eng.run_until_idle();
  EXPECT_DEATH(comm.finish_run(), "suspended waiters");
}

// ------------------------------------------------------- stats attribution

TEST(FabricFault, NoDoubleCountAgainstKernelStats) {
  // Fabric reliability counters live only in FabricStats: a lossy fabric
  // next to a node must not perturb the node kernels' own retry/timeout
  // counters (those count intra-node channel traffic).
  auto run = [](double loss) {
    sim::Engine eng;
    Node node(hw::Machine::r420());
    node.add_linux_mgmt("linux", 0, {0, 1});
    auto& ck = node.add_cokernel("ck", 0, {2, 3}, 256_MiB);
    Communicator comm(2);
    if (loss > 0) comm.set_fabric_faults(FabricFaultSpec::loss(loss), 31);
    u64 kernel_digest = 0;
    auto fab_rank = [&](u32 r, sim::Event& done) -> sim::Task<void> {
      for (int it = 0; it < 8; ++it) {
        EXPECT_TRUE((co_await comm.allreduce(4096, r)).ok());
      }
      done.set();
    };
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      // Intra-node traffic...
      os::Process* owner =
          node.enclave("ck").create_process(8_MiB).value();
      os::Process* user =
          node.enclave("linux").create_process(1_MiB).value();
      auto sid = co_await ck.xpmem_make(*owner, owner->image_base(), 1_MiB);
      EXPECT_TRUE(sid.ok());
      if (!sid.ok()) co_return;
      for (int i = 0; i < 4; ++i) {
        auto g = co_await node.kernel("linux").xpmem_get(sid.value());
        EXPECT_TRUE(g.ok());
        if (!g.ok()) co_return;
        auto att = co_await node.kernel("linux").xpmem_attach(
            *user, g.value(), 0, 1_MiB);
        EXPECT_TRUE(att.ok());
        if (!att.ok()) co_return;
        EXPECT_TRUE(
            (co_await node.kernel("linux").xpmem_detach(*user, att.value()))
                .ok());
        EXPECT_TRUE(
            (co_await node.kernel("linux").xpmem_release(g.value())).ok());
      }
      // ...then fabric collectives over the lossy links.
      sim::Event d0, d1;
      sim::Engine::current()->spawn(fab_rank(0, d0));
      sim::Engine::current()->spawn(fab_rank(1, d1));
      co_await d0.wait();
      co_await d1.wait();
      // Snapshot the kernels' transport counters before teardown noise.
      for (const char* k : {"linux", "ck"}) {
        const auto& s = node.kernel(k).stats();
        kernel_digest = mix(kernel_digest, s.retries);
        kernel_digest = mix(kernel_digest, s.timeouts);
        kernel_digest = mix(kernel_digest, s.dup_suppressed);
        kernel_digest = mix(kernel_digest, s.messages_forwarded);
        kernel_digest = mix(kernel_digest, s.attaches_served);
      }
    };
    eng.run(main());
    return std::make_pair(kernel_digest, comm.stats());
  };
  const auto [clean_kernels, clean_fabric] = run(0.0);
  const auto [lossy_kernels, lossy_fabric] = run(0.15);
  EXPECT_GT(lossy_fabric.fabric_drops, 0u);
  EXPECT_GT(lossy_fabric.fabric_retransmits, 0u);
  EXPECT_EQ(clean_fabric.fabric_retransmits, 0u);
  EXPECT_EQ(clean_kernels, lossy_kernels)
      << "fabric retransmits must never bleed into kernel retry counters";
}

// ------------------------------------------------------- multinode kill

TEST(FabricFault, MultinodeKillLeavesSurvivorsRebuilt) {
  workloads::MultinodeParams p;
  p.nodes = 3;
  p.ranks_per_node = 2;
  p.enclaves_per_node = 2;
  p.iters = 4;
  p.bytes = 8192;
  // Measure the healthy run, then kill the last rank mid-flight.
  const auto base = workloads::run_multinode_collectives(p);
  ASSERT_TRUE(base.clean);
  p.kill_rank = 2;
  p.kill_time_ns = static_cast<u64>(base.sim_ms * 1e6 * 0.5);
  ASSERT_GT(p.kill_time_ns, 0u);

  const auto a = workloads::run_multinode_collectives(p);

  EXPECT_EQ(a.survivors, 2u);
  EXPECT_GE(a.fabric.rebuilds, 2u);
  EXPECT_TRUE(a.clean);
}

TEST(FabricFault, MultinodeIocacheKillTakesOverNameService) {
  workloads::MultinodeParams p;
  p.nodes = 3;
  p.clients_per_node = 2;
  p.ops_per_rank = 48;
  p.epoch_ops = 16;
  p.capacity_blocks = 16;
  p.file_blocks = 32;
  const auto base = workloads::run_multinode_iocache(p);
  ASSERT_TRUE(base.clean);
  EXPECT_EQ(base.survivors, 3u);
  EXPECT_EQ(base.reresolves, 0u);

  p.kill_rank = 1;
  p.kill_time_ns = static_cast<u64>(base.sim_ms * 1e6 * 0.4);
  const auto r = workloads::run_multinode_iocache(p);
  EXPECT_EQ(r.survivors, 2u);
  EXPECT_TRUE(r.clean) << "degraded, not broken: survivors and the victim's "
                          "takeover path must both stay clean";
  EXPECT_GT(r.reresolves, 0u)
      << "clients on the killed node must re-resolve to the standby server";
  EXPECT_GE(r.fabric.fabric_node_failures, 2u);
  EXPECT_GE(r.fabric.rebuilds, 2u);
}

}  // namespace
}  // namespace xemem::net
