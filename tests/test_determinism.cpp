// Same-seed determinism of the multi-partition workloads (DESIGN.md §12).
//
// A multi-node run orders its events by (time, partition, sequence) and
// draws from per-partition RNG streams, so two runs of the same seed must
// agree bit-for-bit on every recorded result. Single-partition workloads
// are covered by their own suites; these cases are the ones only the
// partitioned runners exercise: hierarchical collectives across four
// nodes, the burst-buffer I/O cache across three, and a faulty fabric with
// a mid-run rank kill, whose drained fabric counters and survivor set are
// part of the result.
#include <gtest/gtest.h>

#include "workloads/multinode.hpp"

namespace xemem {
namespace {

u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

u64 fold_fabric(const FabricStats& f) {
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

workloads::MultinodeParams small_coll(u32 nodes) {
  workloads::MultinodeParams p;
  p.nodes = nodes;
  p.ranks_per_node = 4;
  p.enclaves_per_node = 2;
  p.iters = 3;
  p.bytes = 8192;
  return p;
}

workloads::MultinodeParams small_io(u32 nodes) {
  workloads::MultinodeParams p;
  p.nodes = nodes;
  p.clients_per_node = 2;
  p.ops_per_rank = 32;
  p.epoch_ops = 16;
  p.capacity_blocks = 16;
  p.file_blocks = 32;
  return p;
}

void expect_same(const workloads::MultinodeResult& a,
                 const workloads::MultinodeResult& b) {
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.sim_ms, b.sim_ms);
  EXPECT_EQ(a.clean, b.clean);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.reresolves, b.reresolves);
  EXPECT_EQ(fold_fabric(a.fabric), fold_fabric(b.fabric))
      << "drained fabric counters are part of the determinism contract";
}

TEST(Determinism, CollectivesMultiNodeSameSeedTwice) {
  const auto a = workloads::run_multinode_collectives(small_coll(4));
  const auto b = workloads::run_multinode_collectives(small_coll(4));
  EXPECT_TRUE(a.clean);
  EXPECT_EQ(a.survivors, 4u);
  expect_same(a, b);
}

TEST(Determinism, IocacheMultiNodeSameSeedTwice) {
  const auto a = workloads::run_multinode_iocache(small_io(3));
  const auto b = workloads::run_multinode_iocache(small_io(3));
  EXPECT_TRUE(a.clean);
  EXPECT_EQ(a.survivors, 3u);
  expect_same(a, b);
}

TEST(Determinism, FaultyFabricKillSameSeedSameStats) {
  // The reliability layer's whole event vocabulary — drops, duplicate
  // deliveries, retransmit timers, probes, a mid-run rank kill with
  // failure detection and rebuild — must replay bit-identically.
  auto p = small_coll(3);
  p.fabric_faults.drop = 0.05;
  p.fabric_faults.dup = 0.05;
  p.fabric_fault_seed = 909;
  const auto probe = workloads::run_multinode_collectives(p);
  p.kill_rank = 2;
  p.kill_time_ns = static_cast<u64>(probe.sim_ms * 1e6 * 0.5);
  ASSERT_GT(p.kill_time_ns, 0u);

  const auto a = workloads::run_multinode_collectives(p);
  const auto b = workloads::run_multinode_collectives(p);
  EXPECT_EQ(a.survivors, 2u);
  EXPECT_GT(fold_fabric(a.fabric), 0u);
  expect_same(a, b);
}

}  // namespace
}  // namespace xemem
