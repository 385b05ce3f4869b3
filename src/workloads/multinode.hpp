// Multi-node workloads for the fabric-fault ablation and the multi-node
// determinism tests.
//
// Each simulated node is one engine partition (see DESIGN.md §12): it
// carries a complete per-node world — machine, enclaves, XEMEM kernels,
// and either a collectives job or a burst-buffer I/O cache cell — and
// couples to the other nodes only through the net::Communicator fabric,
// whose modeled latency is the partition lookahead.
//
// Both runners return a deterministic checksum folded from state each
// node records *before* its final fabric barrier. On a fault-free run
// every recording event executes before the root driver's completion;
// when fabric faults or a kill are configured the runner additionally
// drains the engine (run_until_idle) so the dead node's record — which
// has no causal edge to the root — executes too. Either way the checksum
// is bit-identical for a given seed, the property the determinism tests
// assert.
//
// Fault injection (DESIGN.md §13): `fabric_faults` perturbs every fabric
// link; `kill_rank`/`kill_time_ns` kills one node mid-run. The drivers
// then degrade instead of failing the job: survivors observe
// Errc::node_failed, re-form via Communicator::rebuild() — agreeing on
// the resume point through the rebuild's folded app word — and finish on
// the shrunken communicator. In the I/O cell the killed node also loses
// its primary cache server; its clients re-resolve through a name-service
// takeover server and drain the epoch before the node leaves the job.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/fabric_fault.hpp"

namespace xemem::workloads {

struct MultinodeParams {
  u32 nodes{4};     ///< engine partitions (one per simulated node)
  u64 seed{2026};

  // Collectives job: per node, `ranks_per_node` ranks over
  // `enclaves_per_node` enclaves run hierarchical intra-node allreduces;
  // rank 0 bridges nodes with a fabric allreduce + intra-node bcast each
  // iteration (the ROADMAP's hierarchical multi-node communicator shape).
  u32 ranks_per_node{4};
  u32 enclaves_per_node{2};
  int iters{4};
  u64 bytes{16384};

  // I/O cache cell: per node, one cache-server enclave plus
  // `clients_per_node` client enclaves replay the dl_training family;
  // all nodes synchronize on a fabric barrier every `epoch_ops`
  // operations (coordinated checkpoint epochs).
  u32 clients_per_node{2};
  u64 ops_per_rank{48};
  u64 epoch_ops{16};
  u64 capacity_blocks{24};
  u64 file_blocks{48};

  // Fabric failure model. `fabric_faults` applies to every directed
  // link; `kill_rank` (if < nodes) dies abruptly at `kill_time_ns` — in
  // the I/O cell its primary cache server crashes at the same instant.
  net::FabricFaultSpec fabric_faults;
  u64 fabric_fault_seed{606};
  u32 kill_rank{kNoKill};
  u64 kill_time_ns{0};

  static constexpr u32 kNoKill = 0xffffffffu;
  bool has_kill() const { return kill_rank != kNoKill; }
  bool has_fabric_failures() const {
    return has_kill() || fabric_faults.any();
  }
};

struct MultinodeResult {
  double sim_ms{0};    ///< virtual time at root completion
  u64 checksum{0};     ///< per-seed digest of recorded results
  bool clean{true};
  u32 survivors{0};    ///< fabric ranks still alive at the end of the run
  u64 reresolves{0};   ///< I/O cell: directory re-resolutions (takeover)
  /// Aggregated fabric counters, read after the drain of a fault/kill run
  /// (so straggling acks and retransmit timers have retired); zeroed for
  /// fault-free runs, which do not drain.
  FabricStats fabric;
};

MultinodeResult run_multinode_collectives(const MultinodeParams& p);
MultinodeResult run_multinode_iocache(const MultinodeParams& p);

}  // namespace xemem::workloads
