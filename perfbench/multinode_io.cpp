// multinode_io: four nodes, each an engine partition, coupled only by the
// fabric. On every node a cache-server enclave serves two burst-buffer
// caches to client ranks in two client enclaves:
//
//  * dl — the dl_training family: shuffled re-reads of a hot set that fits
//         in the cache;
//  * ck — the checkpoint family: write-heavy per-rank stripes over a file
//         larger than the cache, which forces evictions and writebacks.
//
// Every epoch all ranks join a hierarchical allreduce: an intra-node
// collectives::Comm allreduce, a fabric net::Communicator allreduce
// between the nodes' rank 0s, then an intra-node bcast of the result. The
// benchmark composes this itself from public APIs (as
// src/workloads/multinode.cpp does) so that each iocache, collectives and
// net call can be timed. Caches start empty: a job pays its cold start.
#include <memory>
#include <string>
#include <vector>

#include "collectives/comm.hpp"
#include "common/units.hpp"
#include "harness.hpp"
#include "iocache/cache.hpp"
#include "iocache/replay.hpp"
#include "net/fabric.hpp"
#include "xemem/system.hpp"

namespace perfbench {
namespace {

constexpr u32 kNodes = 4;
constexpr u32 kClientEnclaves = 2;
constexpr u32 kRanks = 4;  ///< per node, two per client enclave
constexpr u64 kEpochs = 6;
constexpr u64 kDlOpsPerEpoch = 12;  ///< per rank
constexpr u64 kCkOpsPerEpoch = 8;   ///< per rank
constexpr u64 kAllreduceBytes = 16_KiB;
/// Two ranks per client enclave, each with a dl and a ck client of one shard.
constexpr u64 kRingExportsPerClientEnclave = 2 * 2;

iocache::Config cache_config(const char* prefix, u64 file_blocks,
                             u64 capacity_blocks) {
  iocache::Config io;
  io.name_prefix = prefix;
  io.block_bytes = 16_KiB;
  io.file_blocks = file_blocks;
  io.capacity_blocks = capacity_blocks;
  io.num_clients = kRanks;
  io.block_lease = 200_us;
  return io;
}
/// dl: a 32-block hot set (hot_fraction 0.5 of 64) in a 48-block cache.
iocache::Config dl_config() { return cache_config("dl", 64, 48); }
/// ck: 24-block stripes per rank over 96 blocks, 24 blocks of cache.
iocache::Config ck_config() { return cache_config("ck", 96, 24); }

std::string client_enclave(u32 rank) {
  return "c" + std::to_string(rank * kClientEnclaves / kRanks);
}

/// The iocache and collectives counters one node's per-layer metrics diff.
struct IoCollTotals {
  u64 evictions{0}, writebacks{0}, store_reads{0}, store_writes{0};
  u64 allreduce_ops{0}, bcast_ops{0}, polls{0}, bytes_moved{0};

  void add_diff(const IoCollTotals& after, const IoCollTotals& before) {
    evictions += after.evictions - before.evictions;
    writebacks += after.writebacks - before.writebacks;
    store_reads += after.store_reads - before.store_reads;
    store_writes += after.store_writes - before.store_writes;
    allreduce_ops += after.allreduce_ops - before.allreduce_ops;
    bcast_ops += after.bcast_ops - before.bcast_ops;
    polls += after.polls - before.polls;
    bytes_moved += after.bytes_moved - before.bytes_moved;
  }
};

struct NodeState {
  std::unique_ptr<Node> node;
  std::unique_ptr<iocache::BackingStore> dl_store, ck_store;
  std::vector<u64> ck_expect;  ///< latest stamp written per ck block
  IoCollTotals io_before, io_after;
  FabricStats fabric0;
  Counters before, after;
};

struct Ctx {
  u64 seed{0};
  Tracer* tr{nullptr};
  Ledger* led{nullptr};
  net::Communicator* fabric{nullptr};
  NodeState nodes[kNodes];

  double h_start{0}, h_end{0};
  u64 t_start{~u64{0}}, t_end{0};
  u64 events_start{0}, events_end{0};
  bool started{false};
  u32 finished{0};

  Samples io_us, read_hit_us, read_miss_us, write_us;
  u64 reads{0}, read_hits{0};
  Samples epoch_coll_us, comm_allreduce_us, net_allreduce_us;
};

const char* kEnclaveNames[] = {"linux", "srv", "c0", "c1"};

void snapshot(Node& node, Counters& c) {
  for (const char* n : kEnclaveNames) c.add_kernel(node.kernel(n));
  c.add_machine(node.machine());
}

/// Run @p body for every rank concurrently and wait for all of them.
template <typename F>
sim::Task<void> fanout(F body) {
  u32 pending = kRanks;
  sim::Event done;
  auto wrap = [&](u32 r) -> sim::Task<void> {
    co_await body(r);
    if (--pending == 0) done.set();
  };
  for (u32 r = 0; r < kRanks; ++r) sim::Engine::current()->spawn(wrap(r));
  co_await done.wait();
}

struct Rank {
  std::unique_ptr<iocache::CacheClient> dl, ck;
  std::unique_ptr<coll::Comm> comm;
  std::vector<iocache::ReplayOp> dl_trace, ck_trace;
  /// Per epoch, the seeded interleaving of dl (false) and ck (true) ops.
  std::vector<bool> order;
  u64 next_stamp{0};
};

sim::Task<void> io_op(Ctx& cx, NodeState& ns, Rank& rk, u32 n, u32 r,
                      bool ck, const iocache::ReplayOp& op, u64 parent,
                      u64 op_id) {
  iocache::CacheClient& cl = ck ? *rk.ck : *rk.dl;
  const u32 track = n * kRanks + r;
  bool cold = false;
  if (op.is_write) {
    const u64 stamp = mix(rk.next_stamp++, cx.seed);
    Call c(*cx.tr, ck ? "ck.write" : "dl.write", "iocache", parent, track, op_id);
    const bool ok = (co_await cl.write(op.block, stamp, &cold)).ok();
    const double us = static_cast<double>(c.done()) / 1e3;
    if (cx.led->call(ok, "CacheClient::write")) {
      cx.io_us.add(us);
      cx.write_us.add(us);
      if (ck) ns.ck_expect[op.block] = stamp;
    }
    co_return;
  }
  Call c(*cx.tr, ck ? "ck.read" : "dl.read", "iocache", parent, track, op_id);
  auto v = co_await cl.read(op.block, &cold);
  const double us = static_cast<double>(c.done()) / 1e3;
  if (!cx.led->call(v.ok(), "CacheClient::read")) co_return;
  cx.io_us.add(us);
  ++cx.reads;
  if (cold) {
    cx.read_miss_us.add(us);
  } else {
    ++cx.read_hits;
    cx.read_hit_us.add(us);
  }
  const u64 want = ck ? ns.ck_expect[op.block] : ns.dl_store->stamp(op.block);
  cx.led->expect(v.value() == want,
                 "node " + std::to_string(n) + ": CacheClient::read of block " +
                     std::to_string(op.block) +
                     " returned a stamp other than the last one written");
}

sim::Task<void> node_driver(Ctx& cx, u32 n) {
  NodeState& ns = cx.nodes[n];
  Node& node = *ns.node;
  Tracer& tr = *cx.tr;
  Ledger& led = *cx.led;
  {
    Call s(tr, "node.start", "xemem", 0, n * kRanks, 0);
    co_await node.start();
    s.done();
  }

  const iocache::Config dlc = dl_config(), ckc = ck_config();
  iocache::CacheServer dl_srv(node.kernel("srv"), node.enclave("srv"), 0, dlc,
                              *ns.dl_store);
  iocache::CacheServer ck_srv(node.kernel("srv"), node.enclave("srv"), 0, ckc,
                              *ns.ck_store);
  coll::CollConfig ccfg;
  ccfg.slot_bytes = 1_MiB;
  ccfg.chunk_bytes = 64_KiB;
  ccfg.poll_interval = 2'000;

  std::vector<Rank> ranks(kRanks);
  std::vector<coll::Comm::Member> members;
  const u64 node_seed = mix(cx.seed, 0x10de00ull + n);
  for (u32 r = 0; r < kRanks; ++r) {
    Rank& rk = ranks[r];
    const std::string en = client_enclave(r);
    auto& enclave = node.enclave(en);
    rk.dl = std::make_unique<iocache::CacheClient>(node.kernel(en), enclave, r, dlc);
    rk.ck = std::make_unique<iocache::CacheClient>(node.kernel(en), enclave, r, ckc);
    led.call((co_await rk.dl->start()).ok(), "CacheClient::start");
    led.call((co_await rk.ck->start()).ok(), "CacheClient::start");
    hw::Core* core = enclave.cores()[r % enclave.cores().size()];
    auto proc = enclave.create_process(
        coll::Comm::region_bytes(kRanks, ccfg) + kPageSize, core);
    if (!led.call(proc.ok(), "create_process")) co_return;
    members.push_back(coll::Comm::Member{&node.kernel(en), &enclave, proc.value(),
                                         core, proc.value()->image_base()});
    iocache::ReplayParams dp;
    dp.file_blocks = dlc.file_blocks;
    dp.ops_per_rank = kEpochs * kDlOpsPerEpoch;
    dp.seed = node_seed;
    rk.dl_trace = iocache::make_trace(iocache::Family::dl_training, r, kRanks, dp);
    iocache::ReplayParams cp = dp;
    cp.file_blocks = ckc.file_blocks;
    cp.ops_per_rank = kEpochs * kCkOpsPerEpoch;
    rk.ck_trace = iocache::make_trace(iocache::Family::checkpoint, r, kRanks, cp);
    Rng rng(mix(node_seed, r));
    for (u64 e = 0; e < kEpochs; ++e) {
      std::vector<bool> mixv(kDlOpsPerEpoch, false);
      mixv.resize(kDlOpsPerEpoch + kCkOpsPerEpoch, true);
      for (u64 i = mixv.size() - 1; i > 0; --i) {
        const u64 j = rng.uniform_u64(i + 1);
        const bool t = mixv[i];
        mixv[i] = mixv[j];
        mixv[j] = t;
      }
      rk.order.insert(rk.order.end(), mixv.begin(), mixv.end());
    }
    rk.next_stamp = mix(node_seed, 0x57a3b0ull + r) << 8;
  }
  led.call((co_await dl_srv.start()).ok(), "CacheServer::start");
  led.call((co_await ck_srv.start()).ok(), "CacheServer::start");
  co_await fanout([&](u32 r) -> sim::Task<void> {
    auto c = co_await coll::Comm::create(members[r], "io", r, kRanks, ccfg);
    if (led.call(c.ok(), "Comm::create")) ranks[r].comm = std::move(c).value();
  });
  for (const Rank& rk : ranks) {
    if (!rk.comm) co_return;
  }

  // Everyone is set up once the start barrier completes.
  led.call((co_await cx.fabric->barrier(n)).ok(), "fabric barrier");
  if (!cx.started) {
    cx.started = true;
    cx.h_start = host_now_s();
    cx.events_start = sim::Engine::current()->events_processed();
  }
  cx.t_start = std::min<u64>(cx.t_start, sim::now());
  snapshot(node, ns.before);
  ns.fabric0 = cx.fabric->rank_stats(n);
  auto io_totals = [&](IoCollTotals& t) {
    for (const iocache::CacheServer* srv : {&dl_srv, &ck_srv}) {
      t.evictions += srv->stats().evictions;
      t.writebacks += srv->stats().writebacks;
    }
    t.store_reads = ns.dl_store->reads() + ns.ck_store->reads();
    t.store_writes = ns.dl_store->writes() + ns.ck_store->writes();
    for (const Rank& rk : ranks) {
      const coll::CommStats& s = rk.comm->stats();
      t.allreduce_ops += s.of(coll::OpKind::allreduce).ops;
      t.bcast_ops += s.of(coll::OpKind::bcast).ops;
      t.polls += s.total_polls();
      t.bytes_moved += s.total_bytes();
    }
  };
  io_totals(ns.io_before);

  const u64 elems = kAllreduceBytes / sizeof(double);
  for (u64 e = 0; e < kEpochs; ++e) {
    Call epoch(tr, "epoch", "workloads", 0, n * kRanks, e);
    co_await fanout([&](u32 r) -> sim::Task<void> {
      Rank& rk = ranks[r];
      u64 dl_i = e * kDlOpsPerEpoch, ck_i = e * kCkOpsPerEpoch;
      const u64 base = e * (kDlOpsPerEpoch + kCkOpsPerEpoch);
      for (u64 k = 0; k < kDlOpsPerEpoch + kCkOpsPerEpoch; ++k) {
        const bool ck = rk.order[base + k];
        const iocache::ReplayOp& op = ck ? rk.ck_trace[ck_i++] : rk.dl_trace[dl_i++];
        co_await io_op(cx, ns, rk, n, r, ck, op, epoch.id(), base + k);
      }
    });

    // The epoch collective: intra-node allreduce, fabric allreduce between
    // the nodes' rank 0s, intra-node bcast of the global result.
    Call coll_all(tr, "epoch_allreduce", "workloads", epoch.id(), n * kRanks, e);
    co_await fanout([&](u32 r) -> sim::Task<void> {
      Rank& rk = ranks[r];
      const u32 track = n * kRanks + r;
      const double contrib = 1.0 + r + n + static_cast<double>(e);
      std::vector<double> in(elems, contrib), out(elems, 0.0);
      Call ar(tr, "Comm::allreduce", "collectives", coll_all.id(), track, e);
      const bool ok = (co_await rk.comm->allreduce(in.data(), out.data(), elems,
                                                   coll::ReduceOp::sum))
                          .ok();
      cx.comm_allreduce_us.add(static_cast<double>(ar.done()) / 1e3);
      led.call(ok, "Comm::allreduce");
      const double want = kRanks * (1.0 + n + static_cast<double>(e)) + 6.0;
      led.expect(out[0] == want && out[elems - 1] == want,
                 "node " + std::to_string(n) + ": intra-node allreduce sum wrong");
      double global = 0;
      if (r == 0) {
        Call fab(tr, "Communicator::allreduce", "net", coll_all.id(), track, e);
        led.call((co_await cx.fabric->allreduce(kAllreduceBytes, n)).ok(),
                 "Communicator::allreduce");
        cx.net_allreduce_us.add(static_cast<double>(fab.done()) / 1e3);
        global = out[0] * kNodes + static_cast<double>(e);
      }
      Call bc(tr, "Comm::bcast", "collectives", coll_all.id(), track, e);
      led.call((co_await rk.comm->bcast(&global, sizeof(global), 0)).ok(),
               "Comm::bcast");
      bc.done();
      led.expect(global == out[0] * kNodes + static_cast<double>(e),
                 "node " + std::to_string(n) + ": bcast delivered a wrong value");
    });
    cx.epoch_coll_us.add(static_cast<double>(coll_all.done()) / 1e3);
    epoch.done();
  }

  snapshot(node, ns.after);
  io_totals(ns.io_after);
  cx.t_end = std::max<u64>(cx.t_end, sim::now());
  if (++cx.finished == kNodes) {
    cx.h_end = host_now_s();
    cx.events_end = sim::Engine::current()->events_processed();
  }

  // Teardown: the servers' stop() writes every dirty block back.
  co_await fanout([&](u32 r) -> sim::Task<void> {
    led.call((co_await ranks[r].comm->finalize()).ok(), "Comm::finalize");
  });
  for (Rank& rk : ranks) {
    co_await rk.dl->shutdown();
    co_await rk.ck->shutdown();
  }
  led.call((co_await dl_srv.stop()).ok(), "CacheServer::stop");
  led.call((co_await ck_srv.stop()).ok(), "CacheServer::stop");
  for (u64 b = 0; b < ns.ck_expect.size(); ++b) {
    led.expect(ns.ck_store->stamp(b) == ns.ck_expect[b],
               "node " + std::to_string(n) + ": ck block " + std::to_string(b) +
                   " did not reach the backing store after writeback");
  }
}

}  // namespace

RoundOut run_multinode_io(const WorkloadArgs& args) {
  RoundOut out;
  out.layer = per_layer_template();
  Ledger& led = out.ledger;
  Tracer& tr = *args.tracer;
  const double h0 = host_now_s();

  sim::Engine eng(args.seed);
  eng.set_partitions(kNodes);
  net::Communicator fabric(kNodes);
  Ctx cx;
  cx.seed = args.seed;
  cx.tr = &tr;
  cx.led = &led;
  cx.fabric = &fabric;
  double boot_s = 0;
  for (u32 n = 0; n < kNodes; ++n) {
    fabric.bind_rank(n, n);
    NodeState& ns = cx.nodes[n];
    ns.node = std::make_unique<Node>(hw::Machine::r420());
    Node& node = *ns.node;
    node.add_linux_mgmt("linux", 0, {0, 1});
    HostCall h(tr, "add_cokernel x3", "pisces");
    node.add_cokernel("srv", 0, {2, 3}, 1_GiB);
    node.add_cokernel("c0", 0, {4, 5, 6, 7}, 512_MiB);
    node.add_cokernel("c1", 1, {12, 13, 14, 15}, 512_MiB);
    boot_s += h.done();
    node.set_partition(n);
    const u64 store_seed = mix(args.seed, 0x5702eull + n);
    ns.dl_store = std::make_unique<iocache::BackingStore>(dl_config().file_blocks,
                                                          store_seed);
    ns.ck_store = std::make_unique<iocache::BackingStore>(ck_config().file_blocks,
                                                          store_seed + 1);
    ns.ck_expect.resize(ck_config().file_blocks);
    for (u64 b = 0; b < ns.ck_expect.size(); ++b) ns.ck_expect[b] = ns.ck_store->stamp(b);
  }

  for (u32 n = 1; n < kNodes; ++n) eng.spawn_in(n, node_driver(cx, n));
  eng.run(node_driver(cx, 0));
  // Drain: other nodes' teardown and the fabric's last acknowledgements.
  // The fabric counters are only deterministic after a drained run.
  eng.run_until_idle();
  fabric.finish_run();

  led.expect(cx.finished == kNodes, "multinode_io: a node did not finish");
  Counters before, after;
  FabricStats fab0;
  IoCollTotals io;
  for (u32 n = 0; n < kNodes; ++n) {
    NodeState& ns = cx.nodes[n];
    // CacheClient::shutdown() detaches everything but does not withdraw the
    // client's request-ring exports (one per cache shard), and the client
    // keeps the owning process private, so exactly those may remain.
    for (const char* en : kEnclaveNames) {
      const bool client = en[0] == 'c';
      expect_no_leaks(led, en, ns.node->kernel(en),
                      client ? kRingExportsPerClientEnclave : 0);
    }
    led.expect(ns.node->machine().pmem().total_refs() == 0,
               "multinode_io: machine-wide frame references outstanding at exit");
    before += ns.before;
    after += ns.after;
    fab0 += ns.fabric0;
    io.add_diff(ns.io_after, ns.io_before);
  }
  before.events = cx.events_start;
  after.events = cx.events_end;
  const FabricStats fab1 = fabric.stats();

  out.setup_s = cx.h_start - h0;
  out.wall_s = cx.h_end - cx.h_start;
  out.sim_makespan_s = static_cast<double>(cx.t_end - cx.t_start) / 1e9;

  const Tail io_tail = tail_of(cx.io_us);
  const double ops_per_s =
      out.sim_makespan_s > 0 ? static_cast<double>(cx.io_us.count()) / out.sim_makespan_s
                             : 0.0;
  out.sim["io_op_p50_us"] = {p50_of(cx.io_us), "us"};
  out.sim["io_op_tail_us"] = {io_tail.value, "us"};
  out.sim["io_ops_per_sim_s"] = {ops_per_s, "1/s"};
  out.sim["allreduce_p50_us"] = {p50_of(cx.epoch_coll_us), "us"};
  char line[160];
  std::snprintf(line, sizeof(line), "io_op_tail_us is p%g of %llu cache operations",
                io_tail.q, static_cast<unsigned long long>(io_tail.n));
  out.report.push_back(line);

  Metrics& L = out.layer;
  put_counter_diff(L, before, after);
  L["workloads.io_op_p50_us"].value = out.sim["io_op_p50_us"].value;
  L["workloads.io_op_tail_us"].value = io_tail.value;
  L["workloads.io_ops_per_sim_s"].value = ops_per_s;
  L["workloads.allreduce_p50_us"].value = out.sim["allreduce_p50_us"].value;
  L["collectives.allreduce_p50_us"].value = p50_of(cx.comm_allreduce_us);
  L["collectives.allreduce_tail_us"].value = tail_of(cx.comm_allreduce_us).value;
  L["collectives.allreduce_ops"].value = static_cast<double>(io.allreduce_ops);
  L["collectives.bcast_ops"].value = static_cast<double>(io.bcast_ops);
  L["collectives.polls"].value = static_cast<double>(io.polls);
  L["collectives.bytes_moved"].value = static_cast<double>(io.bytes_moved);
  L["iocache.hit_rate"].value =
      cx.reads ? static_cast<double>(cx.read_hits) / static_cast<double>(cx.reads) : 0.0;
  L["iocache.read_hit_p50_us"].value = p50_of(cx.read_hit_us);
  L["iocache.read_miss_p50_us"].value = p50_of(cx.read_miss_us);
  L["iocache.write_p50_us"].value = p50_of(cx.write_us);
  L["iocache.evictions"].value = static_cast<double>(io.evictions);
  L["iocache.writebacks"].value = static_cast<double>(io.writebacks);
  L["iocache.store_reads"].value = static_cast<double>(io.store_reads);
  L["iocache.store_writes"].value = static_cast<double>(io.store_writes);
  L["net.allreduce_p50_us"].value = p50_of(cx.net_allreduce_us);
  L["net.acks"].value = static_cast<double>(fab1.fabric_acks - fab0.fabric_acks);
  L["net.probes"].value = static_cast<double>(fab1.fabric_probes - fab0.fabric_probes);
  L["net.retransmits"].value =
      static_cast<double>(fab1.fabric_retransmits - fab0.fabric_retransmits);
  led.expect(fab1.fabric_retransmits == 0,
             "multinode_io: fabric retransmits on a fault-free run");
  L["pisces.boot_ms"].value = boot_s * 1e3;
  out.digest = digest_of(out);
  return out;
}

}  // namespace perfbench
