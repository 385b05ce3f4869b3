// attach_mix: one r420 node, no noise model (like the paper's section 5
// harnesses). A Linux management enclave (the name server), two Kitten
// co-kernels, a Linux VM on the Linux host and a Linux VM on a Kitten host.
// Closed loop: one simulated client process per enclave, each interleaving
//
//  * bulk  — re-attach a long-lived 64-512 MiB segment (Kitten-contiguous,
//            Linux-scattered or guest exporter), touch it, check it, detach;
//  * churn — a full make -> get -> attach -> touch -> detach -> release ->
//            remove lifecycle on a fresh 4 KiB - 1 MiB segment of any
//            enclave (its own included: the local fast path).
//
// Bulk is per-page work (walk, pin, PFN shipping, memory-map inserts),
// churn is per-message work (name service, routing), both in the xemem
// layer; a change that helps one and costs the other shows as attach_gbps
// against the cycle latencies.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "harness.hpp"
#include "xemem/system.hpp"

namespace perfbench {
namespace {

constexpr u64 kBulkSizes[] = {64_MiB, 128_MiB, 256_MiB, 512_MiB};
constexpr u64 kBulkTotal = 64_MiB + 128_MiB + 256_MiB + 512_MiB;
constexpr u32 kChurnCycles = 200;  ///< churn lifecycles per client per round
constexpr u64 kChurnMaxPages = 256;  ///< 1 MiB
constexpr u32 kSamplePages = 16;     ///< pattern words per bulk segment

struct Role {
  const char* name;  ///< enclave name
  const char* cls;   ///< owner/attacher class in xemem.attach_gbps.* names
  const char* pers;  ///< personality in os.touch_p50_us.* names
  bool bulk_exporter;
  u32 client_core;
};
constexpr Role kRoles[] = {
    {"linux", "linux", "linux", true, 2},
    {"k0", "kitten", "kitten", true, 5},
    {"k1", "kitten", "kitten", false, 13},
    {"vml", "linuxvm", "guest_linux", true, 7},
    {"vmk", "kittenvm", "guest_linux", false, 15},
};
constexpr u32 kEnclaves = 5;

struct BulkSeg {
  u32 owner{0};
  u64 bytes{0};
  Vaddr va{};
  Segid segid{};
  std::vector<std::pair<u64, u64>> pattern;  ///< (byte offset, expected word)
};

struct PairStat {
  u64 bytes{0};
  u64 ns{0};
};

struct State {
  u64 seed{0};
  Tracer* tr{nullptr};
  Node* node{nullptr};
  Ledger* led{nullptr};
  os::Process* owner[kEnclaves]{};
  os::Process* client[kEnclaves]{};
  std::vector<BulkSeg> bulk;
  /// grant[c][i]: client c's grant on bulk segment i (invalid for its own).
  std::vector<XpmemGrant> grant[kEnclaves];

  u64 bulk_bytes{0};
  u64 bulk_ns{0};
  std::map<std::string, PairStat> pair;
  PairStat guest_kitten_host;
  PairStat guest_linux_host;
  Samples cycle_us;
  Samples op_us[6];  ///< make, get, attach, detach, release, remove
  std::map<std::string, Samples> fault_touch_us;  ///< per personality
  u32 running{0};
  sim::Event all_done;
};

enum Op { kMake, kGet, kAttach, kDetach, kRelease, kRemove };
constexpr const char* kOpNames[] = {"make", "get", "attach", "detach",
                                    "release", "remove"};

u64 pattern_word(u64 seed, u64 a, u64 b) { return mix(mix(mix(0, seed), a), b) | 1; }

Vaddr churn_base(const State& st, u32 owner, u32 client) {
  const u64 bulk = kRoles[owner].bulk_exporter ? kBulkTotal : 0;
  return st.owner[owner]->image_base() + bulk + client * kChurnMaxPages * kPageSize;
}

/// Reads back every sampled pattern word through @p att.
void verify(State& st, u32 c, const XpmemAttachment& att,
            const std::vector<std::pair<u64, u64>>& pattern) {
  auto& os = st.node->enclave(kRoles[c].name);
  for (const auto& [off, want] : pattern) {
    u64 got = 0;
    const bool ok =
        os.proc_read(*st.client[c], att.va + off, &got, sizeof(got))
            .ok();
    st.led->expect(ok && got == want,
                   std::string(kRoles[c].name) + ": attached bytes differ from "
                   "the exporter's pattern");
  }
}

sim::Task<void> touch(State& st, u32 c, const XpmemAttachment& att, u64 parent,
                      u64 op) {
  Call t(*st.tr, "touch_attached", "os", parent, c, op);
  co_await st.node->enclave(kRoles[c].name)
      .touch_attached(*st.client[c], att.map_base, att.pages);
  const u64 ns = t.done();
  if (ns > 0) st.fault_touch_us[kRoles[c].pers].add(static_cast<double>(ns) / 1e3);
}

sim::Task<void> bulk_op(State& st, u32 c, u32 seg_idx, u64 op) {
  const BulkSeg& seg = st.bulk[seg_idx];
  XememKernel& k = st.node->kernel(kRoles[c].name);
  Call whole(*st.tr, "bulk_reattach", "workloads", 0, c, op);
  Call a(*st.tr, "xpmem_attach", "xemem", whole.id(), c, op);
  auto att = co_await k.xpmem_attach(*st.client[c], st.grant[c][seg_idx], 0,
                                     seg.bytes);
  const u64 ns = a.done();
  if (st.led->call(att.ok(), "bulk xpmem_attach")) {
    st.bulk_bytes += seg.bytes;
    st.bulk_ns += ns;
    PairStat& p = st.pair[std::string(kRoles[seg.owner].cls) + "_to_" +
                          kRoles[c].cls];
    p.bytes += seg.bytes;
    p.ns += ns;
    const std::string attacher = kRoles[c].cls;
    PairStat* guest = attacher == "linuxvm"    ? &st.guest_linux_host
                      : attacher == "kittenvm" ? &st.guest_kitten_host
                                               : nullptr;
    if (guest != nullptr) {
      guest->bytes += seg.bytes;
      guest->ns += ns;
    }
    co_await touch(st, c, att.value(), whole.id(), op);
    verify(st, c, att.value(), seg.pattern);
    Call d(*st.tr, "xpmem_detach", "xemem", whole.id(), c, op);
    st.led->call((co_await k.xpmem_detach(*st.client[c], att.value())).ok(),
                 "bulk xpmem_detach");
    d.done();
  }
  whole.done();
}

sim::Task<void> churn_cycle(State& st, u32 c, u32 owner, u64 pages, u64 op) {
  XememKernel& owner_k = st.node->kernel(kRoles[owner].name);
  XememKernel& ck = st.node->kernel(kRoles[c].name);
  auto& owner_os = st.node->enclave(kRoles[owner].name);
  const Vaddr base = churn_base(st, owner, c);
  const u64 bytes = pages * kPageSize;
  // First and last word of the segment.
  std::vector<std::pair<u64, u64>> pattern = {
      {0, pattern_word(st.seed, c, op * 2)},
      {bytes - sizeof(u64), pattern_word(st.seed, c, op * 2 + 1)}};
  for (const auto& [off, word] : pattern) {
    st.led->expect(owner_os
                       .proc_write(*st.owner[owner], base + off,
                                   &word, sizeof(word))
                       .ok(),
                   "exporter pattern write failed");
  }

  Call cyc(*st.tr, "churn_cycle", "workloads", 0, c, op);
  auto step = [&](Op o) { return Call(*st.tr, kOpNames[o], "xemem", cyc.id(), c, op); };
  auto record = [&](Op o, Call& call) {
    st.op_us[o].add(static_cast<double>(call.done()) / 1e3);
  };

  Call mk = step(kMake);
  auto seg = co_await owner_k.xpmem_make(*st.owner[owner], base, bytes);
  record(kMake, mk);
  if (!st.led->call(seg.ok(), "xpmem_make")) co_return;
  Call gt = step(kGet);
  auto grant = co_await ck.xpmem_get(seg.value());
  record(kGet, gt);
  if (!st.led->call(grant.ok(), "xpmem_get")) co_return;
  Call at = step(kAttach);
  auto att = co_await ck.xpmem_attach(*st.client[c], grant.value(), 0, bytes);
  record(kAttach, at);
  if (!st.led->call(att.ok(), "xpmem_attach")) co_return;
  co_await touch(st, c, att.value(), cyc.id(), op);
  verify(st, c, att.value(), pattern);
  Call dt = step(kDetach);
  const bool detached = (co_await ck.xpmem_detach(*st.client[c], att.value())).ok();
  record(kDetach, dt);
  st.led->call(detached, "xpmem_detach");
  Call rl = step(kRelease);
  const bool released = (co_await ck.xpmem_release(grant.value())).ok();
  record(kRelease, rl);
  st.led->call(released, "xpmem_release");
  Call rm = step(kRemove);
  const bool removed =
      (co_await owner_k.xpmem_remove(*st.owner[owner], seg.value())).ok();
  record(kRemove, rm);
  st.led->call(removed, "xpmem_remove");
  st.cycle_us.add(static_cast<double>(cyc.done()) / 1e3);
}

/// One closed-loop client: its next operation starts when the previous
/// one completes. Every seed runs the same multiset of operations — each
/// bulk segment of another enclave once, and churn cycles spread evenly
/// over owners and over a fixed log-spaced ladder of sizes — and the seed
/// picks the order. Bulk operations sit at evenly spaced positions of the
/// schedule, so no seed piles them up at its end: the work is the same for
/// every seed while the interleaving, and so the contention, varies.
sim::Task<void> client(State& st, u32 c) {
  Rng rng(mix(st.seed, 0x5eed0000ull + c));
  struct Item {
    bool bulk;
    u32 a;  ///< bulk: segment index; churn: owner enclave
    u64 pages;
  };
  auto shuffle = [&rng](auto& v) {
    for (u64 i = v.size() - 1; i > 0; --i) std::swap(v[i], v[rng.uniform_u64(i + 1)]);
  };
  std::vector<Item> bulk, churn;
  for (u32 i = 0; i < st.bulk.size(); ++i) {
    if (st.bulk[i].owner != c) bulk.push_back({true, i, 0});
  }
  for (u32 i = 0; i < kChurnCycles; ++i) {
    // Log-spaced 1..256 pages: as many 4 KiB cycles as 512 KiB-1 MiB ones.
    const double lg = std::log(static_cast<double>(kChurnMaxPages)) * (i + 0.5) /
                      kChurnCycles;
    churn.push_back({false, i % kEnclaves,
                     std::clamp<u64>(static_cast<u64>(std::exp(lg) + 0.5), 1,
                                     kChurnMaxPages)});
  }
  shuffle(bulk);
  shuffle(churn);
  std::vector<Item> items;
  const u64 total = bulk.size() + churn.size();
  for (u64 pos = 0, b = 0, k = 0; pos < total; ++pos) {
    const bool take_bulk = b < bulk.size() && pos >= (2 * b + 1) * total / (2 * bulk.size());
    items.push_back(take_bulk ? bulk[b++] : churn[k++]);
  }
  u64 op = 0;
  for (const Item& it : items) {
    ++op;
    if (it.bulk) {
      co_await bulk_op(st, c, it.a, op);
    } else {
      co_await churn_cycle(st, c, it.a, it.pages, op);
    }
  }
  if (--st.running == 0) st.all_done.set();
}

double gbps(const PairStat& p) { return p.ns ? gb_per_s(p.bytes, p.ns) : 0.0; }

}  // namespace

RoundOut run_attach_mix(const WorkloadArgs& args) {
  RoundOut out;
  out.layer = per_layer_template();
  Tracer& tr = *args.tracer;
  Ledger& led = out.ledger;
  const double h_start = host_now_s();

  sim::Engine eng(args.seed);
  Node node(hw::Machine::r420());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  double boot_s = 0, vm_s = 0, proc_s = 0;
  {
    HostCall h(tr, "add_cokernel k0", "pisces");
    node.add_cokernel("k0", 0, {4, 5}, kBulkTotal + 256_MiB);
    boot_s += h.done();
  }
  {
    HostCall h(tr, "add_cokernel k1", "pisces");
    node.add_cokernel("k1", 1, {12, 13, 14, 15}, 1_GiB);
    boot_s += h.done();
  }
  {
    HostCall h(tr, "add_vm vml", "palacios");
    node.add_vm("vml", "linux", kBulkTotal + 256_MiB, {6, 7});
    vm_s += h.done();
  }
  {
    HostCall h(tr, "add_vm vmk", "palacios");
    node.add_vm("vmk", "k1", 256_MiB, {15});
    vm_s += h.done();
  }

  State st;
  st.seed = args.seed;
  st.tr = &tr;
  st.node = &node;
  st.led = &led;
  double h_measure0 = 0, h_measure1 = 0;
  u64 t_measure0 = 0, t_measure1 = 0;
  Counters before, after;
  auto snapshot = [&](Counters& c) {
    for (const Role& r : kRoles) c.add_kernel(node.kernel(r.name));
    c.add_machine(node.machine());
    c.events = eng.events_processed();
  };

  auto main = [&]() -> sim::Task<void> {
    {
      Call s(tr, "node.start", "xemem", 0, 0, 0);
      co_await node.start();
      s.done();
    }
    for (u32 e = 0; e < kEnclaves; ++e) {
      auto& os = node.enclave(kRoles[e].name);
      const u64 image =
          (kRoles[e].bulk_exporter ? kBulkTotal : 0) + kEnclaves * kChurnMaxPages * kPageSize;
      HostCall h(tr, "create_process", "os");
      auto owner = os.create_process(image);
      auto cl = os.create_process(1_MiB, &node.machine().core(kRoles[e].client_core));
      proc_s += h.done();
      led.call(owner.ok() && cl.ok(), "create_process");
      if (!owner.ok() || !cl.ok()) co_return;
      st.owner[e] = owner.value();
      st.client[e] = cl.value();
    }

    // Long-lived bulk exports with a seeded pattern at sampled pages.
    Rng prng(mix(args.seed, 0xb01cull));
    for (u32 e = 0; e < kEnclaves; ++e) {
      if (!kRoles[e].bulk_exporter) continue;
      auto& os = node.enclave(kRoles[e].name);
      Vaddr va = st.owner[e]->image_base();
      for (u64 size : kBulkSizes) {
        BulkSeg seg;
        seg.owner = e;
        seg.bytes = size;
        seg.va = va;
        const u64 pages = size / kPageSize;
        for (u32 i = 0; i < kSamplePages; ++i) {
          const u64 page = i == 0 ? 0 : i == 1 ? pages - 1 : prng.uniform_u64(pages);
          const u64 word = pattern_word(args.seed, st.bulk.size() + 1, page);
          led.expect(os.proc_write(*st.owner[e], va + page * kPageSize, &word,
                                   sizeof(word))
                         .ok(),
                     "bulk pattern write failed");
          seg.pattern.emplace_back(page * kPageSize, word);
        }
        auto sid = co_await node.kernel(kRoles[e].name)
                       .xpmem_make(*st.owner[e], va, size);
        if (!led.call(sid.ok(), "bulk xpmem_make")) co_return;
        seg.segid = sid.value();
        st.bulk.push_back(std::move(seg));
        va = va + size;
      }
    }
    for (u32 c = 0; c < kEnclaves; ++c) {
      st.grant[c].resize(st.bulk.size());
      for (u32 i = 0; i < st.bulk.size(); ++i) {
        if (st.bulk[i].owner == c) continue;
        auto g = co_await node.kernel(kRoles[c].name).xpmem_get(st.bulk[i].segid);
        if (!led.call(g.ok(), "bulk xpmem_get")) co_return;
        st.grant[c][i] = g.value();
      }
    }

    snapshot(before);
    h_measure0 = host_now_s();
    t_measure0 = sim::now();
    st.running = kEnclaves;
    for (u32 c = 0; c < kEnclaves; ++c) sim::Engine::current()->spawn(client(st, c));
    co_await st.all_done.wait();
    t_measure1 = sim::now();
    h_measure1 = host_now_s();
    snapshot(after);

    for (u32 c = 0; c < kEnclaves; ++c) {
      for (u32 i = 0; i < st.bulk.size(); ++i) {
        if (st.bulk[i].owner == c) continue;
        led.call((co_await node.kernel(kRoles[c].name).xpmem_release(st.grant[c][i])).ok(),
                 "bulk xpmem_release");
      }
    }
    for (const BulkSeg& seg : st.bulk) {
      led.call((co_await node.kernel(kRoles[seg.owner].name)
                    .xpmem_remove(*st.owner[seg.owner], seg.segid))
                   .ok(),
               "bulk xpmem_remove");
    }
  };
  eng.run(main());

  led.expect(h_measure1 > 0, "attach_mix: the measured phase did not complete");
  for (const Role& r : kRoles) expect_no_leaks(led, r.name, node.kernel(r.name));
  led.expect(node.machine().pmem().total_refs() == 0,
             "attach_mix: machine-wide frame references outstanding at exit");

  out.setup_s = h_measure0 - h_start;
  out.wall_s = h_measure1 - h_measure0;
  out.sim_makespan_s = static_cast<double>(t_measure1 - t_measure0) / 1e9;

  const double attach_gbps = st.bulk_ns ? gb_per_s(st.bulk_bytes, st.bulk_ns) : 0.0;
  const Tail cyc_tail = tail_of(st.cycle_us);
  out.sim["attach_gbps"] = {attach_gbps, "GB/s"};
  out.sim["cycle_p50_us"] = {p50_of(st.cycle_us), "us"};
  out.sim["cycle_tail_us"] = {cyc_tail.value, "us"};
  char line[160];
  std::snprintf(line, sizeof(line), "cycle_tail_us is p%g of %llu churn cycles",
                cyc_tail.q, static_cast<unsigned long long>(cyc_tail.n));
  out.report.push_back(line);

  Metrics& L = out.layer;
  put_counter_diff(L, before, after);
  L["workloads.attach_gbps"].value = attach_gbps;
  L["workloads.cycle_p50_us"].value = out.sim["cycle_p50_us"].value;
  L["workloads.cycle_tail_us"].value = cyc_tail.value;
  for (int o = 0; o < 6; ++o) {
    L[std::string("xemem.") + kOpNames[o] + "_p50_us"].value = p50_of(st.op_us[o]);
    L[std::string("xemem.") + kOpNames[o] + "_tail_us"].value = tail_of(st.op_us[o]).value;
  }
  for (const auto& [pair, p] : st.pair) {
    auto it = L.find("xemem.attach_gbps." + pair);
    led.expect(it != L.end(), "attach_mix: unlisted attach pair " + pair);
    if (it != L.end()) it->second.value = gbps(p);
  }
  L["palacios.guest_attach_gbps.kitten_host"].value = gbps(st.guest_kitten_host);
  L["palacios.guest_attach_gbps.linux_host"].value = gbps(st.guest_linux_host);
  for (auto& [pers, s] : st.fault_touch_us) {
    L["os.touch_p50_us." + pers].value = p50_of(s);
  }
  L["os.create_process_ms"].value = proc_s * 1e3;
  L["pisces.boot_ms"].value = boot_s * 1e3;
  L["palacios.vm_init_ms"].value = vm_s * 1e3;

  // Accuracy against the paper's Table 2 (informational, not gated).
  const struct {
    const char* pair;
    double paper;
  } refs[] = {{"kitten_to_linux", 12.841},
              {"kitten_to_linuxvm", 3.991},
              {"linuxvm_to_kitten", 12.606}};
  for (const auto& r : refs) {
    const double v = L[std::string("xemem.attach_gbps.") + r.pair].value;
    std::snprintf(line, sizeof(line),
                  "accuracy: xemem.attach_gbps.%s %.3f GB/s vs paper Table 2 "
                  "%.3f GB/s (relative error %+.1f%%)",
                  r.pair, v, r.paper, (v - r.paper) / r.paper * 100.0);
    out.report.push_back(line);
  }
  out.digest = digest_of(out);
  return out;
}

}  // namespace perfbench
