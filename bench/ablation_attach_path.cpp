// Ablation: the attach fast path (extent-compressed wire PFNs, segid->owner
// route caching, owner-side walk memoization, attacher-side mapping reuse).
//
// The paper's attach cost (section 6.2, figure 5) is dominated by the
// name-server hop and the per-page wire/remap work. This harness sweeps
// export contiguity (Kitten contiguous vs Linux scattered), repeat count,
// and topology (2-enclave, where the attacher IS the name server, vs a
// 3-enclave star where user->owner traffic transits the management enclave)
// with the fast path off and on, and reports cold/warm attach latency plus
// the cache and wire-byte counters. A final probe verifies the invalidation
// coupling: xpmem_remove and owner crash() leave every cache cold.
//
// All fast-path knobs default off, so the "off" rows reproduce historical
// behavior byte-for-byte; the "on" rows show what each layer buys.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

struct Row {
  std::string owner_os;   // "kitten" (contiguous) | "linux" (scattered)
  std::string topology;   // "2encl" | "3encl-star"
  bool fast{false};
  int repeats{1};
  u64 region{0};
  double cold_us{0};       // first attach (name-server resolution included)
  double warm_us{0};       // mean of attaches 2..N (0 when repeats == 1)
  u64 extents_shipped{0};
  u64 wire_bytes_saved{0};
  u64 lookup_hits{0};
  u64 walk_hits{0};
  u64 ns_requests_during_warm{0};
  bool completed{false};
};

KernelConfig base_config(bool fast) {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 6;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  if (fast) cfg.enable_attach_fast_path();
  return cfg;
}

Row run_case(bool contiguous, bool star, bool fast, int repeats, u64 seed) {
  Row row;
  row.owner_os = contiguous ? "kitten" : "linux";
  row.topology = star ? "3encl-star" : "2encl";
  row.fast = fast;
  row.repeats = repeats;
  // 4 MiB is the acceptance shape (a contiguous Kitten export must ship as
  // O(1) extents); the scattered Linux case uses 1 MiB so the 8 MiB owner
  // image stays comfortably within the pool.
  row.region = contiguous ? 4_MiB : 1_MiB;

  sim::Engine eng(7300 + seed);
  Node node(hw::Machine::r420());
  node.set_kernel_config(base_config(fast));
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  XememKernel* owner_k = nullptr;
  XememKernel* user_k = nullptr;
  std::string owner_name, user_name;
  if (star) {
    // Star: both endpoints are co-kernels; every protocol message transits
    // the management enclave (which is also the name server).
    owner_k = &node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
    user_k = &node.add_cokernel("user", 0, {6, 7}, 256_MiB);
    owner_name = "owner";
    user_name = "user";
  } else if (contiguous) {
    owner_k = &node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
    user_k = &mgmt;
    owner_name = "ck";
    user_name = "linux";
  } else {
    owner_k = &mgmt;
    user_k = &node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
    owner_name = "linux";
    user_name = "ck";
  }

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave(owner_name).create_process(8_MiB).value();
    os::Process* up = node.enclave(user_name).create_process(1_MiB).value();
    auto sid = co_await owner_k->xpmem_make(*op, op->image_base(), row.region);
    XEMEM_ASSERT(sid.ok());
    auto grant = co_await user_k->xpmem_get(sid.value());
    XEMEM_ASSERT(grant.ok());

    bool ok = true;
    u64 warm_ns_total = 0;
    u64 ns_before_warm = 0;
    for (int i = 0; i < repeats; ++i) {
      if (i == 1) ns_before_warm = mgmt.stats().ns_requests;
      const sim::TimePoint t0 = sim::now();
      auto att = co_await user_k->xpmem_attach(*up, grant.value(), 0, row.region);
      const u64 dt = sim::now() - t0;
      if (i == 0) {
        row.cold_us = static_cast<double>(dt) / 1000.0;
      } else {
        warm_ns_total += dt;
      }
      ok = ok && att.ok();
      if (att.ok()) ok = (co_await user_k->xpmem_detach(*up, att.value())).ok() && ok;
    }
    if (repeats > 1) {
      row.warm_us = static_cast<double>(warm_ns_total) / (repeats - 1) / 1000.0;
      row.ns_requests_during_warm = mgmt.stats().ns_requests - ns_before_warm;
    }
    row.extents_shipped = owner_k->stats().extents_shipped;
    row.wire_bytes_saved = owner_k->stats().wire_bytes_saved;
    row.lookup_hits = user_k->stats().lookup_cache_hits;
    row.walk_hits = owner_k->stats().walk_cache_hits;
    row.completed = ok && node.machine().pmem().total_refs() == 0;
  };
  eng.run(main());
  return row;
}

struct InvalidationProbe {
  // After xpmem_remove:
  u64 walk_entries_after_remove{~0ull};
  bool stale_attach_failed{false};
  bool route_dropped_after_remove{false};
  // After owner crash():
  u64 owner_cache_entries_after_crash{~0ull};  // sum over the dead kernel
  u64 refs_after_crash{~0ull};
  bool reuse_dropped_after_crash{false};
  bool route_dropped_after_crash{false};
  bool completed{false};
};

InvalidationProbe run_invalidation(u64 seed) {
  InvalidationProbe p;
  sim::Engine eng(7400 + seed);
  Node node(hw::Machine::r420());
  KernelConfig cfg = base_config(/*fast=*/true);
  cfg.lease_duration = 5_ms;
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();

    // --- remove: every cache the segment warmed must go cold.
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB);
    XEMEM_ASSERT(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    XEMEM_ASSERT(grant.ok());
    auto att = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    XEMEM_ASSERT(att.ok());
    XEMEM_ASSERT((co_await user_k.xpmem_detach(*up, att.value())).ok());
    XEMEM_ASSERT((co_await owner_k.xpmem_remove(*op, sid.value())).ok());
    p.walk_entries_after_remove = owner_k.walk_cache_entries();
    auto stale = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    p.stale_attach_failed = !stale.ok();
    p.route_dropped_after_remove = !user_k.knows_owner(sid.value());

    // --- crash: the dead kernel's caches die with it; the attacher's
    // entries drain on next use and the pins are gone immediately.
    auto sid2 = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB, "v");
    XEMEM_ASSERT(sid2.ok());
    auto grant2 = co_await user_k.xpmem_get(sid2.value());
    XEMEM_ASSERT(grant2.ok());
    auto att2 = co_await user_k.xpmem_attach(*up, grant2.value(), 0, 1_MiB);
    XEMEM_ASSERT(att2.ok());
    owner_k.crash();
    p.owner_cache_entries_after_crash = owner_k.walk_cache_entries() +
                                        owner_k.owner_cache_entries() +
                                        owner_k.attach_cache_entries();
    p.refs_after_crash = node.machine().pmem().total_refs();
    auto det = co_await user_k.xpmem_detach(*up, att2.value());
    (void)det;  // fails (owner unreachable) but unmaps and drops the entry
    p.reuse_dropped_after_crash = user_k.attach_cache_entries() == 0;
    p.route_dropped_after_crash = !user_k.knows_owner(sid2.value());
    p.completed = true;
  };
  eng.run(main());
  return p;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-8s %-11s %-5s %7s %9s %9s %8s %10s %8s %8s %8s %5s\n",
              "owner", "topology", "fast", "repeats", "cold_us", "warm_us",
              "extents", "saved_B", "lookup", "walk", "warm_ns", "done");
  for (const auto& r : rows) {
    std::printf("%-8s %-11s %-5s %7d %9.1f %9.1f %8llu %10llu %8llu %8llu %8llu %5s\n",
                r.owner_os.c_str(), r.topology.c_str(), r.fast ? "on" : "off",
                r.repeats, r.cold_us, r.warm_us,
                static_cast<unsigned long long>(r.extents_shipped),
                static_cast<unsigned long long>(r.wire_bytes_saved),
                static_cast<unsigned long long>(r.lookup_hits),
                static_cast<unsigned long long>(r.walk_hits),
                static_cast<unsigned long long>(r.ns_requests_during_warm),
                r.completed ? "yes" : "NO");
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const InvalidationProbe& p, bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_attach_path\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"owner_os\": \"%s\", \"topology\": \"%s\", \"fast_path\": %s, "
        "\"repeats\": %d, \"region_bytes\": %llu, \"cold_us\": %.2f, "
        "\"warm_us\": %.2f, \"extents_shipped\": %llu, "
        "\"wire_bytes_saved\": %llu, \"lookup_cache_hits\": %llu, "
        "\"walk_cache_hits\": %llu, \"ns_requests_during_warm\": %llu, "
        "\"completed\": %s}%s\n",
        r.owner_os.c_str(), r.topology.c_str(), r.fast ? "true" : "false",
        r.repeats, static_cast<unsigned long long>(r.region), r.cold_us,
        r.warm_us, static_cast<unsigned long long>(r.extents_shipped),
        static_cast<unsigned long long>(r.wire_bytes_saved),
        static_cast<unsigned long long>(r.lookup_hits),
        static_cast<unsigned long long>(r.walk_hits),
        static_cast<unsigned long long>(r.ns_requests_during_warm),
        r.completed ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"invalidation\": {\"walk_entries_after_remove\": %llu, "
      "\"stale_attach_failed\": %s, \"route_dropped_after_remove\": %s, "
      "\"owner_cache_entries_after_crash\": %llu, \"refs_after_crash\": %llu, "
      "\"reuse_dropped_after_crash\": %s, \"route_dropped_after_crash\": %s},\n"
      "  \"all_checks_passed\": %s\n}\n",
      static_cast<unsigned long long>(p.walk_entries_after_remove),
      p.stale_attach_failed ? "true" : "false",
      p.route_dropped_after_remove ? "true" : "false",
      static_cast<unsigned long long>(p.owner_cache_entries_after_crash),
      static_cast<unsigned long long>(p.refs_after_crash),
      p.reuse_dropped_after_crash ? "true" : "false",
      p.route_dropped_after_crash ? "true" : "false",
      passed ? "true" : "false");
  std::fclose(f);
}

const Row* find(const std::vector<Row>& rows, const char* os, const char* topo,
                bool fast, int repeats) {
  for (const auto& r : rows) {
    if (r.owner_os == os && r.topology == topo && r.fast == fast &&
        r.repeats == repeats) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::header(
      "Ablation: attach fast path (extents, route cache, walk memo, reuse)",
      "section 6.2 / figure 5 — attach cost is the name-server hop plus "
      "per-page wire and remap work; the fast path removes the hop for "
      "repeat attaches and compresses contiguous exports to O(1) extents, "
      "while remove/crash/lease expiry leave every cache cold");

  const std::vector<int> repeat_set = quick ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 4, 16};
  // Sweep: contiguity (kitten vs linux owner, 2-enclave) and topology
  // (3-enclave star, contiguous owner) x fast path x repeat count.
  struct Case {
    bool contiguous, star;
  };
  const Case cases[] = {{true, false}, {false, false}, {true, true}};
  std::vector<Row> rows;
  u64 seed = 1;
  for (const auto& c : cases) {
    for (const bool fast : {false, true}) {
      for (const int reps : repeat_set) {
        rows.push_back(run_case(c.contiguous, c.star, fast, reps, seed++));
      }
    }
  }
  print_rows(rows);

  std::printf("\ninvalidation probe (remove / crash, fast path on):\n");
  const InvalidationProbe inv = run_invalidation(99);
  std::printf(
      "  walk entries after remove: %llu, stale attach failed: %s, route "
      "dropped: %s\n  owner cache entries after crash: %llu, pmem refs after "
      "crash: %llu,\n  reuse entry dropped: %s, route dropped: %s\n",
      static_cast<unsigned long long>(inv.walk_entries_after_remove),
      inv.stale_attach_failed ? "yes" : "NO",
      inv.route_dropped_after_remove ? "yes" : "NO",
      static_cast<unsigned long long>(inv.owner_cache_entries_after_crash),
      static_cast<unsigned long long>(inv.refs_after_crash),
      inv.reuse_dropped_after_crash ? "yes" : "NO",
      inv.route_dropped_after_crash ? "yes" : "NO");

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  bool all_done = true;
  for (const auto& r : rows) all_done = all_done && r.completed;
  checks.expect(all_done, "every configuration completes and leaks nothing");

  const int max_reps = repeat_set.back();
  const Row* kit_on = find(rows, "kitten", "2encl", true, 1);
  const Row* kit_off = find(rows, "kitten", "2encl", false, 1);
  const Row* lin_on = find(rows, "linux", "2encl", true, 1);
  const Row* star_on = find(rows, "kitten", "3encl-star", true, max_reps);
  const Row* star_off = find(rows, "kitten", "3encl-star", false, max_reps);
  if (kit_on == nullptr || kit_off == nullptr || lin_on == nullptr ||
      star_on == nullptr || star_off == nullptr) {
    std::fprintf(stderr, "internal error: sweep row missing\n");
    return 1;
  }

  checks.expect(kit_on->extents_shipped >= 1 && kit_on->extents_shipped <= 3,
                "contiguous 4 MiB export ships as <= 3 extents");
  checks.expect(kit_on->extents_shipped * mm::PfnList::kExtentWireBytes <=
                    3 * mm::PfnList::kExtentWireBytes,
                "extent wire bytes for the contiguous export fit in 3 records");
  checks.expect(kit_on->wire_bytes_saved >
                    4_MiB / kPageSize * 8 -
                        3 * mm::PfnList::kExtentWireBytes - 1,
                "extent encoding saves nearly the whole flat PFN payload");
  checks.expect(lin_on->extents_shipped * mm::PfnList::kExtentWireBytes <=
                    1_MiB / kPageSize * 8,
                "scattered export never ships more bytes than flat");
  checks.expect(kit_off->extents_shipped == 0 && kit_off->lookup_hits == 0 &&
                    kit_off->walk_hits == 0,
                "fast path off ships flat and touches no cache (pay-for-use)");
  checks.expect(star_on->lookup_hits > 0,
                "repeat attach hits the segid->owner route cache");
  checks.expect(star_on->ns_requests_during_warm == 0,
                "warm attaches never touch the name server");
  checks.expect(star_on->warm_us < star_on->cold_us,
                "warm attach is faster than cold (route + walk cached)");
  checks.expect(star_on->warm_us < star_off->warm_us,
                "fast path beats the baseline on warm repeat attaches");
  checks.expect(inv.completed && inv.walk_entries_after_remove == 0 &&
                    inv.stale_attach_failed && inv.route_dropped_after_remove,
                "xpmem_remove leaves walk/route caches cold, stale attach fails");
  checks.expect(inv.owner_cache_entries_after_crash == 0 &&
                    inv.refs_after_crash == 0 && inv.reuse_dropped_after_crash &&
                    inv.route_dropped_after_crash,
                "owner crash leaves no warm cache and no pinned frame anywhere");

  if (!json_path.empty()) {
    write_json(json_path, rows, inv, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
