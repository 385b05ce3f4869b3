// Ablation: capability-based segment permissions (DESIGN.md §9).
//
// Three questions, one harness:
//
//  1. What does live revocation cost? cap_revoke walks the derivation
//     subtree and tears down every live attachment minted under it — the
//     sweep is O(live attachments), so revocation latency is measured
//     against the number of attachments it must unmap (1..64).
//
//  2. Is owner-crash-mid-revoke recovery bounded? The deterministic
//     crashpoint hook kills the owner immediately before its k-th
//     capability command while a remote client drives
//     derive -> get -> attach -> revoke. Every k must converge (clean
//     client statuses, zero pins/refs) within the lease + retry budget.
//
//  3. Does the capability machinery cost anything when it is off?
//     The attach-path star topology (fast path on, 16 repeat attaches)
//     runs with capabilities off and on. The off row must reproduce
//     pre-capability behavior — warm attaches never touch the name
//     server, route/walk caches hit — and its warm latency is recorded
//     for cross-checking against BENCH_attach_path.json. The on row
//     quantifies the documented trade: attacher-side mapping reuse is
//     disabled (a cached mapping cannot observe revocation), so every
//     warm attach pays the owner round-trip that re-validates rights.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

KernelConfig cap_config(bool caps) {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  cfg.enable_attach_fast_path();
  if (caps) cfg.enable_capabilities();
  return cfg;
}

// ----------------------------------------- 1. revocation latency vs pins

struct RevokeRow {
  u64 live_attaches{0};
  double revoke_us{0};     // owner-side cap_revoke call latency
  u64 unmaps{0};           // pins the sweep tore down
  bool converged{false};   // post-settle: no pins, no refs, access denied
};

RevokeRow run_revocation(u64 live, u64 seed) {
  RevokeRow row;
  row.live_attaches = live;
  sim::Engine eng(7700 + seed);
  Node node(hw::Machine::r420());
  node.set_kernel_config(cap_config(/*caps=*/true));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(8_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 4_MiB);
    XEMEM_ASSERT(sid.ok());
    auto root = owner.cap_root(sid.value());
    XEMEM_ASSERT(root.ok());
    auto cap = co_await owner.cap_derive(root.value(), CapRights{});
    XEMEM_ASSERT(cap.ok());
    auto grant = co_await user.xpmem_get(cap.value());
    XEMEM_ASSERT(grant.ok());

    // `live` distinct 64 KiB windows, each its own owner pin (mapping
    // reuse is off under capabilities by design).
    std::vector<XpmemAttachment> atts;
    for (u64 i = 0; i < live; ++i) {
      auto att = co_await user.xpmem_attach(*up, grant.value(),
                                            (i % 64) * 64_KiB, 64_KiB);
      XEMEM_ASSERT(att.ok());
      atts.push_back(att.value());
    }

    const sim::TimePoint t0 = sim::now();
    auto rv = co_await owner.cap_revoke(cap.value());
    row.revoke_us = static_cast<double>(sim::now() - t0) / 1000.0;
    XEMEM_ASSERT(rv.ok());
    row.unmaps = owner.stats().revoke_unmaps;

    // Let the one-way unmap fan-out land, then audit convergence.
    co_await sim::delay(2_ms);
    const bool denied =
        (co_await user.xpmem_attach(*up, grant.value(), 0, 64_KiB)).error() ==
        Errc::revoked;
    row.converged = owner.pinned_frames() == 0 &&
                    node.machine().pmem().total_refs() == 0 && denied &&
                    owner.cap_accounting(sid.value()).live_attaches == 0;
  };
  eng.run(main());
  return row;
}

// ------------------------------------- 2. owner-crash-mid-revoke sweep

struct CrashRow {
  u64 crashpoint{0};
  bool crashed{false};     // the hook actually fired
  double run_us{0};        // whole client sequence, issue -> settled
  bool converged{false};   // clean statuses, zero pins/refs at the end
};

bool crash_clean(Errc e) {
  return e == Errc::unreachable || e == Errc::no_such_segid ||
         e == Errc::retry_later || e == Errc::stale_epoch ||
         e == Errc::no_name_server || e == Errc::revoked ||
         e == Errc::permission_denied || e == Errc::not_attached;
}

CrashRow run_crash(u64 k) {
  CrashRow row;
  row.crashpoint = k;
  sim::Engine eng(7800);  // same seed for every k: only the crashpoint moves
  Node node(hw::Machine::r420());
  node.set_kernel_config(cap_config(/*caps=*/true));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user = node.add_cokernel("user", 0, {6, 7}, 256_MiB);
  owner.crash_after_cap_requests(k);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 64_KiB);
    XEMEM_ASSERT(sid.ok());
    auto root = owner.cap_root(sid.value());
    XEMEM_ASSERT(root.ok());

    const sim::TimePoint t0 = sim::now();
    bool clean = true;
    auto cap = co_await user.cap_derive(root.value(), CapRights{});
    if (!cap.ok()) clean = clean && crash_clean(cap.error());
    Result<XpmemAttachment> att{Errc::unreachable};
    if (cap.ok()) {
      auto grant = co_await user.xpmem_get(cap.value());
      if (grant.ok()) {
        att = co_await user.xpmem_attach(*up, grant.value(), 0, 64_KiB);
        if (!att.ok()) clean = clean && crash_clean(att.error());
      } else {
        clean = clean && crash_clean(grant.error());
      }
      auto rv = co_await user.cap_revoke(cap.value());
      if (!rv.ok()) clean = clean && crash_clean(rv.error());
    }
    if (att.ok()) {
      auto d = co_await user.xpmem_detach(*up, att.value());
      if (!d.ok()) clean = clean && crash_clean(d.error());
    }
    row.run_us = static_cast<double>(sim::now() - t0) / 1000.0;
    row.crashed = owner.is_crashed();
    row.converged = clean && owner.pinned_frames() == 0 &&
                    user.pinned_frames() == 0 &&
                    node.machine().pmem().total_refs() == 0;
  };
  eng.run(main());
  return row;
}

// -------------------------------- 3. warm attach, capabilities off vs on

struct WarmRow {
  bool caps{false};
  double cold_us{0};
  double warm_us{0};
  u64 lookup_hits{0};
  u64 walk_hits{0};
  u64 reuse_hits{0};
  u64 ns_requests_during_warm{0};
  bool completed{false};
};

WarmRow run_warm(bool caps, int repeats) {
  WarmRow row;
  row.caps = caps;
  // Star topology: both endpoints are co-kernels, every protocol message
  // transits the management enclave — the attach-path bench's hardest
  // shape, and the same config (short lease expiry excluded) so the off
  // row is directly comparable to BENCH_attach_path.json.
  sim::Engine eng(7900);
  Node node(hw::Machine::r420());
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 6;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  cfg.enable_attach_fast_path();
  if (caps) cfg.enable_capabilities();
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(8_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 4_MiB);
    XEMEM_ASSERT(sid.ok());
    auto grant = co_await user.xpmem_get(sid.value());
    XEMEM_ASSERT(grant.ok());

    // The cold attach stays live across the warm loop: with capabilities
    // off the attacher's reuse cache can then serve repeat attaches of
    // the same range without an owner round-trip; with capabilities on
    // that cache is disabled by design (it cannot observe revocation), so
    // every warm attach pays the owner round-trip that re-validates
    // rights. The delta between the rows is the price of revocability.
    const sim::TimePoint c0 = sim::now();
    auto base = co_await user.xpmem_attach(*up, grant.value(), 0, 4_MiB);
    row.cold_us = static_cast<double>(sim::now() - c0) / 1000.0;
    XEMEM_ASSERT(base.ok());

    bool ok = true;
    u64 warm_ns_total = 0;
    const u64 ns_before_warm = mgmt.stats().ns_requests;
    for (int i = 0; i < repeats; ++i) {
      const sim::TimePoint t0 = sim::now();
      auto att = co_await user.xpmem_attach(*up, grant.value(), 0, 4_MiB);
      warm_ns_total += sim::now() - t0;
      ok = ok && att.ok();
      if (att.ok()) ok = (co_await user.xpmem_detach(*up, att.value())).ok() && ok;
    }
    row.warm_us = static_cast<double>(warm_ns_total) / repeats / 1000.0;
    row.ns_requests_during_warm = mgmt.stats().ns_requests - ns_before_warm;
    ok = (co_await user.xpmem_detach(*up, base.value())).ok() && ok;
    row.lookup_hits = user.stats().lookup_cache_hits;
    row.walk_hits = owner.stats().walk_cache_hits;
    row.reuse_hits = user.stats().reuse_hits;
    row.completed = ok && node.machine().pmem().total_refs() == 0;
  };
  eng.run(main());
  return row;
}

// ------------------------------------------------------------------ main

void write_json(const std::string& path, const std::vector<RevokeRow>& rev,
                const std::vector<CrashRow>& crash,
                const std::vector<WarmRow>& warm, bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_capability\",\n");
  std::fprintf(f, "  \"revocation_latency\": [\n");
  for (size_t i = 0; i < rev.size(); ++i) {
    std::fprintf(f,
                 "    {\"live_attaches\": %llu, \"revoke_us\": %.2f, "
                 "\"unmaps\": %llu, \"converged\": %s}%s\n",
                 static_cast<unsigned long long>(rev[i].live_attaches),
                 rev[i].revoke_us,
                 static_cast<unsigned long long>(rev[i].unmaps),
                 rev[i].converged ? "true" : "false",
                 i + 1 < rev.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"crash_sweep\": [\n");
  for (size_t i = 0; i < crash.size(); ++i) {
    std::fprintf(f,
                 "    {\"crashpoint\": %llu, \"crashed\": %s, "
                 "\"run_us\": %.2f, \"converged\": %s}%s\n",
                 static_cast<unsigned long long>(crash[i].crashpoint),
                 crash[i].crashed ? "true" : "false", crash[i].run_us,
                 crash[i].converged ? "true" : "false",
                 i + 1 < crash.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"warm_attach\": [\n");
  for (size_t i = 0; i < warm.size(); ++i) {
    std::fprintf(
        f,
        "    {\"capabilities\": %s, \"cold_us\": %.2f, \"warm_us\": %.2f, "
        "\"lookup_cache_hits\": %llu, \"walk_cache_hits\": %llu, "
        "\"reuse_hits\": %llu, \"ns_requests_during_warm\": %llu, "
        "\"completed\": %s}%s\n",
        warm[i].caps ? "true" : "false", warm[i].cold_us, warm[i].warm_us,
        static_cast<unsigned long long>(warm[i].lookup_hits),
        static_cast<unsigned long long>(warm[i].walk_hits),
        static_cast<unsigned long long>(warm[i].reuse_hits),
        static_cast<unsigned long long>(warm[i].ns_requests_during_warm),
        warm[i].completed ? "true" : "false", i + 1 < warm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_checks_passed\": %s\n}\n",
               passed ? "true" : "false");
  std::fclose(f);
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
      "Ablation: capability permissions and live revocation",
      "DESIGN.md §9 — cap_revoke sweeps every live attachment under the "
      "revoked subtree (cost vs attachment count), owner-crash-mid-revoke "
      "recovery stays inside the lease + retry budget, and the machinery "
      "costs nothing while KernelConfig::capabilities is off");

  // 1. Revocation latency vs live attachments.
  const std::vector<u64> counts =
      quick ? std::vector<u64>{1, 8} : std::vector<u64>{1, 4, 16, 64};
  std::vector<RevokeRow> rev;
  std::printf("revocation latency vs live attachments:\n");
  std::printf("%10s %12s %8s %10s\n", "attaches", "revoke_us", "unmaps",
              "converged");
  u64 seed = 1;
  for (u64 n : counts) {
    rev.push_back(run_revocation(n, seed++));
    const auto& r = rev.back();
    std::printf("%10llu %12.2f %8llu %10s\n",
                static_cast<unsigned long long>(r.live_attaches), r.revoke_us,
                static_cast<unsigned long long>(r.unmaps),
                r.converged ? "yes" : "NO");
  }

  // 2. Owner-crash-mid-revoke sweep.
  const u64 max_k = quick ? 4 : 6;
  std::vector<CrashRow> crash;
  std::printf("\nowner crashpoint sweep (k = command before which the owner "
              "dies; 0 = no crash):\n");
  std::printf("%6s %8s %12s %10s\n", "k", "crashed", "run_us", "converged");
  for (u64 k = 0; k <= max_k; ++k) {
    crash.push_back(run_crash(k));
    const auto& c = crash.back();
    std::printf("%6llu %8s %12.2f %10s\n",
                static_cast<unsigned long long>(c.crashpoint),
                c.crashed ? "yes" : "no", c.run_us,
                c.converged ? "yes" : "NO");
  }

  // 3. Warm attach with capabilities off vs on.
  const int reps = quick ? 8 : 16;
  std::vector<WarmRow> warm{run_warm(false, reps), run_warm(true, reps)};
  std::printf("\nwarm attach (star topology, fast path on, %d repeats):\n",
              reps);
  std::printf("%6s %9s %9s %8s %8s %8s %8s\n", "caps", "cold_us", "warm_us",
              "lookup", "walk", "reuse", "warm_ns");
  for (const auto& w : warm) {
    std::printf("%6s %9.1f %9.1f %8llu %8llu %8llu %8llu\n",
                w.caps ? "on" : "off", w.cold_us, w.warm_us,
                static_cast<unsigned long long>(w.lookup_hits),
                static_cast<unsigned long long>(w.walk_hits),
                static_cast<unsigned long long>(w.reuse_hits),
                static_cast<unsigned long long>(w.ns_requests_during_warm));
  }

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;

  bool rev_ok = true, rev_conv = true;
  for (const auto& r : rev) {
    rev_ok = rev_ok && r.unmaps == r.live_attaches;
    rev_conv = rev_conv && r.converged;
  }
  checks.expect(rev_ok, "revocation unmaps exactly the live attachments");
  checks.expect(rev_conv,
                "every revocation converges: pins drain, refs zero, "
                "re-attach denied");
  const RevokeRow& small = rev.front();
  const RevokeRow& big = rev.back();
  checks.expect(big.revoke_us >= small.revoke_us,
                "sweep cost grows with the attachment count");
  if (big.live_attaches > small.live_attaches) {
    const double marginal = (big.revoke_us - small.revoke_us) /
                            static_cast<double>(big.live_attaches -
                                                small.live_attaches);
    checks.expect(marginal <= small.revoke_us + 1.0,
                  "per-attachment sweep cost is bounded (linear, no blowup)");
  }

  bool sweep_conv = true, any_crashed = false;
  for (const auto& c : crash) {
    sweep_conv = sweep_conv && c.converged;
    any_crashed = any_crashed || c.crashed;
  }
  checks.expect(crash.front().crashed == false && crash.front().converged,
                "k=0 (no crash) completes the full chain");
  checks.expect(any_crashed, "the sweep actually kills the owner mid-protocol");
  checks.expect(sweep_conv,
                "every crashpoint converges with clean statuses and no leaks");
  // Budget: lease expiry plus a full retry cycle per protocol step (4
  // steps), generously doubled — "bounded" means no unbounded retry loop.
  {
    const KernelConfig cfg = cap_config(true);
    const double budget_us =
        static_cast<double>(cfg.lease_duration +
                            4 * (cfg.max_retries + 1) *
                                (cfg.request_timeout + cfg.backoff_max)) /
        1000.0 * 2.0;
    bool bounded = true;
    for (const auto& c : crash) bounded = bounded && c.run_us <= budget_us;
    checks.expect(bounded, "crash recovery stays inside the lease+retry budget");
  }

  checks.expect(warm[0].completed && warm[1].completed,
                "warm-attach runs complete and leak nothing");
  checks.expect(warm[0].ns_requests_during_warm == 0,
                "capabilities off: warm attaches never touch the name server");
  checks.expect(warm[0].reuse_hits > 0,
                "capabilities off: attacher mapping reuse engages (the "
                "pre-capability fast path is intact)");
  checks.expect(warm[1].reuse_hits == 0,
                "capabilities on: mapping reuse is disabled (a cached "
                "mapping cannot observe revocation)");
  checks.expect(warm[0].warm_us <= warm[1].warm_us,
                "capabilities off is never slower than on (pay-for-use)");
  checks.expect(warm[1].walk_hits > 0,
                "capabilities on: the owner's walk cache still serves warm "
                "attaches (after the rights check)");

  if (!json_path.empty()) {
    write_json(json_path, rev, crash, warm, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
