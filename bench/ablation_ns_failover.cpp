// Ablation: name-service failover (DESIGN.md §"Name-service failover").
//
// The name server is the paper's one centralized component: every segid
// mint, name lookup, and route resolution crosses it. This harness kills
// it at every protocol step of a make/get/attach/read/detach/release/
// remove workload (the deterministic crashpoint sweep) and reports, per
// crashpoint, whether the system converged: every operation completed or
// failed with a clean retryable/terminal status, no coroutine hung, the
// owner's pins drained to zero, and — when the standby promoted — a
// post-recovery attach round-tripped data through a segid minted in the
// new epoch. The k = 0 baseline row doubles as the pay-for-use check: no
// failover machinery fires when nothing dies.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "xemem/system.hpp"
#include "xemem/wire.hpp"

namespace xemem {
namespace {

struct Row {
  u64 crashpoint{0};       // kill NS before its k-th command (0 = never)
  bool converged{false};   // ops clean + pins drained (+ recovery if promoted)
  bool promoted{false};    // a standby took over
  double recovery_us{0};   // promotion -> first re-registration
  u64 epoch_rejects{0};    // stale-epoch requests bounced by the new NS
  u64 reregistrations{0};  // survivor replay rounds absorbed
  u64 retries{0};          // client-side retries spent converging
  u64 ns_requests{0};      // commands the boot NS processed before dying
  double sim_ms{0};        // simulated time the scenario took
};

KernelConfig failover_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 2;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  cfg.enable_ns_failover();
  cfg.ns_probe_period = 500_us;
  cfg.ns_probe_misses = 2;
  cfg.ns_recovery_grace = 4_ms;
  cfg.discovery_max_rounds = 16;
  return cfg;
}

bool clean_error(Errc e) {
  return e == Errc::unreachable || e == Errc::no_name_server ||
         e == Errc::retry_later || e == Errc::stale_epoch ||
         e == Errc::no_such_segid;
}

Row run_case(u64 k) {
  Row row;
  row.crashpoint = k;
  sim::Engine eng(7500);  // same seed for every k: only the crashpoint moves
  Node node(hw::Machine::r420());
  node.set_kernel_config(failover_config());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck1 = node.add_cokernel("ck1", 0, {4, 5}, 256_MiB);
  auto& ck2 = node.add_cokernel("ck2", 0, {6, 7}, 256_MiB);
  node.link_peers("ck1", "ck2");  // survivors stay connected sans hub
  mgmt.crash_after_ns_requests(k);

  auto main = [&]() -> sim::Task<void> {
    bool clean = true;
    co_await node.start();
    os::Process* op = node.enclave("ck2").create_process(8_MiB).value();
    os::Process* up = node.enclave("ck1").create_process(1_MiB).value();
    std::vector<u8> pattern(64_KiB);
    for (size_t i = 0; i < pattern.size(); ++i) pattern[i] = u8(i * 53 + k);
    if (ck2.id().valid()) {
      clean = node.enclave("ck2")
                  .proc_write(*op, op->image_base(), pattern.data(),
                              pattern.size())
                  .ok() &&
              clean;
    }

    Result<Segid> sid{Errc::unreachable};
    for (int i = 0; i < 120; ++i) {
      sid = co_await ck2.xpmem_make(*op, op->image_base(), 64_KiB, "sweep");
      if (sid.ok()) break;
      clean = clean && clean_error(sid.error());
      if (!clean || sid.error() == Errc::no_name_server) break;
      co_await sim::delay(500_us);
    }

    Result<XpmemGrant> grant{Errc::unreachable};
    Result<XpmemAttachment> att{Errc::unreachable};
    if (clean && sid.ok()) {
      for (int i = 0; i < 120; ++i) {
        grant = co_await ck1.xpmem_get(sid.value());
        if (grant.ok()) {
          att = co_await ck1.xpmem_attach(*up, grant.value(), 0, 64_KiB);
          if (att.ok()) break;
          clean = clean && clean_error(att.error());
          (void)co_await ck1.xpmem_release(grant.value());
          grant = Errc::unreachable;
        } else {
          clean = clean && clean_error(grant.error());
          if (grant.error() == Errc::no_name_server) break;
        }
        if (!clean) break;
        co_await sim::delay(500_us);
      }
    }
    if (att.ok()) {
      co_await node.enclave("ck1").touch_attached(*up, att.value().va,
                                                  att.value().pages);
      std::vector<u8> got(pattern.size());
      clean = node.enclave("ck1")
                  .proc_read(*up, att.value().va, got.data(), got.size())
                  .ok() &&
              got == pattern && clean;

      Result<void> d{Errc::unreachable};
      for (int i = 0; i < 240; ++i) {
        d = co_await ck1.xpmem_detach(*up, att.value());
        if (d.ok() || d.error() == Errc::not_attached) break;
        clean = clean && clean_error(d.error());
        if (!clean) break;
        co_await sim::delay(500_us);
      }
      clean = clean && (d.ok() || d.error() == Errc::not_attached);
    }
    if (grant.ok()) (void)co_await ck1.xpmem_release(grant.value());
    if (sid.ok()) {
      Result<void> rm{Errc::unreachable};
      for (int i = 0; i < 240; ++i) {
        rm = co_await ck2.xpmem_remove(*op, sid.value());
        if (rm.ok() || rm.error() == Errc::no_such_segid) break;
        clean = clean && (clean_error(rm.error()) || rm.error() == Errc::busy);
        if (!clean) break;
        co_await sim::delay(500_us);
      }
      clean = clean && (rm.ok() || rm.error() == Errc::no_such_segid);
    }

    // Pins and frame refs must drain no matter where the NS died.
    clean = clean && ck1.pinned_frames() == 0 && ck2.pinned_frames() == 0 &&
            node.machine().pmem().total_refs() == 0;

    XememKernel* ns =
        ck1.is_name_server() ? &ck1 : (ck2.is_name_server() ? &ck2 : nullptr);
    row.promoted = ns != nullptr;
    if (ns != nullptr) {
      // Post-recovery proof: an epoch-2 segid round-trips data.
      XememKernel* peer = ns == &ck1 ? &ck2 : &ck1;
      os::Enclave& ns_os = node.enclave(ns == &ck1 ? "ck1" : "ck2");
      os::Enclave& peer_os = node.enclave(ns == &ck1 ? "ck2" : "ck1");
      os::Process* np = ns_os.create_process(1_MiB).value();
      os::Process* pp = ns == &ck1 ? up : op;
      std::vector<u8> fresh(4_KiB);
      for (size_t i = 0; i < fresh.size(); ++i) fresh[i] = u8(i * 17 + 3);
      clean = ns_os.proc_write(*np, np->image_base(), fresh.data(),
                               fresh.size())
                  .ok() &&
              clean;
      auto nsid = co_await ns->xpmem_make(*np, np->image_base(), 4_KiB);
      clean = clean && nsid.ok() &&
              segid_epoch(nsid.value()) == ns->ns_epoch() && ns->ns_epoch() >= 2;
      Result<XpmemGrant> g2{Errc::unreachable};
      Result<XpmemAttachment> a2{Errc::unreachable};
      if (clean) {
        for (int i = 0; i < 240; ++i) {
          g2 = co_await peer->xpmem_get(nsid.value());
          if (g2.ok()) {
            a2 = co_await peer->xpmem_attach(*pp, g2.value(), 0, 4_KiB);
            if (a2.ok()) break;
            (void)co_await peer->xpmem_release(g2.value());
            g2 = Errc::unreachable;
          }
          co_await sim::delay(500_us);
        }
      }
      if (a2.ok()) {
        co_await peer_os.touch_attached(*pp, a2.value().va, a2.value().pages);
        std::vector<u8> got(fresh.size());
        clean = peer_os.proc_read(*pp, a2.value().va, got.data(), got.size())
                    .ok() &&
                got == fresh && clean;
        clean = (co_await peer->xpmem_detach(*pp, a2.value())).ok() && clean;
        clean = (co_await peer->xpmem_release(g2.value())).ok() && clean;
      } else {
        clean = false;
      }
      clean = clean && node.machine().pmem().total_refs() == 0;
      row.recovery_us =
          static_cast<double>(ns->stats().recovery_latency) / 1000.0;
      row.epoch_rejects = ns->stats().epoch_rejects;
      row.reregistrations = ns->stats().reregistrations;
    }
    row.retries = ck1.stats().retries + ck2.stats().retries;
    row.ns_requests = mgmt.stats().ns_requests;
    row.sim_ms = static_cast<double>(sim::now()) / 1e6;
    row.converged = clean;
  };
  eng.run(main());
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%10s %9s %8s %11s %12s %7s %7s %9s %7s\n", "crashpoint",
              "converged", "failover", "recovery_us", "epoch_rejects", "rereg",
              "retries", "ns_reqs", "sim_ms");
  for (const auto& r : rows) {
    std::printf("%10llu %9s %8s %11.1f %12llu %7llu %7llu %9llu %7.1f\n",
                static_cast<unsigned long long>(r.crashpoint),
                r.converged ? "yes" : "NO", r.promoted ? "yes" : "no",
                r.recovery_us, static_cast<unsigned long long>(r.epoch_rejects),
                static_cast<unsigned long long>(r.reregistrations),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.ns_requests), r.sim_ms);
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_ns_failover\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"crashpoint\": %llu, \"converged\": %s, \"failover\": %s, "
        "\"recovery_us\": %.2f, \"epoch_rejects\": %llu, "
        "\"reregistrations\": %llu, \"retries\": %llu, "
        "\"ns_requests\": %llu, \"sim_ms\": %.3f}%s\n",
        static_cast<unsigned long long>(r.crashpoint),
        r.converged ? "true" : "false", r.promoted ? "true" : "false",
        r.recovery_us, static_cast<unsigned long long>(r.epoch_rejects),
        static_cast<unsigned long long>(r.reregistrations),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.ns_requests), r.sim_ms,
        i + 1 < rows.size() ? "," : "");
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
      "Ablation: name-service failover (crashpoint sweep)",
      "the name server is the one centralized component; this sweep kills "
      "it before every command it would process and checks that the "
      "epoch-guarded standby promotion converges: ops complete or fail "
      "cleanly, pins drain, and post-recovery attaches round-trip data "
      "through segids minted in the new epoch");

  // Baseline (k = 0) sizes the sweep: the boot NS's command count bounds
  // the interesting crashpoints.
  std::vector<Row> rows;
  rows.push_back(run_case(0));
  const u64 total = rows[0].ns_requests;
  const u64 stride = quick ? 4 : 1;
  for (u64 k = 1; k <= total + 2; k += stride) rows.push_back(run_case(k));
  print_rows(rows);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(total > 4, "baseline exercises the name server");
  checks.expect(!rows[0].promoted && rows[0].epoch_rejects == 0 &&
                    rows[0].reregistrations == 0,
                "pay-for-use: no failover machinery fires in the baseline");
  bool all_converged = true;
  u64 promotions = 0;
  double max_recovery_us = 0;
  for (const auto& r : rows) {
    all_converged = all_converged && r.converged;
    if (r.promoted) {
      ++promotions;
      if (r.recovery_us > max_recovery_us) max_recovery_us = r.recovery_us;
    }
  }
  checks.expect(all_converged, "every crashpoint converges (no hang, no leak)");
  checks.expect(promotions > 0, "the sweep exercises actual promotions");
  checks.expect(max_recovery_us > 0,
                "promoted runs measure a nonzero recovery latency");
  // A very early crashpoint can promote before any non-standby survivor
  // owns an export (nothing to replay), so the replay requirement holds
  // over the sweep, not per row.
  u64 max_rereg = 0;
  for (const auto& r : rows) {
    if (r.promoted && r.reregistrations > max_rereg) {
      max_rereg = r.reregistrations;
    }
  }
  checks.expect(max_rereg >= 1,
                "promotions after an export exists absorb survivor replays");

  if (!json_path.empty()) {
    write_json(json_path, rows, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
