// Ablation: protocol behavior under deterministic channel faults.
//
// The paper's deployments (section 7) run composed applications for hours
// across independently-managed enclaves; the protocol layer must tolerate
// lost or duplicated channel messages without wedging an attach or leaking
// pins. This harness sweeps a uniform message-loss rate over the standard
// mgmt+co-kernel topology and measures attach latency, goodput, and the
// retry/dedup work the recovery machinery performs. Zero loss must cost
// zero retries (the fault layer and dedup caches are pay-for-use).
#include "bench_util.hpp"
#include "xemem/fault.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

constexpr u64 kRegion = 8ull << 20;  // 8 MiB per attach
constexpr int kIterations = 30;

struct LossResult {
  double attach_us_mean{0};   // mean attach round-trip, microseconds
  double goodput_gbps{0};     // attached bytes / total wall time
  u64 retries{0};             // requester-side re-sends after timeout
  u64 dup_suppressed{0};      // replays answered from dedup caches
  u64 dropped{0};             // messages the injector swallowed
  bool completed{false};      // every op eventually succeeded
};

LossResult run_loss(double loss, u64 seed) {
  sim::Engine eng(9000 + seed);
  Node node(hw::Machine::r420());
  // Tight policy so retries resolve in simulated milliseconds; generous
  // retry budget so even 20% loss converges deterministically.
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 8;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  node.set_kernel_config(cfg);
  if (loss > 0.0) node.enable_fault_injection(FaultSpec::loss(loss), seed);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  LossResult out;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* owner = node.enclave("ck").create_process(kRegion + kPageSize).value();
    os::Process* user = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*owner, owner->image_base(), kRegion);
    XEMEM_ASSERT(sid.ok());
    auto grant = co_await mgmt.xpmem_get(sid.value());
    XEMEM_ASSERT(grant.ok());

    const u64 t_begin = sim::now();
    u64 attach_ns_total = 0;
    bool ok = true;
    for (int i = 0; i < kIterations; ++i) {
      const u64 t0 = sim::now();
      auto att = co_await mgmt.xpmem_attach(*user, grant.value(), 0, kRegion);
      attach_ns_total += sim::now() - t0;
      ok = ok && att.ok();
      if (att.ok()) ok = (co_await mgmt.xpmem_detach(*user, att.value())).ok() && ok;
    }
    const u64 wall = sim::now() - t_begin;

    out.completed = ok;
    out.attach_us_mean =
        static_cast<double>(attach_ns_total) / kIterations / 1000.0;
    out.goodput_gbps = gb_per_s(kRegion * static_cast<u64>(kIterations), wall);
    out.retries = mgmt.stats().retries + ck.stats().retries;
    out.dup_suppressed = mgmt.stats().dup_suppressed + ck.stats().dup_suppressed;
    for (const auto& ep : node.faulty_endpoints()) out.dropped += ep->fault_stats().dropped;
  };
  eng.run(main());
  return out;
}

}  // namespace
}  // namespace xemem

int main() {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::header(
      "Ablation: attach latency and goodput under channel message loss",
      "recovery is retry/backoff + idempotent replay (dedup caches); zero "
      "loss pays zero overhead, and latency degrades with loss rate instead "
      "of wedging");

  const double losses[] = {0.0, 0.05, 0.10, 0.20};
  LossResult res[4];
  std::printf("%-8s %14s %14s %10s %10s %10s %10s\n", "loss", "attach_us",
              "goodput_gbps", "retries", "dup_supp", "dropped", "done");
  for (int i = 0; i < 4; ++i) {
    res[i] = run_loss(losses[i], /*seed=*/77);
    std::printf("%-8.2f %14.1f %14.2f %10llu %10llu %10llu %10s\n", losses[i],
                res[i].attach_us_mean, res[i].goodput_gbps,
                static_cast<unsigned long long>(res[i].retries),
                static_cast<unsigned long long>(res[i].dup_suppressed),
                static_cast<unsigned long long>(res[i].dropped),
                res[i].completed ? "yes" : "NO");
  }

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  bool all_done = true;
  for (const auto& r : res) all_done = all_done && r.completed;
  checks.expect(all_done, "every workload completes at every loss rate");
  checks.expect(res[0].retries == 0 && res[0].dropped == 0,
                "zero loss costs zero retries (recovery is pay-for-use)");
  bool lossy_retries = true;
  for (int i = 1; i < 4; ++i) lossy_retries = lossy_retries && res[i].retries > 0;
  checks.expect(lossy_retries, "lossy channels recover via retries");
  checks.expect(res[3].attach_us_mean > res[0].attach_us_mean,
                "loss costs latency (timeout + backoff), visibly at 20%");
  checks.expect(res[3].goodput_gbps < res[0].goodput_gbps,
                "goodput degrades with loss instead of wedging to zero");

  // Determinism spot check: the same seed reproduces the 10% row exactly.
  const LossResult again = run_loss(0.10, /*seed=*/77);
  checks.expect(again.retries == res[2].retries &&
                    again.attach_us_mean == res[2].attach_us_mean,
                "fault schedule is deterministic per seed");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
