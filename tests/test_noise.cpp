// Tests for the lazy per-core noise timeline (hw::Core::add_noise).
//
// The reference is the eager model the timeline replaces: each noise
// component as a detached actor that sleeps through its seeded gaps and
// charges every firing through Core::run_irq, costing engine events per
// firing. The lazy timeline must reproduce that model's core state and
// compute finish times exactly while scheduling no events of its own.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hw/core.hpp"
#include "hw/noise.hpp"
#include "sim/engine.hpp"

namespace xemem::hw {
namespace {

/// Eager reference actor: one component on one core. Counts the engine
/// events it consumes in @p events (its start plus every resumption).
sim::Task<void> eager_noise_actor(Core* core, NoiseComponent c, Rng rng,
                                  sim::TimePoint until, u64* events) {
  ++*events;
  // Random initial phase so components do not all fire at t=0.
  co_await sim::delay(static_cast<u64>(rng.uniform(0.0, c.period_ns)));
  ++*events;
  while (sim::now() < until) {
    const double gap =
        c.poisson_arrivals
            ? rng.exponential(c.period_ns)
            : c.period_ns * rng.uniform(1.0 - c.period_jitter, 1.0 + c.period_jitter);
    co_await sim::delay(static_cast<u64>(std::max(gap, 1.0)));
    ++*events;
    if (sim::now() >= until) break;
    const double dur =
        c.duration_sigma == 0.0
            ? c.duration_median_ns
            : rng.lognormal(std::log(c.duration_median_ns), c.duration_sigma);
    co_await core->run_irq(static_cast<u64>(std::max(dur, 1.0)));
    ++*events;
  }
}

void spawn_eager_noise(sim::Engine& eng, Core& core, const NoiseProfile& profile,
                       Rng& parent_rng, sim::TimePoint until, u64* events) {
  for (const auto& c : profile.components) {
    eng.spawn(eager_noise_actor(&core, c, parent_rng.fork(), until, events));
  }
}

/// What an observer of one core can see.
struct Observed {
  std::vector<sim::TimePoint> compute_ends;  ///< finish of every compute()
  std::vector<u64> stolen_at_ends;           ///< stolen_ns() at each finish
  u64 stolen_ns{0};
  u64 irq_events{0};
  sim::TimePoint irq_free_at{0};
  u64 events{0};        ///< engine events processed
  u64 noise_events{0};  ///< of which eager noise actors consumed
};

constexpr sim::TimePoint kHorizon = 3_s;
constexpr sim::TimePoint kLongHandlerAt = 2_s;
constexpr sim::Duration kLongHandler = 50_ms;
/// Noise stops inside the long real handler: arrivals queued behind it
/// start after `until`, run, and end their streams.
constexpr sim::TimePoint kUntil = kLongHandlerAt + 20_ms;

/// Drive one core through a seeded script of real handlers and compute
/// calls with @p profiles' noise on it, eager or lazy.
Observed drive(bool lazy, const std::vector<NoiseProfile>& profiles, u64 seed) {
  sim::Engine eng(seed);
  Core core(0, 0);
  Observed out;
  Rng noise_rng(seed);
  for (const auto& p : profiles) {
    if (lazy) {
      spawn_noise(eng, core, p, noise_rng, kUntil);
    } else {
      spawn_eager_noise(eng, core, p, noise_rng, kUntil, &out.noise_events);
    }
  }
  Rng script(seed * 31 + 7);
  auto real_irqs = [&]() -> sim::Task<void> {
    while (sim::now() < kHorizon - 100_ms) {
      co_await sim::delay(static_cast<u64>(script.uniform(500e3, 5e6)));
      co_await core.run_irq(static_cast<u64>(script.uniform(1e3, 200e3)));
    }
  };
  auto long_irq = [&]() -> sim::Task<void> {
    co_await sim::delay_until(kLongHandlerAt);
    co_await core.run_irq(kLongHandler);
  };
  auto app = [&]() -> sim::Task<void> {
    Rng work(seed * 17 + 3);
    while (sim::now() < kHorizon) {
      co_await core.compute(static_cast<u64>(work.uniform(50e3, 2e6)));
      out.compute_ends.push_back(sim::now());
      out.stolen_at_ends.push_back(core.stolen_ns());
    }
  };
  eng.spawn(real_irqs());
  eng.spawn(long_irq());
  eng.run(app());
  out.stolen_ns = core.stolen_ns();
  out.irq_events = core.irq_events();
  out.irq_free_at = core.irq_free_at();
  out.events = eng.events_processed();
  return out;
}

struct ProfileCase {
  const char* name;
  std::vector<NoiseProfile> profiles;
};

void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

class LazyNoiseEquivalence : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(LazyNoiseEquivalence, MatchesEagerActors) {
  for (u64 seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const Observed eager = drive(false, GetParam().profiles, seed);
    const Observed lazy = drive(true, GetParam().profiles, seed);
    ASSERT_GT(eager.noise_events, 0u);
    EXPECT_EQ(lazy.stolen_ns, eager.stolen_ns);
    EXPECT_EQ(lazy.irq_events, eager.irq_events);
    EXPECT_EQ(lazy.irq_free_at, eager.irq_free_at);
    EXPECT_EQ(lazy.compute_ends, eager.compute_ends);
    EXPECT_EQ(lazy.stolen_at_ends, eager.stolen_at_ends);
    // Same compute wakeups, no noise events.
    EXPECT_EQ(lazy.events, eager.events - eager.noise_events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, LazyNoiseEquivalence,
    ::testing::Values(ProfileCase{"smi", {smi_noise()}},
                      ProfileCase{"kitten", {kitten_noise()}},
                      ProfileCase{"linux", {linux_noise()}},
                      ProfileCase{"vm_linux", {vm_linux_noise()}},
                      ProfileCase{"linux_on_vm_core",
                                  {smi_noise(), vm_linux_noise(), linux_noise()}}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) {
      return std::string(info.param.name);
    });

TEST(LazyNoise, RunUntilIdleTerminatesWithEndlessNoise) {
  sim::Engine eng;
  Core core(0, 0);
  Rng rng(3);
  spawn_noise(eng, core, linux_noise(), rng);  // until: forever
  auto sleeper = [&]() -> sim::Task<void> { co_await sim::delay(10_ms); };
  eng.spawn(sleeper());
  eng.run_until_idle();
  EXPECT_EQ(eng.now(), 10_ms);
  EXPECT_EQ(eng.events_processed(), 2u) << "noise schedules no events";
  EXPECT_GE(core.irq_events(), 8u) << "1 kHz ticks over 10 ms";
}

TEST(LazyNoise, ReadsAfterRunMaterializeAtEngineNow) {
  constexpr sim::Duration kRun = 1_s + 123_us;
  sim::Engine eng(5);
  Core core(0, 0);
  Rng rng(8);
  spawn_noise(eng, core, linux_noise(), rng);
  u64 stolen_inside = 0;
  u64 events_inside = 0;
  auto main = [&]() -> sim::Task<void> {
    co_await sim::delay(kRun);
    stolen_inside = core.stolen_ns();
    events_inside = core.irq_events();
  };
  eng.run(main());
  EXPECT_EQ(core.stolen_ns(), stolen_inside);
  EXPECT_EQ(core.irq_events(), events_inside);

  // The eager model run to the same instant saw the same firings.
  sim::Engine ref_eng(5);
  Core ref(0, 0);
  Rng ref_rng(8);
  u64 unused = 0;
  spawn_eager_noise(ref_eng, ref, linux_noise(), ref_rng, ~u64{0}, &unused);
  ref_eng.run_until(eng.now());
  EXPECT_EQ(core.stolen_ns(), ref.stolen_ns());
  EXPECT_EQ(core.irq_events(), ref.irq_events());

  // Advancing the clock materializes further arrivals on the next read.
  eng.run_until(eng.now() + 100_ms);
  EXPECT_GT(core.irq_events(), events_inside);
}

// Tie rule: a noise arrival at the same nanosecond a real handler starts
// runs first, and the real handler queues behind it.
TEST(LazyNoise, NoiseArrivalPrecedesRealHandlerAtSameInstant) {
  const NoiseComponent tick{"tick", 1e6, /*jitter=*/0.0, /*poisson=*/false,
                            /*median=*/5e3, /*sigma=*/0.0};
  const NoiseProfile profile{"tick", {tick}};
  sim::Engine eng;
  Core core(0, 0);
  Rng rng(11);
  // Replay the stream's documented draws: phase, then the first gap
  // (jitter 0 still consumes a uniform draw).
  Rng replay = Rng(rng).fork();
  const u64 phase = static_cast<u64>(replay.uniform(0.0, tick.period_ns));
  const u64 first_arrival = phase + static_cast<u64>(tick.period_ns);
  spawn_noise(eng, core, profile, rng);

  sim::TimePoint real_end = 0;
  auto real = [&]() -> sim::Task<void> {
    co_await sim::delay_until(first_arrival);
    co_await core.run_irq(2_us);
    real_end = sim::now();
  };
  eng.run(real());
  EXPECT_EQ(real_end, first_arrival + 5_us + 2_us);
  EXPECT_EQ(core.irq_events(), 2u);
  EXPECT_EQ(core.stolen_ns(), 7_us);
}

}  // namespace
}  // namespace xemem::hw
