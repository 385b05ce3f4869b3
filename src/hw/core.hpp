// Simulated CPU cores with interrupt accounting.
//
// A Core models one hardware thread. Two kinds of activity execute on it:
//
//  * Interrupt-context work: IPI handlers, kernel service and channel
//    copies charged through `run_irq`, plus the OS/hardware noise streams
//    attached with `add_noise` (timer ticks, SMIs, daemon bursts).
//    Handlers are serialized per core — exactly the property that makes
//    the Pisces channel's core-0 restriction a contention point (paper
//    section 5.3).
//  * Application compute (`compute`): workload phases charge virtual CPU
//    time; any interrupt-context time that lands on the core while a
//    computation is in flight *steals* from it, extending the computation.
//    This is the mechanism behind both the OS-noise experiment (Figure 7,
//    where the selfish-detour loop observes the stolen gaps) and the
//    variance of the Linux-only in-situ configurations (Figures 8 and 9).
//
// Noise is a lazily materialized timeline, not engine events. Its only
// observable effects are the busy time compute() steals and the
// serialization against real handlers, so the core keeps each stream's
// next arrival and fires every arrival <= now (in arrival order) before
// any operation that reads or changes the core's interrupt state. Two tie
// rules fix the order at a shared nanosecond: among noise streams the one
// whose arrival was scheduled earlier fires first (then spawn order), and
// a noise arrival fires before a real handler that starts at that time.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace xemem::hw {

/// One recurring source of stolen CPU time on a core. The calibrated
/// models (SMIs, Kitten, Linux, guest Linux) are in hw/noise.hpp.
struct NoiseComponent {
  const char* name;
  /// Mean inter-arrival time. Periodic sources use uniform jitter around
  /// this; Poisson sources draw exponential inter-arrivals.
  double period_ns;
  /// For periodic sources: uniform jitter fraction (0.2 = +/-20%).
  double period_jitter;
  bool poisson_arrivals;
  /// Event duration: lognormal with this median...
  double duration_median_ns;
  /// ...and this sigma (log-space). sigma 0 gives deterministic durations.
  double duration_sigma;
};

class Core {
 public:
  Core(u32 id, u32 socket) : id_(id), socket_(socket) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  u32 id() const { return id_; }
  u32 socket() const { return socket_; }

  /// Engine partition this core's machine belongs to (multi-node runs tag
  /// every core with its node's partition; see DESIGN.md §12). Core time
  /// may only be charged from that partition — charging it from another
  /// would entangle two nodes' clocks outside the channel lookahead, so
  /// run_irq/compute assert the executing partition matches.
  void set_partition(u32 p) { partition_ = p; }
  u32 partition() const { return partition_; }

  /// Attach a noise stream of component @p c drawing from @p rng, active
  /// from @p eng's current time until simulated time @p until. Draw order
  /// per stream: a uniform phase in [0, period), then one (gap, duration)
  /// pair per firing; each gap is measured from the end of the previous
  /// handler. The stream schedules no engine events, and @p eng must
  /// outlive every later read of this core.
  void add_noise(const sim::Engine& eng, const NoiseComponent& c, Rng rng,
                 sim::TimePoint until) {
    XEMEM_ASSERT_MSG(noise_eng_ == nullptr || noise_eng_ == &eng,
                     "noise streams of one core must share an engine");
    noise_eng_ = &eng;
    NoiseStream s{c, rng, until};
    s.arm(eng.now() + static_cast<u64>(s.rng.uniform(0.0, c.period_ns)));
    if (s.next_at == kNever) return;
    next_noise_at_ = std::min(next_noise_at_, s.next_at);
    noise_.push_back(s);
  }

  /// Execute @p d nanoseconds of interrupt-context work on this core.
  /// Handlers are serialized: if another handler is in flight, this one
  /// queues behind it. Completes when the handler finishes.
  ///
  /// Back-to-back handlers merge into contiguous busy segments; the
  /// closed-segment accumulator plus the current segment give an exact
  /// busy-time integral B(t), which compute() uses for precise
  /// stolen-time accounting.
  sim::Task<void> run_irq(sim::Duration d) {
    auto* eng = sim::Engine::current();
    XEMEM_ASSERT_MSG(eng->current_partition() == partition_,
                     "interrupt charged to a core of another partition");
    catch_up();
    co_await sim::delay_until(begin_irq(eng->now(), d));
  }

  /// Total interrupt-busy time in [0, t] for t <= now (or t in the
  /// currently scheduled busy segment).
  u64 busy_integral(sim::TimePoint t) {
    catch_up();
    const sim::TimePoint seg_end = std::min(t, irq_free_at_);
    const u64 current = seg_end > seg_start_ ? seg_end - seg_start_ : 0;
    return busy_closed_ + current;
  }

  /// Execute @p work nanoseconds of application compute on this core.
  /// Interrupt-context time overlapping the computation is stolen from it:
  /// the task finishes after `work` ns of interrupt-free core time, using
  /// the exact busy-interval overlap (a handler outliving the window
  /// blocks the core for its tail but is not double-charged).
  sim::Task<void> compute(sim::Duration work) {
    XEMEM_ASSERT_MSG(
        sim::Engine::current()->current_partition() == partition_,
        "compute charged to a core of another partition");
    u64 remaining = work;
    while (remaining > 0) {
      catch_up();
      // If interrupt context currently owns the core, wait it out.
      if (sim::now() < irq_free_at_) {
        co_await sim::delay_until(irq_free_at_);
        continue;
      }
      const u64 busy_before = busy_integral(sim::now());
      co_await sim::delay(remaining);
      // Re-run exactly the cycles interrupts overlapped with the window.
      remaining = busy_integral(sim::now()) - busy_before;
    }
  }

  /// True if interrupt context currently occupies the core.
  bool in_irq() {
    catch_up();
    return sim::Engine::current()->now() < irq_free_at_;
  }

  /// Cumulative interrupt-context nanoseconds charged to this core. Like
  /// irq_events() and irq_free_at(), readable outside event context: the
  /// noise timeline is materialized up to the engine's current time.
  u64 stolen_ns() {
    catch_up();
    return stolen_ns_;
  }
  /// Number of interrupt-context executions.
  u64 irq_events() {
    catch_up();
    return irq_events_;
  }
  /// Time at which the last queued handler completes.
  sim::TimePoint irq_free_at() {
    catch_up();
    return irq_free_at_;
  }

 private:
  static constexpr sim::TimePoint kNever = ~u64{0};

  /// One noise component's position in its arrival sequence.
  struct NoiseStream {
    NoiseComponent c;
    Rng rng;
    sim::TimePoint until;
    sim::TimePoint next_at{kNever};  ///< next arrival; kNever once ended
    sim::TimePoint armed_at{0};      ///< when next_at was drawn (tie-break)

    /// Draw the arrival following time @p t (the phase end or the end of
    /// the previous handler); the stream ends once @p t or the arrival
    /// reaches `until`.
    void arm(sim::TimePoint t) {
      armed_at = t;
      next_at = kNever;
      if (t >= until) return;
      const double gap =
          c.poisson_arrivals
              ? rng.exponential(c.period_ns)
              : c.period_ns *
                    rng.uniform(1.0 - c.period_jitter, 1.0 + c.period_jitter);
      const sim::TimePoint at = t + static_cast<u64>(std::max(gap, 1.0));
      if (at < until) next_at = at;
    }

    sim::Duration draw_duration() {
      const double dur =
          c.duration_sigma == 0.0
              ? c.duration_median_ns
              : rng.lognormal(std::log(c.duration_median_ns), c.duration_sigma);
      return static_cast<u64>(std::max(dur, 1.0));
    }
  };

  /// Fire every noise arrival at or before the engine's current time. One
  /// compare when nothing is due.
  void catch_up() {
    if (noise_eng_ != nullptr && next_noise_at_ <= noise_eng_->now()) {
      fire_noise(noise_eng_->now());
    }
  }

  /// Slow path of catch_up(), kept out of line so every inlined
  /// run_irq/compute/counter read stays a single compare.
  void fire_noise(sim::TimePoint t);

  /// Queue a handler of @p d ns arriving at @p at; returns its end time.
  sim::TimePoint begin_irq(sim::TimePoint at, sim::Duration d) {
    const sim::TimePoint start = std::max(at, irq_free_at_);
    if (start > irq_free_at_) {
      // Gap since the previous segment: close it.
      busy_closed_ += irq_free_at_ - seg_start_;
      seg_start_ = start;
    }
    irq_free_at_ = start + d;
    stolen_ns_ += d;
    ++irq_events_;
    return irq_free_at_;
  }

  u32 id_;
  u32 socket_;
  u32 partition_{0};
  sim::TimePoint irq_free_at_{0};
  sim::TimePoint seg_start_{0};  // start of the current busy segment
  u64 busy_closed_{0};           // busy time of all closed segments
  u64 stolen_ns_{0};
  u64 irq_events_{0};
  const sim::Engine* noise_eng_{nullptr};  // clock of the noise timeline
  sim::TimePoint next_noise_at_{kNever};   // earliest pending arrival
  std::vector<NoiseStream> noise_;         // in add_noise order
};

}  // namespace xemem::hw
