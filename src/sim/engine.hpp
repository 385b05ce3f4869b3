// The discrete-event simulation engine.
//
// A single Engine instance drives one experiment on one OS thread: one
// clock, one binary-heap event queue. Coroutines obtain "their" engine
// through Engine::current(), which is set for the duration of every
// resumption — simulation code can simply write
//   co_await sim::delay(5_us);
// without threading an engine pointer through every call.
//
// Partitions (DESIGN.md §12). A multi-node run splits the simulation into
// one partition per simulated node: enclaves of a node are entangled at
// zero latency (shared memory, shared cores, IPIs), while nodes couple only
// through the fabric, whose modeled latency (costs::kIbEndToEndLatency) is
// the partition lookahead. Each partition owns a sequence counter and an
// RNG stream, and events are totally ordered by the key
// `(time, creating partition, per-partition sequence)`. Every key
// component comes from simulation state, so runs are bit-for-bit
// reproducible per seed, and a single-partition run degenerates to the
// classic `(time, seq)` FIFO order. The lookahead and partition-discipline
// asserts keep the node boundaries honest: no node observes another except
// through a delivery of at least the fabric latency.
#pragma once

#include <algorithm>
#include <coroutine>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/costs.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace xemem::sim {

class Engine;

/// Which implementation drives a sim::Engine (reported by harnesses that
/// print their configuration). There is one.
enum class EngineKind : u8 {
  serial,  ///< one thread, one queue, one clock
};

namespace detail {

/// Engine driving the currently-executing event. Engine::current() reads
/// this; the engine sets and restores it around every event execution.
inline Engine* g_current_engine = nullptr;

/// Deterministic per-partition RNG seeding: partition 0 keeps the user's
/// seed verbatim (bit-compat with single-partition runs); higher
/// partitions derive independent streams.
inline u64 partition_seed(u64 seed, u32 part) {
  return part == 0 ? seed : seed + 0x9e3779b97f4a7c15ull * (part + 1);
}

inline constexpr TimePoint kInfTime = std::numeric_limits<u64>::max();

/// `a + b` on TimePoints without wrapping past infinity.
inline TimePoint sat_add(TimePoint a, Duration b) {
  return a > kInfTime - b ? kInfTime : a + b;
}

/// One scheduled wakeup: either a coroutine resumption or a plain
/// callback (processor-sharing timers, cross-partition channel
/// deliveries).
struct Event {
  TimePoint t{};
  u32 key_part{0};    ///< partition that created the event (key component)
  u32 owner_part{0};  ///< partition that executes it
  u64 key_seq{0};     ///< creating partition's sequence number
  std::coroutine_handle<> h{};
  std::function<void()> fn{};

  bool before(const Event& o) const {
    if (t != o.t) return t < o.t;
    if (key_part != o.key_part) return key_part < o.key_part;
    return key_seq < o.key_seq;
  }
};

/// Min-heap of events on (t, key_part, key_seq). Unlike
/// std::priority_queue, pop_move() moves the event out of the heap —
/// `Event::fn` is a std::function whose copy reallocates any non-trivial
/// capture, and a copying pop would sit on the hottest loop of the whole
/// simulator.
class EventHeap {
 public:
  bool empty() const { return v_.empty(); }
  const Event& top() const { return v_.front(); }

  void push(Event e) {
    v_.push_back(std::move(e));
    std::push_heap(v_.begin(), v_.end(), heap_later);
  }

  Event pop_move() {
    std::pop_heap(v_.begin(), v_.end(), heap_later);
    Event e = std::move(v_.back());
    v_.pop_back();
    return e;
  }

 private:
  // std::push_heap builds a max-heap under its comparator; "a sorts later
  // than b" makes the earliest event the heap top.
  static bool heap_later(const Event& a, const Event& b) { return b.before(a); }

  std::vector<Event> v_;
};

/// A detached actor kept alive by the engine until completion. Destroying
/// a completed actor that died with an exception surfaces the failure
/// instead of silently dropping it.
struct Detached {
  std::coroutine_handle<Task<void>::promise_type> handle{};
  bool done{false};

  Detached() = default;
  Detached(const Detached&) = delete;
  Detached& operator=(const Detached&) = delete;

  ~Detached() {
    if (handle) {
      if (done && handle.promise().exception) {
        try {
          std::rethrow_exception(handle.promise().exception);
        } catch (const std::exception& e) {
          XEMEM_PANIC(e.what());
        } catch (...) {
          XEMEM_PANIC("detached simulation task failed");
        }
      }
      handle.destroy();
    }
  }
};

}  // namespace detail

class Engine {
 public:
  explicit Engine(u64 seed = 1) : seed_(seed) {
    parts_.push_back(Part{0, Rng(detail::partition_seed(seed, 0))});
  }

  ~Engine() {
    // Unfinished actors at teardown are destroyed while suspended; their
    // frames unwind normally because Task locals are regular RAII objects.
    detached_.clear();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// RNG stream of the current partition (partition 0 keeps the seed
  /// verbatim, so single-partition runs draw the historical stream).
  Rng& rng() { return parts_[cur_part_].rng; }

  /// Engine driving the currently-executing coroutine (set during event
  /// execution).
  static Engine* current() {
    XEMEM_ASSERT_MSG(detail::g_current_engine != nullptr,
                     "no simulation engine is running");
    return detail::g_current_engine;
  }

  static EngineKind default_kind() { return EngineKind::serial; }

  // ------------------------------------------------------------ scheduling

  /// Schedule @p h to resume at absolute time @p t (>= now) in the
  /// current partition.
  void schedule_at(TimePoint t, std::coroutine_handle<> h) {
    XEMEM_ASSERT(t >= now_);
    queue_.push(
        Event{t, cur_part_, cur_part_, parts_[cur_part_].seq++, h, {}});
  }

  /// Schedule @p h to resume after @p d.
  void schedule_after(Duration d, std::coroutine_handle<> h) {
    schedule_at(now() + d, h);
  }

  /// Schedule a plain callback (used by non-coroutine models, e.g. the
  /// processor-sharing resource's completion timers).
  void call_at(TimePoint t, std::function<void()> fn) {
    XEMEM_ASSERT(t >= now_);
    queue_.push(Event{t, cur_part_, cur_part_, parts_[cur_part_].seq++,
                      nullptr, std::move(fn)});
  }

  /// Schedule a plain callback into partition @p part. Cross-partition
  /// targets require `t >= now + lookahead()` — this is the only legal
  /// cross-partition edge, used by channel delivery paths whose modeled
  /// latency covers the lookahead.
  void call_in(u32 part, TimePoint t, std::function<void()> fn) {
    XEMEM_ASSERT(part < parts_.size());
    if (part == cur_part_) {
      call_at(t, std::move(fn));
      return;
    }
    XEMEM_ASSERT_MSG(t >= detail::sat_add(now_, lookahead_),
                     "cross-partition event inside the lookahead window");
    queue_.push(Event{t, cur_part_, part, parts_[cur_part_].seq++, nullptr,
                      std::move(fn)});
  }

  /// Launch a detached background actor in the current partition. The
  /// engine keeps the coroutine frame alive until it completes; an
  /// exception escaping a detached task aborts the simulation (actors are
  /// expected to handle their own errors).
  void spawn(Task<void> task) { spawn_in(cur_part_, std::move(task)); }

  /// Launch a detached actor in partition @p part (setup-time only for
  /// foreign partitions: harnesses place per-node drivers before run()).
  void spawn_in(u32 part, Task<void> task) {
    XEMEM_ASSERT(part < parts_.size());
    XEMEM_ASSERT_MSG(!running_ || part == cur_part_,
                     "runtime spawns must target the current partition");
    auto node = std::make_unique<detail::Detached>();
    node->handle = task.release();
    node->handle.promise().done_flag = &node->done;
    detached_.push_back(std::move(node));
    queue_.push(Event{now_, part, part, parts_[part].seq++,
                      detached_.back()->handle, {}});
  }

  // ------------------------------------------------------------ execution

  /// Run @p main to completion (processing all events it transitively
  /// depends on) and return its result. Detached actors keep running only
  /// while events remain reachable before main finishes. The root task
  /// executes in partition 0.
  template <typename T>
  T run(Task<T> main) {
    bool done = false;
    main.set_done_flag(&done);
    schedule_at(now_, main.handle());
    running_ = true;
    while (!done) {
      XEMEM_ASSERT_MSG(step(),
                       "simulation deadlocked: main task never finished");
    }
    running_ = false;
    reap();
    return main.take_result();
  }

  /// Process events until the queue is empty.
  void run_until_idle() {
    running_ = true;
    while (step()) {
    }
    running_ = false;
    reap();
  }

  /// Process events until the clock would pass @p t, then set now = t.
  void run_until(TimePoint t) {
    running_ = true;
    while (!queue_.empty() && queue_.top().t <= t) {
      XEMEM_ASSERT(step());
    }
    running_ = false;
    XEMEM_ASSERT(t >= now_);
    now_ = t;
    reap();
  }

  /// Execute one event. Returns false if the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.pop_move();
    XEMEM_ASSERT(ev.t >= now_);
    now_ = ev.t;
    cur_part_ = ev.owner_part;
    Engine* prev = detail::g_current_engine;
    detail::g_current_engine = this;
    if (ev.h) {
      ev.h.resume();
    } else {
      ev.fn();
    }
    detail::g_current_engine = prev;
    cur_part_ = 0;  // outside event execution, context reverts to partition 0
    ++processed_;
    if (++steps_since_reap_ >= 4096) reap();
    return true;
  }

  // ------------------------------------------------------------ partitions

  /// Split the simulation into @p n partitions (one per simulated node)
  /// coupled only through channels of latency >= @p lookahead. Must be
  /// called before any scheduling. With n == 1 this is a no-op beyond
  /// recording the lookahead.
  void set_partitions(u32 n,
                      Duration lookahead = costs::kIbEndToEndLatency) {
    XEMEM_ASSERT(n >= 1 && !running_);
    XEMEM_ASSERT_MSG(queue_.empty() && parts_.size() == 1 &&
                         parts_[0].seq == 0,
                     "set_partitions() must precede any scheduling");
    XEMEM_ASSERT_MSG(n == 1 || lookahead > 0,
                     "multi-partition runs need a positive lookahead");
    lookahead_ = lookahead;
    for (u32 p = 1; p < n; ++p) {
      parts_.push_back(Part{0, Rng(detail::partition_seed(seed_, p))});
    }
  }

  u32 partitions() const { return static_cast<u32>(parts_.size()); }

  /// Partition executing the current event (partition 0 outside event
  /// execution).
  u32 current_partition() const { return cur_part_; }
  Duration lookahead() const { return lookahead_; }

  // ------------------------------------------------------------ diagnostics

  /// Number of events executed so far.
  u64 events_processed() const { return processed_; }

  /// Number of events ever scheduled (executed or still pending).
  u64 events_scheduled() const {
    u64 n = 0;
    for (const auto& p : parts_) n += p.seq;
    return n;
  }

 private:
  struct Part {
    u64 seq{0};
    Rng rng;
  };

  using Event = detail::Event;

  void reap() {
    steps_since_reap_ = 0;
    std::erase_if(detached_, [](const std::unique_ptr<detail::Detached>& d) {
      return d->done;
    });
  }

  u64 seed_;
  TimePoint now_{kTimeZero};
  u32 cur_part_{0};
  u64 processed_{0};
  u64 steps_since_reap_{0};
  bool running_{false};
  Duration lookahead_{0};
  detail::EventHeap queue_;
  std::vector<Part> parts_;
  std::vector<std::unique_ptr<detail::Detached>> detached_;
};

/// Awaitable: suspend the current coroutine for @p d simulated nanoseconds.
inline auto delay(Duration d) {
  struct Awaiter {
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      Engine::current()->schedule_after(d, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{d};
}

/// Awaitable: suspend until absolute simulated time @p t (no-op if past).
inline auto delay_until(TimePoint t) {
  struct Awaiter {
    TimePoint t;
    bool await_ready() const noexcept { return Engine::current()->now() >= t; }
    void await_suspend(std::coroutine_handle<> h) const {
      Engine::current()->schedule_at(t, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{t};
}

/// Awaitable: yield to other events scheduled at the current time.
inline auto yield_now() { return delay(0); }

/// Convenience: current simulated time from coroutine context.
inline TimePoint now() { return Engine::current()->now(); }

}  // namespace xemem::sim
