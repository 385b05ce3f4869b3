// Shared support for the benchmark workloads: spans on both clocks,
// percentiles, counter snapshots, the correctness ledger and the per-round
// result record.
//
// Layers are measured from outside. A workload wraps each of its calls
// into a module in a Call, which always records the call's simulated
// duration and, when tracing is on, also records a span (name, module, op
// id, parent span, simulated and host start/end). Module counters are
// snapshotted just before and just after the measured phase and diffed,
// so set-up and registration traffic stay out of the numbers.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "xemem/kernel.hpp"

namespace xemem::hw {
class Machine;
}

namespace perfbench {

using namespace xemem;

inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

struct SpanRec {
  std::string name;
  const char* module{""};
  u64 id{0};
  u64 parent{0};  ///< 0: a root span
  u64 op{0};      ///< spans of one logical operation share this id
  u32 track{0};   ///< simulated client (trace-viewer row)
  u64 sim_start{0};
  u64 sim_end{0};
  double host_start{0};
  double host_end{0};
  /// The call suspends, so its host duration includes other actors' events.
  bool inclusive{true};
  bool in_sim{true};  ///< false: host-side set-up call, no simulated clock
};

class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  u64 begin(const char* name, const char* module, u64 parent, u32 track,
            u64 op, bool in_sim = true, bool inclusive = true);
  void end(u64 id);

  const std::vector<SpanRec>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Chrome trace-event JSON: process 1 is the simulated clock, process 2
  /// the host clock. Each span carries its self time (duration minus the
  /// part of it its child spans cover) on both clocks.
  bool write_chrome(const std::string& path, double host_origin) const;

 private:
  bool on_{false};
  std::vector<SpanRec> spans_;
};

/// One call into a module: measures its simulated duration (always) and
/// records a span (when tracing).
class Call {
 public:
  Call(Tracer& t, const char* name, const char* module, u64 parent, u32 track,
       u64 op)
      : t_(t), sim0_(sim::now()), id_(t.begin(name, module, parent, track, op)) {}
  u64 id() const { return id_; }
  /// Close the span; returns the simulated nanoseconds the call took.
  u64 done() {
    t_.end(id_);
    return sim::now() - sim0_;
  }

 private:
  Tracer& t_;
  u64 sim0_;
  u64 id_;
};

/// A host-side set-up call (no simulated clock): returns host seconds.
class HostCall {
 public:
  HostCall(Tracer& t, const char* name, const char* module)
      : t_(t), h0_(host_now_s()), id_(t.begin(name, module, 0, 0, 0, false, false)) {}
  double done() {
    t_.end(id_);
    return host_now_s() - h0_;
  }

 private:
  Tracer& t_;
  double h0_;
  u64 id_;
};

// ------------------------------------------------------------ percentiles

/// The highest standard percentile that still has at least ten samples
/// beyond it (q = 0 when there are fewer than 20 samples: no tail exists).
struct Tail {
  double q{0};
  double value{0};
  u64 n{0};
};
Tail tail_of(Samples& s);
double p50_of(Samples& s);

// ---------------------------------------------------------------- metrics

struct Metric {
  double value{0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric, zeroed, with its unit. Workloads fill in what
/// they exercise; a layer a workload bypasses reads 0.
Metrics per_layer_template();

/// Per-layer metrics on the host clock. They differ from round to round
/// (the benchmark reports their median); every other per-layer metric is
/// simulated and identical in every round of a seed.
bool host_clock_metric(const std::string& name);

/// Order-sensitive 64-bit fold for the simulated-results digest.
inline u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}
u64 mix_double(u64 h, double v);

// --------------------------------------------------------------- counters

/// Sum of the module counters the per-layer metrics diff.
struct Counters {
  u64 ns_requests{0};
  u64 messages_forwarded{0};
  u64 pages_shared{0};
  u64 retries{0};
  u64 timeouts{0};
  u64 irq_events{0};
  u64 stolen_ns{0};
  u64 events{0};

  void add_kernel(const XememKernel& k);
  void add_machine(hw::Machine& m);
  Counters& operator+=(const Counters& o);
};

/// Writes the counter diff (after - before) into the per-layer metrics.
void put_counter_diff(Metrics& layer, const Counters& before,
                      const Counters& after);

// ------------------------------------------------------- correctness gate

/// Counts layer calls and their failures, and records correctness
/// mismatches. Any failure or mismatch fails the run.
class Ledger {
 public:
  /// Count one layer call; a non-ok status is a failure.
  bool call(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      mismatch(std::string(what) + " returned an error");
    }
    return ok;
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) mismatch(what);
  }
  void mismatch(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
    ++mismatches_;
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  bool clean() const { return mismatches_ == 0; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  u64 attempted_{0};
  u64 failed_{0};
  u64 mismatches_{0};
  std::vector<std::string> errors_;
};

/// Exit-time leak check for one kernel: no pinned frames, and no live
/// exports beyond @p kept ones the caller knows the API leaves behind.
void expect_no_leaks(Ledger& led, const std::string& name,
                     const XememKernel& k, u64 kept = 0);

// ------------------------------------------------------------ round result

/// One round of a workload: set-up, the measured phase, teardown and
/// checks. Rounds of one seed repeat bit-identical simulations, so `sim`,
/// `digest` and every simulated per-layer number are equal across rounds;
/// only host times differ.
struct RoundOut {
  double setup_s{0};  ///< host: building the system and set-up traffic
  double wall_s{0};   ///< host: the measured phase
  double sim_makespan_s{0};
  Metrics sim;    ///< the workload's simulated results (report + digest)
  Metrics layer;  ///< per-layer metrics (see per_layer_template)
  std::vector<std::string> report;  ///< extra human-readable lines
  u64 digest{0};
  Ledger ledger;
};

/// Fold every simulated number of a round into its digest: the simulated
/// results plus every per-layer metric on the simulated clock. Host-clock
/// metrics and sim.events (not engine-invariant) stay out.
u64 digest_of(const RoundOut& r);

struct WorkloadArgs {
  u64 seed{1};
  Tracer* tracer{nullptr};
};

RoundOut run_attach_mix(const WorkloadArgs& a);
RoundOut run_insitu(const WorkloadArgs& a);
RoundOut run_multinode_io(const WorkloadArgs& a);

}  // namespace perfbench
