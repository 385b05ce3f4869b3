// Fault injection and reliability knobs for the inter-node fabric.
//
// FabricFaultSpec mirrors xemem::FaultSpec at the fabric layer: each
// directed link (src, dst) of the net::Communicator carries its own spec
// and its own seeded Rng, so a fault schedule is a pure function of
// (fabric fault seed, src, dst, send sequence) — identical runs inject
// identical faults. Link state lives in the *sender's* slot and is only
// ever touched from the sender's partition.
//
// FabricReliability parameterizes the reliable-delivery layer built on
// top of the lossy links: retransmit timeout, retry budget, and the
// receiver-side probe cadence used to detect a dead sender while waiting
// on a collective round. The retransmit timer is armed at
//   send + serialization + ack latency + rto
// so a fault-free send, whose ack arrives after exactly that round trip,
// never times out (DESIGN.md §13).
#pragma once

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"

namespace xemem::net {

/// Per-link fault probabilities. All default to zero (a perfect link).
struct FabricFaultSpec {
  double drop{0.0};   ///< P(packet silently lost)
  double dup{0.0};    ///< P(packet delivered twice)
  double delay{0.0};  ///< P(packet held back — reordering)
  sim::Duration delay_min{5'000};    ///< held-back window lower bound (ns)
  sim::Duration delay_max{100'000};  ///< held-back window upper bound (ns)

  /// Uniform loss shorthand used by the benches/tests.
  static FabricFaultSpec loss(double p) {
    FabricFaultSpec s;
    s.drop = p;
    return s;
  }

  bool any() const { return drop > 0 || dup > 0 || delay > 0; }

  /// Reject nonsense schedules at configuration time instead of letting
  /// them silently skew an experiment (negative probabilities would never
  /// fire, p > 1 saturates, an inverted delay window underflows).
  void validate() const {
    XEMEM_ASSERT_MSG(drop >= 0.0 && drop <= 1.0,
                     "FabricFaultSpec.drop must be in [0,1]");
    XEMEM_ASSERT_MSG(dup >= 0.0 && dup <= 1.0,
                     "FabricFaultSpec.dup must be in [0,1]");
    XEMEM_ASSERT_MSG(delay >= 0.0 && delay <= 1.0,
                     "FabricFaultSpec.delay must be in [0,1]");
    XEMEM_ASSERT_MSG(delay_min <= delay_max,
                     "FabricFaultSpec delay window is inverted");
  }
};

/// Reliable-delivery parameters. Zeros mean "derive from the fabric
/// latency" (see Communicator::set_reliability).
struct FabricReliability {
  /// Extra slack past the modeled round-trip before a send is considered
  /// unacknowledged and retransmitted. 0 -> 4x fabric latency.
  sim::Duration rto{0};
  /// Retransmissions before the peer is declared dead. Sized so that a
  /// false positive needs (1 + max_retries) consecutive losses of both
  /// the packet and its ack — negligible at the loss rates the benches
  /// sweep.
  u32 max_retries{6};
  /// While a rank waits on a collective round, it probes the expected
  /// sender at this cadence; an unacknowledged probe (after retries) is
  /// how a *receiver* discovers its peer died. 0 -> 4x rto.
  sim::Duration probe_period{0};
  /// Probes per wait before giving up silently. Bounds the event chain a
  /// rank stuck on an application-level bug can generate, so
  /// run_until_idle() still terminates (finish_run() then reports the
  /// leaked waiter).
  u32 max_probes{64};
};

}  // namespace xemem::net
