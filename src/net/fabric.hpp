// Cluster fabric and MPI-like collectives for the multi-node experiments,
// with link fault injection, reliable delivery, failure detection, and
// survivable (ULFM-style fail-fast) semantics.
//
// The paper's section 7 runs the in-situ benchmark on an 8-node cluster
// interconnected with QDR Infiniband; the HPC simulation uses OpenMPI with
// collective operations between conjugate-gradient iterations. The key
// dynamic the experiment isolates is the *straggler effect*: every
// iteration ends in a collective, so the iteration time of the whole job
// is the maximum across nodes — OS noise on any one node delays everyone.
//
// The collective runs a dissemination exchange over the surviving
// membership: in round k, logical rank r sends to (r + 2^k) mod A and
// waits for the message from (r - 2^k) mod A, for ceil(log2(A)) rounds of
// cost per_round = latency + bytes/link-rate each. On a fault-free fabric
// every rank completes at exactly max_i(arrival_i) + rounds * per_round —
// the same "straggler barrier + recursive-doubling cost" the model has
// always charged. Every cross-rank interaction is a discrete packet
// delayed by at least the fabric latency, which makes the fabric the
// legal channel between node partitions (DESIGN.md §12): deliveries go
// through Engine::call_in with the modeled latency covering the partition
// lookahead.
//
// Failure model (DESIGN.md §13):
//  * Injection — each directed link carries a FabricFaultSpec and a
//    seeded Rng (drop/dup/delay drawn up front per transmission), plus
//    kill_rank()/schedule_kill() for abrupt node death.
//  * Reliable transport — every non-ack packet carries a per-link
//    sequence number; the receiver acks each arrival (including dups and
//    stale epochs) and dedups by sequence; the sender retransmits after
//    serialization + ack latency + rto, and after max_retries declares
//    the peer dead. While a rank waits on a round it probes the expected
//    sender, so receivers detect dead peers too. Acks, timers and probes
//    never gate the data path: fault-free timing is unchanged.
//  * Failure semantics — a learned death poisons the slot: the running
//    collective completes exceptionally with Errc::node_failed (never a
//    hang), notices flood reliably so every survivor observes the death,
//    and rebuild() re-forms a shrunken communicator with a fresh epoch
//    and fresh generations, folding a per-survivor resume word (max) so
//    callers can re-agree where to continue.
//
// All fault, retransmit and failure state lives in the affected rank's
// slot and is only touched from that rank's partition, so the whole
// failure machinery follows each node's own event order and stays
// bit-identical per seed.
#pragma once

#include <bit>
#include <coroutine>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/costs.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "net/fabric_fault.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace xemem::net {

/// Result of a successful Communicator::rebuild().
struct RebuildOutcome {
  u32 rank{0};      ///< caller's logical rank in the shrunken membership
  u32 size{0};      ///< surviving membership size
  u64 app_word{0};  ///< max over every survivor's contributed word
};

class Communicator {
 public:
  /// @param ranks one rank per node (the simulation's node-level MPI view)
  explicit Communicator(u32 ranks,
                        double link_bytes_per_ns = costs::kIbLinkBytesPerNs,
                        u64 latency_ns = costs::kIbEndToEndLatency)
      : ranks_(ranks), link_bw_(link_bytes_per_ns), latency_(latency_ns) {
    XEMEM_ASSERT_MSG(ranks_ >= 1 && ranks_ <= 64,
                     "rebuild dead-sets are 64-bit bitmaps");
    rto_ = 4 * latency_;
    probe_period_ = 4 * rto_;
    slots_.resize(ranks_);
    for (u32 r = 0; r < ranks_; ++r) {
      Slot& s = slots_[r];
      s.links.resize(ranks_);
      s.delivered.resize(ranks_);
      s.dead.assign(ranks_, 0);
      for (u32 m = 0; m < ranks_; ++m) s.members.push_back(m);
    }
  }

  u32 ranks() const { return ranks_; }

  /// Place @p rank's state in engine partition @p partition. Required for
  /// multi-partition runs (call once per rank, before traffic): message
  /// deliveries to the rank then execute in its partition, and the rank's
  /// coroutine must issue its collectives from that partition.
  void bind_rank(u32 rank, u32 partition) {
    XEMEM_ASSERT(rank < ranks_);
    slots_[rank].partition = partition;
  }

  // ------------------------------------------------------- fault injection

  /// Install @p spec on every directed link. Each link draws from its own
  /// Rng stream derived from (@p seed, src, dst), so fault schedules are
  /// deterministic per seed and independent per link. Setup-time only.
  void set_fabric_faults(const FabricFaultSpec& spec, u64 seed) {
    for (u32 s = 0; s < ranks_; ++s) {
      for (u32 d = 0; d < ranks_; ++d) {
        if (s != d) set_link_faults(s, d, spec, seed);
      }
    }
  }

  /// Install @p spec on the single directed link @p src -> @p dst.
  void set_link_faults(u32 src, u32 dst, const FabricFaultSpec& spec,
                       u64 seed) {
    XEMEM_ASSERT(src < ranks_ && dst < ranks_ && src != dst);
    spec.validate();
    Link& l = slots_[src].links[dst];
    l.spec = spec;
    l.active = spec.any();
    l.rng.reseed(seed + (static_cast<u64>(src) * ranks_ + dst));
  }

  /// Override the reliability parameters (see FabricReliability). Zeros
  /// derive from the fabric latency. Setup-time only.
  void set_reliability(const FabricReliability& r) {
    rto_ = r.rto ? r.rto : 4 * latency_;
    XEMEM_ASSERT_MSG(rto_ >= latency_,
                     "retransmit timeout must cover the fabric latency");
    max_retries_ = r.max_retries;
    probe_period_ = r.probe_period ? r.probe_period : 4 * rto_;
    max_probes_ = r.max_probes;
  }

  /// Abrupt node death, effective immediately: the rank stops
  /// acknowledging traffic (which is how peers detect it), its pending
  /// retransmissions are cancelled, and any collective it had in flight
  /// completes with node_failed. Must execute inside the victim's
  /// partition; from outside the simulation use schedule_kill().
  void kill_rank(u32 r) {
    XEMEM_ASSERT(r < ranks_);
    auto* eng = sim::Engine::current();
    XEMEM_ASSERT_MSG(
        eng->partitions() == 1 ||
            eng->current_partition() == slots_[r].partition,
        "kill_rank must execute in the victim's partition; use "
        "schedule_kill");
    drop_rank(r);
  }

  /// Crash-at-time-t: arrange for @p r to die at simulated time @p t.
  /// Setup-time only (spawns the kill actor into the victim's partition).
  void schedule_kill(sim::Engine& eng, u32 r, sim::TimePoint t) {
    XEMEM_ASSERT(r < ranks_);
    eng.spawn_in(slots_[r].partition, kill_task(this, r, t));
  }

  // ----------------------------------------------------------- collectives

  /// Collective allreduce of @p bytes per rank. Every surviving rank must
  /// call this; completion happens after the slowest rank arrives plus
  /// the recursive-doubling exchange cost. Fails fast with
  /// Errc::node_failed once a peer death is learned (the slot stays
  /// poisoned until rebuild()).
  ///
  /// This overload assigns ranks implicitly — call i of a generation maps
  /// to the i-th surviving member mod A — which is sound only when the
  /// whole job runs in one engine partition (asserted): there, no rank
  /// can start generation g+1 before every rank has entered generation g,
  /// because completion lands strictly after the slowest entry.
  /// Multi-partition jobs use the explicit-rank overload.
  sim::Task<Result<void>> allreduce(u64 bytes) {
    co_return co_await run_op(auto_rank(), per_round(bytes));
  }

  /// Barrier without payload.
  sim::Task<Result<void>> barrier() {
    co_return co_await run_op(auto_rank(), latency_);
  }

  /// Explicit-rank collectives for multi-partition jobs: @p rank must have
  /// been bind_rank()-ed to the calling coroutine's partition.
  sim::Task<Result<void>> allreduce(u64 bytes, u32 rank) {
    co_return co_await run_op(rank, per_round(bytes));
  }

  sim::Task<Result<void>> barrier(u32 rank) {
    co_return co_await run_op(rank, latency_);
  }

  /// Re-form the communicator over the surviving membership after a
  /// failure. Every survivor must call rebuild(); it completes once a
  /// matching rebuild message has arrived from every peer still believed
  /// alive (the wait set shrinks as further deaths are learned — never a
  /// hang as long as failed peers are eventually detected). On commit the
  /// slot gets a fresh epoch and fresh generations, the poison clears,
  /// and the outcome carries the max over every survivor's @p app_word so
  /// callers can agree on where to resume (e.g. the next iteration).
  sim::Task<Result<RebuildOutcome>> rebuild(u32 rank, u64 app_word = 0) {
    XEMEM_ASSERT(rank < ranks_);
    Slot& self = slots_[rank];
    auto* eng = sim::Engine::current();
    XEMEM_ASSERT_MSG(
        eng->partitions() == 1 ||
            eng->current_partition() == self.partition,
        "rebuild issued from a partition other than the rank's bound "
        "partition");
    if (!self.alive) co_return Errc::node_failed;
    XEMEM_ASSERT_MSG(self.waiters.empty(),
                     "rebuild() with a collective still in flight");
    const u64 target = self.epoch + 1;
    u64 bits = 0;
    for (u32 r = 0; r < ranks_; ++r) {
      if (self.dead[r]) bits |= 1ull << r;
    }
    for (u32 r : self.members) {
      if (r == rank || self.dead[r]) continue;
      Packet m;
      m.kind = PktKind::rebuild;
      m.src = rank;
      m.dst = r;
      m.epoch = target;
      m.payload = bits;
      m.app = app_word;
      reliable_send(rank, m, latency_);
    }
    while (self.alive) {
      bool ready = true;
      for (u32 r : self.members) {
        if (r == rank || self.dead[r]) continue;
        if (self.rebuild_got.count(r) == 0) {
          ready = false;
          break;
        }
      }
      if (ready) break;
      co_await RebuildWait{this, rank};
    }
    if (!self.alive) co_return Errc::node_failed;
    // Commit: shrunken membership, next epoch, fresh generations.
    u64 folded = app_word;
    std::vector<u32> survivors;
    for (u32 r : self.members) {
      if (self.dead[r]) continue;
      survivors.push_back(r);
      if (r != rank) folded = std::max(folded, self.rebuild_got.at(r));
    }
    self.members = std::move(survivors);
    self.epoch = target;
    self.next_gen = 0;
    self.poisoned = false;
    self.got.clear();
    self.rebuild_got.clear();
    ++self.stats.rebuilds;
    RebuildOutcome out;
    out.rank = logical_rank(self, rank);
    out.size = static_cast<u32>(self.members.size());
    out.app_word = folded;
    // Replay arrivals that raced ahead into the epoch we just reached.
    replay_future(self);
    co_return out;
  }

  // ------------------------------------------------------------ inspection

  bool alive(u32 rank) const { return slots_[rank].alive; }

  /// Surviving membership as @p rank believes it (original rank ids).
  const std::vector<u32>& members(u32 rank) const {
    return slots_[rank].members;
  }

  /// Per-rank fault/reliability counters. Deterministic when read from
  /// the rank's own partition, or from the host thread after a drained
  /// run (run_until_idle()).
  const FabricStats& rank_stats(u32 rank) const {
    return slots_[rank].stats;
  }

  /// Sum of every rank's counters. Host-thread use after a drained run.
  FabricStats stats() const {
    FabricStats total;
    for (const Slot& s : slots_) total += s.stats;
    return total;
  }

  /// End-of-run teardown check: every healthy slot must have consumed all
  /// arrivals, resumed all waiters, and had every send acknowledged —
  /// the fabric analogue of the PR-9 stale-clock-across-runs bug class.
  /// Resets the implicit-rank call counter so the Communicator can be
  /// reused across engine runs. Call after a drained run.
  void finish_run() {
    for (const Slot& s : slots_) {
      if (!s.alive || s.poisoned) continue;
      XEMEM_ASSERT_MSG(s.got.empty(),
                       "fabric slot retired with unconsumed arrivals");
      XEMEM_ASSERT_MSG(s.waiters.empty() && !s.rebuild_waiter,
                       "fabric slot retired with suspended waiters");
      for (const Link& l : s.links) {
        XEMEM_ASSERT_MSG(l.outstanding.empty(),
                         "fabric slot retired with unacknowledged sends");
      }
    }
    auto_calls_ = 0;
  }

 private:
  enum class PktKind : u8 { data, ack, probe, notice, rebuild };

  /// The fabric wire format. Everything the failure machinery needs rides
  /// in one POD so deliveries stay plain call_in closures.
  struct Packet {
    PktKind kind{PktKind::data};
    u32 src{0};
    u32 dst{0};
    u64 epoch{0};    ///< sender's epoch (data) / target epoch (rebuild)
    u64 gen{0};      ///< collective generation within the epoch
    u32 round{0};    ///< dissemination round
    u64 seq{0};      ///< per-link sequence; echoed verbatim by acks
    u64 payload{0};  ///< notice: dead rank; rebuild: dead-set bitmap
    u64 app{0};      ///< rebuild: application resume word
  };

  struct Pending {
    Packet pkt;
    u64 cost{0};  ///< serialization+latency charged per transmission
    u32 tries{0};
  };

  /// Directed-link state, owned by the *sending* rank's slot (and so by
  /// its partition).
  struct Link {
    FabricFaultSpec spec;
    bool active{false};
    Rng rng;
    u64 next_seq{0};
    std::map<u64, Pending> outstanding;  ///< seq -> unacknowledged send
  };

  /// Per-rank collective state. A slot is only ever touched from its own
  /// partition: the owning rank's coroutine runs there, and deliveries
  /// arrive there via Engine::call_in.
  ///
  /// Waiters are keyed by (generation, round), not held in a single
  /// field: with implicit ranks, a caller that finished generation g can
  /// re-enter the same slot for generation g+1 while the generation-g
  /// delivery event is still in flight — a lone waiter slot would be
  /// clobbered and the g-generation coroutine never resumed.
  struct Slot {
    u32 partition{0};
    bool alive{true};
    /// A learned peer death poisons the slot: in-flight and subsequent
    /// collectives fail fast with node_failed until rebuild() commits.
    bool poisoned{false};
    u64 epoch{0};
    u64 next_gen{0};  ///< collectives started by this rank this epoch
    std::vector<u32> members;  ///< surviving original ranks, ascending
    std::vector<u8> dead;      ///< by original rank, as this slot knows it
    std::vector<Link> links;   ///< outgoing, indexed by destination rank
    /// Receiver-side dedup: sequences seen per incoming link. Sequences
    /// are per-link forever (never reset), so late retransmissions of a
    /// pre-rebuild packet still dedup correctly.
    std::vector<std::set<u64>> delivered;
    std::vector<Packet> future;      ///< arrivals for an epoch not reached
    std::map<u32, u64> rebuild_got;  ///< rank -> app word, for epoch + 1
    /// Arrived messages not yet consumed: (generation, round) -> arrival
    /// time. A fast sender can run ahead of a slow receiver by a whole
    /// generation; keying by generation absorbs the skew.
    std::map<std::pair<u64, u32>, sim::TimePoint> got;
    /// Suspended collectives: (generation, round) -> continuation.
    std::map<std::pair<u64, u32>, std::coroutine_handle<>> waiters;
    std::coroutine_handle<> rebuild_waiter{};
    FabricStats stats;
  };

  u64 per_round(u64 bytes) const {
    return latency_ +
           static_cast<u64>(static_cast<double>(bytes) / link_bw_);
  }

  u32 auto_rank() {
    XEMEM_ASSERT_MSG(sim::Engine::current()->partitions() == 1,
                     "implicit-rank collectives require a single partition; "
                     "use bind_rank + the explicit-rank overloads");
    // Map over the surviving membership (any live slot's view works: in a
    // single partition every slot learns deaths in the same event order).
    for (const Slot& s : slots_) {
      if (s.alive) return s.members[auto_calls_++ % s.members.size()];
    }
    XEMEM_ASSERT_MSG(false, "implicit-rank collective with every rank dead");
    return 0;
  }

  static u32 logical_rank(const Slot& s, u32 rank) {
    for (u32 i = 0; i < s.members.size(); ++i) {
      if (s.members[i] == rank) return i;
    }
    XEMEM_ASSERT_MSG(false, "rank not in surviving membership");
    return 0;
  }

  // ------------------------------------------------------------- transport

  /// One transmission attempt: runs the link's fault lottery, then
  /// schedules delivery into the destination partition. Deliveries are at
  /// least the fabric latency away, covering the engine lookahead.
  void xmit(u32 src, const Packet& pkt, u64 cost) {
    Slot& s = slots_[src];
    Link& l = s.links[pkt.dst];
    const sim::TimePoint base = sim::Engine::current()->now() + cost;
    if (!l.active) {
      deliver_at(pkt, base);
      return;
    }
    // Draw every decision up front so the consumed Rng stream per send is
    // fixed regardless of which faults fire (schedule determinism, as in
    // xemem::FaultyEndpoint).
    const bool drop = l.rng.uniform() < l.spec.drop;
    const bool dup = l.rng.uniform() < l.spec.dup;
    const bool hold = l.rng.uniform() < l.spec.delay;
    const sim::Duration held =
        l.spec.delay_min +
        (l.spec.delay_max > l.spec.delay_min
             ? l.rng.uniform_u64(l.spec.delay_max - l.spec.delay_min)
             : 0);
    if (drop) {
      ++s.stats.fabric_drops;
      return;
    }
    if (dup) {
      ++s.stats.fabric_dups;
      deliver_at(pkt, base + held);
    }
    if (hold) {
      ++s.stats.fabric_delayed;
      deliver_at(pkt, base + held);
      return;
    }
    deliver_at(pkt, base);
  }

  void deliver_at(const Packet& pkt, sim::TimePoint t) {
    sim::Engine::current()->call_in(slots_[pkt.dst].partition, t,
                                    [this, pkt] { on_deliver(pkt); });
  }

  /// Sequence-numbered send with retransmission: data, probes, notices
  /// and rebuild messages all go through here. Acks do not (they are
  /// idempotent and re-triggered by the retransmission they confirm).
  void reliable_send(u32 src, Packet pkt, u64 cost) {
    Link& l = slots_[src].links[pkt.dst];
    pkt.seq = l.next_seq++;
    l.outstanding.emplace(pkt.seq, Pending{pkt, cost, 0});
    xmit(src, pkt, cost);
    arm_retx(src, pkt.dst, pkt.seq, cost);
  }

  void arm_retx(u32 src, u32 dst, u64 seq, u64 cost) {
    // The deadline covers the full modeled round trip (serialization +
    // ack latency) plus rto slack, so a fault-free send can never time
    // out.
    auto* eng = sim::Engine::current();
    eng->call_at(eng->now() + cost + latency_ + rto_,
                 [this, src, dst, seq] { on_retx(src, dst, seq); });
  }

  void on_retx(u32 src, u32 dst, u64 seq) {
    Slot& s = slots_[src];
    if (!s.alive) return;
    auto it = s.links[dst].outstanding.find(seq);
    if (it == s.links[dst].outstanding.end()) return;  // acknowledged
    if (s.dead[dst]) {
      s.links[dst].outstanding.erase(it);
      return;
    }
    if (it->second.tries >= max_retries_) {
      // Retry budget exhausted: declare the peer dead.
      s.links[dst].outstanding.erase(it);
      learn_death(src, dst);
      return;
    }
    ++it->second.tries;
    ++s.stats.fabric_retransmits;
    const u64 cost = it->second.cost;
    xmit(src, it->second.pkt, cost);
    arm_retx(src, dst, seq, cost);
  }

  void send_ack(u32 from, u32 to, u64 seq) {
    ++slots_[from].stats.fabric_acks;
    Packet a;
    a.kind = PktKind::ack;
    a.src = from;
    a.dst = to;
    a.seq = seq;
    xmit(from, a, latency_);
  }

  /// Receiver side. Executes in pkt.dst's partition.
  void on_deliver(Packet pkt) {
    Slot& s = slots_[pkt.dst];
    if (!s.alive) return;  // the dead ack nothing: that is how peers detect
    if (pkt.kind == PktKind::ack) {
      s.links[pkt.src].outstanding.erase(pkt.seq);
      return;
    }
    // Transport-level ack for every arrival — duplicates and stale epochs
    // included — so a lossy ack path cannot masquerade as a dead peer.
    send_ack(pkt.dst, pkt.src, pkt.seq);
    if (!s.delivered[pkt.src].insert(pkt.seq).second) {
      ++s.stats.fabric_dedup;
      return;
    }
    switch (pkt.kind) {
      case PktKind::probe:
        break;  // the ack was the point
      case PktKind::notice:
        learn_death(pkt.dst, static_cast<u32>(pkt.payload));
        break;
      case PktKind::data:
        if (pkt.epoch < s.epoch) {
          ++s.stats.fabric_stale;
          break;
        }
        if (pkt.epoch > s.epoch) {
          s.future.push_back(pkt);
          break;
        }
        dispatch_data(s, pkt);
        break;
      case PktKind::rebuild:
        on_rebuild_msg(s, pkt);
        break;
      case PktKind::ack:
        break;  // handled above
    }
  }

  void dispatch_data(Slot& s, const Packet& pkt) {
    const auto key = std::make_pair(pkt.gen, pkt.round);
    s.got.emplace(key, sim::Engine::current()->now());
    auto it = s.waiters.find(key);
    if (it != s.waiters.end()) {
      auto h = it->second;
      s.waiters.erase(it);
      h.resume();
    }
  }

  void on_rebuild_msg(Slot& s, const Packet& pkt) {
    if (pkt.epoch <= s.epoch) {
      ++s.stats.fabric_stale;  // we already committed that epoch
      return;
    }
    if (pkt.epoch > s.epoch + 1) {
      s.future.push_back(pkt);  // the sender is a whole rebuild ahead
      return;
    }
    // Merge the sender's dead-set first: it may teach us about deaths we
    // have not detected, poisoning any collective still in flight.
    for (u32 r = 0; r < ranks_; ++r) {
      if ((pkt.payload >> r) & 1) learn_death(pkt.dst, r);
    }
    if (!s.alive) return;  // the merged dead-set declared *us* dead
    s.rebuild_got[pkt.src] = pkt.app;
    wake_rebuild_waiter(s);
  }

  // -------------------------------------------------------------- failure

  /// @p observer learns that rank @p d died (by local detection or by
  /// notice). Poisons the observer and refloods the notice reliably, so
  /// one detection reaches every survivor even on lossy links.
  void learn_death(u32 observer, u32 d) {
    Slot& s = slots_[observer];
    if (!s.alive) return;
    if (d == observer) {
      // The cluster declared *us* dead (false positive under extreme
      // loss, or a partition): drop out rather than fight the verdict.
      drop_rank(observer);
      return;
    }
    if (s.dead[d]) return;
    s.dead[d] = 1;
    ++s.stats.fabric_node_failures;
    s.links[d].outstanding.clear();  // stop retransmitting into the void
    s.poisoned = true;
    for (u32 r : s.members) {
      if (r == observer || s.dead[r]) continue;
      Packet n;
      n.kind = PktKind::notice;
      n.src = observer;
      n.dst = r;
      n.epoch = s.epoch;
      n.payload = d;
      reliable_send(observer, n, latency_);
    }
    resume_all_waiters(s);
    wake_rebuild_waiter(s);
  }

  void drop_rank(u32 r) {
    Slot& s = slots_[r];
    if (!s.alive) return;
    s.alive = false;
    s.poisoned = true;
    for (Link& l : s.links) l.outstanding.clear();
    resume_all_waiters(s);
    wake_rebuild_waiter(s);
  }

  void resume_all_waiters(Slot& s) {
    std::vector<std::coroutine_handle<>> hs;
    hs.reserve(s.waiters.size());
    for (const auto& [key, h] : s.waiters) hs.push_back(h);
    s.waiters.clear();
    for (auto h : hs) h.resume();
  }

  void wake_rebuild_waiter(Slot& s) {
    if (auto h = std::exchange(s.rebuild_waiter, nullptr)) h.resume();
  }

  void replay_future(Slot& s) {
    std::vector<Packet> buf = std::move(s.future);
    s.future.clear();
    for (const Packet& pkt : buf) {
      if (pkt.kind == PktKind::data) {
        if (pkt.epoch < s.epoch) {
          ++s.stats.fabric_stale;
        } else if (pkt.epoch > s.epoch) {
          s.future.push_back(pkt);
        } else {
          dispatch_data(s, pkt);
        }
      } else {
        on_rebuild_msg(s, pkt);
      }
    }
  }

  static sim::Task<void> kill_task(Communicator* c, u32 r,
                                   sim::TimePoint t) {
    co_await sim::delay_until(t);
    c->kill_rank(r);
  }

  // ------------------------------------------------------------ collective

  /// Liveness probe loop: while @p rank waits on (gen, round) from
  /// @p peer, send a reliably-delivered probe every probe_period. The
  /// probe's own retransmission budget is what detects a dead sender from
  /// the receiving side. Bounded by max_probes so an application-level
  /// hang cannot generate an unbounded event chain.
  void arm_probe(u32 rank, u32 peer, u64 gen, u32 round, u32 n) {
    auto* eng = sim::Engine::current();
    eng->call_at(eng->now() + probe_period_,
                 [this, rank, peer, gen, round, n] {
                   on_probe(rank, peer, gen, round, n);
                 });
  }

  void on_probe(u32 rank, u32 peer, u64 gen, u32 round, u32 n) {
    Slot& s = slots_[rank];
    if (!s.alive || s.poisoned) return;
    if (s.waiters.count({gen, round}) == 0) return;  // round arrived
    if (s.dead[peer]) return;
    if (n >= max_probes_) return;  // give up; finish_run() flags the leak
    ++s.stats.fabric_probes;
    Packet p;
    p.kind = PktKind::probe;
    p.src = rank;
    p.dst = peer;
    p.epoch = s.epoch;
    reliable_send(rank, p, latency_);
    arm_probe(rank, peer, gen, round, n + 1);
  }

  /// Awaitable: wait until the round-@p round message of generation
  /// @p gen has been delivered to @p rank's slot — or the slot is
  /// poisoned/killed, which also resumes the waiter (fail-fast).
  struct Arrival {
    Communicator* c;
    u32 rank;
    u32 peer;  ///< expected sender, probed while waiting
    u64 gen;
    u32 round;
    bool await_ready() const noexcept {
      const Slot& s = c->slots_[rank];
      return !s.alive || s.poisoned || s.got.count({gen, round}) != 0;
    }
    void await_suspend(std::coroutine_handle<> h) const {
      Slot& s = c->slots_[rank];
      s.waiters.emplace(std::make_pair(gen, round), h);
      c->arm_probe(rank, peer, gen, round, 0);
    }
    void await_resume() const noexcept {}
  };

  struct RebuildWait {
    Communicator* c;
    u32 rank;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      Slot& s = c->slots_[rank];
      XEMEM_ASSERT_MSG(!s.rebuild_waiter, "one rebuild() per rank at a time");
      s.rebuild_waiter = h;
    }
    void await_resume() const noexcept {}
  };

  sim::TimePoint take_arrival(u32 rank, u64 gen, u32 round) {
    Slot& s = slots_[rank];
    auto it = s.got.find({gen, round});
    XEMEM_ASSERT(it != s.got.end());
    const sim::TimePoint t = it->second;
    s.got.erase(it);
    return t;
  }

  sim::Task<Result<void>> run_op(u32 rank, u64 pr) {
    XEMEM_ASSERT(rank < ranks_);
    Slot& self = slots_[rank];
    auto* eng = sim::Engine::current();
    XEMEM_ASSERT_MSG(eng->partitions() == 1 || latency_ >= eng->lookahead(),
                     "fabric latency must cover the engine lookahead");
    XEMEM_ASSERT_MSG(
        eng->partitions() == 1 ||
            eng->current_partition() == self.partition,
        "collective issued from a partition other than the rank's bound "
        "partition");
    if (!self.alive || self.poisoned) {
      ++self.stats.collectives_failed;
      co_return Errc::node_failed;
    }
    const u64 gen = self.next_gen++;
    const u64 epoch = self.epoch;
    const u32 size = static_cast<u32>(self.members.size());
    if (size <= 1) co_return Result<void>{};
    const u32 lr = logical_rank(self, rank);
    sim::TimePoint ready = eng->now();
    const u32 nr =
        static_cast<u32>(std::bit_width(static_cast<u64>(size - 1)));
    for (u32 k = 0; k < nr; ++k) {
      const u32 hop = (1u << k) % size;
      const u32 dst = self.members[(lr + hop) % size];
      const u32 from = self.members[(lr + size - hop) % size];
      Packet d;
      d.kind = PktKind::data;
      d.src = rank;
      d.dst = dst;
      d.epoch = epoch;
      d.gen = gen;
      d.round = k;
      reliable_send(rank, d, pr);
      co_await Arrival{this, rank, from, gen, k};
      if (!self.alive || self.poisoned || self.epoch != epoch) {
        ++self.stats.collectives_failed;
        co_return Errc::node_failed;
      }
      const sim::TimePoint at = take_arrival(rank, gen, k);
      ready = std::max(ready + pr, at);
      co_await sim::delay_until(ready);
      if (!self.alive || self.poisoned || self.epoch != epoch) {
        ++self.stats.collectives_failed;
        co_return Errc::node_failed;
      }
    }
    co_return Result<void>{};
  }

  u32 ranks_;
  double link_bw_;
  u64 latency_;
  sim::Duration rto_;
  sim::Duration probe_period_;
  u32 max_retries_{6};
  u32 max_probes_{64};
  u64 auto_calls_{0};
  std::vector<Slot> slots_;
};

}  // namespace xemem::net
