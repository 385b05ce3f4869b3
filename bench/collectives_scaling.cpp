// Collectives scaling: flat vs topology-aware hierarchical algorithms
// (extension beyond the paper; src/collectives/).
//
// Sweeps rank count x enclave topology x message size for allreduce —
// the data-parallel hot path — and reports a per-operation table at the
// largest topology. The flat algorithm serializes all ranks on one
// control segment, so its reduce chain grows O(ranks); the hierarchical
// algorithm reduces inside each enclave in parallel and crosses enclaves
// leader-to-leader, shrinking the serial chain to O(enclaves) — the XHC
// shape. The member-crash path is also exercised: a collective over a
// crash()ed enclave must return an error within the configured timeout.
//
// Usage: collectives_scaling [--quick] [--json PATH]
//   --quick  smoke subset (CI); --json also emits every row as JSON.
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "collectives/comm.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

using coll::Algo;
using coll::Comm;
using coll::OpKind;
using coll::ReduceOp;

/// Four sockets x 10 threads so up to four single-socket enclaves hold
/// eight ranks each (the R420 tops out at two sockets).
hw::MachineConfig quad_socket() {
  hw::MachineConfig cfg;
  for (int s = 0; s < 4; ++s) cfg.sockets.push_back(hw::SocketConfig{10, 4_GiB, 12.8});
  return cfg;
}

std::vector<u32> socket_cores(u32 socket, u32 count) {
  std::vector<u32> ids;
  for (u32 c = 0; c < count; ++c) ids.push_back(socket * 10 + c);
  return ids;
}

struct OpRow {
  std::string op;
  std::string algo;
  u32 ranks{};
  u32 enclaves{};
  u64 bytes{};
  double ns_per_op{};
  u64 bytes_moved{};
  u64 polls{};
  u64 attaches{};
  u64 exports{};
};

struct Harness {
  u32 ranks;
  u32 enclaves;
  coll::CollConfig cfg;
  sim::Engine eng;
  Node node;
  std::vector<Comm::Member> members;
  std::vector<std::unique_ptr<Comm>> comms;
  std::vector<std::string> placement;

  Harness(u32 n, u32 e, u64 max_bytes, sim::Duration timeout)
      : ranks(n), enclaves(e), eng(1000 + n * 17 + e), node(quad_socket()) {
    cfg.slot_bytes = std::max<u64>(1_MiB, max_bytes);
    cfg.chunk_bytes = 64_KiB;
    cfg.poll_interval = 2'000;  // 2 us: sharpen small-message latency
    cfg.timeout = timeout;
    node.add_linux_mgmt("e0", 0, socket_cores(0, 8));
    for (u32 s = 1; s < e; ++s) {
      node.add_cokernel("e" + std::to_string(s), s, socket_cores(s, 8), 2_GiB);
    }
    for (u32 r = 0; r < n; ++r) {
      placement.push_back("e" + std::to_string(r * e / n));
    }
  }

  sim::Task<void> setup() {
    co_await node.start();
    std::vector<u32> next_core(enclaves, 0);
    for (u32 r = 0; r < ranks; ++r) {
      auto& enclave = node.enclave(placement[r]);
      const u32 e = placement[r].back() - '0';
      hw::Core* core = enclave.cores()[next_core[e]++ % enclave.cores().size()];
      auto proc = enclave.create_process(
          Comm::region_bytes(ranks, cfg) + kPageSize, core);
      XEMEM_ASSERT_MSG(proc.ok(), "bench process creation failed");
      members.push_back(Comm::Member{&node.kernel(placement[r]), &enclave,
                                     proc.value(), core,
                                     proc.value()->image_base()});
    }
  }

  sim::Task<void> run_ranks(const std::vector<u32>& who,
                            std::function<sim::Task<void>(u32)> body) {
    u32 pending = static_cast<u32>(who.size());
    sim::Event all_done;
    auto wrap = [&](u32 r) -> sim::Task<void> {
      co_await body(r);
      if (--pending == 0) all_done.set();
    };
    for (u32 r : who) sim::Engine::current()->spawn(wrap(r));
    co_await all_done.wait();
  }

  std::vector<u32> all_ranks() const {
    std::vector<u32> v;
    for (u32 r = 0; r < ranks; ++r) v.push_back(r);
    return v;
  }

  sim::Task<void> make_comms() {
    comms.resize(ranks);
    co_await run_ranks(all_ranks(), [&](u32 r) -> sim::Task<void> {
      auto c = co_await Comm::create(members[r], "bench", r, ranks, cfg);
      XEMEM_ASSERT_MSG(c.ok(), "bench comm bootstrap failed");
      comms[r] = std::move(c).value();
    });
  }

  /// Aggregate a counter across every rank's communicator.
  u64 sum_stats(std::function<u64(const coll::CommStats&)> f) const {
    u64 total = 0;
    for (const auto& c : comms) {
      if (c) total += f(c->stats());
    }
    return total;
  }
};

/// One timed configuration: @p reps allreduces of @p bytes under @p algo.
OpRow run_allreduce_case(u32 ranks, u32 enclaves, u64 bytes, Algo algo,
                         int reps) {
  Harness h(ranks, enclaves, bytes, sim::Duration{2'000'000'000ull});
  OpRow row{"allreduce", coll::algo_name(algo), ranks, enclaves, bytes};
  const u64 elems = bytes / sizeof(double);
  auto main = [&]() -> sim::Task<void> {
    co_await h.setup();
    co_await h.make_comms();
    co_await h.run_ranks(h.all_ranks(), [&](u32 r) -> sim::Task<void> {
      std::vector<double> in(elems, 1.0 + r), out(elems, 0.0);
      XEMEM_ASSERT((co_await h.comms[r]->barrier(algo)).ok());
      for (int i = 0; i < reps; ++i) {
        XEMEM_ASSERT((co_await h.comms[r]->allreduce(in.data(), out.data(),
                                                     elems, ReduceOp::sum, algo))
                         .ok());
      }
    });
    row.ns_per_op = h.comms[0]->stats().of(OpKind::allreduce).latency_ns.mean();
    row.bytes_moved = h.sum_stats(
        [](const coll::CommStats& s) { return s.of(OpKind::allreduce).bytes_moved; });
    row.polls = h.sum_stats([](const coll::CommStats& s) { return s.total_polls(); });
    row.attaches = h.sum_stats([](const coll::CommStats& s) { return s.attaches; });
    row.exports = h.sum_stats([](const coll::CommStats& s) { return s.exports; });
    co_await h.run_ranks(h.all_ranks(), [&](u32 r) -> sim::Task<void> {
      (void)co_await h.comms[r]->finalize();
    });
  };
  h.eng.run(main());
  return row;
}

/// Per-operation table at one topology (every op, one algorithm).
std::vector<OpRow> run_op_table(u32 ranks, u32 enclaves, u64 bytes, Algo algo,
                                int reps) {
  Harness h(ranks, enclaves, bytes, sim::Duration{2'000'000'000ull});
  const u64 elems = bytes / sizeof(double);
  std::vector<OpRow> rows;
  auto main = [&]() -> sim::Task<void> {
    co_await h.setup();
    co_await h.make_comms();
    co_await h.run_ranks(h.all_ranks(), [&](u32 r) -> sim::Task<void> {
      std::vector<double> in(elems, 1.0 + r), out(elems, 0.0);
      std::vector<double> gath(elems * h.ranks, 0.0);
      std::vector<u8> blob(bytes, static_cast<u8>(r));
      for (int i = 0; i < reps; ++i) {
        XEMEM_ASSERT((co_await h.comms[r]->barrier(algo)).ok());
        XEMEM_ASSERT(
            (co_await h.comms[r]->bcast(blob.data(), bytes, 0, algo)).ok());
        XEMEM_ASSERT((co_await h.comms[r]->reduce(in.data(), out.data(), elems,
                                                  0, ReduceOp::sum, algo))
                         .ok());
        XEMEM_ASSERT((co_await h.comms[r]->allreduce(in.data(), out.data(),
                                                     elems, ReduceOp::sum, algo))
                         .ok());
        XEMEM_ASSERT((co_await h.comms[r]->allgather(in.data(),
                                                     elems * sizeof(double) / h.ranks,
                                                     gath.data(), algo))
                         .ok());
      }
    });
    for (u32 k = 0; k < coll::kOpKindCount; ++k) {
      const auto kind = static_cast<OpKind>(k);
      OpRow row{coll::op_name(kind), coll::algo_name(algo), ranks, enclaves,
                bytes};
      row.ns_per_op = h.comms[0]->stats().of(kind).latency_ns.mean();
      row.bytes_moved = h.sum_stats(
          [kind](const coll::CommStats& s) { return s.of(kind).bytes_moved; });
      row.polls = h.sum_stats(
          [kind](const coll::CommStats& s) { return s.of(kind).polls; });
      row.attaches = h.sum_stats([](const coll::CommStats& s) { return s.attaches; });
      row.exports = h.sum_stats([](const coll::CommStats& s) { return s.exports; });
      rows.push_back(row);
    }
    co_await h.run_ranks(h.all_ranks(), [&](u32 r) -> sim::Task<void> {
      (void)co_await h.comms[r]->finalize();
    });
  };
  h.eng.run(main());
  return rows;
}

/// Crash an enclave mid-communicator: survivors' allreduce must return an
/// error within the configured timeout. Returns the observed worst-case
/// error latency in ns (0 on misbehavior).
double run_crash_case(sim::Duration timeout) {
  Harness h(8, 4, 64_KiB, timeout);
  double worst_ns = 0;
  bool all_failed = true;
  auto main = [&]() -> sim::Task<void> {
    co_await h.setup();
    co_await h.make_comms();
    // Ranks 6 and 7 live in enclave e3: kill it.
    h.node.kernel("e3").crash();
    std::vector<u32> survivors;
    for (u32 r = 0; r < 6; ++r) survivors.push_back(r);
    co_await h.run_ranks(survivors, [&](u32 r) -> sim::Task<void> {
      std::vector<double> in(8192, 1.0), out(8192, 0.0);
      const sim::TimePoint t0 = sim::now();
      auto st = co_await h.comms[r]->allreduce(in.data(), out.data(), 8192,
                                               ReduceOp::sum, Algo::flat);
      const double took = static_cast<double>(sim::now() - t0);
      if (st.ok() || st.error() != Errc::unreachable) all_failed = false;
      worst_ns = std::max(worst_ns, took);
    });
    co_await h.run_ranks(survivors, [&](u32 r) -> sim::Task<void> {
      (void)co_await h.comms[r]->finalize();
    });
  };
  h.eng.run(main());
  return all_failed ? worst_ns : 0;
}

void print_rows(const std::vector<OpRow>& rows) {
  std::printf("%-10s %-5s %6s %9s %10s %12s %14s %9s %9s\n", "op", "algo",
              "ranks", "enclaves", "bytes", "us/op", "bytes_moved", "polls",
              "attaches");
  for (const auto& r : rows) {
    std::printf("%-10s %-5s %6u %9u %10llu %12.1f %14llu %9llu %9llu\n",
                r.op.c_str(), r.algo.c_str(), r.ranks, r.enclaves,
                static_cast<unsigned long long>(r.bytes), r.ns_per_op / 1e3,
                static_cast<unsigned long long>(r.bytes_moved),
                static_cast<unsigned long long>(r.polls),
                static_cast<unsigned long long>(r.attaches));
  }
}

void write_json(const std::string& path, const std::vector<OpRow>& rows,
                double crash_error_ns, double crash_timeout_ns, bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"collectives_scaling\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"op\": \"%s\", \"algo\": \"%s\", \"ranks\": %u, \"enclaves\": "
        "%u, \"bytes\": %llu, \"ns_per_op\": %.1f, \"bytes_moved\": %llu, "
        "\"polls\": %llu, \"attaches\": %llu, \"exports\": %llu}%s\n",
        r.op.c_str(), r.algo.c_str(), r.ranks, r.enclaves,
        static_cast<unsigned long long>(r.bytes), r.ns_per_op,
        static_cast<unsigned long long>(r.bytes_moved),
        static_cast<unsigned long long>(r.polls),
        static_cast<unsigned long long>(r.attaches),
        static_cast<unsigned long long>(r.exports),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"crash\": {\"error_ns\": %.0f, \"timeout_ns\": %.0f},\n"
               "  \"all_checks_passed\": %s\n}\n",
               crash_error_ns, crash_timeout_ns, passed ? "true" : "false");
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

  const int reps = bench::runs_override(quick ? 2 : 5);
  bench::header(
      "Collectives scaling: flat vs hierarchical (extension; src/collectives/)",
      "no paper counterpart — the XHC shape: intra-enclave reduction "
      "parallelism shrinks the flat algorithm's O(ranks) serial chain to "
      "O(enclaves)");

  struct Topo {
    u32 ranks, enclaves;
  };
  std::vector<Topo> topos = quick
                                ? std::vector<Topo>{{8, 1}, {8, 4}}
                                : std::vector<Topo>{{8, 1}, {8, 2}, {8, 4}, {16, 4}, {32, 4}};
  std::vector<u64> sizes =
      quick ? std::vector<u64>{64_KiB} : std::vector<u64>{64, 64_KiB, 1_MiB};

  std::vector<OpRow> rows;
  std::printf("allreduce sweep (%d reps/config):\n", reps);
  for (const Topo& t : topos) {
    for (u64 bytes : sizes) {
      for (Algo algo : {Algo::flat, Algo::hierarchical}) {
        rows.push_back(run_allreduce_case(t.ranks, t.enclaves, bytes, algo, reps));
      }
    }
  }
  print_rows(rows);

  const u32 table_ranks = quick ? 8 : 32;
  std::printf("\nper-operation table (%u ranks / 4 enclaves, 64 KiB):\n",
              table_ranks);
  std::vector<OpRow> table;
  for (Algo algo : {Algo::flat, Algo::hierarchical}) {
    auto part = run_op_table(table_ranks, 4, 64_KiB, algo, reps);
    table.insert(table.end(), part.begin(), part.end());
  }
  print_rows(table);
  rows.insert(rows.end(), table.begin(), table.end());

  const double crash_timeout_ns = 20e6;  // 20 ms
  const double crash_ns = run_crash_case(sim::Duration{20'000'000});
  std::printf("\nmember-crash path: survivors' allreduce errored in %.2f ms "
              "(timeout 20 ms)\n",
              crash_ns / 1e6);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  auto find = [&](u32 ranks, u32 enclaves, u64 bytes, const char* algo) -> const OpRow* {
    for (const auto& r : rows) {
      if (r.op == "allreduce" && r.ranks == ranks && r.enclaves == enclaves &&
          r.bytes == bytes && r.algo == algo) {
        return &r;
      }
    }
    return nullptr;
  };
  const u64 probe = 64_KiB;
  const OpRow* flat84 = find(8, 4, probe, "flat");
  const OpRow* hier84 = find(8, 4, probe, "hier");
  checks.expect(flat84 != nullptr && hier84 != nullptr &&
                    hier84->ns_per_op < flat84->ns_per_op,
                "hierarchical allreduce beats flat at 4 enclaves x 8 ranks");
  if (!quick) {
    const OpRow* flat324 = find(32, 4, probe, "flat");
    const OpRow* hier324 = find(32, 4, probe, "hier");
    checks.expect(flat324 != nullptr && hier324 != nullptr &&
                      hier324->ns_per_op < flat324->ns_per_op,
                  "hierarchical advantage grows at 32 ranks (leaders reduce "
                  "8-deep subtrees in parallel)");
    const OpRow* flat81 = find(8, 1, probe, "flat");
    const OpRow* hier81 = find(8, 1, probe, "hier");
    checks.expect(flat81 != nullptr && hier81 != nullptr &&
                      hier81->ns_per_op < 1.15 * flat81->ns_per_op,
                  "single enclave: hierarchical degenerates to ~flat cost");
  }
  checks.expect(crash_ns > 0 && crash_ns <= crash_timeout_ns + 1e6,
                "crashed enclave: survivors get an error within the timeout");

  if (!json_path.empty()) {
    write_json(json_path, rows, crash_ns, crash_timeout_ns, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
