// Ablation: fabric fault injection and survivable collectives (DESIGN.md
// §13).
//
// Three sections over the multi-node workloads:
//
//  1. Loss sweep — per-link drop probability x node count on the
//     hierarchical collectives job. Every cell completes every iteration
//     (the reliability layer retransmits through the loss); reported are
//     the drained fabric counters and the simulated-time overhead vs the
//     fault-free cell.
//  2. Crashpoint sweep — one rank killed at {25, 50, 75}% of the
//     fault-free simulated time. Survivors detect the death, rebuild, and
//     finish on the shrunken communicator; reported is the survivor
//     completion latency vs the fault-free baseline.
//  3. I/O takeover — the burst-buffer world with the victim node's
//     primary cache server crashing alongside its fabric link: clients
//     re-resolve through the name-service takeover and the survivors
//     rebuild around the dead node.
//
// Usage: ablation_fabric_fault [--quick] [--json PATH]
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/multinode.hpp"

namespace xemem {
namespace {

using workloads::MultinodeParams;
using workloads::MultinodeResult;

struct Row {
  std::string section;
  u32 nodes{0};
  double loss{0};
  double crash_frac{0};
  double sim_ms{0};
  double base_sim_ms{0};
  u64 drops{0};
  u64 retransmits{0};
  u64 dedup{0};
  u64 node_failures{0};
  u64 rebuilds{0};
  u64 reresolves{0};
  u32 survivors{0};
  bool clean{false};
};

MultinodeParams coll_params(u32 nodes, bool quick) {
  MultinodeParams p;
  p.nodes = nodes;
  p.ranks_per_node = 2;
  p.enclaves_per_node = 2;
  p.iters = quick ? 3 : 5;
  p.bytes = 8192;
  return p;
}

MultinodeParams io_params(u32 nodes, bool quick) {
  MultinodeParams p;
  p.nodes = nodes;
  p.clients_per_node = 2;
  p.ops_per_rank = quick ? 32 : 48;
  p.epoch_ops = 16;
  p.capacity_blocks = 16;
  p.file_blocks = 32;
  return p;
}

Row run_cell(const char* section, const MultinodeParams& p, bool io_world) {
  const MultinodeResult a = io_world ? workloads::run_multinode_iocache(p)
                                     : workloads::run_multinode_collectives(p);
  Row row;
  row.section = section;
  row.nodes = p.nodes;
  row.loss = p.fabric_faults.drop;
  row.sim_ms = a.sim_ms;
  row.drops = a.fabric.fabric_drops;
  row.retransmits = a.fabric.fabric_retransmits;
  row.dedup = a.fabric.fabric_dedup;
  row.node_failures = a.fabric.fabric_node_failures;
  row.rebuilds = a.fabric.rebuilds;
  row.reresolves = a.reresolves;
  row.survivors = a.survivors;
  row.clean = a.clean;
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-10s %5s %6s %6s %9s %9s %7s %7s %7s %7s %6s %5s\n",
              "section", "nodes", "loss", "crash", "sim_ms", "base_ms",
              "drops", "retx", "nfail", "rebuild", "surv", "clean");
  for (const auto& r : rows) {
    std::printf(
        "%-10s %5u %6.2f %6.2f %9.3f %9.3f %7llu %7llu %7llu %7llu %6u "
        "%5s\n",
        r.section.c_str(), r.nodes, r.loss, r.crash_frac, r.sim_ms,
        r.base_sim_ms, static_cast<unsigned long long>(r.drops),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.node_failures),
        static_cast<unsigned long long>(r.rebuilds), r.survivors,
        r.clean ? "yes" : "NO");
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_fabric_fault\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"section\": \"%s\", \"nodes\": %u, \"loss\": %.3f, "
        "\"crash_frac\": %.2f, \"sim_ms\": %.4f, \"base_sim_ms\": %.4f, "
        "\"drops\": %llu, \"retransmits\": %llu, \"dedup\": %llu, "
        "\"node_failures\": %llu, \"rebuilds\": %llu, \"reresolves\": %llu, "
        "\"survivors\": %u, \"clean\": %s}%s\n",
        r.section.c_str(), r.nodes, r.loss, r.crash_frac, r.sim_ms,
        r.base_sim_ms, static_cast<unsigned long long>(r.drops),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.dedup),
        static_cast<unsigned long long>(r.node_failures),
        static_cast<unsigned long long>(r.rebuilds),
        static_cast<unsigned long long>(r.reresolves), r.survivors,
        r.clean ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_checks_passed\": %s\n}\n",
               passed ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
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
      "Ablation: fabric fault injection and survivable collectives",
      "extension beyond the paper — lossy inter-node links behind a "
      "seq/ack/retransmit layer, ULFM-style fail-fast collectives with "
      "communicator rebuild; bit-identical per seed");

  std::vector<Row> rows;

  // ---- 1. loss sweep ------------------------------------------------
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.02, 0.05, 0.10};
  const std::vector<u32> node_counts =
      quick ? std::vector<u32>{3} : std::vector<u32>{2, 3, 4};
  bool loss_all_complete = true;
  bool lossless_has_no_retx = true;
  bool lossy_retransmits = true;
  u64 total_lossy_drops = 0;
  for (u32 nodes : node_counts) {
    double base_ms = 0;
    for (double loss : losses) {
      MultinodeParams p = coll_params(nodes, quick);
      // More iterations than the kill section: the loss sweep needs
      // enough fabric packets that per-cell drop expectations are O(1)+.
      p.iters = quick ? 6 : 12;
      p.fabric_faults.drop = loss;
      p.fabric_fault_seed = 606 + nodes;
      Row r = run_cell("loss", p, /*io_world=*/false);
      if (loss == 0.0) base_ms = r.sim_ms;
      r.base_sim_ms = base_ms;
      // Survivors may drop below the node count only through a
      // false-positive death, which these loss rates make negligible.
      loss_all_complete =
          loss_all_complete && r.clean && r.survivors == nodes;
      if (loss == 0.0) {
        lossless_has_no_retx =
            lossless_has_no_retx && r.retransmits == 0 && r.drops == 0;
      } else {
        total_lossy_drops += r.drops;
        // Light loss on a two-node ring can legitimately drop nothing;
        // demand per-cell drops only where the expectation is solid.
        if (loss >= 0.05) {
          lossy_retransmits =
              lossy_retransmits && r.retransmits > 0 && r.drops > 0;
        }
        // Whenever packets did drop, the reliability layer must have
        // retransmitted through them.
        lossy_retransmits =
            lossy_retransmits && (r.drops == 0 || r.retransmits > 0);
      }
      rows.push_back(r);
    }
  }

  // ---- 2. crashpoint sweep ------------------------------------------
  const std::vector<double> fracs =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.5, 0.75};
  bool kill_survivors_ok = true;
  bool kill_rebuilds_ok = true;
  {
    const u32 nodes = 3;
    MultinodeParams base = coll_params(nodes, quick);
    const MultinodeResult b = workloads::run_multinode_collectives(base);
    for (double frac : fracs) {
      MultinodeParams p = base;
      p.kill_rank = nodes - 1;
      p.kill_time_ns = static_cast<u64>(b.sim_ms * 1e6 * frac);
      Row r = run_cell("kill", p, /*io_world=*/false);
      r.crash_frac = frac;
      r.base_sim_ms = b.sim_ms;
      kill_survivors_ok =
          kill_survivors_ok && r.survivors == nodes - 1 && r.clean;
      kill_rebuilds_ok = kill_rebuilds_ok && r.rebuilds >= nodes - 1 &&
                         r.node_failures > 0;
      rows.push_back(r);
    }
  }

  // ---- 3. I/O name-service takeover ---------------------------------
  bool io_ok = true;
  {
    const u32 nodes = 3;
    MultinodeParams base = io_params(nodes, quick);
    const MultinodeResult b = workloads::run_multinode_iocache(base);
    MultinodeParams p = base;
    p.kill_rank = 1;
    p.kill_time_ns = static_cast<u64>(b.sim_ms * 1e6 * 0.4);
    Row r = run_cell("io-kill", p, /*io_world=*/true);
    r.crash_frac = 0.4;
    r.base_sim_ms = b.sim_ms;
    // The victim's clients must have re-resolved through the standby
    // server (NS takeover), and the survivors must finish cleanly.
    io_ok = r.survivors == nodes - 1 && r.clean && r.reresolves > 0;
    rows.push_back(r);
  }

  print_rows(rows);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(lossless_has_no_retx,
                "zero-loss cells see zero drops and zero retransmits (the "
                "reliability layer is free when idle)");
  checks.expect(lossy_retransmits,
                "every cell with loss >= 0.05 drops packets and retransmits "
                "through them");
  checks.expect(total_lossy_drops > 0,
                "the loss sweep exercised actual packet drops");
  checks.expect(loss_all_complete,
                "every collective completes at every surveyed loss rate");
  checks.expect(kill_survivors_ok,
                "a mid-run kill leaves n-1 survivors that finish cleanly");
  checks.expect(kill_rebuilds_ok,
                "survivors observe the failure and rebuild the communicator");
  checks.expect(io_ok,
                "iocache victim re-resolves through NS takeover and "
                "survivors finish");

  if (!json_path.empty()) {
    write_json(json_path, rows, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  return checks.exit_code();
}
