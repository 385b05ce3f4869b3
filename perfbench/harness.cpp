#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "hw/machine.hpp"

namespace perfbench {

u64 Tracer::begin(const char* name, const char* module, u64 parent, u32 track,
                  u64 op, bool in_sim, bool inclusive) {
  if (!on_) return 0;
  SpanRec s;
  s.name = name;
  s.module = module;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.track = track;
  s.in_sim = in_sim;
  s.inclusive = inclusive;
  // A span left open (a failed call path) keeps zero duration.
  s.sim_start = s.sim_end = in_sim ? sim::now() : 0;
  s.host_start = s.host_end = host_now_s();
  spans_.push_back(std::move(s));
  return spans_.size();
}

void Tracer::end(u64 id) {
  if (id == 0) return;
  SpanRec& s = spans_[id - 1];
  s.host_end = host_now_s();
  s.sim_end = s.in_sim ? sim::now() : 0;
}

namespace {

/// Length of the union of [a, b) intervals.
template <typename T>
T covered(std::vector<std::pair<T, T>> iv) {
  std::sort(iv.begin(), iv.end());
  T total{};
  T cur_a{}, cur_b{};
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write_chrome(const std::string& path, double host_origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::vector<size_t>> children(spans_.size() + 1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":\"simulated clock\"}},\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
               "\"args\":{\"name\":\"host clock\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::vector<std::pair<u64, u64>> sim_iv;
    std::vector<std::pair<double, double>> host_iv;
    for (size_t c : children[s.id]) {
      sim_iv.emplace_back(spans_[c].sim_start, spans_[c].sim_end);
      host_iv.emplace_back(spans_[c].host_start, spans_[c].host_end);
    }
    const u64 sim_dur = s.sim_end - s.sim_start;
    const double host_dur = s.host_end - s.host_start;
    const u64 sim_self = sim_dur - std::min(sim_dur, covered(sim_iv));
    const double host_self =
        host_dur - std::min(host_dur, covered(host_iv));
    for (int pid = 1; pid <= 2; ++pid) {
      if (pid == 1 && !s.in_sim) continue;
      const double ts = pid == 1 ? static_cast<double>(s.sim_start) / 1e3
                                 : (s.host_start - host_origin) * 1e6;
      const double dur =
          pid == 1 ? static_cast<double>(sim_dur) / 1e3 : host_dur * 1e6;
      std::fprintf(f, ",\n{\"ph\":\"X\",\"name\":");
      json_string(f, s.name);
      std::fprintf(f,
                   ",\"cat\":\"%s\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"op\":%llu,\"sim_start_ns\":%llu,\"sim_end_ns\":%llu,"
                   "\"sim_self_ns\":%llu,\"host_start_s\":%.9f,"
                   "\"host_end_s\":%.9f,\"host_self_s\":%.9f,"
                   "\"host_inclusive\":%s}}",
                   s.module, pid, s.track, ts, dur,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.sim_start),
                   static_cast<unsigned long long>(s.sim_end),
                   static_cast<unsigned long long>(sim_self),
                   s.host_start - host_origin, s.host_end - host_origin,
                   host_self, s.inclusive ? "true" : "false");
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tail tail_of(Samples& s) {
  Tail t;
  t.n = s.count();
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(t.n) * (100.0 - q) / 100.0 >= 10.0) {
      t.q = q;
      t.value = s.percentile(q);
      return t;
    }
  }
  return t;
}

double p50_of(Samples& s) { return s.empty() ? 0.0 : s.percentile(50.0); }

Metrics per_layer_template() {
  Metrics m;
  auto put = [&m](const std::string& name, const char* unit) {
    m[name] = Metric{0.0, unit};
  };
  put("sim.events", "count");
  put("sim.host_ns_per_event", "ns");
  put("hw.irq_events", "count");
  put("hw.stolen_ms", "ms");
  for (const char* p : {"linux", "kitten", "guest_linux"}) {
    put(std::string("os.touch_p50_us.") + p, "us");
  }
  put("os.create_process_ms", "ms");
  put("pisces.boot_ms", "ms");
  put("palacios.vm_init_ms", "ms");
  put("palacios.guest_attach_gbps.kitten_host", "GB/s");
  put("palacios.guest_attach_gbps.linux_host", "GB/s");
  for (const char* op : {"make", "get", "attach", "detach", "release", "remove"}) {
    put(std::string("xemem.") + op + "_p50_us", "us");
    put(std::string("xemem.") + op + "_tail_us", "us");
  }
  for (const char* pair :
       {"kitten_to_linux", "kitten_to_kitten", "kitten_to_linuxvm",
        "kitten_to_kittenvm", "linux_to_kitten", "linux_to_linuxvm",
        "linux_to_kittenvm", "linuxvm_to_linux", "linuxvm_to_kitten",
        "linuxvm_to_kittenvm"}) {
    put(std::string("xemem.attach_gbps.") + pair, "GB/s");
  }
  for (const char* c : {"ns_requests", "messages_forwarded", "pages_shared",
                        "retries", "timeouts"}) {
    put(std::string("xemem.") + c, "count");
  }
  put("collectives.allreduce_p50_us", "us");
  put("collectives.allreduce_tail_us", "us");
  for (const char* c : {"allreduce_ops", "bcast_ops", "polls", "bytes_moved"}) {
    put(std::string("collectives.") + c, "count");
  }
  put("iocache.hit_rate", "ratio");
  for (const char* c : {"read_hit", "read_miss", "write"}) {
    put(std::string("iocache.") + c + "_p50_us", "us");
  }
  for (const char* c : {"evictions", "writebacks", "store_reads", "store_writes"}) {
    put(std::string("iocache.") + c, "count");
  }
  put("net.allreduce_p50_us", "us");
  for (const char* c : {"acks", "probes", "retransmits"}) {
    put(std::string("net.") + c, "count");
  }
  put("workloads.insitu_analytics_s", "s");
  put("workloads.attaches_performed", "count");
  put("workloads.attach_gbps", "GB/s");
  put("workloads.cycle_p50_us", "us");
  put("workloads.cycle_tail_us", "us");
  put("workloads.insitu_runtime_s", "s");
  put("workloads.io_op_p50_us", "us");
  put("workloads.io_op_tail_us", "us");
  put("workloads.io_ops_per_sim_s", "1/s");
  put("workloads.allreduce_p50_us", "us");
  put("trace.overhead_s", "s");
  put("trace.spans", "count");
  return m;
}

u64 mix_double(u64 h, double v) { return mix(h, std::bit_cast<u64>(v)); }

void Counters::add_kernel(const XememKernel& k) {
  const auto& s = k.stats();
  ns_requests += s.ns_requests;
  messages_forwarded += s.messages_forwarded;
  pages_shared += s.pages_shared;
  retries += s.retries;
  timeouts += s.timeouts;
}

void Counters::add_machine(hw::Machine& m) {
  for (u32 c = 0; c < m.core_count(); ++c) {
    irq_events += m.core(c).irq_events();
    stolen_ns += m.core(c).stolen_ns();
  }
}

Counters& Counters::operator+=(const Counters& o) {
  ns_requests += o.ns_requests;
  messages_forwarded += o.messages_forwarded;
  pages_shared += o.pages_shared;
  retries += o.retries;
  timeouts += o.timeouts;
  irq_events += o.irq_events;
  stolen_ns += o.stolen_ns;
  events += o.events;
  return *this;
}

void put_counter_diff(Metrics& layer, const Counters& b, const Counters& a) {
  auto d = [](u64 after, u64 before) {
    return static_cast<double>(after - before);
  };
  layer["xemem.ns_requests"].value = d(a.ns_requests, b.ns_requests);
  layer["xemem.messages_forwarded"].value =
      d(a.messages_forwarded, b.messages_forwarded);
  layer["xemem.pages_shared"].value = d(a.pages_shared, b.pages_shared);
  layer["xemem.retries"].value = d(a.retries, b.retries);
  layer["xemem.timeouts"].value = d(a.timeouts, b.timeouts);
  layer["hw.irq_events"].value = d(a.irq_events, b.irq_events);
  layer["hw.stolen_ms"].value = d(a.stolen_ns, b.stolen_ns) / 1e6;
  layer["sim.events"].value = d(a.events, b.events);
}

void expect_no_leaks(Ledger& led, const std::string& name,
                     const XememKernel& k, u64 kept) {
  led.expect(k.pinned_frames() == 0,
             name + ": " + std::to_string(k.pinned_frames()) +
                 " frames still pinned at exit");
  led.expect(k.exports_live() == kept,
             name + ": " + std::to_string(k.exports_live()) +
                 " exports outstanding at exit, expected " + std::to_string(kept));
}

bool host_clock_metric(const std::string& name) {
  return name == "os.create_process_ms" || name == "pisces.boot_ms" ||
         name == "palacios.vm_init_ms" || name == "sim.host_ns_per_event" ||
         name == "trace.overhead_s";
}

u64 digest_of(const RoundOut& r) {
  u64 h = mix_double(0, r.sim_makespan_s);
  for (const auto& [name, m] : r.sim) h = mix_double(h, m.value);
  for (const auto& [name, m] : r.layer) {
    // sim.events is not engine-invariant; trace.spans is 0 when untraced.
    if (host_clock_metric(name) || name == "sim.events" || name == "trace.spans") continue;
    h = mix_double(h, m.value);
  }
  return h;
}

}  // namespace perfbench
