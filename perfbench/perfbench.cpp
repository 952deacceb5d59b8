// Simulator benchmark binary: runs one named workload through the public
// API, times every layer boundary from outside, checks the outputs and
// prints one JSON line with every metric by name and unit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace-file <p>]
//             [--commit <id>] [--smoke]
//
// A run has two parts:
//   timed   fresh set-up + run_until(horizon), repeated until --seconds of
//           wall time have passed (at least kMinReps times), each followed
//           by set-up-only rounds. End-to-end metrics come only from this
//           part.
//   traced  one more repetition that steps the fabric an epoch at a time,
//           reads the public counters after every step and records spans
//           in memory. Per-layer metrics come from it; its fingerprint
//           must equal the timed one. With --trace-file the spans are
//           written as Chrome trace-event JSON at exit.
//
// --smoke shrinks every workload to N=16 and a 0.2 ms horizon, the smoke
// test's scale.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/network.h"
#include "engine/sweep.h"
#include "stats/percentile.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

extern char** environ;

namespace {

using namespace negotiator;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double us_since_start(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double current_rss_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Resets the kernel's resident-set high-water mark to the current RSS, so
/// peak_rss_mb() measures one pass. Falls back to the process lifetime peak
/// where /proc/self/clear_refs is not writable.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  long kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib <= 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One simulation: a fabric configuration, the offered load and the
/// simulated horizon. Statistics cover the second half of the horizon.
struct Spec {
  std::string label;
  NetworkConfig cfg;
  double load{0.7};
  Nanos horizon{0};
};

Spec paper_spec(std::string label, TopologyKind topo, SchedulerKind sched,
                int num_tors, double load, Nanos horizon, bool pq = true) {
  Spec s;
  s.label = std::move(label);
  s.cfg.topology = topo;
  s.cfg.scheduler = sched;
  s.cfg.num_tors = num_tors;
  s.cfg.pias.enabled = pq;
  s.cfg.sim_threads = 1;  // every workload runs serially
  s.load = load;
  s.horizon = horizon;
  return s;
}

struct Workload {
  std::vector<Spec> points;  // one point, or the sweep grid
  bool sweep{false};
};

Workload make_workload(const std::string& name, bool smoke) {
  const int big = smoke ? 16 : 256;
  const int mid = smoke ? 16 : 128;
  const Nanos horizon = smoke ? 200 * kMicro : 2 * kMilli;
  Workload w;
  if (name == "neg-parallel-heavy") {
    w.points.push_back(paper_spec(name, TopologyKind::kParallel,
                                  SchedulerKind::kNegotiator, big, 0.7,
                                  horizon));
  } else if (name == "neg-thinclos-lossy") {
    Spec s = paper_spec(name, TopologyKind::kThinClos,
                        SchedulerKind::kNegotiator, mid, 0.7, horizon);
    // The chaos harness's control-loss mix, plus per-hop data loss with
    // the end-host ARQ; validate_matching arms the MatchingValidator and
    // the conservation auditor, which abort on any violation.
    s.cfg.control_fault.enabled = true;
    s.cfg.control_fault.request_drop = 0.05;
    s.cfg.control_fault.grant_drop = 0.05;
    s.cfg.control_fault.accept_drop = 0.05;
    s.cfg.control_fault.delay_prob = 0.1;
    s.cfg.control_fault.max_delay_epochs = 2;
    s.cfg.control_fault.duplicate_prob = 0.05;
    s.cfg.control_fault.fallback = true;
    s.cfg.data_fault.enabled = true;
    s.cfg.data_fault.first_hop_drop = 0.01;
    s.cfg.data_fault.relay_drop = 0.01;
    s.cfg.data_fault.second_hop_drop = 0.01;
    s.cfg.data_fault.corrupt_prob = 0.01;
    s.cfg.data_fault.arq = true;
    s.cfg.validate_matching = true;
    w.points.push_back(s);
  } else if (name == "fig9-sweep") {
    w.sweep = true;
    // Heaviest points first (the oblivious baseline, high loads), so the
    // pool's tail is short and the grid's wall time does not hinge on
    // which worker draws the slowest point last.
    const struct {
      const char* name;
      TopologyKind topo;
      SchedulerKind sched;
      bool pq;
    } systems[] = {
        {"oblivious/thin-clos", TopologyKind::kThinClos,
         SchedulerKind::kOblivious, true},
        {"oblivious/thin-clos w/o PQ", TopologyKind::kThinClos,
         SchedulerKind::kOblivious, false},
        {"negotiator/thin-clos", TopologyKind::kThinClos,
         SchedulerKind::kNegotiator, true},
        {"negotiator/thin-clos w/o PQ", TopologyKind::kThinClos,
         SchedulerKind::kNegotiator, false},
        {"negotiator/parallel", TopologyKind::kParallel,
         SchedulerKind::kNegotiator, true},
        {"negotiator/parallel w/o PQ", TopologyKind::kParallel,
         SchedulerKind::kNegotiator, false},
    };
    for (const double load : {1.0, 0.75, 0.5, 0.25, 0.1}) {
      for (const auto& sys : systems) {
        char label[96];
        std::snprintf(label, sizeof(label), "%s @%.2f", sys.name, load);
        w.points.push_back(paper_spec(label, sys.topo, sys.sched, mid, load,
                                      horizon, sys.pq));
      }
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Counters, fingerprint, spans
// ---------------------------------------------------------------------------

/// Every public counter the fabrics expose, read after (or during) a run.
/// Each is reported under its per-layer metric name; kCounterMetrics lists
/// them in Ctr order.
enum Ctr : std::size_t {
  kEventsExecuted, kEventsDispatched, kDeliveries, kDeliveryDispatches,
  kMatches, kMatchSlotsOffered, kMatchSlotsUsed, kPiggybackPackets,
  kCtrlClassified, kCtrlDropped, kCtrlDelayed, kCtrlDuplicated,
  kDegradedSlots, kFallbackBytes, kDataDroppedBytes, kDataCorruptedBytes,
  kRetxBytes, kRtoFires, kSpuriousRetx, kAbandonedBytes, kRelayBytes,
  kBacklog, kFctSamples, kNumCounters
};
constexpr std::pair<const char*, const char*> kCounterMetrics[kNumCounters] = {
    {"sim.events_executed", "count"},   {"sim.events_dispatched", "count"},
    {"tor.deliveries", "count"},        {"tor.delivery_dispatches", "count"},
    {"core.matches", "count"},          {"core.match_slots_offered", "count"},
    {"core.match_slots_used", "count"}, {"core.piggyback_packets", "count"},
    {"core.ctrl_classified", "count"},  {"core.ctrl_dropped", "count"},
    {"core.ctrl_delayed", "count"},     {"core.ctrl_duplicated", "count"},
    {"core.degraded_slots", "count"},   {"core.fallback_bytes", "bytes"},
    {"core.data_dropped_bytes", "bytes"},
    {"core.data_corrupted_bytes", "bytes"},
    {"tor.retx_bytes", "bytes"},        {"tor.rto_fires", "count"},
    {"tor.spurious_retx", "count"},     {"tor.abandoned_bytes", "bytes"},
    {"oblivious.relay_bytes", "bytes"}, {"tor.backlog_bytes_end", "bytes"},
    {"stats.fct_samples", "count"},
};
using Counters = std::array<std::int64_t, kNumCounters>;

Counters read_counters(FabricSim& f) {
  Counters c{};
  const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
  c[kEventsExecuted] = i64(f.events_executed());
  c[kEventsDispatched] = i64(f.events_dispatched());
  c[kDeliveries] = i64(f.deliveries());
  c[kDeliveryDispatches] = i64(f.delivery_dispatches());
  c[kRelayBytes] = f.goodput().relay_bytes();
  c[kBacklog] = f.total_backlog();
  c[kFctSamples] = i64(f.fct().completed());
  if (const auto* n = dynamic_cast<const NegotiatorFabric*>(&f)) {
    c[kMatches] = n->total_matches();
    c[kMatchSlotsOffered] = n->match_slots_offered();
    c[kMatchSlotsUsed] = n->match_slots_used();
    c[kPiggybackPackets] = n->piggyback_packets();
    if (const ControlChannel* ctrl = n->control_channel()) {
      c[kCtrlClassified] = ctrl->classified();
      c[kCtrlDropped] = ctrl->dropped();
      c[kCtrlDelayed] = ctrl->delayed();
      c[kCtrlDuplicated] = ctrl->duplicated();
    }
    c[kDegradedSlots] = n->degraded_slots();
    c[kFallbackBytes] = n->fallback_bytes();
    if (const DataChannel* d = n->data_channel()) {
      c[kDataDroppedBytes] = d->dropped_bytes();
      c[kDataCorruptedBytes] = d->corrupted_bytes();
    }
    if (const HostTransport* t = n->host_transport()) {
      c[kRetxBytes] = t->retransmitted_bytes();
      c[kRtoFires] = t->rto_fires();
      c[kSpuriousRetx] = t->spurious_retx();
      c[kAbandonedBytes] = t->abandoned_bytes();
    }
  }
  return c;
}

/// FNV-1a, the recipe bench_perf_engine uses for its row fingerprints.
class Fnv {
 public:
  void mix(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// One complete span (Chrome trace-event "X" phase).
struct Span {
  std::string name;
  int tid{0};
  double ts_us{0};
  double dur_us{0};
  std::vector<std::pair<const char*, double>> args;
};

/// Small dense id per thread, for the trace's tid column.
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

// ---------------------------------------------------------------------------
// One simulation, timed at each layer boundary
// ---------------------------------------------------------------------------

struct RunRecord {
  double generate_s{0};
  double make_fabric_s{0};
  double add_flows_s{0};
  double run_s{0};
  double summarize_s{0};
  double rss_after_setup_mb{0};
  std::size_t flows{0};
  Bytes offered_bytes{0};
  FctSummary mice;
  double goodput{0};
  double match_ratio_mean{0};
  bool has_matching{false};
  Counters counters{};
  std::uint64_t fingerprint{0};
  std::string invariant_error;  // empty when every output check passed
  std::vector<double> epoch_wall_us;  // traced runs only
  int tid{0};
  Clock::time_point start;

  double setup_s() const { return generate_s + make_fabric_s + add_flows_s; }
  double total_s() const { return setup_s() + run_s + summarize_s; }
};

void add_span(std::vector<Span>* spans, const char* name, int tid,
              Clock::time_point t0, Clock::time_point t1,
              std::vector<std::pair<const char*, double>> args = {}) {
  if (spans == nullptr) return;
  spans->push_back(Span{name, tid, us_since_start(t0),
                        std::chrono::duration<double, std::micro>(t1 - t0)
                            .count(),
                        std::move(args)});
}

/// Checks outputs that must hold for any seed: every completed flow was
/// offered, finished after it arrived and was credited no more bytes than
/// were offered; goodput is a share of the host aggregate.
std::string check_invariants(const std::vector<Flow>& flows, FabricSim& fab,
                             const RunRecord& r) {
  if (r.counters[kFctSamples] == 0) return "no flow completed";
  if (r.mice.count == 0) return "no mice flow completed in the window";
  if (!(r.goodput > 0.0 && r.goodput <= 1.0 + 1e-9)) {
    return "goodput outside (0, 1]";
  }
  if (r.counters[kBacklog] < 0) return "negative backlog";
  Bytes completed_bytes = 0;
  for (const FctSample& s : fab.fct().samples()) {
    if (s.flow < 0 || static_cast<std::size_t>(s.flow) >= flows.size()) {
      return "FCT sample for an unknown flow";
    }
    const Flow& f = flows[static_cast<std::size_t>(s.flow)];
    if (f.size != s.size || f.arrival != s.arrival) {
      return "FCT sample disagrees with its flow";
    }
    if (s.fct <= 0) return "non-positive FCT";
    completed_bytes += s.size;
  }
  if (completed_bytes > r.offered_bytes) return "completed more than offered";
  return {};
}

/// One point's set-up: the generated flows and the fabric they were added
/// to, with a timestamp at each layer boundary.
struct SetUp {
  NetworkConfig cfg;
  std::vector<Flow> flows;
  std::unique_ptr<FabricSim> fab;
  Clock::time_point t0, t1, t2, t3;  // generate | make_fabric | add_flows
};

SetUp set_up(const Spec& spec, std::uint64_t seed) {
  SetUp u;
  u.cfg = spec.cfg;
  u.cfg.seed = seed;
  u.t0 = Clock::now();
  WorkloadGenerator gen(SizeDistribution::hadoop(), u.cfg.num_tors,
                        u.cfg.host_rate(), spec.load, Rng(seed));
  u.flows = gen.generate(0, spec.horizon);
  u.t1 = Clock::now();
  u.fab = make_fabric(u.cfg);
  u.t2 = Clock::now();
  u.fab->add_flows(u.flows);
  u.t3 = Clock::now();
  return u;
}

/// Host seconds to set up every point of the workload once, one after the
/// other; the fabrics are discarded untimed.
double setup_round(const std::vector<Spec>& points, std::uint64_t seed) {
  double s = 0;
  for (const Spec& spec : points) {
    const SetUp u = set_up(spec, seed);
    s += std::chrono::duration<double>(u.t3 - u.t0).count();
  }
  return s;
}

RunRecord run_point(const Spec& spec, std::uint64_t seed,
                    std::vector<Span>* spans) {
  RunRecord r;
  r.tid = thread_index();
  const SetUp u = set_up(spec, seed);
  const NetworkConfig& cfg = u.cfg;
  const std::vector<Flow>& flows = u.flows;
  FabricSim* fab = u.fab.get();
  const Nanos horizon = spec.horizon;
  r.start = u.t0;
  r.generate_s = std::chrono::duration<double>(u.t1 - u.t0).count();
  r.make_fabric_s = std::chrono::duration<double>(u.t2 - u.t1).count();
  r.add_flows_s = std::chrono::duration<double>(u.t3 - u.t2).count();
  r.rss_after_setup_mb = current_rss_mb();
  r.flows = flows.size();
  for (const Flow& f : flows) r.offered_bytes += f.size;
  add_span(spans, "workload.generate", r.tid, u.t0, u.t1,
           {{"flows", static_cast<double>(flows.size())}});
  add_span(spans, "engine.make_fabric", r.tid, u.t1, u.t2);
  add_span(spans, "engine.add_flows", r.tid, u.t2, u.t3);
  if (fab->sim_threads() != 1) {
    r.invariant_error = "fabric did not resolve to one sim thread";
  }

  fab->fct().set_measure_from(horizon / 2);
  fab->goodput().set_measure_interval(horizon / 2, horizon);
  const auto run_start = Clock::now();
  if (spans == nullptr) {
    fab->run_until(horizon);
  } else {
    // Traced: one run_until per epoch, public counters read after each.
    const Nanos step = cfg.epoch_length_ns();
    Counters prev = read_counters(*fab);
    for (Nanos t = 0; t < horizon;) {
      t = std::min(horizon, t + step);
      const auto e0 = Clock::now();
      fab->run_until(t);
      const auto e1 = Clock::now();
      const Counters now = read_counters(*fab);
      r.epoch_wall_us.push_back(
          std::chrono::duration<double, std::micro>(e1 - e0).count());
      const auto delta = [&](Ctr k) {
        return static_cast<double>(now[k] - prev[k]);
      };
      add_span(spans, "engine.epoch", r.tid, e0, e1,
               {{"sim_ns", static_cast<double>(t)},
                {"events", delta(kEventsExecuted)},
                {"deliveries", delta(kDeliveries)},
                {"matches", delta(kMatches)},
                {"completed", delta(kFctSamples)},
                {"backlog_bytes", static_cast<double>(now[kBacklog])}});
      prev = now;
    }
  }
  const auto t4 = Clock::now();
  r.run_s = std::chrono::duration<double>(t4 - run_start).count();

  r.mice = fab->fct().mice_summary();
  const FctSummary all = fab->fct().all_summary();
  r.goodput = fab->goodput().normalized_goodput(cfg.host_rate());
  const std::vector<double> ratios = fab->match_ratio_series();
  r.has_matching = !ratios.empty();
  r.match_ratio_mean = mean(ratios);
  const auto t5 = Clock::now();
  r.summarize_s = std::chrono::duration<double>(t5 - t4).count();
  add_span(spans, "stats.summarize", r.tid, t4, t5);

  r.counters = read_counters(*fab);
  Fnv h;
  for (const FctSample& s : fab->fct().samples()) {
    h.mix(static_cast<std::int64_t>(s.flow));
    h.mix(static_cast<std::int64_t>(s.size));
    h.mix(static_cast<std::int64_t>(s.arrival));
    h.mix(static_cast<std::int64_t>(s.fct));
    h.mix(static_cast<std::int64_t>(s.group));
  }
  for (const std::int64_t v : r.counters) h.mix(v);
  for (const double v : {r.mice.p99_ns, r.mice.p50_ns, r.mice.mean_ns,
                         all.p99_ns, all.p50_ns, r.goodput,
                         r.match_ratio_mean}) {
    h.mix(v);
  }
  r.fingerprint = h.value();
  if (r.invariant_error.empty()) {
    r.invariant_error = check_invariants(flows, *fab, r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Workload execution: timed repetitions, then one traced repetition
// ---------------------------------------------------------------------------

/// One pass over a workload: a single run, or the whole sweep grid.
struct Pass {
  std::vector<RunRecord> records;  // one per point, in grid order
  double wall_s{0};                // the pass's own wall time
  double peak_rss_mb{0};           // resident high-water mark of the pass
  std::uint64_t fingerprint{0};
  int failed_points{0};
  std::vector<std::string> errors;
};

unsigned sweep_threads() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

Pass run_pass(const Workload& w, std::uint64_t seed,
              std::vector<std::vector<Span>>* spans) {
  Pass p;
  p.records.resize(w.points.size());
  if (spans != nullptr) spans->assign(w.points.size(), {});
  reset_peak_rss();
  const auto t0 = Clock::now();
  if (!w.sweep) {
    p.records[0] = run_point(w.points[0], seed,
                             spans != nullptr ? &(*spans)[0] : nullptr);
  } else {
    // Every point body builds its own fabric and writes only its own
    // record and span slots, so the points stay isolated.
    std::vector<SweepPoint> grid(w.points.size());
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      grid[i].label = w.points[i].label;
      grid[i].body = [&w, &p, spans, seed, i](const SweepPoint&) {
        p.records[i] = run_point(w.points[i], seed,
                                 spans != nullptr ? &(*spans)[i] : nullptr);
        return SweepOutcome{};
      };
    }
    const std::vector<SweepOutcome> outcomes =
        SweepEngine(sweep_threads()).run(grid);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].ok) {
        ++p.failed_points;
        p.errors.push_back(w.points[i].label + ": " + outcomes[i].error);
      }
    }
  }
  p.wall_s = since(t0);
  p.peak_rss_mb = peak_rss_mb();
  Fnv h;
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    const RunRecord& r = p.records[i];
    h.mix(r.fingerprint);
    if (!r.invariant_error.empty()) {
      ++p.failed_points;
      p.errors.push_back(w.points[i].label + ": " + r.invariant_error);
    }
  }
  p.fingerprint = h.value();
  return p;
}

/// Simulated ns the pass advanced, summed over its points.
double pass_sim_ns(const Workload& w) {
  double ns = 0;
  for (const Spec& s : w.points) ns += static_cast<double>(s.horizon);
  return ns;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& spans,
                 const std::vector<Span>& extra) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const Span& s) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                 "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                 "%.3f, \"args\": {",
                 first ? "" : ",\n", s.name.c_str(), s.tid, s.ts_us,
                 s.dur_us);
    for (std::size_t i = 0; i < s.args.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ", s.args[i].first,
                   s.args[i].second);
    }
    std::fprintf(f, "}}");
    first = false;
  };
  for (const Span& s : extra) emit(s);
  for (const auto& point : spans) {
    for (const Span& s : point) emit(s);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void clear_environment() {
  // A stray variable must not make a run measure a different program:
  // clear every knob the simulator or its harnesses read.
  std::vector<std::string> names = {"NEG_SIM_THREADS", "NEG_BENCH_THREADS",
                                    "NEG_DURATION_MS"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("NEG_PERF_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <neg-parallel-heavy|"
               "neg-thinclos-lossy|fig9-sweep> --seed <n> "
               "--seconds <s> [--trace-file <path>] [--commit <id>] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  clear_environment();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a '%s' build%s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts_on ? " with assert() on" : "");
    return 3;
  }

  std::string workload_name;
  std::string trace_file;
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1;
  bool smoke = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  const Workload w = make_workload(workload_name, smoke);
  if (w.points.empty() || !have_seed || seconds < 0) return usage();

  // --- Timed part: untraced passes until `seconds` have passed. Each is
  // followed by set-up rounds, which give setup_s: a pass's own set-ups
  // are few, and on the sweep they share the host with running points. ---
  constexpr std::size_t kMinReps = 3;
  constexpr int kSetupRoundsPerPass = 3;
  std::vector<Pass> passes;
  std::vector<double> setup_rounds;
  const auto timed_start = Clock::now();
  const double cpu_start = cpu_seconds();
  while (passes.size() < kMinReps || since(timed_start) < seconds) {
    passes.push_back(run_pass(w, seed, nullptr));
    for (int i = 0; i < kSetupRoundsPerPass; ++i) {
      setup_rounds.push_back(setup_round(w.points, seed));
    }
  }
  const double timed_wall = since(timed_start);
  const double cpu_wall_ratio = (cpu_seconds() - cpu_start) / timed_wall;

  // --- Traced part: one pass stepped epoch by epoch. ---
  std::vector<std::vector<Span>> spans;
  const auto traced_start = Clock::now();
  const Pass traced = run_pass(w, seed, &spans);
  const auto traced_end = Clock::now();

  // --- Correctness: every pass ok and all fingerprints equal. ---
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  const std::uint64_t expected = passes.front().fingerprint;
  auto account = [&](const Pass& p, const char* what) {
    attempted += static_cast<int>(p.records.size());
    failed += p.failed_points;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    if (p.fingerprint != expected) {
      // A diverging pass fails every point it ran.
      failed += static_cast<int>(p.records.size()) - p.failed_points;
      errors.push_back(std::string(what) + " fingerprint " +
                       hex(p.fingerprint) + " != " + hex(expected));
    }
  };
  for (const Pass& p : passes) account(p, "timed");
  account(traced, "traced");

  // --- End-to-end metrics from the timed passes. ---
  const double sim_ns = pass_sim_ns(w);
  std::vector<double> throughput;
  std::vector<double> timed_run_walls;
  std::vector<double> peak_rss;
  for (const Pass& p : passes) {
    peak_rss.push_back(p.peak_rss_mb);
    double run_s = 0;
    for (const RunRecord& r : p.records) run_s += r.run_s;
    // A single run's timed part is its run_until; a sweep's is the whole
    // grid's wall time ("wall time for the whole figure sweep").
    const double timed_s = w.sweep ? p.wall_s : run_s;
    timed_run_walls.push_back(timed_s);
    throughput.push_back(sim_ns / timed_s);
  }
  std::vector<double> mice_p99;
  std::vector<double> mice_p50;
  std::vector<double> goodputs;
  for (const RunRecord& r : passes.front().records) {
    mice_p99.push_back(r.mice.p99_ns / 1e3);
    mice_p50.push_back(r.mice.p50_ns / 1e3);
    goodputs.push_back(r.goodput);
  }
  std::vector<Metric> metrics = {
      // On a shared host the simulator runs in contended stretches, whose
      // speed recurs at one level in every run, and quieter ones, whose
      // speed depends on what co-tenants do. Report the contended level:
      // the slowest pass, and the 90th-percentile set-up round (a round is
      // short enough that one stall could make it the slowest).
      {"sim_ns_per_wall_s", percentile(throughput, 0), "ns/s"},
      {"setup_s", percentile(setup_rounds, 90), "s"},
      {"peak_rss_mb", median(peak_rss), "MB"},
      // Simulated figures repeat on every pass. The sweep reports its
      // median point's FCTs and the mean goodput over its points.
      {"mice_fct_p99_us", median(mice_p99), "us"},
      {"mice_fct_p50_us", median(mice_p50), "us"},
      {"goodput", mean(goodputs), "ratio"},
  };

  // --- Per-layer metrics from the traced pass. ---
  Counters c{};
  double gen_s = 0, make_s = 0, add_s = 0, summarize_s = 0;
  double flows = 0, offered = 0;
  std::vector<double> epoch_walls;
  std::vector<double> point_walls;
  std::vector<double> match_ratios;
  double busy_s = 0;
  for (const RunRecord& r : traced.records) {
    for (std::size_t k = 0; k < kNumCounters; ++k) c[k] += r.counters[k];
    gen_s += r.generate_s;
    make_s += r.make_fabric_s;
    add_s += r.add_flows_s;
    summarize_s += r.summarize_s;
    flows += static_cast<double>(r.flows);
    offered += static_cast<double>(r.offered_bytes);
    epoch_walls.insert(epoch_walls.end(), r.epoch_wall_us.begin(),
                       r.epoch_wall_us.end());
    point_walls.push_back(r.total_s());
    busy_s += r.total_s();
    if (r.has_matching) match_ratios.push_back(r.match_ratio_mean);
  }
  // Set-up memory is read in the first timed pass, while the heap is still
  // fresh; later passes reuse what the allocator kept.
  double rss_setup = 0;
  for (const RunRecord& r : passes.front().records) {
    rss_setup = std::max(rss_setup, r.rss_after_setup_mb);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double traced_timed_s =
      w.sweep ? traced.wall_s : traced.records.front().run_s;
  const auto d = [](auto v) { return static_cast<double>(v); };
  const std::vector<Metric> layers = {
      {"workload.generate_s", gen_s, "s"},
      {"workload.flows", flows, "count"},
      {"workload.offered_bytes", offered, "bytes"},
      {"engine.make_fabric_s", make_s, "s"},
      {"engine.add_flows_s", add_s, "s"},
      {"engine.rss_after_setup_mb", rss_setup, "MB"},
      {"engine.epochs", d(epoch_walls.size()), "count"},
      {"engine.epoch_wall_us_p50", percentile(epoch_walls, 50), "us"},
      {"engine.epoch_wall_us_p99", percentile(epoch_walls, 99), "us"},
      {"engine.epoch_wall_us_max", percentile(epoch_walls, 100), "us"},
      {"engine.cpu_wall_ratio", cpu_wall_ratio, "ratio"},
      {"engine.sweep_point_wall_s_p50",
       w.sweep ? percentile(point_walls, 50) : 0.0, "s"},
      {"engine.sweep_point_wall_s_max",
       w.sweep ? percentile(point_walls, 100) : 0.0, "s"},
      {"engine.sweep_pool_busy_frac",
       w.sweep ? ratio(busy_s, sweep_threads() * traced.wall_s) : 0.0,
       "ratio"},
      {"sim.events_per_dispatch",
       ratio(d(c[kEventsExecuted]), d(c[kEventsDispatched])), "ratio"},
      {"core.match_ratio_mean", mean(match_ratios), "ratio"},
      {"core.match_slot_use_frac",
       ratio(d(c[kMatchSlotsUsed]), d(c[kMatchSlotsOffered])), "ratio"},
      {"tor.deliveries_per_dispatch",
       ratio(d(c[kDeliveries]), d(c[kDeliveryDispatches])), "ratio"},
      // Spurious copies are counted per ARQ unit, retransmits in bytes;
      // units are converted at one full scheduled payload each.
      {"tor.retx_useful_frac",
       c[kRetxBytes] > 0
           ? std::clamp(1.0 - d(c[kSpuriousRetx]) *
                                  d(w.points[0].cfg.scheduled_payload_bytes()) /
                                  d(c[kRetxBytes]),
                        0.0, 1.0)
           : 1.0,
       "ratio"},
      {"stats.summarize_s", summarize_s, "s"},
      {"trace.overhead_frac", traced_timed_s / median(timed_run_walls) - 1.0,
       "ratio"},
  };
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  for (std::size_t k = 0; k < kNumCounters; ++k) {
    metrics.push_back(
        {kCounterMetrics[k].first, d(c[k]), kCounterMetrics[k].second});
  }

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      ++failed;
      errors.push_back("metric " + m.name + " is not finite");
    }
  }

  if (!trace_file.empty()) {
    // The traced pass as a whole, and one span per sweep point on the
    // worker thread that ran it.
    std::vector<Span> extra = {
        Span{w.sweep ? "engine.sweep" : "engine.run", thread_index(),
             us_since_start(traced_start),
             std::chrono::duration<double, std::micro>(traced_end -
                                                       traced_start)
                 .count(),
             {{"points", d(w.points.size())}}}};
    if (w.sweep) {
      for (const RunRecord& r : traced.records) {
        extra.push_back(Span{"engine.sweep_point", r.tid,
                             us_since_start(r.start), r.total_s() * 1e6,
                             {{"mice_p99_us", r.mice.p99_ns / 1e3},
                              {"goodput", r.goodput}}});
      }
    }
    if (!write_trace(trace_file, spans, extra)) {
      ++failed;
      errors.push_back("cannot write trace file " + trace_file);
    }
  }

  // --- One JSON line. ---
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, ",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              smoke ? "true" : "false");
  std::printf(
      "\"host\": {\"nproc\": %u, \"build_type\": \"%s\", \"lto\": %s, "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"sweep_threads\": %u}, ",
      std::max(1u, std::thread::hardware_concurrency()), build_type.c_str(),
      PERFBENCH_LTO ? "true" : "false", json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(commit).c_str(), w.sweep ? sweep_threads() : 1u);
  std::printf("\"timed_passes\": %zu, \"timed_wall_s\": %.6f, ",
              passes.size(), timed_wall);
  std::printf("\"pass_sim_ns_per_wall_s\": [");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", throughput[i]);
  }
  std::printf("], \"setup_round_s\": [");
  for (std::size_t i = 0; i < setup_rounds.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", setup_rounds[i]);
  }
  std::printf("], ");
  std::printf("\"fingerprint\": \"%s\", \"traced_fingerprint\": \"%s\", ",
              hex(expected).c_str(), hex(traced.fingerprint).c_str());
  std::printf("\"correct\": %s, \"attempted\": %d, \"failed\": %d, ",
              failed == 0 ? "true" : "false", attempted, failed);
  std::printf("\"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", json_escape(errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
