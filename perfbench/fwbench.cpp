// fwbench — the FlashWalker benchmark program.
//
// Times the simulator's public calls from outside, one workload per process:
//
//   graph::make_dataset          bench-scale graph stand-in (set-up)
//   partition::PartitionedGraph  graph-block partitioning (set-up)
//   accel::SimulationBuilder / service::WalkService / array::BoardArray
//                                construction (set-up) and run (timed)
//   baseline::GraphWalkerEngine  the paper's comparison point (Fig 5/6)
//
// Every workload is a closed batch: all walks are admitted at t=0, the
// modelled caches (query cache, hot subgraphs) start empty, and each timed
// repetition builds a fresh engine. The seed derives the label hash and the
// walk and job seeds; the repetitions cycle through kWalkSeeds walk seeds,
// and every repeat must reproduce its seed's first report byte for byte. Host times are medians over the repetitions that fit
// in --seconds; simulated numbers are means over the walk seeds.
//
// Usage:
//   fwbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//   fwbench --self-test
//
// The last line of stdout is one JSON object (perfbench/run.py turns it into
// the benchmark's result line). With --trace 1 the process additionally
// makes the traced run: the shard audit on, host spans around every public
// call, the single-board workloads' paths recorded and checked hop by hop,
// and — on the 4-worker workload — a 1-worker repeat that must produce a
// byte-identical report.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/array/board_array.hpp"
#include "accel/builder.hpp"
#include "accel/report.hpp"
#include "accel/service/jobs_spec.hpp"
#include "accel/service/walk_service.hpp"
#include "baseline/graphwalker.hpp"
#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"
#include "rw/model/registry.hpp"

using namespace fw;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

constexpr std::uint64_t kDefaultSeed = 42;
/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds (the TT set-up takes ~0.25 s); setup_s is the median.
constexpr std::size_t kSetups = 3;
constexpr double kSetupSeconds = 2.0;
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Host spans: name, start, end, parent, all sharing the process's run id.
// Kept in memory and written out when the run ends. A Scope always measures
// its own duration (the untraced runs need the numbers too) but records a
// span only when tracing is on.

class Spans {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(Spans& owner, std::string name) : owner_(owner), start_(Clock::now()) {
      if (owner_.on_) {
        index_ = owner_.spans_.size();
        Span s;
        s.id = static_cast<std::uint32_t>(index_ + 1);
        s.parent = owner_.open_.empty() ? 0 : owner_.open_.back();
        s.name = std::move(name);
        s.start_s = seconds_between(owner_.t0_, start_);
        owner_.spans_.push_back(std::move(s));
        owner_.open_.push_back(owner_.spans_[index_].id);
      }
    }
    ~Scope() { finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close the span (idempotent) and return its duration in seconds.
    double finish() {
      if (!done_) {
        done_ = true;
        const auto end = Clock::now();
        elapsed_ = seconds_between(start_, end);
        if (owner_.on_) {
          owner_.spans_[index_].end_s = seconds_between(owner_.t0_, end);
          owner_.open_.pop_back();
        }
      }
      return elapsed_;
    }

   private:
    Spans& owner_;
    Clock::time_point start_;
    std::size_t index_ = 0;
    bool done_ = false;
    double elapsed_ = 0.0;
  };

  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the span name's first dotted component): each
  /// span's duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const {
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) child[s.parent] += s.end_s - s.start_s;
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += (s.end_s - s.start_s) - child[s.id];
    }
    return out;
  }

  void write_json(std::ostream& os, const std::string& run_id) const {
    os << "{\"run_id\":\"" << run_id << "\",\"spans\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf, "%s{\"id\":%u,\"parent\":%u,\"start_s\":%.9f,\"end_s\":%.9f,",
                    i == 0 ? "" : ",", s.id, s.parent, s.start_s, s.end_s);
      os << buf << "\"name\":\"" << s.name << "\"}";
    }
    os << "]}\n";
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// ---------------------------------------------------------------------------
// Output checks. Each returns an empty string when the output is correct,
// otherwise what is wrong. The self-test feeds them broken inputs.

struct WalkLedger {
  std::uint64_t requested = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  /// Per job: (requested, completed).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> jobs;
};

std::string check_conservation(const WalkLedger& l) {
  std::ostringstream err;
  if (l.started != l.requested || l.completed != l.requested) {
    err << "walk conservation: requested " << l.requested << ", started " << l.started
        << ", completed " << l.completed;
    return err.str();
  }
  for (std::size_t j = 0; j < l.jobs.size(); ++j) {
    if (l.jobs[j].first != l.jobs[j].second) {
      err << "walk conservation: job " << j << " requested " << l.jobs[j].first
          << ", completed " << l.jobs[j].second;
      return err.str();
    }
  }
  return {};
}

/// Every hop is an out-edge of the previous vertex, or a restart at the
/// walk's start from a dead end when the spec restarts; metapath hop k lands
/// on a vertex labeled pattern[(k+1) % |pattern|]; single-source walks start
/// at the source; no path is longer than the spec allows.
std::string check_paths(const graph::CsrGraph& g, const rw::WalkSpec& spec,
                        const std::vector<std::vector<VertexId>>& paths) {
  const bool metapath = rw::resolve_model_name(spec) == "metapath";
  // Per-vertex sorted copy of the edge lists: TT's hubs have ~300k
  // out-edges, too many for a linear scan per hop.
  std::vector<VertexId> sorted = g.edges();
  const auto& off = g.offsets();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(off[v]),
              sorted.begin() + static_cast<std::ptrdiff_t>(off[v + 1]));
  }
  const auto is_edge = [&](VertexId u, VertexId v) {
    return std::binary_search(sorted.begin() + static_cast<std::ptrdiff_t>(off[u]),
                              sorted.begin() + static_cast<std::ptrdiff_t>(off[u + 1]), v);
  };
  for (std::size_t w = 0; w < paths.size(); ++w) {
    const auto& p = paths[w];
    std::ostringstream err;
    if (p.empty() || p.size() > spec.length + 1u) {
      err << "path " << w << ": " << p.size() << " vertices for a " << spec.length
          << "-hop walk";
      return err.str();
    }
    if (spec.start_mode == rw::StartMode::kSingleSource && p[0] != spec.source) {
      err << "path " << w << ": starts at " << p[0] << ", source is " << spec.source;
      return err.str();
    }
    for (std::size_t k = 0; k + 1 < p.size(); ++k) {
      if (p[k] >= g.num_vertices() || p[k + 1] >= g.num_vertices()) {
        err << "path " << w << " hop " << k << ": vertex out of range";
        return err.str();
      }
      const auto nb = g.neighbors(p[k]);
      const std::uint8_t want =
          metapath ? spec.metapath_pattern[(k + 1) % spec.metapath_pattern.size()] : 0;
      if (!is_edge(p[k], p[k + 1])) {
        // A restart-at-source hop is legal only from a dead end: no
        // neighbour at all, or (metapath) none carrying the wanted label.
        const bool dead_end =
            std::none_of(nb.begin(), nb.end(),
                         [&](VertexId v) { return !metapath || g.label(v) == want; });
        if (spec.dead_end == rw::WalkSpec::DeadEnd::kRestart && p[k + 1] == p[0] &&
            dead_end) {
          continue;
        }
        err << "path " << w << " hop " << k << ": " << p[k] << " -> " << p[k + 1]
            << " is not an edge";
        return err.str();
      }
      if (metapath && g.label(p[k + 1]) != want) {
        err << "path " << w << " hop " << k << ": lands on label " << int(g.label(p[k + 1]))
            << ", pattern wants " << int(want);
        return err.str();
      }
    }
  }
  return {};
}

/// Deterministic outputs must repeat exactly across runs of one workload
/// and seed (and across DES worker counts): the full JSON report is the
/// fingerprint.
std::string check_repeat(const std::string& first, const std::string& again,
                         const char* what) {
  if (first == again) return {};
  return std::string(what) + ": report differs from the first run's";
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kSingle, kService, kArray };

struct WorkloadDef {
  const char* name;
  Kind kind;
  graph::DatasetId dataset;
  std::uint32_t sim_threads;
  std::uint32_t devices;
  std::uint64_t walks;  ///< single/array: walks x 6 hops, uniform random starts
  std::uint8_t labels;  ///< hashed vertex label classes (0 = unlabeled)
  const char* jobs;     ///< service mix (--jobs grammar)
};

// Why each workload exists is recorded in BENCHMARK.json and ledger.json.
const WorkloadDef kWorkloads[] = {
    {"fs_deepwalk_4w", Kind::kSingle, graph::DatasetId::FS, 4, 1, 400'000, 0, ""},
    {"tt_mix_1w", Kind::kService, graph::DatasetId::TT, 1, 1, 0, 3,
     "deepwalk:walks=100000;node2vec:walks=50000,p=0.5,q=2;"
     "ppr:walks=50000,source=3,stop_mode=residual,eps=0.1,length=20;"
     "metapath:pattern=0-1-2,walks=50000;autoreg:alpha=0.6,walks=50000"},
    {"fs_array4_1w", Kind::kArray, graph::DatasetId::FS, 1, 4, 50'000, 0, ""},
};

/// Walk seeds per run: the run's seed and kWalkSeeds-1 derived from it. The
/// simulated end-to-end metrics are means over them: on FS, flash read
/// traffic moves by up to ~9% from one walk seed to the next, and one seed
/// per run left the spread across runs wider than the metric's bound.
constexpr std::size_t kWalkSeeds = 4;

std::uint64_t walk_seed(std::uint64_t seed, std::size_t i) { return seed + i * 1'000'003ull; }

struct JobPlan {
  std::string model;
  rw::WalkSpec spec;
};

/// What one run simulates at one walk seed.
struct Walks {
  rw::WalkSpec spec;                          ///< single-job workloads
  std::vector<accel::service::WalkJob> jobs;  ///< service mix, submitted per run
  std::vector<JobPlan> plan;                  ///< every job the run executes
  std::uint64_t total = 0;                    ///< walks requested
};

/// The graph, its partitioning and the engine configuration, shared by every
/// run of the process.
struct Setup {
  const WorkloadDef* def = nullptr;
  std::unique_ptr<graph::CsrGraph> graph;
  std::unique_ptr<partition::PartitionedGraph> pg;
  accel::SimulationConfig cfg;
  double generate_s = 0.0;  ///< graph generation + labels
  double partition_s = 0.0;
};

/// The graph is graph::make_dataset's bench-scale stand-in at every seed;
/// the seed derives the label hash here and the walk and job seeds in
/// make_walks.
Setup prepare(const WorkloadDef& def, std::uint64_t seed, Spans& spans) {
  Setup s;
  s.def = &def;
  {
    Spans::Scope span(spans, "graph.generate");
    s.graph = std::make_unique<graph::CsrGraph>(
        graph::make_dataset(def.dataset, graph::Scale::kBench));
    if (def.labels > 0) s.graph->assign_hashed_labels(def.labels, seed);
    s.generate_s = span.finish();
  }

  partition::PartitionConfig pc = bench::bench_partition();
  pc.labeled = s.graph->labeled();
  if (def.devices > 1) {
    // flashwalker_sim --devices N's stripe grain: ~4 partitions per board.
    const std::uint64_t est_subgraphs =
        std::max<std::uint64_t>(1, s.graph->csr_size_bytes() / pc.block_capacity_bytes);
    pc.subgraphs_per_partition = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        est_subgraphs / (4ull * def.devices), 1, pc.subgraphs_per_partition));
  }
  {
    Spans::Scope span(spans, "partition.build");
    s.pg = std::make_unique<partition::PartitionedGraph>(*s.graph, pc);
    s.partition_s = span.finish();
  }

  s.cfg.ssd = bench::bench_ssd();
  s.cfg.accel = accel::bench_accel_config();
  s.cfg.record_visits = false;
  s.cfg.partition = pc;
  s.cfg.array.devices = def.devices;
  return s;
}

Walks make_walks(const Setup& s, std::uint64_t seed) {
  Walks w;
  if (s.def->kind == Kind::kService) {
    accel::service::JobSpecDefaults defaults;
    defaults.base_seed = seed;
    w.jobs = accel::service::parse_jobs(s.def->jobs, defaults);
    for (const auto& j : w.jobs) {
      w.plan.push_back({std::string(rw::resolve_model_name(j.spec)), j.spec});
      w.total += accel::service::expected_walks(j.spec, s.graph->num_vertices());
    }
  } else {
    w.spec.num_walks = s.def->walks;
    w.spec.length = 6;
    w.spec.seed = seed;
    w.plan.push_back({std::string(rw::resolve_model_name(w.spec)), w.spec});
    w.total = s.def->walks;
  }
  return w;
}

struct RunOpts {
  std::uint32_t sim_threads = 1;
  bool audit = false;
  bool paths = false;
};

/// A constructed, not yet run, engine / service / array.
struct Built {
  std::optional<accel::Simulation> sim;
  std::unique_ptr<accel::service::WalkService> service;
  std::unique_ptr<accel::array::BoardArray> array;
};

Built build(const Setup& s, const Walks& w, const RunOpts& o) {
  accel::SimulationConfig cfg = s.cfg;
  cfg.spec = w.spec;
  cfg.sim_threads = o.sim_threads;
  cfg.shard_audit = o.audit;
  cfg.record_paths = o.paths;
  Built b;
  switch (s.def->kind) {
    case Kind::kSingle:
      b.sim.emplace(accel::SimulationBuilder(*s.pg).config(std::move(cfg)).build());
      break;
    case Kind::kService:
      b.service = std::make_unique<accel::service::WalkService>(*s.pg, std::move(cfg));
      for (const auto& j : w.jobs) b.service->submit(j);
      break;
    case Kind::kArray:
      b.array = std::make_unique<accel::array::BoardArray>(*s.pg, std::move(cfg));
      break;
  }
  return b;
}

/// Raw per-layer totals of one run, summed over boards.
struct Totals {
  std::uint64_t hops = 0, chip_updates = 0, channel_updates = 0, board_updates = 0;
  std::uint64_t roving = 0, to_board = 0, foreigner = 0;
  std::uint64_t subgraph_loads = 0, hot_loads = 0, partition_switches = 0;
  std::uint64_t pwb_overflow_walks = 0;
  std::uint64_t qc_hits = 0, qc_misses = 0, search_steps = 0;
  std::uint64_t bloom_lookups = 0, bloom_fp = 0, prewalks = 0;
  std::uint64_t flash_read = 0, flash_write = 0, channel_bytes = 0, dram_bytes = 0;
  std::uint64_t walk_reload_pages = 0, flush_pages = 0, gc_erases = 0, gc_moves = 0;
  std::uint64_t guider_busy_ns = 0, updater_busy_ns = 0, timeout_flushes = 0;
  std::vector<double> chip_util;
  std::uint64_t events = 0, board_events = 0, max_shard_events = 0, cross_sends = 0;
  std::uint64_t board_batches = 0, board_batched_ops = 0, lookahead_violations = 0;
  std::vector<std::uint64_t> board_hops;

  void add(const accel::EngineResult& r) {
    const auto& m = r.metrics;
    hops += m.total_hops;
    chip_updates += m.chip_updates;
    channel_updates += m.channel_updates;
    board_updates += m.board_updates;
    roving += m.roving_walks;
    to_board += m.to_board_walks;
    foreigner += m.foreigner_walks;
    subgraph_loads += m.subgraph_loads;
    hot_loads += m.hot_subgraph_loads;
    partition_switches += m.partition_switches;
    pwb_overflow_walks += m.pwb_overflow_walks;
    qc_hits += m.query_cache_hits;
    qc_misses += m.query_cache_misses;
    search_steps += m.mapping_search_steps;
    bloom_lookups += m.bloom_lookups;
    bloom_fp += m.bloom_false_positives;
    prewalks += m.dense_prewalks;
    walk_reload_pages += m.walk_reload_pages;
    timeout_flushes += m.forward_timeout_flushes;
    flush_pages += m.completed_flush_pages + m.foreigner_flush_pages + m.overflow_flush_pages;
    flash_read += r.flash_read_bytes;
    flash_write += r.flash_write_bytes;
    channel_bytes += r.channel_bytes;
    dram_bytes += r.dram_bytes;
    gc_erases += r.ftl.gc_erases;
    gc_moves += r.ftl.gc_page_moves;
    for (const auto& [name, value] : r.counters) {
      if (name == "board.guider.busy_ns") guider_busy_ns += value;
      if (name == "board.updater.busy_ns") updater_busy_ns += value;
    }
    chip_util.insert(chip_util.end(), r.chip_utilization.begin(), r.chip_utilization.end());
    const auto& a = r.shard_audit;
    if (a.enabled) {
      events += a.events;
      board_events += a.board_events;
      max_shard_events = std::max(max_shard_events, a.max_shard_events);
      cross_sends += a.cross_sends;
      board_batches += a.board_batches;
      board_batched_ops += a.board_batched_ops;
      lookahead_violations += a.lookahead_violations;
    }
    board_hops.push_back(m.total_hops);
  }
};

struct JobOutcome {
  std::string model;
  std::uint64_t steps = 0;
  Tick latency_ns = 0;
};

struct Outcome {
  double run_s = 0.0;
  Tick exec_time = 0;
  std::string report;  ///< accel::to_json of the result: the repeat fingerprint
  WalkLedger ledger;
  Totals totals;
  std::vector<JobOutcome> jobs;
  double fairness = 1.0;
  accel::array::FabricStats fabric;
  std::vector<std::string> errors;  ///< failed checks of this run
};

void add_jobs(Outcome& out, const Setup& s, const Walks& w,
              const std::vector<accel::service::JobStats>& st) {
  for (std::size_t j = 0; j < st.size(); ++j) {
    const bool planned = j < w.plan.size();
    out.ledger.jobs.emplace_back(
        planned ? accel::service::expected_walks(w.plan[j].spec, s.graph->num_vertices()) : 0,
        st[j].walks);
    out.jobs.push_back({planned ? w.plan[j].model : st[j].name, st[j].steps,
                        st[j].latency_ns()});
  }
}

Outcome run_once(const Setup& s, const Walks& w, const RunOpts& o, Spans& spans) {
  Built b = [&] {
    Spans::Scope span(spans, "accel.build");
    return build(s, w, o);
  }();
  Outcome out;
  out.ledger.requested = w.total;
  std::vector<accel::service::JobStats> stats;
  auto take_engine = [&](const accel::EngineResult& r) {
    out.exec_time = r.exec_time;
    out.ledger.started = r.metrics.walks_started;
    out.ledger.completed = r.metrics.walks_completed;
    out.totals.add(r);
    for (const auto& jr : r.jobs) stats.push_back(jr.stats);
    if (!o.paths) return;
    // A single-job run keeps its paths on the result, a service run on each job.
    for (std::size_t j = 0; j < w.plan.size(); ++j) {
      const auto& paths = s.def->kind == Kind::kService ? r.jobs.at(j).paths : r.paths;
      const auto& spec = w.plan[j].spec;
      if (paths.size() != accel::service::expected_walks(spec, s.graph->num_vertices())) {
        out.errors.push_back(w.plan[j].model + ": recorded " + std::to_string(paths.size()) +
                             " paths for " + std::to_string(spec.num_walks) + " walks");
      } else if (auto e = check_paths(*s.graph, spec, paths); !e.empty()) {
        out.errors.push_back(w.plan[j].model + ": " + e);
      }
    }
  };

  switch (s.def->kind) {
    case Kind::kSingle: {
      Spans::Scope span(spans, "accel.run");
      const accel::EngineResult r = b.sim->run();
      out.run_s = span.finish();
      take_engine(r);
      out.report = accel::to_json(s.def->name, r);
      break;
    }
    case Kind::kService: {
      Spans::Scope span(spans, "accel.run");
      const accel::service::ServiceResult r = b.service->run();
      out.run_s = span.finish();
      take_engine(r.engine);
      out.fairness = r.fairness_ratio;
      out.report = accel::to_json(s.def->name, r.engine);
      break;
    }
    case Kind::kArray: {
      Spans::Scope span(spans, "accel.run");
      const accel::array::ArrayResult r = b.array->run();
      out.run_s = span.finish();
      out.exec_time = r.exec_time;
      out.ledger.started = r.metrics.walks_started;
      out.ledger.completed = r.metrics.walks_completed;
      for (const auto& br : r.boards) out.totals.add(br);
      stats = r.jobs;
      out.fabric = r.fabric;
      const std::uint64_t sent = r.metrics.forwarded_out_walks;
      const std::uint64_t received = r.metrics.forwarded_in_walks;
      if (sent != received || received != r.fabric.walks) {
        out.errors.push_back("array fabric balance: forwarded out " + std::to_string(sent) +
                             ", in " + std::to_string(received) + ", fabric " +
                             std::to_string(r.fabric.walks));
      }
      out.report = accel::to_json(s.def->name, r);
      break;
    }
  }
  add_jobs(out, s, w, stats);
  if (auto e = check_conservation(out.ledger); !e.empty()) out.errors.push_back(e);
  if (out.totals.lookahead_violations != 0) {
    out.errors.push_back("shard audit: " + std::to_string(out.totals.lookahead_violations) +
                         " lookahead violations");
  }
  return out;
}

/// GraphWalker on the same graph. It models first-order walks only, so a
/// job of another model runs as a first-order walk with the job's count,
/// length, start rule and stop probability; the jobs run back to back
/// (GraphWalker has no multi-job service) and their times and reads add up.
struct GwOutcome {
  double run_s = 0.0;
  Tick exec_time = 0;
  std::uint64_t flash_read = 0;
  std::vector<std::string> errors;
};

GwOutcome run_graphwalker(const Setup& s, const Walks& w, Spans& spans) {
  GwOutcome out;
  for (const JobPlan& job : w.plan) {
    baseline::GraphWalkerOptions opts;
    opts.ssd = bench::bench_ssd();
    opts.host = bench::bench_host();
    opts.spec = job.spec;
    opts.record_visits = false;
    std::optional<baseline::GraphWalkerEngine> gw;
    {
      Spans::Scope span(spans, "baseline.graphwalker.build");
      gw.emplace(*s.graph, opts);
    }
    Spans::Scope span(spans, "baseline.graphwalker.run");
    const baseline::BaselineResult r = gw->run();
    out.run_s += span.finish();
    out.exec_time += r.exec_time;
    out.flash_read += r.flash_read_bytes;
    const std::uint64_t want = accel::service::expected_walks(job.spec, s.graph->num_vertices());
    if (r.walks_started != want || r.walks_completed != want) {
      out.errors.push_back("graphwalker conservation: requested " + std::to_string(want) +
                           ", completed " + std::to_string(r.walks_completed));
    }
  }
  return out;
}

/// Peak RSS (MiB) of set-up plus one run of the workload, the run made in a
/// forked child with a single malloc arena. glibc gives each DES worker
/// thread an arena of its own, and how much those arenas keep varies by up
/// to ~100 MiB from run to run at 4 workers; with one arena the figure
/// repeats, so it follows the simulator's own footprint. Call it while the
/// process is single-threaded (fork).
double peak_rss_of_one_run(const Setup& s, const Walks& w, const RunOpts& o) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("peak RSS: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("peak RSS: fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive fwbench
    close(fds[0]);
    mallopt(M_ARENA_MAX, 1);
    double mib = -1.0;
    try {
      Spans none(false);
      if (run_once(s, w, o, none).errors.empty()) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
      }
    } catch (...) {
      mib = -1.0;
    }
    const bool sent = write(fds[1], &mib, sizeof mib) == static_cast<ssize_t>(sizeof mib);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mib = -1.0;
  const ssize_t got = read(fds[0], &mib, sizeof mib);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof mib) || mib < 0.0) {
    throw std::runtime_error("peak RSS: the measuring run failed");
  }
  return mib;
}

struct Metric {
  Metric() = default;
  Metric(double v, const char* u, std::size_t n = 1, std::vector<double> raw = {})
      : value(v), unit(u), samples(n), values(std::move(raw)) {}

  double value = 0.0;
  const char* unit = "";
  std::size_t samples = 1;
  std::vector<double> values;  ///< the samples behind a median, when there are several
};

/// A host timing: the median of its samples, which are kept for the report.
Metric timing(std::vector<double> samples, const char* unit) {
  const std::size_t n = samples.size();
  const double med = median(samples);
  return Metric(med, unit, n, std::move(samples));
}

/// The per-layer metrics that come from the traced run's result structs
/// (deterministic per seed) and from the GraphWalker run.
std::map<std::string, Metric> layer_metrics(const Setup& s, const Outcome& t,
                                            const GwOutcome& gw) {
  const Totals& T = t.totals;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double hops = n(T.hops);
  double util_mean = 0.0, util_max = 0.0;
  for (double u : T.chip_util) {
    util_mean += u;
    util_max = std::max(util_max, u);
  }
  util_mean = ratio(util_mean, static_cast<double>(T.chip_util.size()));
  std::uint64_t hops_max = 0;
  for (auto h : T.board_hops) hops_max = std::max(hops_max, h);
  std::uint64_t dense = 0;
  for (VertexId v = 0; v < s.graph->num_vertices(); ++v) dense += s.pg->is_dense_vertex(v);

  std::map<std::string, Metric> m;
  m["partition.subgraphs"] = {n(s.pg->num_subgraphs()), "count"};
  m["partition.partitions"] = {n(s.pg->num_partitions()), "count"};
  m["partition.dense_vertices"] = {n(dense), "count"};
  m["sim.events"] = {n(T.events), "count"};
  m["sim.cross_sends_per_hop"] = {ratio(n(T.cross_sends), hops), "ratio"};
  m["sim.board_share_pct"] = {100.0 * ratio(n(T.board_events), n(T.events)), "%"};
  m["sim.max_shard_share_pct"] = {100.0 * ratio(n(T.max_shard_events), n(T.events)), "%"};
  m["sim.ops_per_board_batch"] = {ratio(n(T.board_batched_ops), n(T.board_batches)), "ratio"};
  m["sim.lookahead_violations"] = {n(T.lookahead_violations), "count"};
  m["accel.chip.updates"] = {n(T.chip_updates), "count"};
  m["accel.channel.updates"] = {n(T.channel_updates), "count"};
  m["accel.board.updates"] = {n(T.board_updates), "count"};
  m["accel.chip.util_mean"] = {util_mean, "ratio"};
  m["accel.chip.util_max"] = {util_max, "ratio"};
  m["accel.board.guider_busy_us"] = {n(T.guider_busy_ns) / 1e3, "us"};
  m["accel.board.updater_busy_us"] = {n(T.updater_busy_ns) / 1e3, "us"};
  m["accel.roving_walks"] = {n(T.roving), "count"};
  m["accel.to_board_walks"] = {n(T.to_board), "count"};
  m["accel.foreigner_walks"] = {n(T.foreigner), "count"};
  m["accel.sched.subgraph_loads"] = {n(T.subgraph_loads), "count"};
  m["accel.sched.hops_per_load"] = {ratio(hops, n(T.subgraph_loads)), "ratio"};
  m["accel.sched.hot_subgraph_loads"] = {n(T.hot_loads), "count"};
  m["accel.partition_switches"] = {n(T.partition_switches), "count"};
  m["accel.pwb_overflow_walks"] = {n(T.pwb_overflow_walks), "count"};
  m["accel.wq.cache_hit_ratio"] = {ratio(n(T.qc_hits), n(T.qc_hits + T.qc_misses)), "ratio"};
  m["accel.wq.search_steps_per_hop"] = {ratio(n(T.search_steps), hops), "ratio"};
  m["accel.dense.bloom_fp_ratio"] = {ratio(n(T.bloom_fp), n(T.bloom_lookups)), "ratio"};
  m["accel.dense.prewalks"] = {n(T.prewalks), "count"};
  m["ssd.read_bw_mb_per_s"] = {bandwidth_mb_per_s(T.flash_read, t.exec_time), "MB/s"};
  m["ssd.flash_write_mb"] = {n(T.flash_write) / kMiB, "MiB"};
  m["ssd.channel_mb"] = {n(T.channel_bytes) / kMiB, "MiB"};
  m["ssd.dram_mb"] = {n(T.dram_bytes) / kMiB, "MiB"};
  m["ssd.walk_reload_pages"] = {n(T.walk_reload_pages), "count"};
  m["ssd.flush_pages"] = {n(T.flush_pages), "count"};
  m["ssd.ftl.gc_erases"] = {n(T.gc_erases), "count"};
  m["ssd.ftl.gc_page_moves"] = {n(T.gc_moves), "count"};
  // Every registered model gets a line; models a workload does not run read 0.
  for (const auto& info : rw::model_registry()) {
    double steps = 0.0, latency = 0.0;
    for (const auto& j : t.jobs) {
      if (j.model != info.name) continue;
      steps += n(j.steps);
      latency = std::max(latency, to_ms(j.latency_ns));
    }
    const std::string model(info.name);
    m["rw." + model + ".steps"] = {steps, "count"};
    m["accel.service.job_latency_ms." + model] = {latency, "ms"};
  }
  m["accel.service.fairness_ratio"] = {t.fairness, "ratio"};
  m["accel.array.forwarded_walks"] = {n(t.fabric.walks), "count"};
  m["accel.array.walks_per_batch"] = {ratio(n(t.fabric.walks), n(t.fabric.batches)), "ratio"};
  m["accel.array.timeout_flushes"] = {n(T.timeout_flushes), "count"};
  m["accel.array.job_notifications"] = {n(t.fabric.job_notifications), "count"};
  m["accel.array.board_hops_imbalance"] = {
      ratio(n(hops_max), hops / static_cast<double>(T.board_hops.size())), "ratio"};
  m["baseline.graphwalker.run_s"] = {gw.run_s, "s"};
  m["baseline.graphwalker.sim_exec_ms"] = {to_ms(gw.exec_time), "ms"};
  m["baseline.graphwalker.flash_read_mb"] = {n(gw.flash_read) / kMiB, "MiB"};
  return m;
}

// ---------------------------------------------------------------------------
// Self-test of the checks: on a small real run they must pass, and a dropped
// walk, a non-edge hop, an off-pattern metapath hop and a repeat whose
// simulated time differs must each be caught.

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  graph::CsrGraph g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  g.assign_hashed_labels(3, kDefaultSeed);
  partition::PartitionConfig pc = bench::bench_partition();
  pc.labeled = true;
  const partition::PartitionedGraph pg(g, pc);
  accel::service::JobSpecDefaults defaults;
  auto jobs =
      accel::service::parse_jobs("deepwalk:walks=200;metapath:pattern=0-1-2,walks=200;"
                                 "ppr:walks=200,source=3",
                                 defaults);

  auto run = [&] {
    accel::SimulationConfig cfg;
    cfg.accel = accel::bench_accel_config();
    cfg.record_visits = false;
    cfg.record_paths = true;
    accel::service::WalkService svc(pg, cfg);
    for (const auto& j : jobs) svc.submit(j);
    return svc.run();
  };
  const auto r = run();
  const auto again = run();

  WalkLedger ledger;
  ledger.started = r.engine.metrics.walks_started;
  ledger.completed = r.engine.metrics.walks_completed;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ledger.requested += jobs[j].spec.num_walks;
    ledger.jobs.emplace_back(jobs[j].spec.num_walks, r.jobs()[j].stats.walks);
  }
  const std::string fp = accel::to_json("self", r.engine);

  auto expect = [&](bool pass, const std::string& what) {
    if (!pass) failures.push_back("self-test: " + what);
  };
  expect(check_conservation(ledger).empty(), "conservation rejects a correct run");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    expect(check_paths(g, jobs[j].spec, r.jobs()[j].paths).empty(),
           "path check rejects a correct " + jobs[j].name + " run");
  }
  expect(check_repeat(fp, accel::to_json("self", again.engine), "repeat").empty(),
         "repeat check rejects an identical repeat");

  WalkLedger dropped = ledger;
  dropped.completed -= 1;
  expect(!check_conservation(dropped).empty(), "a dropped walk passes");
  WalkLedger dropped_job = ledger;
  dropped_job.jobs[1].second -= 1;
  expect(!check_conservation(dropped_job).empty(), "a job's dropped walk passes");

  // A non-edge hop: replace the first hop of the first multi-vertex path.
  auto paths = r.jobs()[0].paths;
  bool mutated = false;
  for (auto& p : paths) {
    if (p.size() < 2) continue;
    const auto nb = g.neighbors(p[0]);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (std::find(nb.begin(), nb.end(), v) == nb.end()) {
        p[1] = v;
        mutated = true;
        break;
      }
    }
    break;
  }
  expect(mutated && !check_paths(g, jobs[0].spec, paths).empty(), "a non-edge hop passes");

  // An off-pattern metapath hop that is still an edge.
  auto mpaths = r.jobs()[1].paths;
  mutated = false;
  for (auto& p : mpaths) {
    if (p.size() < 2) continue;
    for (VertexId v : g.neighbors(p[0])) {
      if (g.label(v) != g.label(p[1])) {
        p[1] = v;
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  expect(mutated && !check_paths(g, jobs[1].spec, mpaths).empty(),
         "an off-pattern metapath hop passes");

  accel::EngineResult skewed = again.engine;
  skewed.exec_time += 1;
  expect(!check_repeat(fp, accel::to_json("self", skewed), "repeat").empty(),
         "a repeat with a different sim_exec_ms passes");
  return failures;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + '"';
}

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) { raw(key, json_string(v)); }
  void raw(const std::string& key, const std::string& v) {
    os_ << (first_ ? "" : ",") << '"' << key << "\":" << v;
    first_ = false;
  }
  [[nodiscard]] std::string close() const { return std::string("{") + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string metrics_json(const std::map<std::string, Metric>& ms) {
  JsonOut o;
  for (const auto& [name, m] : ms) {
    JsonOut mo;
    mo.num("value", m.value);
    mo.str("unit", m.unit);
    mo.num("samples", static_cast<double>(m.samples));
    if (m.values.size() > 1) {
      std::string list;
      char buf[32];
      for (double v : m.values) {
        std::snprintf(buf, sizeof buf, "%s%.6g", list.empty() ? "" : ",", v);
        list += buf;
      }
      mo.raw("values", "[" + list + "]");
    }
    o.raw(name, mo.close());
  }
  return o.close();
}


[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fwbench: " << why << "\n"
            << "usage: fwbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n"
               "       fwbench --self-test\nworkloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + ": expected a non-negative integer, got '" + v + "'");
  }
  try {
    return std::stoull(v);
  } catch (const std::out_of_range&) {
    usage(flag + ": out of range: '" + v + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "fwbench: refusing to report from an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool self_test_only = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = parse_u64(a, value());
    } else if (a == "--seconds") {
      seconds = static_cast<double>(parse_u64(a, value()));
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      trace = v == "1";
    } else if (a == "--spans-out") {
      spans_out = value();
    } else if (a == "--self-test") {
      self_test_only = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }

  std::vector<std::string> self = self_test();
  for (const auto& f : self) std::cerr << f << "\n";
  if (!self.empty()) return 4;
  if (self_test_only) {
    std::cout << "{\"self_test\":\"ok\"}\n";
    return 0;
  }

  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr) usage("unknown workload '" + workload + "'");

  Spans spans(trace);
  Spans untraced(false);
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t in_flight = 0;  // walks of the run in progress, failed if it throws
  auto account = [&](const Outcome& o) {
    attempted += o.ledger.requested;
    if (!o.errors.empty()) failed += o.ledger.requested;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    in_flight = 0;
  };
  std::map<std::string, Metric> e2e, layer;

  try {
    // Set-up, repeated: the median is setup_s; the last one is kept. The
    // traced process sets up once, inside spans.
    std::vector<double> setup_s, generate_s, partition_s;
    std::optional<Setup> setup;
    std::vector<Walks> walks;
    double setup_total = 0.0;
    for (std::size_t k = 0;
         k == 0 || (!trace && (k < kSetups || setup_total < kSetupSeconds)); ++k) {
      setup.reset();  // free the previous graph before generating the next
      Spans::Scope span(spans, "bench.setup");
      setup.emplace(prepare(*def, seed, spans));
      walks.clear();
      for (std::size_t i = 0; i < kWalkSeeds; ++i) {
        walks.push_back(make_walks(*setup, walk_seed(seed, i)));
      }
      {
        Spans::Scope build_span(spans, "accel.build");
        (void)build(*setup, walks[0], RunOpts{def->sim_threads, false, false});
      }
      setup_s.push_back(span.finish());
      setup_total += setup_s.back();
      generate_s.push_back(setup->generate_s);
      partition_s.push_back(setup->partition_s);
    }
    const Setup& s = *setup;
    const RunOpts timed{def->sim_threads, false, false};
    e2e["peak_rss_mb"] = Metric(peak_rss_of_one_run(s, walks[0], timed), "MiB");

    // Timed repetitions, tracing off: build + run, cycling through the walk
    // seeds, for --seconds and until every walk seed has run and the first
    // has run again.
    std::vector<double> run_s, build_s, walks_per_s;
    std::vector<std::optional<Outcome>> first(kWalkSeeds);
    const auto t_begin = Clock::now();
    while (run_s.size() <= kWalkSeeds || seconds_between(t_begin, Clock::now()) < seconds) {
      const std::size_t i = run_s.size() % kWalkSeeds;
      const auto b0 = Clock::now();
      in_flight = walks[i].total;
      Outcome o = run_once(s, walks[i], timed, untraced);
      build_s.push_back(seconds_between(b0, Clock::now()) - o.run_s);
      run_s.push_back(o.run_s);
      walks_per_s.push_back(static_cast<double>(walks[i].total) / o.run_s);
      if (first[i]) {
        if (auto e = check_repeat(first[i]->report, o.report, "repeat"); !e.empty()) {
          o.errors.push_back(e);
        }
      }
      account(o);
      if (!first[i]) first[i].emplace(std::move(o));
    }

    // GraphWalker: deterministic, so once per walk seed.
    std::vector<GwOutcome> gw;
    {
      Spans::Scope span(spans, "bench.graphwalker");
      for (const Walks& w : walks) {
        gw.push_back(run_graphwalker(s, w, spans));
        errors.insert(errors.end(), gw.back().errors.begin(), gw.back().errors.end());
      }
    }

    // Simulated metrics: the mean over the walk seeds.
    double exec_ms = 0.0, read_mb = 0.0, speedup = 0.0, reduction = 0.0;
    for (std::size_t i = 0; i < kWalkSeeds; ++i) {
      const Outcome& f = *first[i];
      const auto fw_read = static_cast<double>(f.totals.flash_read);
      exec_ms += to_ms(f.exec_time) / kWalkSeeds;
      read_mb += fw_read / kMiB / kWalkSeeds;
      speedup += ratio(static_cast<double>(gw[i].exec_time), static_cast<double>(f.exec_time)) /
                 kWalkSeeds;
      reduction += ratio(static_cast<double>(gw[i].flash_read), fw_read) / kWalkSeeds;
    }
    e2e["walks_per_s"] = timing(walks_per_s, "walks/s");
    e2e["setup_s"] = timing(setup_s, "s");
    e2e["sim_exec_ms"] = Metric(exec_ms, "ms", kWalkSeeds);
    e2e["flash_read_mb"] = Metric(read_mb, "MiB", kWalkSeeds);
    e2e["speedup_vs_gw"] = Metric(speedup, "x", kWalkSeeds);
    e2e["traffic_reduction_vs_gw"] = Metric(reduction, "x", kWalkSeeds);

    if (trace) {
      // The traced run, at the run's own walk seed: shard audit on, spans
      // around every call.
      Spans::Scope traced_span(spans, "bench.traced");
      const Walks& w = walks[0];
      in_flight = w.total;
      std::optional<Spans::Scope> step(std::in_place, spans, "bench.audited_run");
      Outcome t = run_once(s, w, RunOpts{def->sim_threads, true, false}, spans);
      if (t.exec_time != first[0]->exec_time) {
        t.errors.push_back("shard audit changed sim_exec_ms");
      }
      account(t);
      double speedup_workers = 1.0;
      if (def->sim_threads > 1) {
        // 1-worker repeat: byte-identical report; the host-time ratio is the
        // concurrency speedup of the configured worker count.
        in_flight = w.total;
        step.emplace(spans, "bench.one_worker_run");
        Outcome one = run_once(s, w, RunOpts{1, true, false}, spans);
        if (auto e = check_repeat(t.report, one.report, "1-worker vs 4-worker"); !e.empty()) {
          one.errors.push_back(e);
        }
        speedup_workers = ratio(one.run_s, t.run_s);
        account(one);
      }
      if (def->kind != Kind::kArray) {
        in_flight = w.total;
        step.emplace(spans, "bench.path_run");
        Outcome p = run_once(s, w, RunOpts{def->sim_threads, false, true}, spans);
        if (auto e = check_repeat(first[0]->report, p.report, "recording paths"); !e.empty()) {
          p.errors.push_back(e);
        }
        account(p);
      }
      step.reset();
      traced_span.finish();

      layer = layer_metrics(s, t, gw[0]);
      layer["graph.generate_s"] = timing(generate_s, "s");
      layer["partition.build_s"] = timing(partition_s, "s");
      layer["accel.build_s"] = timing(build_s, "s");
      layer["accel.run_s"] = timing(run_s, "s");
      layer["sim.host_ns_per_event"] =
          Metric(ratio(median(run_s) * 1e9, static_cast<double>(t.totals.events)), "ns",
                 run_s.size());
      layer["sim.speedup_4w"] = Metric(speedup_workers, "x");
      layer["bench.trace_overhead_pct"] =
          Metric(100.0 * (ratio(t.run_s, median(run_s)) - 1.0), "%");
      for (const auto& [name, self_s] : spans.layer_self_seconds()) {
        layer[name + ".self_s"] = Metric(self_s, "s");
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("run threw: ") + e.what());
    attempted += in_flight;
    failed += in_flight;
  }
  if (attempted == 0) attempted = failed = 1;  // set-up itself failed
  e2e["failed_walk_ratio"] = {ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                              "ratio"};
  if (trace) layer["bench.failed_walk_ratio"] = e2e["failed_walk_ratio"];

  if (!spans_out.empty() && spans.on()) {
    std::ofstream out(spans_out);
    spans.write_json(out, std::string(def->name) + "-" + std::to_string(seed));
    if (!out) errors.push_back("cannot write " + spans_out);
  }

  JsonOut prov;
  prov.str("workload", def->name);
  prov.num("seed", static_cast<double>(seed));
  prov.num("hw_threads", static_cast<double>(std::thread::hardware_concurrency()));
  prov.str("compiler", std::string("g++ ") + __VERSION__);
  prov.str("build_type", FWBENCH_BUILD_TYPE);
  prov.num("sim_threads", def->sim_threads);

  JsonOut top;
  top.raw("provenance", prov.close());
  top.raw("correct", errors.empty() ? "true" : "false");
  top.num("attempted", static_cast<double>(attempted));
  top.num("failed", static_cast<double>(failed));
  std::string errs;
  for (const auto& e : errors) {
    if (!errs.empty()) errs += ',';
    errs += json_string(e);
    std::cerr << "check failed: " << e << "\n";
  }
  top.raw("errors", "[" + errs + "]");
  top.raw("end_to_end", metrics_json(e2e));
  top.raw("per_layer", metrics_json(layer));
  std::cout << top.close() << "\n";
  return errors.empty() ? 0 : 1;
}
