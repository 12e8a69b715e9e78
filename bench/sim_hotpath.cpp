// DES hot-path benchmark: event-queue throughput + end-to-end walk rate.
//
// Two measurements, both emitted as JSON (BENCH_sim.json) so
// bench/regression.py can track the trajectory across PRs:
//
//  1. Events/sec through the kernel loop (push one / pop one at steady
//     state, ~4K in-flight events) with delays drawn from the Table III
//     latency mixture the engine actually schedules — accelerator cycles,
//     DRAM accesses, channel transfers, roving polls, flash reads/programs,
//     erases. Run against both the current bucketed EventQueue and a
//     faithful copy of the pre-optimization binary heap of std::function
//     closures (`LegacyEventQueue` below), giving a same-binary speedup
//     number that is meaningful across machines.
//
//  2. End-to-end FlashWalker engine throughput (hops/sec wall-clock) on a
//     dataset/scale of choice, plus the simulated exec_time, which is
//     deterministic for a fixed seed and doubles as a cross-machine
//     regression guard.
//
// Usage: sim_hotpath [--out FILE] [--events N] [--dataset TT] [--scale
// test|small|bench] [--walks N] [--seed N] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "accel/config.hpp"
#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "accel/lookahead.hpp"
#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_sim.hpp"

namespace fw::bench {
namespace {

/// The event queue this PR replaced, verbatim: a std::priority_queue of
/// heap-allocating std::function closures. Kept here (not in src/) purely
/// as the microbench comparison point.
class LegacyEventQueue {
 public:
  using Fn = std::function<void()>;

  void push(Tick at, Fn fn) { heap_.push(Event{at, next_seq_++, std::move(fn)}); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  std::pair<Tick, Fn> pop() {
    const Event& top = heap_.top();
    std::pair<Tick, Fn> result{top.at, std::move(top.fn)};
    heap_.pop();
    return result;
  }

 private:
  struct Event {
    Tick at;
    std::uint64_t seq;
    mutable Fn fn;

    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
};

/// Delay mixture keyed to the latency clusters the engine schedules
/// (Table II cycle times, Table III DRAM/flash timings). Percentages are
/// rough shares of event traffic in a bench-scale run.
Tick next_delay(Xoshiro256& rng) {
  const std::uint64_t r = rng.bounded(1000);
  if (r < 550) return 4 + 4 * rng.bounded(4);        // updater/guider cycles
  if (r < 750) return 55;                            // DRAM access
  if (r < 880) return 200 + rng.bounded(1200);       // ONFI channel transfer
  if (r < 960) return 2 * kUs;                       // roving poll interval
  if (r < 992) return 35 * kUs;                      // flash page read
  if (r < 999) return 350 * kUs;                     // flash page program
  return 2 * kMs;                                    // block erase
}

/// Steady-state kernel loop: pop an event, run its (engine-sized, ~40 B
/// capture) closure, schedule a successor. Returns events/sec and feeds a
/// checksum through the handlers so nothing folds away.
template <typename Queue>
double measure_events_per_sec(std::uint64_t total_events, std::uint64_t seed,
                              std::uint64_t* checksum_out) {
  Queue q;
  Xoshiro256 rng(seed);
  std::uint64_t checksum = 0;
  constexpr std::uint64_t kInFlight = 4096;

  // Engine-shaped payload: a this-pointer-sized handle plus a few scalars
  // (comfortably past std::function's 16-byte inline buffer, inside
  // EventFn's 64 bytes).
  auto make_handler = [&checksum](std::uint64_t a, std::uint64_t b, std::uint64_t c,
                                  std::uint64_t d) {
    return [&checksum, a, b, c, d] { checksum += a ^ (b + c) ^ d; };
  };

  Tick now = 0;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    q.push(next_delay(rng), make_handler(i, i + 1, i + 2, i + 3));
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t done = 0; done < total_events; ++done) {
    auto [at, fn] = q.pop();
    now = at;
    fn();
    q.push(now + next_delay(rng), make_handler(done, now, done + now, done ^ now));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  while (!q.empty()) q.pop();
  *checksum_out = checksum;
  return static_cast<double>(total_events) / secs;
}

// --- parallel section -------------------------------------------------------
//
// Engine-shaped sharded workload for the conservative-lookahead parallel
// DES: one shard per channel plus a hub shard (the board), each shard
// driving self-perpetuating event chains with a mostly-local delay mixture
// (cycles/DRAM, all inside one lookahead window) and a ~6% tail of
// cross-shard sends routed at >= lookahead — the traffic shape
// src/accel/engine.cpp produces per the shard audit. The same workload runs
// on a single serial bucketed EventQueue (the baseline) and on
// sim::ParallelSimulator at several worker counts; per-shard checksums and
// event counts must agree across worker counts (the determinism gate).

struct ShardCtx {
  Xoshiro256 rng{0};
  std::uint64_t checksum = 0;
};

/// Shard-local delays: small enough that each shard executes several
/// events per ~260 ns window.
Tick local_delay(Xoshiro256& rng) {
  const std::uint64_t r = rng.bounded(100);
  if (r < 70) return 4 + 4 * rng.bounded(4);  // accelerator cycles
  if (r < 90) return 55;                      // DRAM access
  return 100 + rng.bounded(100);              // short channel hop
}

/// Chain driver over the parallel simulator. Each fire consumes one hop of
/// its chain's budget and schedules exactly one successor, ~6% of them
/// cross-shard (half to the hub, half to a random shard).
struct ParallelDriver {
  sim::ParallelSimulator& ps;
  std::vector<ShardCtx>& ctx;
  std::uint32_t shards;
  Tick lookahead;

  void fire(sim::ShardId s, std::uint32_t hops) {
    ShardCtx& c = ctx[s];
    c.checksum += (ps.shard(s).now() << 1) ^ hops;
    if (hops == 0) return;
    const std::uint64_t r = c.rng.bounded(1000);
    if (r < 60) {
      const auto dst = r < 30 ? sim::ShardId{0}
                              : static_cast<sim::ShardId>(1 + c.rng.bounded(shards - 1));
      ps.shard(s).send(dst, lookahead + c.rng.bounded(256),
                       [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      ps.shard(s).schedule(local_delay(c.rng),
                           [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

/// Identical workload on one serial bucketed queue: the speedup
/// denominator. (Event totals match the parallel runs exactly; checksums
/// are not compared against them — single-queue interleaving legitimately
/// orders equal-tick cross traffic differently.)
struct SerialDriver {
  sim::EventQueue& q;
  std::vector<ShardCtx>& ctx;
  std::uint32_t shards;
  Tick lookahead;
  Tick now = 0;

  void fire(std::uint32_t s, std::uint32_t hops) {
    ShardCtx& c = ctx[s];
    c.checksum += (now << 1) ^ hops;
    if (hops == 0) return;
    const std::uint64_t r = c.rng.bounded(1000);
    if (r < 60) {
      const auto dst =
          r < 30 ? 0u : static_cast<std::uint32_t>(1 + c.rng.bounded(shards - 1));
      q.push(now + lookahead + c.rng.bounded(256),
             [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      q.push(now + local_delay(c.rng), [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

struct ParallelRun {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

constexpr std::uint32_t kParChains = 8;  ///< chains seeded per shard

void seed_shard_rngs(std::vector<ShardCtx>& ctx, std::uint64_t seed) {
  for (std::size_t s = 0; s < ctx.size(); ++s) {
    ctx[s].rng = Xoshiro256(seed ^ (0x9e3779b97f4a7c15ull * (s + 1)));
    ctx[s].checksum = 0;
  }
}

ParallelRun run_parallel(std::uint32_t shards, Tick lookahead, std::uint32_t workers,
                         std::uint32_t hops, std::uint64_t seed) {
  sim::ParallelSimulator ps(shards, lookahead, workers);
  std::vector<ShardCtx> ctx(shards);
  seed_shard_rngs(ctx, seed);
  ParallelDriver drv{ps, ctx, shards, lookahead};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < kParChains; ++k) {
      ps.shard(s).schedule(8 * k + s % 8, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t executed = ps.run();
  const auto t1 = std::chrono::steady_clock::now();

  ParallelRun r;
  r.events = executed;
  r.events_per_sec =
      static_cast<double>(executed) / std::chrono::duration<double>(t1 - t0).count();
  // Fold shard clocks in too: a determinism breach in timing (not just
  // payload order) must flip the checksum.
  for (std::uint32_t s = 0; s < shards; ++s) {
    r.checksum ^= ctx[s].checksum + 0x9e3779b97f4a7c15ull * ps.shard(s).now();
  }
  return r;
}

ParallelRun run_serial_sharded(std::uint32_t shards, Tick lookahead,
                               std::uint32_t hops, std::uint64_t seed) {
  sim::EventQueue q;
  std::vector<ShardCtx> ctx(shards);
  seed_shard_rngs(ctx, seed);
  SerialDriver drv{q, ctx, shards, lookahead};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < kParChains; ++k) {
      q.push(8 * k + s % 8, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  ParallelRun r;
  const auto t0 = std::chrono::steady_clock::now();
  while (auto ev = q.try_pop()) {
    drv.now = ev->first;
    ev->second();
    ++r.events;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.events_per_sec =
      static_cast<double>(r.events) / std::chrono::duration<double>(t1 - t0).count();
  return r;
}

struct E2eResult {
  double wall_s = 0.0;
  double hops_per_sec = 0.0;
  double walks_per_sec = 0.0;
  std::uint64_t total_hops = 0;
  std::uint64_t walks = 0;
  Tick sim_exec_ns = 0;
  accel::ShardAuditReport audit;  ///< filled when measured with audit=true
};

E2eResult measure_engine(graph::DatasetId id, graph::Scale scale, std::uint64_t walks,
                         std::uint64_t seed, std::uint32_t sim_threads = 1,
                         bool audit = false) {
  const graph::CsrGraph g = graph::make_dataset(id, scale);
  const partition::PartitionedGraph pg(g, bench_partition());

  accel::EngineOptions opts;
  opts.ssd = bench_ssd();
  opts.accel = accel::bench_accel_config();
  opts.spec.num_walks = walks ? walks : graph::default_walk_count(id, scale);
  opts.spec.length = 6;
  opts.spec.seed = seed;
  opts.record_visits = false;
  opts.sim_threads = sim_threads;
  opts.shard_audit = audit;

  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = engine.run();
  const auto t1 = std::chrono::steady_clock::now();

  E2eResult e2e;
  e2e.wall_s = std::chrono::duration<double>(t1 - t0).count();
  e2e.total_hops = result.metrics.total_hops;
  e2e.walks = result.metrics.walks_completed;
  e2e.hops_per_sec = static_cast<double>(e2e.total_hops) / e2e.wall_s;
  e2e.walks_per_sec = static_cast<double>(e2e.walks) / e2e.wall_s;
  e2e.sim_exec_ns = result.exec_time;
  e2e.audit = result.shard_audit;
  return e2e;
}

graph::Scale parse_scale(const std::string& s) {
  if (s == "test") return graph::Scale::kTest;
  if (s == "small") return graph::Scale::kSmall;
  if (s == "bench") return graph::Scale::kBench;
  std::cerr << "unknown scale '" << s << "' (test|small|bench)\n";
  std::exit(2);
}

graph::DatasetId parse_dataset(const std::string& s) {
  for (const auto& info : graph::all_datasets()) {
    if (info.abbrev == s) return info.id;
  }
  std::cerr << "unknown dataset '" << s << "'\n";
  std::exit(2);
}

}  // namespace
}  // namespace fw::bench

int main(int argc, char** argv) {
  using namespace fw;
  using namespace fw::bench;

  std::string out_path = "BENCH_sim.json";
  std::string dataset = "TT";
  std::string scale = "small";
  std::uint64_t events = 2'000'000;
  std::uint64_t walks = 20'000;
  std::uint64_t seed = bench_seed();
  bool parallel = false;
  std::uint64_t par_events = 2'000'000;
  std::string preset = "full";
  OptionSet opts;
  opts.opt("--out", &out_path, "FILE", "report path (default BENCH_sim.json)");
  opts.opt("--events", &events, "N", "microbench event count");
  opts.opt("--dataset", &dataset, "TT|FS|CW|R2B|R8B", "e2e dataset (default TT)");
  opts.opt("--scale", &scale, "test|small|bench", "e2e dataset scale");
  opts.opt("--walks", &walks, "N", "e2e walk count");
  opts.opt("--seed", &seed, "N", "RNG seed");
  opts.flag("--parallel", &parallel,
            "also measure the sharded parallel DES and\n"
            "the concurrent engine (1/2/4/8 workers)");
  opts.opt("--par-events", &par_events, "N", "parallel-section event target");
  opts.flag("--quick", "CI preset: 400k events, test scale, 5k walks", [&] {
    events = 400'000;
    scale = "test";
    walks = 5'000;
    par_events = 300'000;
    preset = "quick";
  });
  opts.parse_or_exit(argc, argv,
                     "DES hot-path benchmark: event-queue + engine throughput");

  print_banner("DES hot path — event queue + engine throughput",
               "kernel microbench (not a paper figure)");

  // Warm-up pass primes the allocator and branch predictors for both
  // queues; the measured passes follow.
  std::uint64_t checksum_bucketed = 0;
  std::uint64_t checksum_legacy = 0;
  measure_events_per_sec<sim::EventQueue>(events / 10, seed, &checksum_bucketed);
  measure_events_per_sec<LegacyEventQueue>(events / 10, seed, &checksum_legacy);

  // Median of interleaved trials (alternating which queue runs first): a
  // single sample of the ratio swings by ±30% on a shared host, too much
  // for the 20%-drop gate regression.py applies to it.
  constexpr int kQueueTrials = 5;
  std::vector<double> bucketed_runs, legacy_runs, speedup_runs;
  for (int t = 0; t < kQueueTrials; ++t) {
    double b = 0, l = 0;
    if (t % 2 == 0) {
      b = measure_events_per_sec<sim::EventQueue>(events, seed, &checksum_bucketed);
      l = measure_events_per_sec<LegacyEventQueue>(events, seed, &checksum_legacy);
    } else {
      l = measure_events_per_sec<LegacyEventQueue>(events, seed, &checksum_legacy);
      b = measure_events_per_sec<sim::EventQueue>(events, seed, &checksum_bucketed);
    }
    if (checksum_bucketed != checksum_legacy) {
      std::cerr << "FATAL: queue implementations executed different event sets\n";
      return 1;
    }
    bucketed_runs.push_back(b);
    legacy_runs.push_back(l);
    speedup_runs.push_back(b / l);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double bucketed = median(bucketed_runs);
  const double legacy = median(legacy_runs);
  const double speedup = median(speedup_runs);

  std::cout << "\nEvent-queue microbench (" << events << " events, seed " << seed
            << "):\n"
            << "  bucketed queue : " << static_cast<std::uint64_t>(bucketed)
            << " events/s\n"
            << "  legacy heap    : " << static_cast<std::uint64_t>(legacy)
            << " events/s\n"
            << "  speedup        : " << speedup << "x (median of " << kQueueTrials
            << " trials)\n";

  // Parallel DES section: serial sharded baseline + 1/2/4/8-worker runs of
  // the identical workload, with a cross-worker-count determinism check.
  const std::uint32_t par_shards = 1 + bench_ssd().topo.channels;
  const Tick par_lookahead =
      accel::conservative_lookahead_ns(accel::bench_accel_config(), bench_ssd());
  ParallelRun par_serial;
  std::vector<std::pair<std::uint32_t, ParallelRun>> par_runs;
  bool determinism_ok = true;
  if (parallel) {
    const auto hops = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, par_events / (par_shards * kParChains) - 1));
    // Warm-up (primes allocator + branch predictors, like section 1).
    run_serial_sharded(par_shards, par_lookahead, hops / 4, seed);
    par_serial = run_serial_sharded(par_shards, par_lookahead, hops, seed);
    for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
      par_runs.emplace_back(w, run_parallel(par_shards, par_lookahead, w, hops, seed));
    }
    for (const auto& [w, r] : par_runs) {
      determinism_ok &= r.checksum == par_runs.front().second.checksum &&
                        r.events == par_runs.front().second.events;
    }
    std::cout << "\nParallel DES (" << par_shards << " shards, lookahead "
              << par_lookahead << " ns, " << par_serial.events << " events):\n"
              << "  serial queue   : "
              << static_cast<std::uint64_t>(par_serial.events_per_sec)
              << " events/s\n";
    for (const auto& [w, r] : par_runs) {
      std::cout << "  " << w << " worker(s)    : "
                << static_cast<std::uint64_t>(r.events_per_sec) << " events/s\n";
    }
    std::cout << "  determinism    : " << (determinism_ok ? "ok" : "FAILED")
              << " (1/2/4/8 workers)\n";
    if (!determinism_ok) {
      std::cerr << "FATAL: parallel runs diverged across worker counts\n";
      return 1;
    }
  }

  // Concurrent-engine section: the full FlashWalker engine at 1/2/4/8 DES
  // workers on the same workload. Every run must report the identical
  // simulated execution (exec_time / hops / walks are bit-deterministic
  // regardless of worker count); walks/sec wall-clock is the speedup story.
  // Each worker count's walks/sec is the median of kEngineTrials trials,
  // interleaved (the worker-count order reverses every trial) so host drift
  // spreads over all counts; every trial is recorded as the spread.
  constexpr int kEngineTrials = 5;
  std::vector<std::pair<std::uint32_t, E2eResult>> eng_runs;
  std::vector<std::vector<double>> eng_trials;
  bool engine_determinism_ok = true;
  bool hub_determinism_ok = true;
  if (parallel) {
    for (const std::uint32_t w : {1u, 2u, 4u, 8u}) eng_runs.emplace_back(w, E2eResult{});
    eng_trials.resize(eng_runs.size());
    for (int t = 0; t < kEngineTrials; ++t) {
      for (std::size_t k = 0; k < eng_runs.size(); ++k) {
        const std::size_t i = t % 2 == 0 ? k : eng_runs.size() - 1 - k;
        const E2eResult r = measure_engine(parse_dataset(dataset), parse_scale(scale),
                                           walks, seed, eng_runs[i].first,
                                           /*audit=*/true);
        if (t == 0) eng_runs[i].second = r;
        eng_trials[i].push_back(r.walks_per_sec);
        const E2eResult& base = eng_runs.front().second;
        if (t == 0 && i == 0) continue;
        engine_determinism_ok &= r.sim_exec_ns == base.sim_exec_ns &&
                                 r.total_hops == base.total_hops && r.walks == base.walks;
        // The audit stream itself is part of the determinism contract: the
        // board-hub shape (event balance, batched handoffs, cross traffic)
        // must not depend on the worker count either.
        hub_determinism_ok &= r.audit.events == base.audit.events &&
                              r.audit.board_events == base.audit.board_events &&
                              r.audit.cross_sends == base.audit.cross_sends &&
                              r.audit.board_batches == base.audit.board_batches &&
                              r.audit.board_batched_ops == base.audit.board_batched_ops;
      }
    }
    for (std::size_t i = 0; i < eng_runs.size(); ++i) {
      eng_runs[i].second.walks_per_sec = median(eng_trials[i]);
    }
    std::cout << "\nConcurrent engine (" << dataset << "/" << scale << ", "
              << eng_runs.front().second.walks << " walks, median of " << kEngineTrials
              << " trials):\n";
    for (std::size_t i = 0; i < eng_runs.size(); ++i) {
      const auto [lo, hi] =
          std::minmax_element(eng_trials[i].begin(), eng_trials[i].end());
      std::cout << "  " << eng_runs[i].first << " worker(s)    : "
                << static_cast<std::uint64_t>(eng_runs[i].second.walks_per_sec)
                << " walks/s (trials " << static_cast<std::uint64_t>(*lo) << "-"
                << static_cast<std::uint64_t>(*hi) << ")\n";
    }
    std::cout << "  determinism    : " << (engine_determinism_ok ? "ok" : "FAILED")
              << " (1/2/4/8 workers)\n";
    if (!engine_determinism_ok) {
      std::cerr << "FATAL: engine runs diverged across worker counts\n";
      return 1;
    }
    const accel::ShardAuditReport& hub = eng_runs.front().second.audit;
    std::cout << "\nBoard hub (" << hub.shards << " shards):\n"
              << "  events         : " << hub.events << " (board "
              << hub.board_events << ", share "
              << static_cast<double>(hub.board_share_ppm()) / 10000.0 << "%)\n"
              << "  cross sends    : " << hub.cross_sends << "\n"
              << "  board batches  : " << hub.board_batches << " carrying "
              << hub.board_batched_ops << " ops\n"
              << "  determinism    : " << (hub_determinism_ok ? "ok" : "FAILED")
              << " (audit stream, 1/2/4/8 workers)\n";
    if (!hub_determinism_ok) {
      std::cerr << "FATAL: shard-audit streams diverged across worker counts\n";
      return 1;
    }
  }

  const auto e2e =
      measure_engine(parse_dataset(dataset), parse_scale(scale), walks, seed);
  std::cout << "\nEnd-to-end engine (" << dataset << "/" << scale << ", " << e2e.walks
            << " walks):\n"
            << "  wall time      : " << e2e.wall_s << " s\n"
            << "  hops/s (wall)  : " << static_cast<std::uint64_t>(e2e.hops_per_sec)
            << "\n"
            << "  sim exec_time  : " << e2e.sim_exec_ns << " ns (deterministic)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"fw-bench-sim/2\",\n"
      << "  \"preset\": \"" << preset << "\",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"events\": " << events << ",\n"
      << "  \"bucketed_events_per_sec\": " << static_cast<std::uint64_t>(bucketed)
      << ",\n"
      << "  \"legacy_events_per_sec\": " << static_cast<std::uint64_t>(legacy) << ",\n"
      << "  \"queue_speedup\": " << speedup << ",\n"
      << "  \"queue_speedup_trials\": [";
  for (std::size_t i = 0; i < speedup_runs.size(); ++i) {
    out << (i ? ", " : "") << speedup_runs[i];
  }
  out << "],\n";
  if (parallel) {
    const double speedup_8w =
        par_runs.back().second.events_per_sec / par_serial.events_per_sec;
    out << "  \"parallel\": {\n"
        << "    \"shards\": " << par_shards << ",\n"
        << "    \"lookahead_ns\": " << par_lookahead << ",\n"
        << "    \"events\": " << par_serial.events << ",\n"
        << "    \"hw_threads\": " << std::thread::hardware_concurrency() << ",\n"
        << "    \"serial_events_per_sec\": "
        << static_cast<std::uint64_t>(par_serial.events_per_sec) << ",\n"
        << "    \"workers\": {";
    for (std::size_t i = 0; i < par_runs.size(); ++i) {
      out << (i ? ", " : "") << "\"" << par_runs[i].first
          << "\": " << static_cast<std::uint64_t>(par_runs[i].second.events_per_sec);
    }
    out << "},\n"
        << "    \"speedup_8w\": " << speedup_8w << ",\n"
        << "    \"determinism_ok\": " << (determinism_ok ? "true" : "false") << "\n"
        << "  },\n";

    const double eng_serial = eng_runs.front().second.walks_per_sec;
    const double eng_speedup_4w = eng_runs[2].second.walks_per_sec / eng_serial;
    const double eng_speedup_8w = eng_runs[3].second.walks_per_sec / eng_serial;
    out << "  \"engine_parallel\": {\n"
        << "    \"hw_threads\": " << std::thread::hardware_concurrency() << ",\n"
        << "    \"sim_exec_ns\": " << eng_runs.front().second.sim_exec_ns << ",\n"
        << "    \"workers_walks_per_sec\": {";
    for (std::size_t i = 0; i < eng_runs.size(); ++i) {
      out << (i ? ", " : "") << "\"" << eng_runs[i].first
          << "\": " << static_cast<std::uint64_t>(eng_runs[i].second.walks_per_sec);
    }
    out << "},\n"
        << "    \"workers_walks_per_sec_trials\": {";
    for (std::size_t i = 0; i < eng_runs.size(); ++i) {
      out << (i ? ", " : "") << "\"" << eng_runs[i].first << "\": [";
      for (std::size_t t = 0; t < eng_trials[i].size(); ++t) {
        out << (t ? ", " : "") << static_cast<std::uint64_t>(eng_trials[i][t]);
      }
      out << "]";
    }
    // speedup_4w is informational; regression.py gates speedup_8w.
    out << "},\n"
        << "    \"speedup_4w\": " << eng_speedup_4w << ",\n"
        << "    \"speedup_8w\": " << eng_speedup_8w << ",\n"
        << "    \"determinism_ok\": " << (engine_determinism_ok ? "true" : "false")
        << "\n"
        << "  },\n";

    const accel::ShardAuditReport& hub = eng_runs.front().second.audit;
    const std::uint64_t hub_hops = eng_runs.front().second.total_hops;
    out << "  \"board_hub\": {\n"
        << "    \"shards\": " << hub.shards << ",\n"
        << "    \"events\": " << hub.events << ",\n"
        << "    \"board_events\": " << hub.board_events << ",\n"
        << "    \"board_share_ppm\": " << hub.board_share_ppm() << ",\n"
        << "    \"cross_sends\": " << hub.cross_sends << ",\n"
        << "    \"board_batches\": " << hub.board_batches << ",\n"
        << "    \"board_batched_ops\": " << hub.board_batched_ops << ",\n"
        << "    \"total_hops\": " << hub_hops << ",\n"
        << "    \"cross_per_hop\": "
        << (hub_hops ? static_cast<double>(hub.cross_sends) /
                           static_cast<double>(hub_hops)
                     : 0.0)
        << ",\n"
        << "    \"determinism_ok\": " << (hub_determinism_ok ? "true" : "false")
        << "\n"
        << "  },\n";
  }
  out << "  \"e2e\": {\n"
      << "    \"dataset\": \"" << dataset << "\",\n"
      << "    \"scale\": \"" << scale << "\",\n"
      << "    \"walks\": " << e2e.walks << ",\n"
      << "    \"total_hops\": " << e2e.total_hops << ",\n"
      << "    \"wall_s\": " << e2e.wall_s << ",\n"
      << "    \"hops_per_sec\": " << static_cast<std::uint64_t>(e2e.hops_per_sec)
      << ",\n"
      << "    \"sim_exec_ns\": " << e2e.sim_exec_ns << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
