// Tests for the conservative-lookahead parallel DES (sim/parallel_sim):
// cross-worker-count determinism, merge-order rules, window semantics, and
// misuse hard-checks — plus the engine's shard-audit mode staying
// bit-identical to the serial reference. The determinism cases are the ones
// the CI TSan job runs to prove the barrier protocol race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/builder.hpp"
#include "accel/lookahead.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"
#include "sim/parallel_sim.hpp"

namespace fw::sim {
namespace {

constexpr Tick kLookahead = 100;

/// Deterministic chain workload across shards: every handler mixes the
/// execution context (shard, tick, hop) into a per-shard trace checksum and
/// schedules one successor, some of them cross-shard at >= lookahead.
struct ChainState {
  std::vector<std::uint64_t> checksum;
  std::vector<Xoshiro256> rng;

  explicit ChainState(std::uint32_t shards) : checksum(shards) {
    for (std::uint32_t s = 0; s < shards; ++s) rng.emplace_back(1234 + s);
  }
};

struct ChainDriver {
  ParallelSimulator& ps;
  ChainState& st;

  void fire(ShardId s, std::uint32_t hops) {
    st.checksum[s] = st.checksum[s] * 31 + (ps.shard(s).now() ^ hops);
    if (hops == 0) return;
    const std::uint64_t r = st.rng[s].bounded(100);
    if (r < 10) {
      const auto dst = static_cast<ShardId>(st.rng[s].bounded(ps.num_shards()));
      ps.shard(s).send(dst, kLookahead + st.rng[s].bounded(64),
                       [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      ps.shard(s).schedule(1 + st.rng[s].bounded(40),
                           [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

struct RunResult {
  std::vector<std::uint64_t> checksums;
  std::vector<Tick> clocks;
  std::uint64_t executed = 0;
  Tick now = 0;
  std::uint64_t windows = 0;
  std::uint64_t passes = 0;  ///< busy shard drain passes
};

RunResult collect(const ParallelSimulator& ps, const ChainState& st,
                  std::uint64_t executed) {
  RunResult r;
  r.executed = executed;
  r.checksums = st.checksum;
  for (ShardId s = 0; s < ps.num_shards(); ++s) r.clocks.push_back(ps.shard(s).now());
  r.now = ps.now();
  r.windows = ps.windows();
  r.passes = ps.shard_passes();
  return r;
}

RunResult run_chains(std::uint32_t shards, std::uint32_t workers,
                     std::uint32_t chains, std::uint32_t hops) {
  ParallelSimulator ps(shards, kLookahead, workers);
  ChainState st(shards);
  ChainDriver drv{ps, st};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < chains; ++k) {
      ps.shard(s).schedule(k * 3 + s, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  const std::uint64_t executed = ps.run();
  return collect(ps, st, executed);
}

TEST(ParallelSim, WorkerCountsProduceIdenticalResults) {
  // The acceptance determinism gate: 1, 2, and 8 workers must yield
  // bit-identical traces (checksums, per-shard clocks, event counts).
  const RunResult one = run_chains(9, 1, 4, 200);
  const RunResult two = run_chains(9, 2, 4, 200);
  const RunResult eight = run_chains(9, 8, 4, 200);
  EXPECT_EQ(one.checksums, two.checksums);
  EXPECT_EQ(one.checksums, eight.checksums);
  EXPECT_EQ(one.clocks, two.clocks);
  EXPECT_EQ(one.clocks, eight.clocks);
  EXPECT_EQ(one.executed, two.executed);
  EXPECT_EQ(one.executed, eight.executed);
  EXPECT_EQ(one.now, two.now);
  EXPECT_EQ(one.now, eight.now);
  EXPECT_EQ(one.windows, eight.windows);
  EXPECT_EQ(one.passes, eight.passes);
  EXPECT_EQ(one.executed, 9u * 4u * 201u);  // every chain ran to completion
}

TEST(ParallelSim, RepeatedRunsAreReproducible) {
  const RunResult a = run_chains(5, 4, 2, 100);
  const RunResult b = run_chains(5, 4, 2, 100);
  EXPECT_EQ(a.checksums, b.checksums);
  EXPECT_EQ(a.executed, b.executed);
}

TEST(ParallelSim, CrossingsMergeInTickSourceSeqOrder) {
  // Three shards bombard shard 0 with same-tick crossings; arrival order at
  // the destination must be (tick, src shard, send seq) regardless of the
  // order the window executed the senders.
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    ParallelSimulator ps(4, kLookahead, workers);
    std::vector<std::pair<ShardId, int>> order;
    for (ShardId src : {3u, 1u, 2u}) {  // scheduled in scrambled shard order
      ps.shard(src).schedule(src, [&ps, &order, src] {
        // All three send()s land on shard 0 at the same absolute tick.
        const Tick at = 2 * kLookahead;
        const Tick d = at - ps.shard(src).now();
        ps.shard(src).send(0, d, [&order, src] { order.emplace_back(src, 0); });
        ps.shard(src).send(0, d, [&order, src] { order.emplace_back(src, 1); });
      });
    }
    ps.run();
    const std::vector<std::pair<ShardId, int>> expect = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}};
    EXPECT_EQ(order, expect) << workers << " workers";
  }
}

TEST(ParallelSim, LocalEventsFireBeforeEqualTickCrossings) {
  // A crossing arriving at tick T merges behind anything the destination
  // already scheduled for T (local pushes carry smaller destination seq).
  ParallelSimulator ps(2, kLookahead, 2);
  std::vector<int> order;
  ps.shard(0).schedule(2 * kLookahead, [&order] { order.push_back(1); });  // local @2L
  ps.shard(1).schedule(0, [&ps, &order] {
    ps.shard(1).send(0, 2 * kLookahead, [&order] { order.push_back(2); });  // cross @2L
  });
  ps.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelSim, EventsCanScheduleAndChainAcrossWindows) {
  ParallelSimulator ps(3, kLookahead, 1);
  Tick seen = 0;
  ps.shard(2).schedule(5, [&ps, &seen] {
    ps.shard(2).send(0, kLookahead, [&ps, &seen] {
      ps.shard(0).schedule(7, [&ps, &seen] { seen = ps.shard(0).now(); });
    });
  });
  ps.run();
  EXPECT_EQ(seen, 5u + kLookahead + 7u);
  EXPECT_EQ(ps.events_executed(), 3u);
}

TEST(ParallelSim, RunUntilBoundsExecutionAndResumes) {
  ParallelSimulator ps(2, kLookahead, 1);
  int fired = 0;
  ps.shard(0).schedule(10, [&fired] { ++fired; });
  ps.shard(1).schedule(500, [&fired] { ++fired; });
  EXPECT_EQ(ps.run(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(ps.idle());
  // The clock rests on the last executed event while
  // work remains pending beyond the bound.
  EXPECT_EQ(ps.now(), 10u);
  EXPECT_EQ(ps.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(ps.idle());
  EXPECT_EQ(ps.now(), 500u);
}

TEST(ParallelSim, SelfSendIsLocalAndUnconstrained) {
  ParallelSimulator ps(2, kLookahead, 1);
  int fired = 0;
  ps.shard(1).schedule(0, [&ps, &fired] {
    ps.shard(1).send(1, 1, [&fired] { ++fired; });  // below lookahead: fine
  });
  ps.run();
  EXPECT_EQ(fired, 1);
}

TEST(ParallelSim, RejectsSubLookaheadCrossSends) {
  ParallelSimulator ps(2, kLookahead, 1);
  bool threw = false;
  ps.shard(0).schedule(0, [&ps, &threw] {
    try {
      ps.shard(0).send(1, kLookahead - 1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  ps.run();
  EXPECT_TRUE(threw);
}

TEST(ParallelSim, RejectsUnknownDestinationAndBadConfig) {
  ParallelSimulator ps(2, kLookahead, 1);
  EXPECT_THROW(ps.shard(0).send(2, kLookahead, [] {}), std::out_of_range);
  EXPECT_THROW(ParallelSimulator(0, kLookahead), std::invalid_argument);
  EXPECT_THROW(ParallelSimulator(4, 0), std::invalid_argument);
}

TEST(ParallelSim, WorkerCountClampsToShards) {
  ParallelSimulator ps(3, kLookahead, 64);
  EXPECT_EQ(ps.workers(), 3u);
  // Atomic: the three events land in one window, so with 3 workers they
  // execute concurrently — shared test state needs its own synchronization.
  std::atomic<int> fired{0};
  for (ShardId s = 0; s < 3; ++s) ps.shard(s).schedule(s, [&fired] { ++fired; });
  ps.run();
  EXPECT_EQ(fired.load(), 3);
}

TEST(ParallelSim, WindowFlushFiresOncePerWindowOnEveryShard) {
  // The flush hook runs at the end of every drain_window pass — including
  // on shards that executed nothing in the window — so its cadence is a
  // pure function of the window schedule, never of the worker count.
  auto run = [](std::uint32_t workers) {
    ParallelSimulator ps(3, kLookahead, workers);
    // Per-shard slots: each hook writes only its own element, so the
    // threaded modes need no extra synchronization.
    std::vector<std::uint64_t> flushes(3, 0);
    for (ShardId s = 0; s < 3; ++s) {
      ps.shard(s).set_window_flush([&flushes, s](Shard&) { ++flushes[s]; });
    }
    // Four events on shard 0, spaced beyond the lookahead: four windows.
    // Shards 1 and 2 stay empty the whole run.
    for (Tick t = 0; t < 4; ++t) {
      ps.shard(0).schedule(t * 3 * kLookahead, [] {});
    }
    ps.run();
    return flushes;
  };
  const auto one = run(1);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{4, 4, 4}));
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(3), one);
  EXPECT_EQ(run(8), one);  // clamps to 3 workers
}

TEST(ParallelSim, WindowFlushBatchesStraddlingAWindowLeaveOnce) {
  // Two events execute on shard 1 inside one window and stage work for
  // shard 0. The flush hook coalesces the staging into ONE send, so the
  // batch crosses the window boundary as a single message, delivered at the
  // latest staged arrival, with the staged order preserved — identically
  // for every worker count.
  struct Delivery {
    Tick at = 0;
    std::vector<int> items;
    bool operator==(const Delivery& o) const {
      return at == o.at && items == o.items;
    }
  };
  auto run = [](std::uint32_t workers) {
    ParallelSimulator ps(2, kLookahead, workers);
    std::vector<int> staged;
    Tick staged_at = 0;
    std::vector<Delivery> deliveries;  // only shard 0 writes
    ps.shard(1).set_window_flush([&](Shard& sh) {
      if (staged.empty()) return;
      const Tick at = std::max(staged_at, sh.now() + kLookahead);
      sh.send(0, at - sh.now(), [&ps, &deliveries, items = std::move(staged)] {
        deliveries.push_back(Delivery{ps.shard(0).now(), items});
      });
      staged.clear();
    });
    auto stage = [&](int item) {
      staged.push_back(item);
      staged_at = ps.shard(1).now() + kLookahead;
    };
    ps.shard(1).schedule(0, [&stage] { stage(1); });
    ps.shard(1).schedule(10, [&stage] { stage(2); });
    ps.run();
    return deliveries;
  };
  const auto one = run(1);
  ASSERT_EQ(one.size(), 1u);  // one batch, not one message per event
  EXPECT_EQ(one[0].at, 10u + kLookahead);
  EXPECT_EQ(one[0].items, (std::vector<int>{1, 2}));
  EXPECT_EQ(run(2), one);
}

TEST(ParallelSim, ShardFedOnlyByCrossingsRunsThem) {
  // Shard 2 never schedules locally: every event it runs arrives through
  // the barrier merge, which must wake it (lower its cached next tick) —
  // including when that crossing is the only event left anywhere.
  for (std::uint32_t workers : {1u, 3u}) {
    ParallelSimulator ps(3, kLookahead, workers);
    std::vector<Tick> seen;  // only shard 2 writes
    ps.shard(0).schedule(0, [&ps, &seen] {
      for (Tick d : {kLookahead, 5 * kLookahead, 40 * kLookahead}) {
        ps.shard(0).send(2, d, [&ps, &seen] { seen.push_back(ps.shard(2).now()); });
      }
    });
    ps.shard(1).schedule(kLookahead + 1, [] {});  // a busy bystander
    EXPECT_EQ(ps.run(), 5u) << workers << " workers";
    EXPECT_EQ(seen, (std::vector<Tick>{kLookahead, 5 * kLookahead, 40 * kLookahead}));
    EXPECT_TRUE(ps.idle());
    EXPECT_EQ(ps.shard(2).passes(), 3u);  // one busy pass per crossing
  }
}

TEST(ParallelSim, ScheduleOnIdleShardBetweenRuns) {
  // Shard 1 drains in the first run; events scheduled on it from outside
  // between runs must reach the next window selection.
  ParallelSimulator ps(2, kLookahead, 1);
  std::vector<std::pair<ShardId, Tick>> order;
  ps.shard(0).schedule(1000, [&] { order.emplace_back(0, ps.shard(0).now()); });
  ps.shard(1).schedule(10, [&] { order.emplace_back(1, ps.shard(1).now()); });
  EXPECT_EQ(ps.run(500), 1u);
  ps.shard(1).schedule(20, [&] { order.emplace_back(1, ps.shard(1).now()); });
  ps.shard(1).schedule_at(5, [&] { order.emplace_back(1, ps.shard(1).now()); });
  EXPECT_EQ(ps.run(500), 2u);
  EXPECT_EQ(ps.run(), 1u);
  const std::vector<std::pair<ShardId, Tick>> expect = {
      {1, 10}, {1, 10}, {1, 30}, {0, 1000}};  // schedule_at clamps to the clock
  EXPECT_EQ(order, expect);
  EXPECT_TRUE(ps.idle());
}

TEST(ParallelSim, CountsWindowsAndBusyShardPasses) {
  // Four events on shard 0 spaced beyond the lookahead: four windows, one
  // busy pass each; the two idle shards add no passes.
  ParallelSimulator ps(3, kLookahead, 1);
  for (Tick t = 0; t < 4; ++t) ps.shard(0).schedule(t * 3 * kLookahead, [] {});
  ps.run();
  EXPECT_EQ(ps.windows(), 4u);
  EXPECT_EQ(ps.shard_passes(), 4u);
  EXPECT_EQ(ps.shard(0).passes(), 4u);
  EXPECT_EQ(ps.shard(1).passes(), 0u);
}

/// Many shards, few events each, long gaps: most shards sit idle in most
/// windows and queues skip far more than 64 empty buckets between events —
/// the array's shape (fabric + 4 x (board + 32 channels) = 133 shards).
RunResult run_sparse(std::uint32_t workers) {
  constexpr std::uint32_t kShards = 133;
  ParallelSimulator ps(kShards, kLookahead, workers);
  ChainState st(kShards);
  std::function<void(ShardId, std::uint32_t)> fire = [&](ShardId s, std::uint32_t hops) {
    Shard& sh = ps.shard(s);
    st.checksum[s] = st.checksum[s] * 31 + (sh.now() ^ hops);
    if (hops == 0) return;
    if (st.rng[s].bounded(100) < 30) {
      const auto dst = static_cast<ShardId>(st.rng[s].bounded(kShards));
      sh.send(dst, kLookahead + st.rng[s].bounded(3000),
              [&fire, dst, hops] { fire(dst, hops - 1); });
    } else {
      sh.schedule(st.rng[s].bounded(4) == 0 ? st.rng[s].bounded(8)
                                            : 300 + st.rng[s].bounded(20000),
                  [&fire, s, hops] { fire(s, hops - 1); });
    }
  };
  for (ShardId s = 0; s < kShards; s += 7) {
    ps.shard(s).schedule(s * 13, [&fire, s] { fire(s, 120); });
  }
  const std::uint64_t executed = ps.run();
  return collect(ps, st, executed);
}

TEST(ParallelSim, SparseManyShardWorkloadIsWorkerCountInvariant) {
  const RunResult one = run_sparse(1);
  EXPECT_EQ(one.executed, 19u * 121u);     // every chain ran to completion
  EXPECT_LT(one.passes, one.windows * 4);  // most shards idle in most windows
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    const RunResult r = run_sparse(workers);
    EXPECT_EQ(r.checksums, one.checksums) << workers << " workers";
    EXPECT_EQ(r.clocks, one.clocks) << workers << " workers";
    EXPECT_EQ(r.executed, one.executed) << workers << " workers";
    EXPECT_EQ(r.now, one.now) << workers << " workers";
    EXPECT_EQ(r.windows, one.windows) << workers << " workers";
    EXPECT_EQ(r.passes, one.passes) << workers << " workers";
  }
}

TEST(ParallelSim, HubShardDrainsOnTheCallingThread) {
  // Shard 0 is the hub: at every worker count its events run on the thread
  // that called run(), while the other shards keep every window busy.
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    ParallelSimulator ps(9, kLookahead, workers);
    std::vector<std::thread::id> hub_threads;  // only shard 0 writes
    std::function<void(ShardId, std::uint32_t)> fire = [&](ShardId s, std::uint32_t n) {
      if (s == 0) hub_threads.push_back(std::this_thread::get_id());
      if (n == 0) return;
      if (n % 5 == 0) {
        const ShardId dst = (s + 1) % ps.num_shards();
        ps.shard(s).send(dst, kLookahead, [&fire, dst, n] { fire(dst, n - 1); });
      } else {
        ps.shard(s).schedule(7, [&fire, s, n] { fire(s, n - 1); });
      }
    };
    for (ShardId s = 0; s < ps.num_shards(); ++s) {
      ps.shard(s).schedule(s, [&fire, s] { fire(s, 60); });
    }
    ps.run();
    ASSERT_GT(hub_threads.size(), 60u) << workers << " workers";
    for (const std::thread::id id : hub_threads) {
      EXPECT_EQ(id, std::this_thread::get_id()) << workers << " workers";
    }
  }
}

/// Hub-heavy workload, the engine's shape: shard 0 runs most events and
/// trades crossings with every other shard in both directions.
struct HubRun {
  RunResult r;
  std::uint64_t hub_events = 0;
  std::uint64_t to_hub = 0;    ///< crossings into shard 0
  std::uint64_t from_hub = 0;  ///< crossings out of shard 0
};

HubRun run_hub_heavy(std::uint32_t workers) {
  constexpr std::uint32_t kShards = 12;
  ParallelSimulator ps(kShards, kLookahead, workers);
  ChainState st(kShards);
  std::vector<std::uint64_t> sent(kShards, 0);  // per-source crossings
  std::function<void(ShardId, std::uint32_t)> fire = [&](ShardId s, std::uint32_t hops) {
    Shard& sh = ps.shard(s);
    st.checksum[s] = st.checksum[s] * 31 + (sh.now() ^ hops);
    if (hops == 0) return;
    const std::uint64_t r = st.rng[s].bounded(100);
    if (s == 0 ? r < 15 : r < 40) {
      // Hub fans out to a random shard; the others report back to the hub.
      const ShardId dst =
          s == 0 ? static_cast<ShardId>(1 + st.rng[s].bounded(kShards - 1)) : 0;
      ++sent[s];
      sh.send(dst, kLookahead + st.rng[s].bounded(50),
              [&fire, dst, hops] { fire(dst, hops - 1); });
    } else {
      sh.schedule(1 + st.rng[s].bounded(30), [&fire, s, hops] { fire(s, hops - 1); });
    }
  };
  for (std::uint32_t k = 0; k < 6; ++k) {
    ps.shard(0).schedule(k, [&fire] { fire(0, 300); });
  }
  for (ShardId s = 1; s < kShards; ++s) {
    ps.shard(s).schedule(s, [&fire, s] { fire(s, 40); });
  }
  const std::uint64_t executed = ps.run();
  HubRun h;
  h.r = collect(ps, st, executed);
  h.hub_events = ps.shard(0).events_executed();
  h.from_hub = sent[0];
  h.to_hub = std::accumulate(sent.begin() + 1, sent.end(), std::uint64_t{0});
  return h;
}

TEST(ParallelSim, HubHeavyWorkloadIsWorkerCountInvariant) {
  const HubRun one = run_hub_heavy(1);
  EXPECT_GE(one.hub_events * 2, one.r.executed);  // the hub runs at least half
  EXPECT_GT(one.to_hub, 0u);
  EXPECT_GT(one.from_hub, 0u);
  for (std::uint32_t workers : {2u, 3u, 4u, 8u}) {
    const HubRun h = run_hub_heavy(workers);
    EXPECT_EQ(h.r.checksums, one.r.checksums) << workers << " workers";
    EXPECT_EQ(h.r.clocks, one.r.clocks) << workers << " workers";
    EXPECT_EQ(h.r.executed, one.r.executed) << workers << " workers";
    EXPECT_EQ(h.r.now, one.r.now) << workers << " workers";
    EXPECT_EQ(h.r.windows, one.r.windows) << workers << " workers";
    EXPECT_EQ(h.r.passes, one.r.passes) << workers << " workers";
    EXPECT_EQ(h.hub_events, one.hub_events) << workers << " workers";
  }
}

/// Runs a 9-shard workload in which every shard in `throwers` throws from
/// its handler in the same window, and returns what run() threw.
std::string run_throwing(std::uint32_t workers, const std::vector<ShardId>& throwers) {
  ParallelSimulator ps(9, kLookahead, workers);
  for (ShardId s = 0; s < ps.num_shards(); ++s) {
    // Busy shards before, during and after the throwing window.
    for (Tick t = 0; t < 5; ++t) ps.shard(s).schedule(t * 2 * kLookahead + s, [] {});
  }
  for (const ShardId s : throwers) {
    ps.shard(s).schedule(4 * kLookahead + 10, [s] {
      throw std::domain_error("handler on shard " + std::to_string(s) + " failed");
    });
  }
  try {
    ps.run();
  } catch (const std::domain_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(ParallelSim, HandlerExceptionsReachTheCallerAtAnyWorkerCount) {
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_throwing(workers, {5}), "handler on shard 5 failed")
        << workers << " workers";
    EXPECT_EQ(run_throwing(workers, {0}), "handler on shard 0 failed")
        << workers << " workers";
    // Several shards throw in one window: the lowest shard id wins.
    EXPECT_EQ(run_throwing(workers, {7, 3, 8}), "handler on shard 3 failed")
        << workers << " workers";
  }
}

TEST(ParallelSim, ThreadTimingCoversEveryThreadOnlyWhenEnabled) {
  ParallelSimulator off(4, kLookahead, 4);
  for (ShardId s = 0; s < 4; ++s) off.shard(s).schedule(s, [] {});
  off.run();
  EXPECT_TRUE(off.thread_times().empty());

  ParallelSimulator on(4, kLookahead, 4);
  on.set_thread_timing(true);
  for (ShardId s = 0; s < 4; ++s) {
    for (Tick t = 0; t < 20; ++t) on.shard(s).schedule(t * 2 * kLookahead, [] {});
  }
  on.run();
  const std::vector<ThreadTime> times = on.thread_times();
  ASSERT_EQ(times.size(), 4u);  // the caller plus three pool threads
  EXPECT_GT(times[0].busy_ns, 0u);
  for (const ThreadTime& t : times) EXPECT_GT(t.busy_ns + t.wait_ns, 0u);
}

}  // namespace
}  // namespace fw::sim

namespace fw::accel {
namespace {

/// Engine on the parallel DES: worker count must not perturb the run, the
/// audit is a pure observer behind its own flag, and — now that every
/// cross-shard handoff pays its honest ONFI-command + DRAM-hop floor —
/// the audit must report zero lookahead violations on the default config.
TEST(EngineShardAudit, ConcurrentRunIsBitIdenticalAndViolationFree) {
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  auto run_with = [&](std::uint32_t threads, bool audit) {
    SimulationConfig cfg;
    cfg.ssd = ssd::test_ssd_config();
    cfg.accel = bench_accel_config();
    cfg.spec.num_walks = 500;
    cfg.spec.length = 6;
    cfg.spec.seed = 42;
    cfg.record_visits = true;
    cfg.sim_threads = threads;
    cfg.shard_audit = audit;
    return SimulationBuilder(pg).config(cfg).run();
  };

  const EngineResult serial = run_with(1, /*audit=*/false);
  const EngineResult audited = run_with(8, /*audit=*/true);

  EXPECT_FALSE(serial.shard_audit.enabled);
  ASSERT_TRUE(audited.shard_audit.enabled);
  // Bit-identical simulation: same exec time, hop counts, visit vector —
  // the audit observes, it never perturbs.
  EXPECT_EQ(serial.exec_time, audited.exec_time);
  EXPECT_EQ(serial.metrics.total_hops, audited.metrics.total_hops);
  EXPECT_EQ(serial.metrics.walks_completed, audited.metrics.walks_completed);
  EXPECT_EQ(serial.flash_read_bytes, audited.flash_read_bytes);
  EXPECT_EQ(serial.visit_counts, audited.visit_counts);

  const ShardAuditReport& a = audited.shard_audit;
  EXPECT_EQ(a.shards, FlashWalkerEngine::local_shard_count(ssd::test_ssd_config()));
  EXPECT_EQ(a.lookahead_ns,
            conservative_lookahead_ns(bench_accel_config(), ssd::test_ssd_config()));
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.cross_sends, 0u);  // channel<->board traffic exists
  EXPECT_LE(a.max_shard_events, a.events);
  EXPECT_LE(a.min_shard_events, a.max_shard_events);
  // The board residue shard no longer hosts per-hop work, but it still
  // executes events; its share of the stream is a proper fraction.
  EXPECT_GT(a.board_events, 0u);
  EXPECT_LE(a.board_events, a.events);
  EXPECT_LE(a.board_share_ppm(), 1000000u);
  // Windowed batching ran: ops crossed in aggregated messages, and each
  // batch carried at least one op.
  EXPECT_GT(a.board_batches, 0u);
  EXPECT_GE(a.board_batched_ops, a.board_batches);
  // The regression pin for the handoff-cost fix: every cross-shard send
  // pays at least the conservative window, so zero-latency sends can never
  // silently return.
  EXPECT_EQ(a.lookahead_violations, 0u);
  EXPECT_GE(a.min_cross_delay_ns, a.lookahead_ns);
}

}  // namespace
}  // namespace fw::accel
