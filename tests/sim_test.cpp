// Unit tests for the DES kernel: event queue ordering, the simulator clock
// (on a one-shard ParallelSimulator), contention primitives, timeline
// recorder.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/resource.hpp"
#include "sim/timeline.hpp"

namespace fw::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTicksFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

/// Window length of the one-shard simulators below. With a single shard
/// there are no crossings, so it only sets how many windows a run takes.
constexpr Tick kLookahead = 16;

TEST(Simulator, ClockAdvancesToEventTime) {
  ParallelSimulator ps(1, kLookahead);
  Shard& sh = ps.shard(0);
  Tick seen = 0;
  sh.schedule(100, [&] { seen = sh.now(); });
  ps.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(ps.now(), 100u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  ParallelSimulator ps(1, kLookahead);
  Shard& sh = ps.shard(0);
  int fired = 0;
  sh.schedule(10, [&] {
    ++fired;
    sh.schedule(10, [&] { ++fired; });
  });
  ps.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ps.now(), 20u);
}

TEST(Simulator, RunUntilStopsEarly) {
  ParallelSimulator ps(1, kLookahead);
  Shard& sh = ps.shard(0);
  int fired = 0;
  sh.schedule(10, [&] { ++fired; });
  sh.schedule(100, [&] { ++fired; });
  EXPECT_EQ(ps.run(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ps.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtClampsToNow) {
  ParallelSimulator ps(1, kLookahead);
  Shard& sh = ps.shard(0);
  Tick seen = 0;
  sh.schedule(100, [&] {
    sh.schedule_at(50, [&] { seen = sh.now(); });  // in the past: clamped
  });
  ps.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(ps.now(), 100u);
}

TEST(SerialResource, FifoQueuing) {
  SerialResource r;
  EXPECT_EQ(r.acquire(0, 10), 10u);
  EXPECT_EQ(r.acquire(0, 10), 20u);   // queued behind the first
  EXPECT_EQ(r.acquire(50, 10), 60u);  // idle gap, starts at 50
  EXPECT_EQ(r.busy_time(), 30u);
  EXPECT_EQ(r.requests(), 3u);
}

TEST(SerialResource, Utilization) {
  SerialResource r;
  r.acquire(0, 50);
  EXPECT_DOUBLE_EQ(r.utilization(100), 0.5);
}

TEST(BandwidthLink, RateAndLatency) {
  BandwidthLink link(1000, 100);  // 1 GB/s + 100 ns setup
  // 1 MB at 1 GB/s = 1'000'000 ns + 100 ns.
  EXPECT_EQ(link.transfer(0, 1'000'000), 1'000'100u);
  EXPECT_EQ(link.bytes_moved(), 1'000'000u);
}

TEST(BandwidthLink, SerializesTransfers) {
  BandwidthLink link(1000, 0);
  const Tick t1 = link.transfer(0, 1000);
  const Tick t2 = link.transfer(0, 1000);
  EXPECT_EQ(t1, 1000u / 1000 * 1000);  // 1 us
  EXPECT_EQ(t2, 2 * t1);
}

TEST(TimelineRecorder, ComputesRates) {
  TimelineRecorder rec(1000);
  rec.sample(1000, 1'000'000, 0, 500'000, 1'500'000, 50, 100);
  ASSERT_EQ(rec.points().size(), 1u);
  const auto& p = rec.points()[0];
  // 1 MB over 1 us = 1e6 MB/s.
  EXPECT_DOUBLE_EQ(p.flash_read_mb_s, 1e6);
  EXPECT_DOUBLE_EQ(p.channel_mb_s, 5e5);
  EXPECT_DOUBLE_EQ(p.walks_done_pct, 50.0);
}

TEST(TimelineRecorder, DeltasBetweenSamples) {
  TimelineRecorder rec(1000);
  rec.sample(1000, 1000, 0, 0, 0, 0, 10);
  rec.sample(2000, 1000, 0, 0, 0, 10, 10);  // no new bytes
  ASSERT_EQ(rec.points().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.points()[1].flash_read_mb_s, 0.0);
  EXPECT_DOUBLE_EQ(rec.points()[1].walks_done_pct, 100.0);
}

TEST(TimelineRecorder, IgnoresNonAdvancingSample) {
  TimelineRecorder rec(10);
  rec.sample(10, 1, 1, 1, 1, 1, 2);
  rec.sample(10, 2, 2, 2, 2, 2, 2);  // same tick: dropped
  EXPECT_EQ(rec.points().size(), 1u);
}

TEST(Determinism, SameScheduleSameTrace) {
  auto run_once = [] {
    ParallelSimulator ps(1, kLookahead);
    Shard& sh = ps.shard(0);
    std::vector<Tick> trace;
    for (int i = 0; i < 100; ++i) {
      sh.schedule((i * 37) % 50, [&trace, &sh] { trace.push_back(sh.now()); });
    }
    ps.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fw::sim
