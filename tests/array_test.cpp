// Multi-SSD array tests: forwarding-buffer edge cases, single-device
// equivalence against the committed report baseline, and the array's
// determinism contract (device count changes placement and timing, never
// walk paths; sim-thread count changes nothing at all).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/array/board_array.hpp"
#include "accel/builder.hpp"
#include "accel/report.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "obs/trace.hpp"
#include "partition/partitioned_graph.hpp"
#include "ssd/config.hpp"

namespace fw::accel::array {
namespace {

/// Fine partition grain (many partitions), so the round-robin device
/// stripe produces real cross-device traffic even at 2 devices. The graph
/// must outlive the PartitionedGraph (it holds a reference), so tests keep
/// both on the stack.
partition::PartitionConfig fine_grain() {
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 2 * KiB;
  pc.subgraphs_per_partition = 1;
  pc.subgraphs_per_range = 64;
  return pc;
}

graph::CsrGraph tt_test() {
  return graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
}

SimulationConfig array_cfg(std::uint32_t devices, std::uint64_t walks,
                           std::uint32_t sim_threads = 1) {
  SimulationConfig cfg;
  cfg.ssd = ssd::test_ssd_config();
  cfg.accel = bench_accel_config();
  cfg.record_visits = true;
  cfg.spec.num_walks = walks;
  cfg.spec.length = 6;
  cfg.spec.seed = 0xA11Aull;
  cfg.sim_threads = sim_threads;
  cfg.array.devices = devices;
  return cfg;
}

TEST(BoardArrayForwarding, StragglerFlushesOnTimeoutNotBatchSize) {
  // A forward batch far larger than the workload means no size-triggered
  // flush can ever fire: every forwarded walk — including a lone straggler
  // sitting in a board's buffer — must leave via the timeout path, and the
  // run must still drain to completion.
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  SimulationConfig cfg = array_cfg(2, 64);
  cfg.array.forward_batch = 100000;
  cfg.array.forward_timeout_ns = 5'000;

  BoardArray array(pg, cfg);
  const ArrayResult r = array.run();

  EXPECT_EQ(r.metrics.walks_completed, 64u);
  ASSERT_GT(r.fabric.walks, 0u) << "workload never crossed devices";
  // Every flush was a timeout flush.
  EXPECT_GT(r.metrics.forward_timeout_flushes, 0u);
  EXPECT_EQ(r.metrics.forward_batches, r.metrics.forward_timeout_flushes);
  EXPECT_EQ(r.metrics.forwarded_out_walks, r.metrics.forwarded_in_walks);
}

TEST(BoardArrayForwarding, WalkPingPongsBetweenTwoBoards) {
  // A directed ring with one vertex per block and one block per partition:
  // consecutive partitions alternate between the two devices (round-robin
  // stripe), so a walk along the ring hops boards on every partition
  // crossing. With forward_batch=1 each hop is its own batch.
  constexpr std::uint32_t kRing = 64;
  graph::GraphBuilder b(kRing);
  for (VertexId v = 0; v < kRing; ++v) b.add_edge(v, (v + 1) % kRing);
  const graph::CsrGraph g = std::move(b).build();

  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16;  // one ring vertex per block
  pc.subgraphs_per_partition = 1;
  pc.subgraphs_per_range = 4;
  const partition::PartitionedGraph pg(g, pc);
  ASSERT_GE(pg.num_partitions(), 4u) << "ring did not split into partitions";

  SimulationConfig cfg = array_cfg(2, 32);
  cfg.spec.length = 16;  // long enough to wrap through many partitions
  cfg.array.forward_batch = 1;

  BoardArray array(pg, cfg);
  const ArrayResult r = array.run();

  EXPECT_EQ(r.metrics.walks_completed, 32u);
  ASSERT_EQ(r.boards.size(), 2u);
  for (std::uint32_t d = 0; d < 2; ++d) {
    SCOPED_TRACE("board " + std::to_string(d));
    EXPECT_GT(r.boards[d].metrics.forwarded_out_walks, 0u);
    EXPECT_GT(r.boards[d].metrics.forwarded_in_walks, 0u);
  }
  // Conservation across the ping-pong: the fabric carried exactly what the
  // boards sent, and everything sent was re-admitted somewhere.
  EXPECT_EQ(r.metrics.forwarded_out_walks, r.metrics.forwarded_in_walks);
  EXPECT_EQ(r.fabric.walks, r.metrics.forwarded_out_walks);
}

TEST(BoardArray, WalkPathsInvariantAcrossDeviceCounts) {
  // Moving a partition to a different board changes where and when a walk
  // executes, never which vertices it visits: the per-walk RNG stream is a
  // pure function of (seed, walk index). Totals and visit histograms must
  // be identical at every device count.
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());

  BoardArray ref(pg, array_cfg(1, 500));
  const ArrayResult r1 = ref.run();
  ASSERT_GT(r1.metrics.total_hops, 0u);

  for (const std::uint32_t devices : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(devices) + " devices");
    BoardArray array(pg, array_cfg(devices, 500));
    const ArrayResult r = array.run();
    EXPECT_EQ(r.metrics.walks_completed, r1.metrics.walks_completed);
    EXPECT_EQ(r.metrics.total_hops, r1.metrics.total_hops);
    EXPECT_EQ(r.metrics.dead_ends, r1.metrics.dead_ends);
    EXPECT_EQ(r.visit_counts, r1.visit_counts);
  }
}

TEST(BoardArray, SimThreadCountIsInvisible) {
  // Byte-identical serialized reports across --sim-threads at 2 and 4
  // devices, and across repeat runs (no hidden cross-run state).
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  for (const std::uint32_t devices : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(devices) + " devices");
    BoardArray a1(pg, array_cfg(devices, 500, 1));
    const std::string serial = to_json("array", a1.run());
    for (const std::uint32_t threads : {2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " sim threads");
      BoardArray an(pg, array_cfg(devices, 500, threads));
      EXPECT_EQ(serial, to_json("array", an.run()));
    }
    BoardArray again(pg, array_cfg(devices, 500, 1));
    EXPECT_EQ(serial, to_json("array", again.run()));
  }
}

TEST(BoardArray, SingleDeviceKeepsStandaloneWalkTotals) {
  // devices=1 wraps the engine in the array harness (fabric shard,
  // coordinator ledger) without any forwarding; the walk work must be
  // exactly the standalone engine's.
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  const SimulationConfig cfg = array_cfg(1, 500);

  BoardArray array(pg, cfg);
  const ArrayResult ar = array.run();
  const EngineResult er = SimulationBuilder(pg).config(cfg).run();

  EXPECT_EQ(ar.metrics.walks_completed, er.metrics.walks_completed);
  EXPECT_EQ(ar.metrics.total_hops, er.metrics.total_hops);
  EXPECT_EQ(ar.metrics.dead_ends, er.metrics.dead_ends);
  EXPECT_EQ(ar.visit_counts, er.visit_counts);
  EXPECT_EQ(ar.fabric.walks, 0u);
  EXPECT_EQ(ar.metrics.forwarded_out_walks, 0u);
}

TEST(BoardArray, SingleDeviceReportMatchesCommittedBaseline) {
  // The standalone (non-array) report for a pinned config must stay
  // byte-identical to the committed baseline: the Board extraction and the
  // prime/finalize split may not perturb single-device output. Refresh with
  // FW_UPDATE_BASELINE=1 ./array_test (then commit the file) after an
  // intentional model or schema change.
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  SimulationConfig cfg = array_cfg(1, 200);
  const EngineResult r = SimulationBuilder(pg).config(cfg).run();
  const std::string current = to_json("single_device_baseline", r);

  const std::string path =
      std::string(FW_TEST_DATA_DIR) + "/single_device_report.json";
  if (std::getenv("FW_UPDATE_BASELINE") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "baseline refreshed at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path
                  << " (generate with FW_UPDATE_BASELINE=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), current)
      << "single-device report drifted from the committed baseline";
}

TEST(BoardArray, FourDevicesBeatTwo) {
  // Scaling shape on bench/array_scaling's set-up (default SSD, one 2 KiB
  // block per partition, striped round-robin): 4 devices must finish the
  // same walks in less simulated time than 2. At 6000 walks the boards are
  // lightly loaded, so per-walk handoff latency on the board's route/update
  // path, not flash work, decides exec time — an extra cross-shard round
  // trip per routed walk shows up here as 4 devices running slower than 2.
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  auto exec_at = [&pg](std::uint32_t devices) {
    SimulationConfig cfg = array_cfg(devices, 6000);
    cfg.ssd = ssd::SsdConfig{};
    cfg.spec.seed = 42;
    cfg.record_visits = false;
    return BoardArray(pg, cfg).run().exec_time;
  };
  const Tick two = exec_at(2);
  const Tick four = exec_at(4);
  EXPECT_LT(four, two) << "4 devices: " << four << " ns, 2 devices: " << two << " ns";
}

TEST(BoardArray, RejectsConfigsTheArrayCannotHonor) {
  const graph::CsrGraph g = tt_test();
  const partition::PartitionedGraph pg(g, fine_grain());
  SimulationConfig zero = array_cfg(0, 100);
  EXPECT_THROW(BoardArray(pg, zero), std::invalid_argument);
  obs::TraceRecorder recorder;
  SimulationConfig traced = array_cfg(2, 100);
  traced.trace = &recorder;
  EXPECT_THROW(BoardArray(pg, traced), std::invalid_argument);
  SimulationConfig paths = array_cfg(2, 100);
  paths.record_paths = true;
  EXPECT_THROW(BoardArray(pg, paths), std::invalid_argument);
}

}  // namespace
}  // namespace fw::accel::array
