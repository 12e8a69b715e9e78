// BoardArray: N FlashWalker boards behind a host fabric, one simulation.
//
// Scale-out topology (ISSUE 8): the partitioner's device-level shard
// assignment (partition::device_of_partition, striped round-robin) splits
// the graph across `devices` boards; each board runs the unmodified
// single-device engine over the full partitioned graph but only starts and
// processes walks whose partitions it owns. A walk that hops into a foreign
// partition is serialized into the owning engine's per-destination
// forwarding buffer and — once the batch fills or the straggler timeout
// fires — shipped over the modeled host fabric to its home board, where it
// re-enters through the foreigner-buffer path.
//
// The fabric is a first-class DES shard (global shard 0) of one shared
// conservative-lookahead ParallelSimulator; board d owns the contiguous
// global slice [1 + d*(1+C), 1 + (d+1)*(1+C)) where C is the per-SSD
// channel count. Every board→fabric and fabric→board message is a
// cross-shard event with at least one hop latency (>= the lookahead
// window), so the whole array stays bit-identical for any --sim-threads.
//
// Fabric model: a central switch with one full-duplex link per board.
// A forwarded batch pays one hop up, serializes over the source board's
// uplink, then over the destination's downlink, and pays one hop down.
// Job/run completion is decided solely by the fabric coordinator from the
// boards' completion-delta notifications, then broadcast back — no board
// ever terminates on its own (its local view undercounts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/array/array_config.hpp"
#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "accel/service/job.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/resource.hpp"

namespace fw::accel::array {

/// Host-fabric traffic totals for one array run.
struct FabricStats {
  Tick link_ns = 0;  ///< effective per-hop latency (config floored to lookahead)
  std::uint64_t batches = 0;  ///< forwarded batches switched
  std::uint64_t walks = 0;    ///< walks inside those batches
  std::uint64_t bytes = 0;    ///< serialized walk bytes moved
  std::uint64_t job_notifications = 0;  ///< completion-delta messages received
  Tick uplink_busy_ns = 0;    ///< summed across boards
  Tick downlink_busy_ns = 0;
};

struct ArrayResult {
  std::uint32_t devices = 1;
  Tick exec_time = 0;  ///< tick the coordinator observed array-wide completion
  /// Metrics merged (summed) across boards; walk totals are exact because
  /// every counter is a sum and each walk completes on exactly one board.
  EngineMetrics metrics;
  FabricStats fabric;
  /// Per-board results, indexed by device.
  std::vector<EngineResult> boards;
  /// Array-wide per-job stats: walks/steps/parked summed over boards,
  /// `completed` is the coordinator's job-done tick.
  std::vector<service::JobStats> jobs;
  std::vector<std::uint64_t> visit_counts;     ///< merged, when recorded
  std::vector<std::uint64_t> endpoint_counts;  ///< merged, when recorded
  /// DES windows the array's simulator executed, and shard drain passes
  /// (fabric and every board) that executed at least one event.
  std::uint64_t windows = 0;
  std::uint64_t shard_passes = 0;

  [[nodiscard]] double walks_per_sec() const {
    if (exec_time == 0) return 0.0;
    return static_cast<double>(metrics.walks_completed) * 1e9 /
           static_cast<double>(exec_time);
  }
};

class BoardArray {
 public:
  /// Builds `cfg.array.devices` boards over one partitioned graph. Throws
  /// std::invalid_argument for configurations the array cannot honor
  /// (tracing, path recording, zero-walk jobs under an admission cap).
  BoardArray(const partition::PartitionedGraph& pg, SimulationConfig cfg);
  ~BoardArray();

  BoardArray(const BoardArray&) = delete;
  BoardArray& operator=(const BoardArray&) = delete;

  /// Execute the workload across the array to completion (call once).
  ArrayResult run();

  [[nodiscard]] std::uint32_t devices() const { return acfg_.devices; }

 private:
  [[nodiscard]] sim::ShardId board_base(std::uint32_t d) const {
    return 1 + static_cast<sim::ShardId>(d) * local_shards_;
  }
  [[nodiscard]] sim::Shard& fabric() { return psim_->shard(0); }

  // Fabric-shard handlers (single-threaded within the fabric shard).
  void fabric_forward(std::uint32_t src, std::uint32_t dst,
                      std::vector<rw::Walk> walks);
  void fabric_tally(std::vector<std::pair<std::uint16_t, std::uint64_t>> deltas);
  void finish_job_global(std::uint16_t j);
  void finish_run_global();

  const partition::PartitionedGraph* pg_;
  SimulationConfig cfg_;
  ArrayConfig acfg_;
  Tick hop_ns_ = 0;           ///< per-hop latency, >= the lookahead window
  sim::ShardId local_shards_ = 0;  ///< shards per board (1 board + C channels)
  std::uint64_t walk_bytes_ = 0;   ///< serialized bytes per forwarded walk

  std::unique_ptr<sim::ParallelSimulator> psim_;
  /// Per device: the attachment binding board d to the array, then its
  /// engine. Each engine points at its attachment for its whole lifetime,
  /// so attachments sit at stable addresses and are declared before the
  /// engines (destroyed after them).
  std::vector<std::unique_ptr<ArrayAttachment>> attachments_;
  std::vector<std::unique_ptr<FlashWalkerEngine>> boards_;
  std::vector<sim::BandwidthLink> uplinks_;    // board → switch, per device
  std::vector<sim::BandwidthLink> downlinks_;  // switch → board, per device

  // Coordinator job ledger (fabric shard only).
  std::vector<service::WalkJob> job_defs_;
  std::vector<std::uint64_t> job_expected_;
  std::vector<std::uint64_t> job_completed_;
  std::vector<Tick> job_done_tick_;
  std::uint64_t total_expected_ = 0;
  std::uint64_t total_completed_ = 0;
  bool done_ = false;
  Tick done_tick_ = 0;
  bool ran_ = false;

  FabricStats fabric_stats_;
};

}  // namespace fw::accel::array
