#include "accel/array/board_array.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "accel/lookahead.hpp"
#include "rw/model/registry.hpp"
#include "rw/walk.hpp"

namespace fw::accel::array {

BoardArray::BoardArray(const partition::PartitionedGraph& pg, SimulationConfig cfg)
    : pg_(&pg), cfg_(std::move(cfg)), acfg_(cfg_.array) {
  if (acfg_.devices == 0) {
    throw std::invalid_argument("BoardArray: device count must be >= 1");
  }
  if (acfg_.devices > 256) {
    throw std::invalid_argument("BoardArray: at most 256 boards (device column is a byte)");
  }
  if (acfg_.forward_batch == 0) {
    throw std::invalid_argument("BoardArray: forward_batch must be >= 1");
  }
  if (cfg_.trace != nullptr) {
    throw std::invalid_argument("BoardArray: tracing requires a single-device run");
  }
  if (cfg_.record_paths) {
    throw std::invalid_argument(
        "BoardArray: path recording is single-device only (a forwarded walk's "
        "path would be split across boards)");
  }
  acfg_.forward_timeout_ns = std::max<Tick>(acfg_.forward_timeout_ns, 1);

  // Coordinator job ledger — mirrors the engine's job-table derivation so
  // every board and the coordinator agree on job ids, weights, and expected
  // walk counts.
  if (!cfg_.jobs.empty()) {
    job_defs_ = cfg_.jobs;
  } else {
    service::WalkJob j;
    j.name = "default";
    j.spec = cfg_.spec;
    job_defs_.push_back(std::move(j));
  }
  std::uint64_t max_state_bytes = 0;
  for (auto& def : job_defs_) {
    if (def.weight == 0) def.weight = service::qos_weight(def.qos);
    const std::uint64_t expected =
        service::expected_walks(def.spec, pg.graph().num_vertices());
    if (expected == 0 && cfg_.policy.max_concurrent_jobs > 0) {
      // The coordinator finishes zero-walk jobs at their arrival tick, but
      // under an admission cap a board may still be queueing the job then —
      // the finish broadcast would release a slot the board never took.
      throw std::invalid_argument(
          "BoardArray: zero-walk jobs are unsupported under "
          "policy.max_concurrent_jobs");
    }
    job_expected_.push_back(expected);
    total_expected_ += expected;
    max_state_bytes = std::max(max_state_bytes,
                               rw::model_state_bytes(def.spec, pg.id_bytes()));
  }
  job_completed_.assign(job_defs_.size(), 0);
  job_done_tick_.assign(job_defs_.size(), 0);
  // Forwarded walks carry their model state across the fabric (mirrors the
  // engine's walk_bytes_ derivation).
  walk_bytes_ = rw::walk_bytes(pg.id_bytes()) + max_state_bytes;

  // One shared conservative-lookahead simulator: fabric = global shard 0,
  // board d owns [1 + d*(1+C), 1 + (d+1)*(1+C)) — its board shard then one
  // per channel (see engine.hpp). Fabric messages ride the same window
  // protocol as everything else, floored to the lookahead.
  const Tick lookahead = conservative_lookahead_ns(cfg_.accel, cfg_.ssd);
  hop_ns_ = std::max(acfg_.link_ns, lookahead);
  local_shards_ = accel::FlashWalkerEngine::local_shard_count(cfg_.ssd);
  const std::uint32_t total_shards = 1 + acfg_.devices * local_shards_;
  psim_ = std::make_unique<sim::ParallelSimulator>(total_shards, lookahead,
                                                   std::max<std::uint32_t>(1, cfg_.sim_threads));
  psim_->set_thread_timing(cfg_.shard_audit);

  uplinks_.reserve(acfg_.devices);
  downlinks_.reserve(acfg_.devices);
  for (std::uint32_t d = 0; d < acfg_.devices; ++d) {
    uplinks_.emplace_back(acfg_.link_mb_per_s, 0);
    downlinks_.emplace_back(acfg_.link_mb_per_s, 0);
  }

  attachments_.reserve(acfg_.devices);
  boards_.reserve(acfg_.devices);
  for (std::uint32_t d = 0; d < acfg_.devices; ++d) {
    auto& att = *attachments_.emplace_back(std::make_unique<ArrayAttachment>());
    att.device = d;
    att.devices = acfg_.devices;
    att.shard_base = board_base(d);
    att.psim = psim_.get();
    att.forward_batch = acfg_.forward_batch;
    att.forward_timeout_ns = acfg_.forward_timeout_ns;
    // Board shard → fabric shard: one hop up to the switch. The fabric
    // handler then charges link serialization and the hop down.
    att.forward = [this, d](std::uint32_t dst, std::vector<rw::Walk> walks) {
      psim_->shard(board_base(d)).send(
          0, hop_ns_, [this, d, dst, ws = std::move(walks)]() mutable {
            fabric_forward(d, dst, std::move(ws));
          });
    };
    att.notify_completed =
        [this, d](std::vector<std::pair<std::uint16_t, std::uint64_t>> deltas) {
          psim_->shard(board_base(d))
              .send(0, hop_ns_, [this, ds = std::move(deltas)]() mutable {
                fabric_tally(std::move(ds));
              });
        };
    boards_.push_back(std::make_unique<FlashWalkerEngine>(
        pg, static_cast<const EngineOptions&>(cfg_), &att,
        FlashWalkerEngine::BuildAccess{}));
  }
}

BoardArray::~BoardArray() = default;

void BoardArray::fabric_forward(std::uint32_t src, std::uint32_t dst,
                                std::vector<rw::Walk> walks) {
  const std::uint64_t bytes = walks.size() * walk_bytes_;
  ++fabric_stats_.batches;
  fabric_stats_.walks += walks.size();
  fabric_stats_.bytes += bytes;
  // Store-and-forward through the switch: the batch serializes over the
  // source board's uplink, then the destination's downlink, then pays the
  // switch→board hop. Links are FIFO (BandwidthLink), so contention from
  // other batches sharing a link is modeled as queueing delay.
  const Tick now = fabric().now();
  const Tick up_done = uplinks_[src].transfer(now, bytes);
  const Tick down_done = downlinks_[dst].transfer(up_done, bytes);
  const Tick delay = (down_done - now) + hop_ns_;
  fabric().send(board_base(dst), delay, [this, dst, ws = std::move(walks)]() mutable {
    boards_[dst]->receive_forwarded(std::move(ws));
  });
}

void BoardArray::fabric_tally(
    std::vector<std::pair<std::uint16_t, std::uint64_t>> deltas) {
  ++fabric_stats_.job_notifications;
  for (const auto& [j, n] : deltas) {
    job_completed_[j] += n;
    total_completed_ += n;
    if (job_completed_[j] == job_expected_[j]) finish_job_global(j);
  }
  if (!done_ && total_completed_ == total_expected_) finish_run_global();
}

void BoardArray::finish_job_global(std::uint16_t j) {
  const Tick now = fabric().now();
  job_done_tick_[j] = now;
  // Broadcast so every board retires the job (admission slots, queued-job
  // drain) at the same tick. Per-board finalize rebuilds full stats; the
  // on_complete callback fires here with the coordinator's view (walks and
  // completion tick; steps are only known post-run).
  for (std::uint32_t d = 0; d < acfg_.devices; ++d) {
    fabric().send(board_base(d), hop_ns_,
                  [this, d, j, now] { boards_[d]->array_finish_job(j, now); });
  }
  if (job_defs_[j].on_complete) {
    service::JobStats stats;
    stats.id = j;
    stats.name = job_defs_[j].name;
    stats.qos = job_defs_[j].qos;
    stats.weight = job_defs_[j].weight;
    stats.walks = job_completed_[j];
    stats.arrival = job_defs_[j].arrival;
    stats.admitted = job_defs_[j].arrival;
    stats.completed = now;
    job_defs_[j].on_complete(stats);
  }
}

void BoardArray::finish_run_global() {
  done_ = true;
  done_tick_ = fabric().now();
  for (std::uint32_t d = 0; d < acfg_.devices; ++d) {
    fabric().send(board_base(d), hop_ns_,
                  [this, d] { boards_[d]->array_finish_run(done_tick_); });
  }
}

ArrayResult BoardArray::run() {
  if (ran_) throw std::logic_error("BoardArray::run called twice");
  ran_ = true;

  for (auto& b : boards_) b->prime();
  // Coordinator bootstrap, mirroring standalone semantics: a zero-walk job
  // completes at its arrival tick; an entirely empty workload at tick 0.
  for (std::uint16_t j = 0; j < job_defs_.size(); ++j) {
    if (job_expected_[j] == 0) {
      fabric().schedule_at(job_defs_[j].arrival, [this, j] { finish_job_global(j); });
    }
  }
  if (total_expected_ == 0) {
    fabric().schedule_at(0, [this] { finish_run_global(); });
  }

  psim_->run();
  if (!done_) {
    throw std::runtime_error(
        "BoardArray: simulator drained before array-wide completion "
        "(forwarded walks lost?)");
  }

  ArrayResult r;
  r.devices = acfg_.devices;
  r.exec_time = done_tick_;
  r.windows = psim_->windows();
  r.shard_passes = psim_->shard_passes();
  r.fabric = fabric_stats_;
  r.fabric.link_ns = hop_ns_;
  for (std::uint32_t d = 0; d < acfg_.devices; ++d) {
    r.fabric.uplink_busy_ns += uplinks_[d].busy_time();
    r.fabric.downlink_busy_ns += downlinks_[d].busy_time();
  }

  r.boards.reserve(acfg_.devices);
  for (auto& b : boards_) r.boards.push_back(b->finalize());

  std::uint64_t out = 0;
  std::uint64_t in = 0;
  for (const EngineResult& br : r.boards) {
    r.metrics += br.metrics;
    out += br.metrics.forwarded_out_walks;
    in += br.metrics.forwarded_in_walks;
    if (!br.visit_counts.empty()) {
      r.visit_counts.resize(br.visit_counts.size(), 0);
      for (std::size_t v = 0; v < br.visit_counts.size(); ++v) {
        r.visit_counts[v] += br.visit_counts[v];
      }
    }
    if (!br.endpoint_counts.empty()) {
      r.endpoint_counts.resize(br.endpoint_counts.size(), 0);
      for (std::size_t v = 0; v < br.endpoint_counts.size(); ++v) {
        r.endpoint_counts[v] += br.endpoint_counts[v];
      }
    }
  }
  // Conservation across the fabric: every forwarded walk left exactly one
  // board, crossed the switch once per forward, and landed on exactly one.
  if (r.metrics.walks_completed != total_expected_ || out != in ||
      out != fabric_stats_.walks) {
    throw std::runtime_error("BoardArray: walk conservation violated across the fabric");
  }

  r.jobs.reserve(job_defs_.size());
  for (std::uint16_t j = 0; j < job_defs_.size(); ++j) {
    service::JobStats s;
    s.id = j;
    s.name = job_defs_[j].name;
    s.qos = job_defs_[j].qos;
    s.weight = job_defs_[j].weight;
    s.arrival = job_defs_[j].arrival;
    s.walks = job_completed_[j];
    s.completed = job_done_tick_[j];
    for (const EngineResult& br : r.boards) {
      if (j < br.jobs.size()) {
        s.steps += br.jobs[j].stats.steps;
        s.parked_walks += br.jobs[j].stats.parked_walks;
      }
    }
    // Admission is synchronized across boards (same arrival ticks, same
    // finish broadcasts), so board 0's admitted tick is the array's.
    if (!r.boards.empty() && j < r.boards[0].jobs.size()) {
      s.admitted = r.boards[0].jobs[j].stats.admitted;
    }
    r.jobs.push_back(std::move(s));
  }
  return r;
}

}  // namespace fw::accel::array
