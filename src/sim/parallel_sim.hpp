// Conservative-lookahead parallel DES over per-channel event-queue shards.
//
// Each shard owns a private bucketed calendar EventQueue (sim/event_queue)
// plus a clock and a single-writer outbox. Execution proceeds in windows:
// the calling thread takes the globally earliest pending tick `start`, opens
// the window [start, start + lookahead), and every shard drains its own
// queue strictly inside the window with no locks — safe because the model
// guarantees any cross-shard interaction takes at least `lookahead` ns
// (ONFI channel transfer + DRAM hop; see accel/lookahead.hpp and
// docs/MODELING.md "Parallel DES"). Cross-shard sends therefore always land
// at or after the window end; they are parked in the sender's outbox and
// merged at the barrier.
//
// Host cost follows executed events, not the shard count: every shard
// caches its earliest pending tick (lowered on schedule and merge, reset
// exactly when a drain pass ends), so picking the next window reads one
// number per shard, a shard with nothing before the window end is not
// drained at all, and the merge visits one outbox per source shard.
//
// Determinism: the window schedule is a pure function of queue state at
// barriers, each shard executes serially in (tick, seq) order, and the
// barrier merge delivers crossings in ascending (tick, src_shard, seq)
// order into the destination queues — so equal-tick arrivals tie-break by
// source shard then send order, and locally scheduled events (pushed
// earlier, hence smaller destination seq) fire before same-tick crossings.
// None of this depends on the worker count: 1, 2, and 8 workers produce
// bit-identical traces, which tests/parallel_sim_test.cpp pins (and the CI
// TSan job re-checks for data races).
//
// Threading: `workers == 1` runs the identical window/merge schedule
// inline on the caller's thread (no threads spawned). With W > 1 workers,
// run() starts W - 1 pool threads and the calling thread is the W-th: W OS
// threads in total drain shards between two rendezvous of a W-party
// sense-reversing spin-then-yield barrier per window. The caller always
// drains shard 0 — the hub (the board of a standalone engine, the fabric of
// an array), which carries the largest share of events — so its working set
// stays in one core's cache; then it claims shards 1..N-1 alongside the pool
// threads from one relaxed atomic cursor, so each shard is drained exactly
// once per window by whichever thread is free. Alone after the drain
// barrier, the caller merges outboxes and opens the next window.
//
// Exceptions: a handler that throws on any thread is caught there; the
// window still completes its barrier protocol, the pool stops and is
// joined, and run() rethrows on the caller. When several shards throw in
// one window, the exception of the lowest shard id wins — the same one the
// inline mode raises — so the error never depends on thread timing. The
// simulator's shards are then in a partially drained state: do not run it
// again after a throw.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace fw::sim {

/// Identifies one event-queue shard. By engine convention shard 0 is the
/// board/shared-resource shard and shard 1 + c is channel c.
using ShardId = std::uint32_t;

class ParallelSimulator;

/// One event-queue shard: a clock plus a private queue, scheduled locally
/// with `schedule`/`schedule_at` and across shards with `send`.
/// Constructed and owned by ParallelSimulator.
class Shard {
 public:
  Shard() = default;
  Shard(Shard&&) = default;
  Shard& operator=(Shard&&) = default;

  [[nodiscard]] ShardId id() const { return id_; }
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Window drain passes in which this shard executed at least one event.
  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Schedule on this shard, `delay` ns from the shard clock.
  void schedule(Tick delay, EventFn fn) { push(now_ + delay, std::move(fn)); }

  /// Schedule on this shard at absolute tick `at` (clamped to the shard
  /// clock, so an event never fires in the shard's past).
  void schedule_at(Tick at, EventFn fn) { push(at < now_ ? now_ : at, std::move(fn)); }

  /// Schedule on shard `dst`, `delay` ns from this shard's clock. A
  /// self-send degenerates to a local schedule (no lookahead constraint).
  /// Cross-shard sends must respect the conservative window: throws
  /// std::logic_error when `delay` is below the simulator's lookahead, and
  /// std::out_of_range for an unknown destination. The event is parked in
  /// this shard's outbox and delivered at the next window barrier.
  void send(ShardId dst, Tick delay, EventFn fn);

  /// Install a per-window flush hook. When set, the hook runs exactly once
  /// at the end of every drain_window pass over this shard — after the
  /// shard executed its final event of the window, with the shard clock
  /// still at that event's tick — in both inline and threaded modes, so
  /// the hook cadence (and therefore anything it sends) is a pure function
  /// of the window schedule, independent of the worker count. Hooks may
  /// call send but must not schedule local events.
  void set_window_flush(std::function<void(Shard&)> hook) {
    window_flush_ = std::move(hook);
  }

 private:
  friend class ParallelSimulator;

  struct Envelope {
    Tick at;
    std::uint64_t seq;  ///< per-source send order, tie-break within a tick
    ShardId dst;
    EventFn fn;
  };

  void push(Tick at, EventFn fn) {
    next_tick_ = std::min(next_tick_, at);
    queue_.push(at, std::move(fn));
  }

  ParallelSimulator* owner_ = nullptr;
  ShardId id_ = 0;
  Tick now_ = 0;
  /// Earliest pending tick (max Tick when the queue is empty). Exact at
  /// every barrier: push lowers it, a drain pass resets it from the queue.
  Tick next_tick_ = std::numeric_limits<Tick>::max();
  std::uint64_t executed_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t send_seq_ = 0;
  EventQueue queue_;
  std::function<void(Shard&)> window_flush_;
  /// Crossings produced this window, to any destination. Written only by
  /// the thread draining this shard in the window; drained only by the
  /// merge phase.
  std::vector<Envelope> outbox_;
};

/// Wall-clock time one DES thread spent in the drain phase and waiting at
/// window barriers. Recorded only when ParallelSimulator::set_thread_timing
/// is on; host-dependent, so it stays out of every deterministic report.
struct ThreadTime {
  std::uint64_t busy_ns = 0;
  std::uint64_t wait_ns = 0;
};

class ParallelSimulator {
 public:
  /// `lookahead` must be >= 1 ns (the window would otherwise be empty);
  /// `workers` is clamped to [1, num_shards]. Throws std::invalid_argument
  /// on a zero shard count or zero lookahead.
  ParallelSimulator(std::uint32_t num_shards, Tick lookahead,
                    std::uint32_t workers = 1);

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  [[nodiscard]] Shard& shard(ShardId s) { return shards_[s]; }
  [[nodiscard]] const Shard& shard(ShardId s) const { return shards_[s]; }
  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Tick lookahead() const { return lookahead_; }
  [[nodiscard]] std::uint32_t workers() const { return workers_; }

  /// Global completed-through time: the latest shard clock after run(),
  /// advanced to `until` when the run drained every queue before it.
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Windows executed so far; events_executed() / windows() is the mean
  /// work per barrier round.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Sum of Shard::passes(): shard drain passes that executed an event.
  [[nodiscard]] std::uint64_t shard_passes() const;

  /// Run windows until every shard queue drains or the earliest pending
  /// event lies beyond `until`. Returns the number of events executed by
  /// this call across all shards. A handler exception propagates out of
  /// run() at any worker count (see the header comment); the simulator must
  /// not be run again afterwards.
  std::uint64_t run(Tick until = std::numeric_limits<Tick>::max());

  /// Time each DES thread's drain phase and barrier waits in threaded runs
  /// (shard-audit mode). Pure observation: no event order changes.
  void set_thread_timing(bool on) { time_threads_ = on; }
  /// Per-thread times accumulated over all threaded run() calls, index 0 =
  /// the calling thread (the hub's). Empty until a timed threaded run.
  [[nodiscard]] std::vector<ThreadTime> thread_times() const;

 private:
  friend class Shard;

  /// Sense-reversing central barrier over the W window threads (the caller
  /// plus W - 1 pool threads); spins briefly then yields, so it stays live
  /// even when threads outnumber cores.
  class Barrier {
   public:
    explicit Barrier(std::uint32_t parties) : parties_(parties) {}
    void arrive_and_wait();

   private:
    static constexpr int kSpinLimit = 1024;
    const std::uint32_t parties_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
  };

  /// Next window end, or nullopt when nothing remains at or before
  /// `until`. Pure function of the shards' cached next ticks — callers
  /// must hold all pool threads at a barrier.
  [[nodiscard]] std::optional<Tick> next_window(Tick until) const;

  /// Drain one shard's events with tick < window_end (the parallel phase
  /// body; also the inline-mode body), then run the shard's window-flush
  /// hook so staged cross-shard batches leave via the outbox before the
  /// merge barrier. The queue is not touched when the shard's cached next
  /// tick is at or past the window end.
  static void drain_window(Shard& s, Tick window_end);

  /// Deliver every outbox envelope in (tick, src, seq) order (the serial
  /// merge phase).
  void merge_outboxes();

  /// One thread's share of a window: thread 0 (the caller) drains the hub
  /// shard 0, then every thread claims shards from `claim_` until none are
  /// left. Handler exceptions are caught and recorded, never thrown. Timed
  /// into timing_[thread] when enabled.
  void drain_phase(std::uint32_t thread);

  /// Keep the exception of the lowest throwing shard id.
  void record_error(ShardId s, std::exception_ptr e);

  /// Barrier rendezvous, timed into timing_[thread] when enabled.
  void wait_at_barrier(std::uint32_t thread);

  /// Pool thread `thread` (1..W-1): wait for a window, drain its share,
  /// report at the drain barrier; return when the caller publishes stop_.
  void worker_loop(std::uint32_t thread);

  Tick lookahead_;
  std::uint32_t workers_;
  std::vector<Shard> shards_;
  Tick now_ = 0;
  std::uint64_t windows_ = 0;

  // Window-loop rendezvous state (used only when workers_ > 1). The
  // barrier's acquire/release pairs order these plain fields: the caller
  // writes them before releasing the pool into a window, and every thread's
  // drain-phase writes (shard state, error_) are visible to the caller
  // after the drain barrier.
  Barrier barrier_;
  Tick window_end_ = 0;
  std::atomic<bool> stop_{false};
  /// Next shard to claim in the drain phase; reset to 1 by the caller
  /// before each window. Relaxed: fetch_add alone makes claims unique.
  alignas(64) std::atomic<std::uint32_t> claim_{1};

  std::mutex error_mu_;
  std::exception_ptr error_;
  ShardId error_shard_ = 0;

  bool time_threads_ = false;
  struct alignas(64) PaddedTime {
    ThreadTime t;
  };
  std::vector<PaddedTime> timing_;  ///< per-thread slots, one writer each

  struct Crossing {
    Tick at;
    ShardId src;
    std::uint64_t seq;
    ShardId dst;
    EventFn fn;
  };
  std::vector<Crossing> merge_scratch_;
};

}  // namespace fw::sim
