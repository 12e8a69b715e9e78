#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fw::sim {

namespace {
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/// Runs `f`, adding its wall time to `*acc` unless `acc` is null.
template <class F>
void timed(std::uint64_t* acc, F&& f) {
  if (acc == nullptr) {
    f();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto dt = std::chrono::steady_clock::now() - t0;
  *acc += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}
}  // namespace

void Shard::send(ShardId dst, Tick delay, EventFn fn) {
  if (dst == id_) {
    schedule(delay, std::move(fn));
    return;
  }
  if (dst >= owner_->num_shards()) {
    throw std::out_of_range("Shard::send: destination shard out of range");
  }
  if (delay < owner_->lookahead_) {
    throw std::logic_error(
        "Shard::send: cross-shard delay below the conservative lookahead");
  }
  outbox_.push_back(Envelope{now_ + delay, send_seq_++, dst, std::move(fn)});
}

void ParallelSimulator::Barrier::arrive_and_wait() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins > kSpinLimit) std::this_thread::yield();
    }
  }
}

ParallelSimulator::ParallelSimulator(std::uint32_t num_shards, Tick lookahead,
                                     std::uint32_t workers)
    : lookahead_(lookahead),
      workers_(std::clamp<std::uint32_t>(workers, 1,
                                         num_shards == 0 ? 1 : num_shards)),
      barrier_(workers_) {
  if (num_shards == 0) {
    throw std::invalid_argument("ParallelSimulator: need at least one shard");
  }
  if (lookahead == 0) {
    throw std::invalid_argument("ParallelSimulator: lookahead must be >= 1 ns");
  }
  shards_.resize(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].owner_ = this;
    shards_[s].id_ = s;
  }
}

bool ParallelSimulator::idle() const {
  for (const Shard& s : shards_) {
    if (!s.queue_.empty()) return false;
  }
  return true;
}

std::uint64_t ParallelSimulator::events_executed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.executed_;
  return total;
}

std::uint64_t ParallelSimulator::shard_passes() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.passes_;
  return total;
}

std::vector<ThreadTime> ParallelSimulator::thread_times() const {
  std::vector<ThreadTime> out;
  out.reserve(timing_.size());
  for (const PaddedTime& p : timing_) out.push_back(p.t);
  return out;
}

std::optional<Tick> ParallelSimulator::next_window(Tick until) const {
  Tick start = kMaxTick;
  for (const Shard& s : shards_) start = std::min(start, s.next_tick_);
  if (start == kMaxTick || start > until) return std::nullopt;
  Tick end = start + lookahead_;
  if (end < start) end = kMaxTick;  // saturate
  if (until != kMaxTick && end > until + 1) end = until + 1;
  return end;
}

void ParallelSimulator::drain_window(Shard& s, Tick window_end) {
  if (s.next_tick_ < window_end) {
    Tick next = kMaxTick;
    do {
      auto [at, fn] = s.queue_.pop();
      s.now_ = at;
      fn();
      ++s.executed_;
      next = s.queue_.empty() ? kMaxTick : s.queue_.next_tick();
    } while (next < window_end);
    s.next_tick_ = next;
    ++s.passes_;
  }
  // Flush after the pop loop so anything the shard staged during the window
  // crosses via the outbox this barrier. The hook fires even when the shard
  // executed nothing (staging is then necessarily empty), keeping its
  // cadence a pure function of the window schedule.
  if (s.window_flush_) s.window_flush_(s);
}

void ParallelSimulator::merge_outboxes() {
  merge_scratch_.clear();
  for (Shard& src : shards_) {
    for (Shard::Envelope& env : src.outbox_) {
      merge_scratch_.push_back(
          Crossing{env.at, src.id_, env.seq, env.dst, std::move(env.fn)});
    }
    src.outbox_.clear();
  }
  // (tick, src, seq) is a total order — seq is monotone per source — so the
  // destination queues see crossings in a schedule-independent sequence.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const Crossing& a, const Crossing& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (Crossing& c : merge_scratch_) shards_[c.dst].push(c.at, std::move(c.fn));
  merge_scratch_.clear();
}

void ParallelSimulator::record_error(ShardId s, std::exception_ptr e) {
  const std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_ || s < error_shard_) {
    error_ = std::move(e);
    error_shard_ = s;
  }
}

void ParallelSimulator::drain_phase(std::uint32_t thread) {
  timed(time_threads_ ? &timing_[thread].t.busy_ns : nullptr, [this, thread] {
    const Tick end = window_end_;
    // Every shard is drained even after one throws, so the set of throwing
    // shards — and hence the lowest one, whose error run() raises — is a
    // pure function of the window, never of which thread got there first.
    auto drain = [this, end](ShardId s) {
      try {
        drain_window(shards_[s], end);
      } catch (...) {
        record_error(s, std::current_exception());
      }
    };
    if (thread == 0) drain(0);  // the hub stays on the calling thread
    const auto n = static_cast<std::uint32_t>(shards_.size());
    for (;;) {
      const std::uint32_t s = claim_.fetch_add(1, std::memory_order_relaxed);
      if (s >= n) return;
      drain(s);
    }
  });
}

void ParallelSimulator::wait_at_barrier(std::uint32_t thread) {
  timed(time_threads_ ? &timing_[thread].t.wait_ns : nullptr,
        [this] { barrier_.arrive_and_wait(); });
}

void ParallelSimulator::worker_loop(std::uint32_t thread) {
  for (;;) {
    wait_at_barrier(thread);  // caller publishes window_end_ / stop_
    if (stop_.load(std::memory_order_acquire)) return;
    drain_phase(thread);
    wait_at_barrier(thread);  // window complete; the caller merges
  }
}

std::uint64_t ParallelSimulator::run(Tick until) {
  const std::uint64_t before = events_executed();
  if (workers_ == 1) {
    // Inline mode: identical window/merge schedule, no threads.
    while (std::optional<Tick> end = next_window(until)) {
      ++windows_;
      for (Shard& s : shards_) drain_window(s, *end);
      merge_outboxes();
    }
  } else {
    if (time_threads_) timing_.resize(workers_);
    stop_.store(false, std::memory_order_release);
    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (std::uint32_t t = 1; t < workers_; ++t) {
      pool.emplace_back([this, t] { worker_loop(t); });
    }
    // Between the drain barrier and the next release the caller is the only
    // thread touching shard state: the pool sits at the release rendezvous
    // while it merges outboxes and picks the next window. A handler error
    // ends the loop after its window, so the pool is stopped and joined
    // before the error leaves run().
    while (std::optional<Tick> end = next_window(until)) {
      ++windows_;
      window_end_ = *end;
      claim_.store(1, std::memory_order_relaxed);
      wait_at_barrier(0);  // release the pool into the window
      drain_phase(0);
      wait_at_barrier(0);  // every shard drained
      if (error_) break;
      merge_outboxes();
    }
    stop_.store(true, std::memory_order_release);
    barrier_.arrive_and_wait();
    for (std::thread& t : pool) t.join();
    if (error_) std::rethrow_exception(error_);
  }
  for (const Shard& s : shards_) now_ = std::max(now_, s.now_);
  if (idle() && until != kMaxTick && now_ < until) now_ = until;
  return events_executed() - before;
}

}  // namespace fw::sim
