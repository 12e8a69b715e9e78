#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace fw::sim {
namespace {

/// Cold path for the empty-queue precondition: a thrown logic_error instead
/// of the former assert, which compiled out in Release and left UB.
[[noreturn]] void throw_empty(const char* what) { throw std::logic_error(what); }

/// Heap/sort order: earliest (at, seq) first. Keys are unique (seq is
/// monotone), so plain sort preserves insertion order at equal ticks.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue(std::uint32_t width_log2, std::uint32_t buckets_log2)
    : shift_(width_log2),
      nbuckets_(std::uint64_t{1} << buckets_log2),
      mask_(nbuckets_ - 1),
      buckets_(nbuckets_),
      occupied_((nbuckets_ + 63) / 64, 0) {}

void EventQueue::push(Tick at, EventFn fn) {
  Event ev{at, next_seq_++, std::move(fn)};
  const std::uint64_t bid = bucket_of(at);
  if (bid >= window_end()) {
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  } else {
    if (bid < floor_bid_) rewind_to(bid);
    insert_into_window(std::move(ev));
    ++win_count_;
  }
  ++size_;
}

void EventQueue::insert_into_window(Event ev) {
  const std::uint64_t bid = bucket_of(ev.at);
  assert(bid >= floor_bid_ && bid < window_end());
  std::vector<Event>& b = bucket(bid);
  if (active_ && bid == scan_bid_) {
    // The bucket is mid-drain: keep the remaining suffix sorted. The new
    // event carries the largest seq, so upper_bound on the tick alone is
    // the correct (insertion-order-preserving) position.
    const auto it =
        std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(pos_), b.end(),
                         ev.at, [](Tick t, const Event& e) { return t < e.at; });
    b.insert(it, std::move(ev));
    return;
  }
  b.push_back(std::move(ev));
  mark_occupied(bid);
  if (bid < scan_bid_) {
    // A pop from the scan bucket would have anchored floor_ == scan_, and
    // anything earlier than floor_ takes the rewind path — so the scan
    // bucket is untouched (pos_ == 0) and the cursor can simply back up.
    assert(pos_ == 0);
    scan_bid_ = bid;
    active_ = false;
  }
}

void EventQueue::promote_overflow() {
  while (!overflow_.empty() && bucket_of(overflow_.front().at) < window_end()) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    insert_into_window(std::move(ev));
    ++win_count_;
  }
}

void EventQueue::rewind_to(std::uint64_t bid) {
  // Drop the consumed prefix of the active bucket so a later re-sort cannot
  // resurrect already-delivered events.
  if (active_) {
    std::vector<Event>& b = bucket(scan_bid_);
    b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(pos_));
    if (b.empty()) mark_empty(scan_bid_);
    active_ = false;
    pos_ = 0;
  }
  // The new, earlier window ends sooner: evict events past its end back to
  // the overflow heap. Only occupied buckets are visited, so the cost is
  // O(buckets / 64 + window events).
  const std::uint64_t new_end = bid + nbuckets_;
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t slot = w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      std::vector<Event>& b = buckets_[slot];
      auto keep = b.begin();
      for (auto& ev : b) {
        if (bucket_of(ev.at) >= new_end) {
          overflow_.push_back(std::move(ev));
          std::push_heap(overflow_.begin(), overflow_.end(), Later{});
          --win_count_;
        } else {
          *keep++ = std::move(ev);
        }
      }
      b.erase(keep, b.end());
      if (b.empty()) mark_empty(slot);
    }
  }
  floor_bid_ = bid;
  scan_bid_ = bid;
}

std::uint64_t EventQueue::next_occupied(std::uint64_t bid) const {
  for (;;) {
    const std::uint64_t i = bid & mask_;
    // Bits at and above slot i in its word. Slots past the ring's end are
    // never set, so a ring smaller than one word needs no extra mask.
    const std::uint64_t bits = occupied_[i >> 6] >> (i & 63);
    if (bits != 0) return bid + static_cast<std::uint64_t>(std::countr_zero(bits));
    bid += std::min<std::uint64_t>(64 - (i & 63), nbuckets_ - i);
    assert(bid < window_end() && "window count out of sync");
  }
}

void EventQueue::settle() {
  assert(size_ > 0 && "EventQueue::settle on empty queue");
  if (active_ && pos_ < bucket(scan_bid_).size()) return;
  if (active_) {
    bucket(scan_bid_).clear();
    mark_empty(scan_bid_);
    active_ = false;
    pos_ = 0;
    ++scan_bid_;
  }
  if (win_count_ == 0) {
    // Window fully drained: jump straight to the earliest overflow event.
    assert(!overflow_.empty());
    floor_bid_ = bucket_of(overflow_.front().at);
    scan_bid_ = floor_bid_;
    promote_overflow();
  }
  scan_bid_ = next_occupied(scan_bid_);
  std::vector<Event>& b = bucket(scan_bid_);
  if (b.size() > 1) {
    std::sort(b.begin(), b.end(), [](const Event& a, const Event& e) {
      return a.at != e.at ? a.at < e.at : a.seq < e.seq;
    });
  }
  active_ = true;
  pos_ = 0;
}

Tick EventQueue::next_tick() {
  if (empty()) throw_empty("EventQueue::next_tick on empty queue");
  settle();
  return bucket(scan_bid_)[pos_].at;
}

std::optional<std::pair<Tick, EventFn>> EventQueue::try_pop() {
  if (empty()) return std::nullopt;
  return pop();
}

std::pair<Tick, EventFn> EventQueue::pop() {
  if (empty()) throw_empty("EventQueue::pop on empty queue");
  settle();
  std::vector<Event>& b = bucket(scan_bid_);
  Event ev = std::move(b[pos_]);
  ++pos_;
  if (pos_ == b.size()) {
    b.clear();
    mark_empty(scan_bid_);
    active_ = false;
    pos_ = 0;
    // Keep scan_ on the drained bucket until floor_ advances below.
  }
  floor_bid_ = scan_bid_;
  if (!active_) ++scan_bid_;
  --win_count_;
  --size_;
  // The window end moved with floor_: pull in any overflow it now covers.
  promote_overflow();
  return {ev.at, std::move(ev.fn)};
}

}  // namespace fw::sim
