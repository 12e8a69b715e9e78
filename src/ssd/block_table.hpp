// Per-block state sized by the blocks a run touches, not by device geometry.
//
// A default device has ~2M blocks per board, but a run writes a few thousand
// pages. `BlockTable` splits the index space into fixed-size chunks that are
// allocated (value-initialized) on the first mutable access; a block in a
// chunk that was never allocated reads as `T{}`. Iteration visits allocated
// chunks only, in ascending index order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fw::ssd {

template <typename T, std::size_t kChunk = 64>
class BlockTable {
 public:
  BlockTable() = default;
  explicit BlockTable(std::size_t size) : size_(size), chunks_((size + kChunk - 1) / kChunk) {}
  // Move-only, and visibly so: containers of structs holding a table must
  // relocate them by move (a vector of unique_ptr still claims to be
  // copyable, which would select the copy path).
  BlockTable(const BlockTable&) = delete;
  BlockTable& operator=(const BlockTable&) = delete;
  BlockTable(BlockTable&&) noexcept = default;
  BlockTable& operator=(BlockTable&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Read-only view; never allocates. Untouched blocks read as `T{}`.
  [[nodiscard]] const T& get(std::size_t i) const {
    const auto& c = chunks_[i / kChunk];
    return c ? (*c)[i % kChunk] : kZero;
  }

  /// Mutable access; allocates the block's chunk on first use.
  T& mut(std::size_t i) {
    auto& c = chunks_[i / kChunk];
    if (!c) {
      c = std::make_unique<Chunk>();
      ++allocated_;
    }
    return (*c)[i % kChunk];
  }

  /// True once every chunk has been allocated (no block reads as `T{}`
  /// merely for being untouched).
  [[nodiscard]] bool fully_allocated() const { return allocated_ == chunks_.size(); }

  /// Heap bytes held: the chunk index plus every allocated chunk.
  [[nodiscard]] std::size_t bytes() const {
    return chunks_.capacity() * sizeof(chunks_[0]) + allocated_ * sizeof(Chunk);
  }

  /// Calls `f(index, const T&)` for every block in an allocated chunk,
  /// ascending. Blocks outside allocated chunks are skipped.
  template <typename F>
  void for_each_allocated(F&& f) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (!chunks_[c]) continue;
      const std::size_t base = c * kChunk;
      const std::size_t end = std::min(kChunk, size_ - base);
      for (std::size_t k = 0; k < end; ++k) f(base + k, (*chunks_[c])[k]);
    }
  }

 private:
  using Chunk = std::array<T, kChunk>;
  static inline const T kZero{};

  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t allocated_ = 0;
};

}  // namespace fw::ssd
