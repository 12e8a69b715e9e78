// NAND flash timing model: per-plane serial resources + per-channel ONFI
// bus links, with byte accounting for the Fig 6/8 metrics.
//
// This is a *timing calculator*: callers pass `now` and get completion
// ticks; the engine owns event scheduling. Two read paths exist on purpose:
//   - `over_channel = false`: a chip-level accelerator pulling a page from
//     its own planes (the in-storage fast path — no ONFI transfer);
//   - `over_channel = true`: data leaving the chip over the channel bus
//     (host reads, and board/channel-level accelerator fills).
//
// When `config.reliability` is enabled the array owns the NAND fault oracle
// (src/ssd/reliability): every read runs the RBER -> ECC -> read-retry
// pipeline (each retry is a full tR that re-occupies the plane), and
// program/erase operations can fail so the FTL grows bad blocks. The
// `*_checked` entry points expose the fault outcome; the legacy signatures
// delegate to them and keep their exact pre-reliability timing when the
// model is off.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/resource.hpp"
#include "ssd/address.hpp"
#include "ssd/block_table.hpp"
#include "ssd/config.hpp"
#include "ssd/reliability/reliability_model.hpp"

namespace fw::obs {
class Counter;
class CounterRegistry;
}  // namespace fw::obs

namespace fw::ssd {

/// Outcome of one checked page read.
struct PageReadResult {
  Tick ready = 0;  ///< data available at the requested boundary
  std::uint32_t retries = 0;
  std::uint32_t corrected_bits = 0;
  bool uncorrectable = false;
};

/// Aggregate outcome of one checked multi-page chip read.
struct ChipReadResult {
  Tick done = 0;        ///< everything available, including retried pages
  Tick clean_done = 0;  ///< pages that cleared ECC without a retry
  std::uint32_t retried_pages = 0;
  std::uint32_t uncorrectable_pages = 0;
  std::uint64_t retries = 0;
  std::uint64_t corrected_bits = 0;
};

/// Outcome of a checked program/erase operation.
struct OpResult {
  Tick done = 0;
  bool failed = false;
};

/// Array-level reliability accounting (all zero when the model is off).
struct ReliabilityStats {
  std::uint64_t retried_reads = 0;   ///< page reads needing >= 1 retry
  std::uint64_t retries = 0;         ///< total extra tR re-reads
  std::uint64_t corrected_bits = 0;  ///< ECC corrections on successful passes
  std::uint64_t uncorrectable = 0;   ///< reads that exhausted the ladder
  std::uint64_t program_failures = 0;
  std::uint64_t erase_failures = 0;
};

class FlashArray {
 public:
  explicit FlashArray(const SsdConfig& config);

  [[nodiscard]] const SsdConfig& config() const { return config_; }
  [[nodiscard]] const AddressMap& address_map() const { return amap_; }

  /// Read one page; returns the tick at which its data is available at the
  /// requested boundary (plane register, or channel output).
  Tick read_page(Tick now, const FlashAddress& addr, bool over_channel);

  /// Read one page with the fault outcome exposed.
  PageReadResult read_page_checked(Tick now, const FlashAddress& addr,
                                   bool over_channel);

  /// Read `num_pages` pages of one chip, striped round-robin over its
  /// planes starting at `start_plane`. Returns the last completion tick.
  Tick read_chip_pages(Tick now, std::uint32_t channel, std::uint32_t chip,
                       std::uint32_t start_plane, std::uint32_t num_pages,
                       bool over_channel);

  /// Striped chip read with per-page fault outcomes folded into an
  /// aggregate. `fault_base` keys the fault draws (callers pass a stable
  /// per-extent page number, e.g. the subgraph's first PPN, so distinct
  /// extents see distinct fault populations); the graph region is
  /// write-once, so these reads charge wear level zero.
  ChipReadResult read_chip_pages_checked(Tick now, std::uint32_t channel,
                                         std::uint32_t chip, std::uint32_t start_plane,
                                         std::uint32_t num_pages, bool over_channel,
                                         std::uint64_t fault_base = 0);

  /// Program one page (data reaches the chip over the channel unless the
  /// writer sits inside it).
  Tick program_page(Tick now, const FlashAddress& addr, bool over_channel);

  /// Program with the failure outcome exposed (the page is still charged
  /// its program time on failure — the chip reports status after tPROG).
  OpResult program_page_checked(Tick now, const FlashAddress& addr, bool over_channel);

  Tick erase_block(Tick now, const FlashAddress& addr);

  /// Erase with the failure outcome exposed; wear advances either way.
  OpResult erase_block_checked(Tick now, const FlashAddress& addr);

  /// Transfer `bytes` of non-page data (commands, roving walks) over a
  /// channel bus.
  Tick channel_transfer(Tick now, std::uint32_t channel, std::uint64_t bytes);

  // --- accounting -------------------------------------------------------
  [[nodiscard]] std::uint64_t read_bytes() const { return read_bytes_; }
  [[nodiscard]] std::uint64_t programmed_bytes() const { return programmed_bytes_; }
  [[nodiscard]] std::uint64_t channel_bytes() const;
  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  [[nodiscard]] std::uint64_t page_reads() const { return page_reads_; }

  [[nodiscard]] double plane_utilization(Tick elapsed) const;
  [[nodiscard]] double channel_utilization(Tick elapsed) const;

  /// Earliest tick at which the given plane is free (for idle checks).
  [[nodiscard]] Tick plane_busy_until(std::uint32_t plane_index) const {
    return planes_[plane_index].busy_until();
  }

  // --- reliability ------------------------------------------------------
  [[nodiscard]] bool reliability_enabled() const { return rel_ != nullptr; }
  [[nodiscard]] const ReliabilityStats& reliability_stats() const { return rel_stats_; }
  /// P/E cycles of (global plane, block); zero when the model is off.
  [[nodiscard]] std::uint32_t block_pe(std::uint32_t plane_index,
                                       std::uint32_t block) const;

  /// Mirror reliability events into live `reliability.*` counters (no-op
  /// when the model is off). The registry must outlive the array.
  void attach_observability(obs::CounterRegistry* registry);

 private:
  sim::SerialResource& plane(const FlashAddress& a) {
    return planes_[amap_.plane_index(a)];
  }
  [[nodiscard]] std::uint32_t pe_of(const FlashAddress& a) const;
  /// Fold one read fault into stats/counters and charge the plane the
  /// retry re-reads. Returns the sense-complete tick (ECC latency included).
  Tick apply_read_fault(Tick now, sim::SerialResource& pl,
                        const reliability::PageReadFault& fault);

  SsdConfig config_;
  AddressMap amap_;
  std::vector<sim::SerialResource> planes_;    // one per physical plane
  std::vector<sim::BandwidthLink> channels_;   // one ONFI bus per channel
  /// Per-plane page tallies for batched in-chip reads; a member (not a
  /// local) so the hot multi-page path never touches the allocator.
  std::vector<std::uint64_t> plane_read_counts_;
  std::uint64_t read_bytes_ = 0;
  std::uint64_t programmed_bytes_ = 0;
  std::uint64_t erase_count_ = 0;
  std::uint64_t page_reads_ = 0;

  std::unique_ptr<reliability::ReliabilityModel> rel_;  ///< null = ideal NAND
  BlockTable<std::uint32_t> block_pe_;  ///< wear, plane-major (model on only)
  ReliabilityStats rel_stats_;
  obs::Counter* c_retried_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_corrected_ = nullptr;
  obs::Counter* c_uncorrectable_ = nullptr;
  obs::Counter* c_prog_fail_ = nullptr;
  obs::Counter* c_erase_fail_ = nullptr;
};

}  // namespace fw::ssd
