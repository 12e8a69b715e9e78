#include "ssd/flash_array.hpp"

#include <stdexcept>

#include "obs/counters.hpp"

namespace fw::ssd {

FlashArray::FlashArray(const SsdConfig& config)
    : config_(config),
      amap_(config.topo),
      planes_(config.topo.total_planes()),
      channels_(config.topo.channels,
                sim::BandwidthLink(config.timing.channel_mb_per_s,
                                   config.timing.channel_cmd_overhead)) {
  if (config_.reliability.enabled()) {
    rel_ = std::make_unique<reliability::ReliabilityModel>(config_.reliability,
                                                           config_.topo.page_bytes);
    block_pe_ = BlockTable<std::uint32_t>(static_cast<std::size_t>(config_.topo.total_planes()) *
                                          config_.topo.blocks_per_plane);
  }
}

std::uint32_t FlashArray::pe_of(const FlashAddress& a) const {
  return block_pe(amap_.plane_index(a), a.block);
}

std::uint32_t FlashArray::block_pe(std::uint32_t plane_index, std::uint32_t block) const {
  if (rel_ == nullptr) return 0;
  return block_pe_.get(static_cast<std::size_t>(plane_index) * config_.topo.blocks_per_plane +
                       block);
}

void FlashArray::attach_observability(obs::CounterRegistry* registry) {
  // Counters exist only when the fault model is on, so ideal-NAND runs emit
  // exactly the same metrics JSON they did before this subsystem existed.
  if (rel_ == nullptr || registry == nullptr) return;
  c_retried_ = &registry->counter("reliability.retried_reads");
  c_retries_ = &registry->counter("reliability.retries");
  c_corrected_ = &registry->counter("reliability.corrected_bits");
  c_uncorrectable_ = &registry->counter("reliability.uncorrectable");
  c_prog_fail_ = &registry->counter("reliability.program_failures");
  c_erase_fail_ = &registry->counter("reliability.erase_failures");
}

Tick FlashArray::apply_read_fault(Tick now, sim::SerialResource& pl,
                                  const reliability::PageReadFault& fault) {
  // Each retry is a full tR that re-occupies the plane (threshold-shift
  // re-reads are real senses), so downstream reads on this plane queue
  // behind them. Decoding happens in the controller pipeline and does not
  // hold the plane.
  const Tick sensed =
      pl.acquire_n(now, config_.timing.read_latency, 1 + fault.retries);
  read_bytes_ +=
      static_cast<std::uint64_t>(1 + fault.retries) * config_.topo.page_bytes;
  ++page_reads_;
  if (fault.retries > 0) {
    ++rel_stats_.retried_reads;
    rel_stats_.retries += fault.retries;
    if (c_retried_ != nullptr) c_retried_->add(1);
    if (c_retries_ != nullptr) c_retries_->add(fault.retries);
  }
  if (fault.corrected_bits > 0) {
    rel_stats_.corrected_bits += fault.corrected_bits;
    if (c_corrected_ != nullptr) c_corrected_->add(fault.corrected_bits);
  }
  if (fault.uncorrectable) {
    ++rel_stats_.uncorrectable;
    if (c_uncorrectable_ != nullptr) c_uncorrectable_->add(1);
  }
  return sensed + fault.ecc_latency;
}

Tick FlashArray::read_page(Tick now, const FlashAddress& addr, bool over_channel) {
  if (rel_ != nullptr) return read_page_checked(now, addr, over_channel).ready;
  const Tick sensed = plane(addr).acquire(now, config_.timing.read_latency);
  read_bytes_ += config_.topo.page_bytes;
  ++page_reads_;
  if (!over_channel) return sensed;
  return channels_[addr.channel].transfer(sensed, config_.topo.page_bytes);
}

PageReadResult FlashArray::read_page_checked(Tick now, const FlashAddress& addr,
                                             bool over_channel) {
  PageReadResult out;
  if (rel_ == nullptr) {
    out.ready = read_page(now, addr, over_channel);
    return out;
  }
  const reliability::PageReadFault fault =
      rel_->read_fault(amap_.plane_index(addr), addr.block, addr.page, pe_of(addr));
  Tick ready = apply_read_fault(now, plane(addr), fault);
  if (over_channel) {
    // The raw page crosses the bus even when uncorrectable: the controller
    // pulls it out to attempt board-level reconstruction.
    ready = channels_[addr.channel].transfer(ready, config_.topo.page_bytes);
  }
  out.ready = ready;
  out.retries = fault.retries;
  out.corrected_bits = fault.corrected_bits;
  out.uncorrectable = fault.uncorrectable;
  return out;
}

Tick FlashArray::read_chip_pages(Tick now, std::uint32_t channel, std::uint32_t chip,
                                 std::uint32_t start_plane, std::uint32_t num_pages,
                                 bool over_channel) {
  if (rel_ != nullptr) {
    return read_chip_pages_checked(now, channel, chip, start_plane, num_pages,
                                   over_channel)
        .done;
  }
  const std::uint32_t planes = config_.topo.planes_per_chip();
  Tick done = now;
  if (!over_channel) {
    // In-storage fast path (no ONFI transfer): pages stripe round-robin over
    // the chip's planes, and each plane serializes its own reads. Issue one
    // batched reservation per plane — bit-identical timing and accounting to
    // the per-page loop, without a call (and address translation) per page.
    // `plane_read_counts_` is reused across calls so multi-page loads stay
    // allocation-free on the hot path.
    plane_read_counts_.assign(planes, 0);
    for (std::uint32_t i = 0; i < num_pages; ++i) {
      ++plane_read_counts_[(start_plane + i) % planes];
    }
    FlashAddress addr;
    addr.channel = channel;
    addr.chip = chip;
    for (std::uint32_t p = 0; p < planes; ++p) {
      if (plane_read_counts_[p] == 0) continue;
      addr.plane = p;
      const Tick t =
          plane(addr).acquire_n(now, config_.timing.read_latency, plane_read_counts_[p]);
      done = t > done ? t : done;
    }
    read_bytes_ += static_cast<std::uint64_t>(num_pages) * config_.topo.page_bytes;
    page_reads_ += num_pages;
    return done;
  }
  for (std::uint32_t i = 0; i < num_pages; ++i) {
    FlashAddress addr;
    addr.channel = channel;
    addr.chip = chip;
    addr.plane = (start_plane + i) % planes;
    // Block/page within the plane do not affect timing; leave zero.
    const Tick t = read_page(now, addr, over_channel);
    done = t > done ? t : done;
  }
  return done;
}

ChipReadResult FlashArray::read_chip_pages_checked(
    Tick now, std::uint32_t channel, std::uint32_t chip, std::uint32_t start_plane,
    std::uint32_t num_pages, bool over_channel, std::uint64_t fault_base) {
  ChipReadResult out;
  if (rel_ == nullptr) {
    out.done = read_chip_pages(now, channel, chip, start_plane, num_pages, over_channel);
    out.clean_done = out.done;
    return out;
  }
  const std::uint32_t planes = config_.topo.planes_per_chip();
  out.done = now;
  out.clean_done = now;
  bool any_clean = false;
  FlashAddress addr;
  addr.channel = channel;
  addr.chip = chip;
  for (std::uint32_t i = 0; i < num_pages; ++i) {
    addr.plane = (start_plane + i) % planes;
    // Striped reads carry no real block/page address (the graph region is a
    // pre-placed, write-once extent), so the fault draw is keyed on a pseudo
    // physical page derived from `fault_base` — stable per extent, distinct
    // across extents — at wear level zero (the region is never erased).
    const std::uint64_t gp = fault_base + i;
    const auto block = static_cast<std::uint32_t>((gp / config_.topo.pages_per_block) %
                                                  config_.topo.blocks_per_plane);
    const auto page = static_cast<std::uint32_t>(gp % config_.topo.pages_per_block);
    const reliability::PageReadFault fault =
        rel_->read_fault(amap_.plane_index(addr), block, page, /*pe=*/0);
    Tick t = apply_read_fault(now, plane(addr), fault);
    if (over_channel) t = channels_[channel].transfer(t, config_.topo.page_bytes);
    out.done = t > out.done ? t : out.done;
    out.retries += fault.retries;
    out.corrected_bits += fault.corrected_bits;
    if (fault.uncorrectable) {
      ++out.uncorrectable_pages;
    } else if (fault.retries > 0) {
      ++out.retried_pages;
    } else {
      any_clean = true;
      out.clean_done = t > out.clean_done ? t : out.clean_done;
    }
  }
  // With no clean page there is no early activation point; callers wait for
  // the full load.
  if (!any_clean) out.clean_done = out.done;
  return out;
}

Tick FlashArray::program_page(Tick now, const FlashAddress& addr, bool over_channel) {
  if (rel_ != nullptr) return program_page_checked(now, addr, over_channel).done;
  Tick data_at_chip = now;
  if (over_channel) {
    data_at_chip = channels_[addr.channel].transfer(now, config_.topo.page_bytes);
  }
  programmed_bytes_ += config_.topo.page_bytes;
  return plane(addr).acquire(data_at_chip, config_.timing.program_latency);
}

OpResult FlashArray::program_page_checked(Tick now, const FlashAddress& addr,
                                          bool over_channel) {
  OpResult out;
  if (rel_ == nullptr) {
    out.done = program_page(now, addr, over_channel);
    return out;
  }
  Tick data_at_chip = now;
  if (over_channel) {
    data_at_chip = channels_[addr.channel].transfer(now, config_.topo.page_bytes);
  }
  programmed_bytes_ += config_.topo.page_bytes;
  out.done = plane(addr).acquire(data_at_chip, config_.timing.program_latency);
  // `pe_of` distinguishes generations: in a log-structured FTL a page is
  // programmed once per erase cycle of its block.
  if (rel_->program_fails(amap_.plane_index(addr), addr.block, addr.page, pe_of(addr))) {
    out.failed = true;
    ++rel_stats_.program_failures;
    if (c_prog_fail_ != nullptr) c_prog_fail_->add(1);
  }
  return out;
}

Tick FlashArray::erase_block(Tick now, const FlashAddress& addr) {
  if (rel_ != nullptr) return erase_block_checked(now, addr).done;
  ++erase_count_;
  return plane(addr).acquire(now, config_.timing.erase_latency);
}

OpResult FlashArray::erase_block_checked(Tick now, const FlashAddress& addr) {
  OpResult out;
  if (rel_ == nullptr) {
    out.done = erase_block(now, addr);
    return out;
  }
  ++erase_count_;
  out.done = plane(addr).acquire(now, config_.timing.erase_latency);
  if (rel_->erase_fails(amap_.plane_index(addr), addr.block, pe_of(addr))) {
    out.failed = true;
    ++rel_stats_.erase_failures;
    if (c_erase_fail_ != nullptr) c_erase_fail_->add(1);
  }
  // Wear advances on failure too — the cycle stressed the cells either way.
  block_pe_.mut(static_cast<std::size_t>(amap_.plane_index(addr)) *
                    config_.topo.blocks_per_plane +
                addr.block) += 1;
  return out;
}

Tick FlashArray::channel_transfer(Tick now, std::uint32_t channel, std::uint64_t bytes) {
  if (channel >= channels_.size()) throw std::out_of_range("channel index");
  return channels_[channel].transfer(now, bytes);
}

std::uint64_t FlashArray::channel_bytes() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch.bytes_moved();
  return total;
}

double FlashArray::plane_utilization(Tick elapsed) const {
  if (elapsed == 0 || planes_.empty()) return 0.0;
  Tick busy = 0;
  for (const auto& p : planes_) busy += p.busy_time();
  return static_cast<double>(busy) /
         (static_cast<double>(elapsed) * static_cast<double>(planes_.size()));
}

double FlashArray::channel_utilization(Tick elapsed) const {
  if (elapsed == 0 || channels_.empty()) return 0.0;
  Tick busy = 0;
  for (const auto& ch : channels_) busy += ch.busy_time();
  return static_cast<double>(busy) /
         (static_cast<double>(elapsed) * static_cast<double>(channels_.size()));
}

}  // namespace fw::ssd
