// Fully-associative translation lookaside buffer with LRU replacement.
//
// Separate instances model the iTLB and dTLB; the PMU counts their load
// misses (iTLB-load-misses is one of the paper's 16 features).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace hmd::hwsim {

/// TLB geometry.
struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bits = 12;  ///< 4 KiB pages
};

/// Fully-associative TLB, true LRU.
///
/// A hit is found in O(1) through a vpn-hashed slot hint that is always
/// verified against the slot's vpn; only a stale hint or a miss scans the
/// entries. LRU outcomes depend on which pages are resident and their
/// recency order, never on the slot a page sits in, so the hint changes
/// cost, not results.
class Tlb {
 public:
  using Slot = std::uint16_t;
  /// Largest `TlbConfig::entries` a slot hint can address.
  static constexpr std::uint32_t kMaxEntries =
      std::uint32_t{std::numeric_limits<Slot>::max()} + 1;

  explicit Tlb(TlbConfig config = {});

  /// Translates `addr`; returns true on a TLB hit.
  bool access(std::uint64_t addr);

  void flush();

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const;
  void reset_stats();

 private:
  /// A vpn is at most 54 bits (page_bits >= 10), so ~0 never is one.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t hint_index(std::uint64_t vpn) const;

  TlbConfig config_;
  std::vector<std::uint64_t> vpns_;  ///< kEmpty marks an empty entry
  std::vector<std::uint64_t> lru_;   ///< last-use stamp per entry
  std::vector<Slot> hints_;          ///< vpn hash -> slot that may hold it
  std::uint32_t hint_shift_ = 0;
  /// Entries fill from the back and only flush() empties them, so the
  /// empty entries are always the prefix [0, empty_).
  std::uint32_t empty_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hmd::hwsim
