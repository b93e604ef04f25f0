#include "hwsim/tlb.hpp"

#include <bit>

#include "util/error.hpp"

namespace hmd::hwsim {

Tlb::Tlb(TlbConfig config) : config_(config) {
  HMD_REQUIRE(config_.entries > 0, "TlbConfig::entries must be at least 1");
  HMD_REQUIRE(config_.entries <= kMaxEntries,
              "TlbConfig::entries must be at most 65536");
  HMD_REQUIRE(config_.page_bits >= 10 && config_.page_bits <= 30,
              "TlbConfig::page_bits must be in [10, 30]");
  vpns_.assign(config_.entries, kEmpty);
  lru_.assign(config_.entries, 0);
  // Four hint buckets per entry keep collisions between resident pages,
  // and so the fallback scan on a hit, rare.
  const std::uint64_t buckets =
      std::bit_ceil(4 * static_cast<std::uint64_t>(config_.entries));
  hint_shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(buckets));
  hints_.assign(buckets, 0);
  empty_ = config_.entries;
}

std::size_t Tlb::hint_index(std::uint64_t vpn) const {
  // Fibonacci hashing: the high bits of vpn * 2^64/phi.
  return static_cast<std::size_t>((vpn * 0x9e3779b97f4a7c15ull) >> hint_shift_);
}

bool Tlb::access(std::uint64_t addr) {
  ++accesses_;
  ++lru_clock_;
  const std::uint64_t vpn = addr >> config_.page_bits;

  Slot& hint = hints_[hint_index(vpn)];
  if (vpns_[hint] == vpn) {
    lru_[hint] = lru_clock_;
    return true;
  }
  // The hint names another page (a hash collision, or its slot was
  // reused); the page may still be resident in a different slot.
  for (std::uint32_t s = empty_; s < config_.entries; ++s) {
    if (vpns_[s] == vpn) {
      lru_[s] = lru_clock_;
      hint = static_cast<Slot>(s);
      return true;
    }
  }

  ++misses_;
  // Victim: the last empty entry, else the least recently used one.
  std::uint32_t victim = 0;
  if (empty_ > 0) {
    victim = --empty_;
  } else {
    // Stamps are distinct; select rather than branch on the minimum.
    std::uint64_t oldest = lru_[0];
    for (std::uint32_t s = 1; s < config_.entries; ++s) {
      const bool older = lru_[s] < oldest;
      oldest = older ? lru_[s] : oldest;
      victim = older ? s : victim;
    }
  }
  vpns_[victim] = vpn;
  lru_[victim] = lru_clock_;
  hint = static_cast<Slot>(victim);
  return false;
}

void Tlb::flush() {
  vpns_.assign(vpns_.size(), kEmpty);
  empty_ = config_.entries;
  lru_clock_ = 0;
}

double Tlb::miss_rate() const {
  return accesses_ == 0
             ? 0.0
             : static_cast<double>(misses_) / static_cast<double>(accesses_);
}

void Tlb::reset_stats() {
  accesses_ = 0;
  misses_ = 0;
}

}  // namespace hmd::hwsim
