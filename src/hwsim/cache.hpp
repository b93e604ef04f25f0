// Set-associative cache model with true-LRU replacement.
//
// Timing is not modeled here; the Core charges miss penalties. The cache
// only answers hit/miss and maintains per-port access statistics, which is
// all the PMU needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hmd::hwsim {

/// Victim selection policy.
enum class ReplacementPolicy : std::uint8_t {
  kLru,         ///< true LRU (default; what the thesis's Haswell models)
  kRoundRobin,  ///< per-set rotating pointer (FIFO-like; common in L1I)
  kRandom,      ///< pseudo-random way (deterministic xorshift)
};

/// Geometry of one cache level.
struct CacheConfig {
  std::string name;              ///< e.g. "L1D"
  std::uint64_t size_bytes = 0;  ///< total capacity
  std::uint32_t ways = 1;        ///< associativity
  std::uint32_t line_bytes = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  std::uint64_t num_sets() const;
  /// Validates the geometry (power-of-two sets/lines, size divisible).
  void validate() const;
};

/// Result of a single cache access.
struct CacheAccessResult {
  bool hit = false;
  /// True when the access victimized a dirty line (write-back traffic).
  bool writeback = false;
};

/// One level of a write-back, write-allocate cache with true LRU.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Performs a load (`is_store == false`) or store at `addr`.
  CacheAccessResult access(std::uint64_t addr, bool is_store);

  /// Installs the line containing `addr` without counting demand
  /// statistics (prefetch fills). Returns hit=true when the line was
  /// already present; writeback reports a dirty eviction.
  CacheAccessResult fill(std::uint64_t addr);

  /// Invalidate everything (e.g. between sandboxed runs).
  void flush();

  const CacheConfig& config() const { return config_; }
  std::uint64_t loads() const { return loads_; }
  std::uint64_t stores() const { return stores_; }
  std::uint64_t load_misses() const { return load_misses_; }
  std::uint64_t store_misses() const { return store_misses_; }
  std::uint64_t accesses() const { return loads_ + stores_; }
  std::uint64_t misses() const { return load_misses_ + store_misses_; }
  double miss_rate() const;
  void reset_stats();

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint32_t lru = 0;  ///< higher = more recently used
    bool valid = false;
    bool dirty = false;
  };

  CacheConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::vector<Line> lines_;  ///< sets * ways, row-major by set
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t load_misses_ = 0;
  std::uint64_t store_misses_ = 0;
  std::uint32_t lru_clock_ = 0;
  std::vector<std::uint32_t> rr_next_;  ///< round-robin pointer per set
  std::uint64_t rand_state_ = 0x9e3779b97f4a7c15ull;  ///< xorshift64 state

  Line* set_begin(std::uint64_t set);
  /// Looks up the line and installs it on a miss: the shared body of
  /// access() and fill(). A store marks the line dirty.
  CacheAccessResult touch(std::uint64_t addr, bool is_store);
  Line* choose_victim(Line* set_lines, std::uint64_t set);
};

/// Haswell-i5-4590-shaped cache geometry (per the thesis's test machine).
CacheConfig haswell_l1i();
CacheConfig haswell_l1d();
CacheConfig haswell_l2();
CacheConfig haswell_llc();

/// Miniature geometry for miniaturized sampling windows.
///
/// The collector simulates each 10 ms window with a few thousand retired
/// ops standing in for the ~30 M a real window retires. For cache behaviour
/// to reach the same steady state (capacity misses, dirty write-backs →
/// node-store traffic) at that scale, capacities are shrunk by a matching
/// factor while keeping the Haswell shape (associativity, 3 levels, line
/// size). See DESIGN.md "miniature machine" for the calibration argument.
CacheConfig miniature_l1i();
CacheConfig miniature_l1d();
CacheConfig miniature_l2();
CacheConfig miniature_llc();

}  // namespace hmd::hwsim
