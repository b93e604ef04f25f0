#include "hwsim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::hwsim {
namespace {

CacheConfig tiny_cache(std::uint32_t ways = 2) {
  // 1 KiB, 64 B lines → 16 lines; 2-way → 8 sets.
  return {.name = "T", .size_bytes = 1024, .ways = ways, .line_bytes = 64};
}

TEST(CacheConfig, GeometryComputation) {
  const CacheConfig c = haswell_l1d();
  EXPECT_EQ(c.num_sets(), 64u);  // 32 KiB / 64 B / 8 ways
  c.validate();
}

TEST(CacheConfig, RejectsNonPowerOfTwoLines) {
  CacheConfig c = tiny_cache();
  c.line_bytes = 48;
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(CacheConfig, RejectsIndivisibleCapacity) {
  CacheConfig c{.name = "bad", .size_bytes = 1000, .ways = 2,
                .line_bytes = 64};
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(Cache, FirstAccessMisses) {
  Cache c(tiny_cache());
  const auto r = c.access(0x1000, false);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(c.load_misses(), 1u);
}

TEST(Cache, SecondAccessSameLineHits) {
  Cache c(tiny_cache());
  c.access(0x1000, false);
  const auto r = c.access(0x1020, false);  // same 64B line
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.loads(), 2u);
  EXPECT_EQ(c.load_misses(), 1u);
}

TEST(Cache, DifferentLinesMissIndependently) {
  Cache c(tiny_cache());
  c.access(0x0, false);
  const auto r = c.access(0x40, false);
  EXPECT_FALSE(r.hit);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way set: fill both ways, touch the first, insert a third conflicting
  // line; the second (least recent) must be evicted.
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;  // 8 sets
  c.access(0 * set_stride, false);          // way A
  c.access(1 * set_stride, false);          // way B
  c.access(0 * set_stride, false);          // touch A
  c.access(2 * set_stride, false);          // evicts B
  EXPECT_TRUE(c.access(0 * set_stride, false).hit);   // A still present
  EXPECT_FALSE(c.access(1 * set_stride, false).hit);  // B evicted
}

TEST(Cache, DirtyEvictionSignalsWriteback) {
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;
  c.access(0, true);                       // dirty line in way A
  c.access(1 * set_stride, false);         // way B
  const auto r = c.access(2 * set_stride, false);  // evicts dirty A
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;
  c.access(0, false);
  c.access(1 * set_stride, false);
  const auto r = c.access(2 * set_stride, false);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, StoreMissesCounted) {
  Cache c(tiny_cache());
  c.access(0x2000, true);
  EXPECT_EQ(c.stores(), 1u);
  EXPECT_EQ(c.store_misses(), 1u);
  c.access(0x2000, true);
  EXPECT_EQ(c.store_misses(), 1u);
}

TEST(Cache, FlushDropsEverything) {
  Cache c(tiny_cache());
  c.access(0x3000, false);
  c.flush();
  EXPECT_FALSE(c.access(0x3000, false).hit);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(tiny_cache());
  c.access(0x3000, false);
  c.reset_stats();
  EXPECT_EQ(c.loads(), 0u);
  EXPECT_TRUE(c.access(0x3000, false).hit);
}

TEST(Cache, MissRateComputation) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.miss_rate(), 0.0);
  c.access(0x0, false);   // miss
  c.access(0x0, false);   // hit
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.5);
}

TEST(Cache, WorkingSetSmallerThanCacheEventuallyAllHits) {
  Cache c(tiny_cache());
  // 8 distinct lines in a 16-line cache; first pass misses, later passes hit.
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t line = 0; line < 8; ++line)
      c.access(line * 64, false);
  EXPECT_EQ(c.load_misses(), 8u);
  EXPECT_EQ(c.loads(), 24u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(tiny_cache());
  // 64 distinct lines cycling through a 16-line cache: every access misses.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t line = 0; line < 64; ++line)
      c.access(line * 64, false);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 1.0);
}

// Geometry sweep: invariants hold across configurations.
struct Geometry {
  std::uint64_t size;
  std::uint32_t ways;
};

class CacheGeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometrySweep, SequentialScanMissesOncePerLine) {
  const auto [size, ways] = GetParam();
  Cache c({.name = "S", .size_bytes = size, .ways = ways, .line_bytes = 64});
  const std::uint64_t lines = size / 64;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.load_misses(), lines);
  // Second pass fully hits (fits exactly).
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.load_misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2}, Geometry{4096, 4},
                      Geometry{16384, 8}, Geometry{65536, 16}));

// Replacement-policy behaviour.

TEST(CachePolicy, RoundRobinCyclesWays) {
  Cache c({.name = "rr", .size_bytes = 1024, .ways = 2, .line_bytes = 64,
           .policy = ReplacementPolicy::kRoundRobin});
  const std::uint64_t set_stride = 8 * 64;
  c.access(0 * set_stride, false);  // way 0
  c.access(1 * set_stride, false);  // way 1
  c.access(0 * set_stride, false);  // touch A (irrelevant to round-robin)
  c.access(2 * set_stride, false);  // evicts way 0 (A) despite recency
  EXPECT_FALSE(c.access(0 * set_stride, false).hit);
}

TEST(CachePolicy, RandomIsDeterministicPerInstance) {
  auto run = [] {
    Cache c({.name = "r", .size_bytes = 1024, .ways = 4, .line_bytes = 64,
             .policy = ReplacementPolicy::kRandom});
    std::uint64_t misses = 0;
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
      misses += !c.access(a % (8 * 1024), false).hit;
    return misses;
  };
  EXPECT_EQ(run(), run());
}

TEST(CachePolicy, LruBeatsRandomOnReuseHeavyPattern) {
  auto misses_with = [](ReplacementPolicy policy) {
    Cache c({.name = "p", .size_bytes = 4096, .ways = 4, .line_bytes = 64,
             .policy = policy});
    std::uint64_t misses = 0;
    // Hot set reused constantly + cold streaming interference.
    std::uint64_t cold = 1 << 20;
    for (int round = 0; round < 2000; ++round) {
      for (std::uint64_t h = 0; h < 8; ++h)
        misses += !c.access(h * 64, false).hit;  // hot lines
      cold += 64;
      misses += !c.access(cold, false).hit;  // streaming line
    }
    return misses;
  };
  EXPECT_LT(misses_with(ReplacementPolicy::kLru),
            misses_with(ReplacementPolicy::kRandom));
}

TEST(CachePolicy, AllPoliciesAgreeOnFullyResidentWorkingSets) {
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    Cache c({.name = "x", .size_bytes = 2048, .ways = 2, .line_bytes = 64,
             .policy = policy});
    for (int pass = 0; pass < 3; ++pass)
      for (std::uint64_t a = 0; a < 2048; a += 64) c.access(a, false);
    EXPECT_EQ(c.load_misses(), 32u);  // compulsory only
  }
}

// ---------------------------------------------------------------------------
// Differential tests: the Cache against a plain reference model.
//
// ReferenceCache is the straightforward set-associative model: a line
// struct per way, a linear scan for the tag, and victim selection by
// scanning for the first invalid way, else by policy (smallest LRU stamp,
// the round-robin pointer, or an xorshift64 draw). Every optimization of
// Cache must agree with it access by access.

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {
    const std::uint64_t sets = config.num_sets();
    set_bits_ = static_cast<std::uint32_t>(std::countr_zero(sets));
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)));
    lines_.resize(sets * config.ways);
    rr_next_.assign(sets, 0);
  }

  CacheAccessResult access(std::uint64_t addr, bool is_store) {
    (is_store ? stores : loads) += 1;
    const CacheAccessResult r = lookup(addr, is_store);
    if (!r.hit) (is_store ? store_misses : load_misses) += 1;
    return r;
  }

  CacheAccessResult fill(std::uint64_t addr) { return lookup(addr, false); }

  void flush() {
    for (Line& l : lines_) l = Line{};
    lru_clock_ = 0;
  }

  std::uint64_t loads = 0, stores = 0, load_misses = 0, store_misses = 0;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint32_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  CacheAccessResult lookup(std::uint64_t addr, bool is_store) {
    const std::uint64_t block = addr >> line_shift_;
    const std::uint64_t set = block & ((std::uint64_t{1} << set_bits_) - 1);
    const std::uint64_t tag = block >> set_bits_;
    Line* ways = &lines_[set * config_.ways];
    ++lru_clock_;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (ways[w].valid && ways[w].tag == tag) {
        ways[w].lru = lru_clock_;
        if (is_store) ways[w].dirty = true;
        return {.hit = true, .writeback = false};
      }
    }
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < config_.ways && victim == nullptr; ++w)
      if (!ways[w].valid) victim = &ways[w];
    if (victim == nullptr) {
      switch (config_.policy) {
        case ReplacementPolicy::kLru:
          victim = ways;
          for (std::uint32_t w = 1; w < config_.ways; ++w)
            if (ways[w].lru < victim->lru) victim = &ways[w];
          break;
        case ReplacementPolicy::kRoundRobin:
          victim = &ways[rr_next_[set]];
          rr_next_[set] = (rr_next_[set] + 1) % config_.ways;
          break;
        case ReplacementPolicy::kRandom:
          rand_state_ ^= rand_state_ << 13;
          rand_state_ ^= rand_state_ >> 7;
          rand_state_ ^= rand_state_ << 17;
          victim = &ways[rand_state_ % config_.ways];
          break;
      }
    }
    const bool writeback = victim->valid && victim->dirty;
    *victim = {.tag = tag, .lru = lru_clock_, .valid = true,
               .dirty = is_store};
    return {.hit = false, .writeback = writeback};
  }

  CacheConfig config_;
  std::uint32_t set_bits_ = 0;
  std::uint32_t line_shift_ = 0;
  std::vector<Line> lines_;
  std::vector<std::uint32_t> rr_next_;
  std::uint32_t lru_clock_ = 0;
  std::uint64_t rand_state_ = 0x9e3779b97f4a7c15ull;
};

std::string policy_name(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kRoundRobin: return "round-robin";
    case ReplacementPolicy::kRandom: return "random";
  }
  return "?";
}

/// Replays a seeded stream of loads, stores and fills over a working set of
/// `working_lines` lines through both models and a flush halfway, checking
/// every outcome and the statistics.
void expect_cache_matches_reference(const CacheConfig& config,
                                    double working_set_ratio,
                                    std::uint64_t seed) {
  SCOPED_TRACE(config.name + " " + policy_name(config.policy) +
               " working set x" + std::to_string(working_set_ratio));
  Cache cache(config);
  ReferenceCache ref(config);
  Rng rng(seed);
  const std::uint64_t capacity_lines = config.size_bytes / config.line_bytes;
  const std::uint64_t working_lines = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(working_set_ratio *
                                    static_cast<double>(capacity_lines)));
  const std::uint64_t base = rng.next_u64() >> 20;
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 2) {
      cache.flush();
      ref.flush();
    }
    const std::uint64_t addr = (base + rng.uniform_index(working_lines)) *
                                   config.line_bytes +
                               rng.uniform_index(config.line_bytes);
    const std::uint64_t kind = rng.uniform_index(20);
    CacheAccessResult got, want;
    if (kind < 3) {
      got = cache.fill(addr);
      want = ref.fill(addr);
    } else {
      const bool is_store = kind < 8;
      got = cache.access(addr, is_store);
      want = ref.access(addr, is_store);
    }
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
  }
  EXPECT_EQ(cache.loads(), ref.loads);
  EXPECT_EQ(cache.stores(), ref.stores);
  EXPECT_EQ(cache.load_misses(), ref.load_misses);
  EXPECT_EQ(cache.store_misses(), ref.store_misses);
}

TEST(CacheDifferential, MatchesReferenceModelForEveryPolicy) {
  const std::vector<CacheConfig> geometries = {
      tiny_cache(2),
      miniature_l1d(),
      {.name = "LLC12", .size_bytes = 48 * 1024, .ways = 12, .line_bytes = 64},
      {.name = "FA16", .size_bytes = 16 * 32, .ways = 16, .line_bytes = 32},
      {.name = "DM", .size_bytes = 4096, .ways = 1, .line_bytes = 64},
  };
  std::uint64_t seed = 1;
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    for (CacheConfig config : geometries) {
      config.policy = policy;
      for (const double ratio : {0.5, 1.0, 1.5, 4.0})
        expect_cache_matches_reference(config, ratio, seed++);
    }
  }
}

TEST(HaswellConfigs, AllValidate) {
  haswell_l1i().validate();
  haswell_l1d().validate();
  haswell_l2().validate();
  haswell_llc().validate();
  miniature_l1i().validate();
  miniature_l1d().validate();
  miniature_l2().validate();
  miniature_llc().validate();
}

TEST(HaswellConfigs, MiniatureIsSmallerSameShape) {
  EXPECT_LT(miniature_llc().size_bytes, haswell_llc().size_bytes);
  EXPECT_EQ(miniature_l1d().line_bytes, haswell_l1d().line_bytes);
}

}  // namespace
}  // namespace hmd::hwsim
