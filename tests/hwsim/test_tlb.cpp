#include "hwsim/tlb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hmd::hwsim {
namespace {

TEST(Tlb, RejectsBadConfig) {
  EXPECT_THROW(Tlb({.entries = 0}), hmd::PreconditionError);
  EXPECT_THROW(Tlb({.entries = 4, .page_bits = 40}), hmd::PreconditionError);
  EXPECT_THROW(Tlb({.entries = Tlb::kMaxEntries + 1}), hmd::PreconditionError);
  try {
    Tlb({.entries = Tlb::kMaxEntries + 1});
    ADD_FAILURE() << "an oversized TLB was accepted";
  } catch (const hmd::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("TlbConfig::entries"),
              std::string::npos);
  }
  EXPECT_NO_THROW(Tlb({.entries = Tlb::kMaxEntries}));
}

TEST(Tlb, FirstTranslationMisses) {
  Tlb tlb({.entries = 4});
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, SamePageHits) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  EXPECT_TRUE(tlb.access(0x1FFF));  // same 4 KiB page
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, DifferentPagesMiss) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruEviction) {
  Tlb tlb({.entries = 2});
  tlb.access(0x1000);  // A
  tlb.access(0x2000);  // B
  tlb.access(0x1000);  // touch A
  tlb.access(0x3000);  // evicts B
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, WorkingSetWithinReachAllHits) {
  Tlb tlb({.entries = 8});
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 8; ++p) tlb.access(p << 12);
  EXPECT_EQ(tlb.misses(), 8u);
}

TEST(Tlb, WorkingSetBeyondReachThrashes) {
  Tlb tlb({.entries = 8});
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t p = 0; p < 64; ++p) tlb.access(p << 12);
  EXPECT_DOUBLE_EQ(tlb.miss_rate(), 1.0);
}

TEST(Tlb, FlushInvalidates) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  tlb.flush();
  EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, ResetStatsKeepsEntries) {
  Tlb tlb({.entries = 4});
  tlb.access(0x1000);
  tlb.reset_stats();
  EXPECT_EQ(tlb.accesses(), 0u);
  EXPECT_TRUE(tlb.access(0x1000));
}

TEST(Tlb, LargePagesWidenReach) {
  Tlb small({.entries = 2, .page_bits = 12});
  Tlb large({.entries = 2, .page_bits = 21});  // 2 MiB pages
  for (std::uint64_t a = 0; a < 4u << 12; a += 1 << 12) {
    small.access(a);
    large.access(a);
  }
  EXPECT_GT(small.misses(), large.misses());
}

// ---------------------------------------------------------------------------
// Differential test: the Tlb against a plain reference model.
//
// ReferenceTlb is the straightforward fully-associative LRU TLB: one linear
// scan finds the page or, on a miss, the victim (the last invalid entry,
// else the entry with the smallest LRU stamp). Every optimization of Tlb
// must agree with it access by access.

class ReferenceTlb {
 public:
  explicit ReferenceTlb(TlbConfig config)
      : config_(config), entries_(config.entries) {}

  bool access(std::uint64_t addr) {
    ++accesses;
    ++lru_clock_;
    const std::uint64_t vpn = addr >> config_.page_bits;
    Entry* victim = &entries_.front();
    for (Entry& e : entries_) {
      if (e.valid && e.vpn == vpn) {
        e.lru = lru_clock_;
        return true;
      }
      if (!e.valid)
        victim = &e;
      else if (victim->valid && e.lru < victim->lru)
        victim = &e;
    }
    ++misses;
    *victim = {.vpn = vpn, .lru = lru_clock_, .valid = true};
    return false;
  }

  void flush() {
    entries_.assign(entries_.size(), {});
    lru_clock_ = 0;
  }

  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  TlbConfig config_;
  std::vector<Entry> entries_;
  std::uint64_t lru_clock_ = 0;
};

/// Replays a seeded page stream through both models: a pool of
/// `ratio * entries` pages (sequential or scattered vpns), drawn with
/// locality (half the draws reuse one of the last few pages), with a flush
/// and a stats reset partway.
void expect_tlb_matches_reference(TlbConfig config, double ratio,
                                  bool scattered, std::uint64_t seed) {
  SCOPED_TRACE("entries " + std::to_string(config.entries) + " page_bits " +
               std::to_string(config.page_bits) + " pages x" +
               std::to_string(ratio) + (scattered ? " scattered" : ""));
  Tlb tlb(config);
  ReferenceTlb ref(config);
  Rng rng(seed);
  const std::size_t pool_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(ratio * config.entries));
  std::vector<std::uint64_t> pool(pool_size);
  const std::uint64_t base = rng.next_u64() >> 30;
  for (std::size_t i = 0; i < pool_size; ++i)
    pool[i] = scattered ? rng.next_u64() >> (config.page_bits + 4) : base + i;

  constexpr int kAccesses = 20000;
  std::uint64_t recent[4] = {pool[0], pool[0], pool[0], pool[0]};
  std::uint64_t ref_accesses_at_reset = 0, ref_misses_at_reset = 0;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 2) {
      tlb.flush();
      ref.flush();
    }
    if (i == 3 * kAccesses / 4) {
      tlb.reset_stats();
      ref_accesses_at_reset = ref.accesses;
      ref_misses_at_reset = ref.misses;
    }
    const std::uint64_t vpn = rng.bernoulli(0.5)
                                  ? recent[rng.uniform_index(4)]
                                  : pool[rng.uniform_index(pool_size)];
    recent[i % 4] = vpn;
    const std::uint64_t addr =
        (vpn << config.page_bits) |
        rng.uniform_index(std::uint64_t{1} << config.page_bits);
    ASSERT_EQ(tlb.access(addr), ref.access(addr)) << "access " << i;
  }
  EXPECT_EQ(tlb.accesses(), ref.accesses - ref_accesses_at_reset);
  EXPECT_EQ(tlb.misses(), ref.misses - ref_misses_at_reset);
}

TEST(TlbDifferential, MatchesReferenceModel) {
  std::uint64_t seed = 1;
  for (const std::uint32_t entries : {1u, 48u, 64u, 128u})
    for (const std::uint32_t page_bits : {12u, 21u})
      for (const double ratio : {0.5, 1.0, 1.5, 4.0})
        for (const bool scattered : {false, true})
          expect_tlb_matches_reference(
              {.entries = entries, .page_bits = page_bits}, ratio, scattered,
              seed++);
}

}  // namespace
}  // namespace hmd::hwsim
