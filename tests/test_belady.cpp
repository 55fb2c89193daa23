/**
 * @file
 * Tests for the Belady offline-optimal policy and its oracle,
 * including the property that Belady dominates every online policy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/repl_belady.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "cache/set_assoc.h"
#include "sim/rng.h"

using namespace hh::cache;

TEST(NextUseOracle, PositionsAndNever)
{
    const std::vector<Addr> trace{5, 7, 5, 9, 7};
    NextUseOracle o(trace);
    EXPECT_EQ(o.nextUse(5, 0), 2u);
    EXPECT_EQ(o.nextUse(5, 2), NextUseOracle::kNever);
    EXPECT_EQ(o.nextUse(7, 0), 1u);
    EXPECT_EQ(o.nextUse(7, 1), 4u);
    EXPECT_EQ(o.nextUse(9, 0), 3u);
    EXPECT_EQ(o.nextUse(42, 0), NextUseOracle::kNever);
}

TEST(NextUseOracle, FirstUseFromMinusInfinity)
{
    const std::vector<Addr> trace{3};
    NextUseOracle o(trace);
    // nextUse strictly after position 0 does not exist.
    EXPECT_EQ(o.nextUse(3, 0), NextUseOracle::kNever);
}

namespace {

/** Replay a trace through a single-set array and report hits. */
std::uint64_t
replayHits(const std::vector<Addr> &trace, unsigned ways,
           std::unique_ptr<ReplacementPolicy> policy)
{
    SetAssocArray arr(Geometry{1, ways, 1}, std::move(policy));
    std::uint64_t hits = 0;
    for (const Addr k : trace)
        hits += arr.access(k, true).hit ? 1 : 0;
    return hits;
}

} // namespace

TEST(Belady, ClassicExampleBeatsLru)
{
    // Textbook sequence where LRU struggles on a 3-way cache.
    const std::vector<Addr> trace{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5};
    NextUseOracle oracle(trace);
    const auto belady =
        replayHits(trace, 3, std::make_unique<BeladyPolicy>(oracle));
    const auto lru =
        replayHits(trace, 3, std::make_unique<LruPolicy>());
    EXPECT_GT(belady, lru);
    // Belady on this sequence achieves 5 hits (7 faults on 12 refs).
    EXPECT_EQ(belady, 5u);
}

TEST(Belady, PositionAdvancesOncePerAccess)
{
    const std::vector<Addr> trace{1, 2, 1, 2};
    NextUseOracle oracle(trace);
    auto policy = std::make_unique<BeladyPolicy>(oracle);
    BeladyPolicy *raw = policy.get();
    SetAssocArray arr(Geometry{1, 2, 1}, std::move(policy));
    for (const Addr k : trace)
        arr.access(k, true);
    EXPECT_EQ(raw->position(), trace.size());
}

TEST(Belady, VictimReadsTheTagColumn)
{
    // At position 0 the resident keys 1, 2, 3 are next used at 1,
    // never, and 2.
    const std::vector<Addr> trace{9, 1, 3, 1};
    NextUseOracle oracle(trace);
    BeladyPolicy p(oracle);
    const std::vector<Addr> tags{1, 2, 3};
    const std::vector<std::uint64_t> last_use{1, 2, 3};
    SetContext ctx;
    ctx.wayCount = 3;
    ctx.allowedMask = 0b111;
    ctx.candidateMask = 0b111;
    ctx.validMask = 0b111;
    ctx.tags = tags.data();
    ctx.lastUse = last_use.data();
    EXPECT_EQ(p.selectVictim(ctx, true), 1u); // never used again
    ctx.allowedMask = 0b101;
    EXPECT_EQ(p.selectVictim(ctx, true), 2u); // farther of 1 and 3
    ctx.validMask = 0b110;
    EXPECT_EQ(p.selectVictim(ctx, true), 0u); // empty slot first
    // Phantom allowed bits beyond the set never come back as a way.
    ctx.validMask = 0b111;
    ctx.allowedMask = 0b001 | (WayMask{1} << 40);
    EXPECT_EQ(p.selectVictim(ctx, true), 0u);
}

/** Property: Belady's hit count dominates every online policy. */
class BeladyOptimal : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BeladyOptimal, DominatesOnlinePolicies)
{
    hh::sim::Rng rng(GetParam(), 1234);
    // Skewed random trace over 64 keys mapping into 4 sets.
    std::vector<Addr> trace;
    hh::sim::ZipfSampler zipf(64, 0.8);
    for (int i = 0; i < 4000; ++i)
        trace.push_back(zipf.sample(rng));

    auto replay = [&](std::unique_ptr<ReplacementPolicy> p) {
        SetAssocArray arr(Geometry{4, 4, 1}, std::move(p));
        std::uint64_t hits = 0;
        for (const Addr k : trace)
            hits += arr.access(k, true).hit ? 1 : 0;
        return hits;
    };

    NextUseOracle oracle(trace);
    const auto belady = replay(std::make_unique<BeladyPolicy>(oracle));
    EXPECT_GE(belady, replay(std::make_unique<LruPolicy>()));
    EXPECT_GE(belady, replay(std::make_unique<RripPolicy>()));
    EXPECT_GE(belady, replay(std::make_unique<HardHarvestPolicy>()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyOptimal,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
