/**
 * @file
 * Tests for the CDP replacement variant and the §4.1.5 future-work
 * harvesting extensions (adaptive block-harvesting, hardware
 * emergency buffer).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/repl_cdp.h"
#include "cache/set_assoc.h"
#include "cluster/experiment.h"

using namespace hh::cache;
using namespace hh::cluster;

namespace {

SystemConfig
tiny(SystemKind kind)
{
    SystemConfig cfg = makeSystem(kind);
    cfg.requestsPerVm = 60;
    cfg.accessSampling = 32;
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(Cdp, FactoryAndName)
{
    EXPECT_STREQ(makePolicy(ReplKind::CDP)->name(), "CDP");
    EXPECT_STREQ(replKindName(ReplKind::CDP), "CDP");
}

TEST(Cdp, ProtectsInstructionEntries)
{
    SetAssocArray arr(Geometry{1, 4, 1},
                      std::make_unique<CdpPolicy>());
    // Fill: 2 instruction entries, 2 data entries.
    arr.access(1, true, ~WayMask{0}, /*instr=*/true);
    arr.access(2, true, ~WayMask{0}, /*instr=*/true);
    arr.access(3, true, ~WayMask{0}, /*instr=*/false);
    arr.access(4, false, ~WayMask{0}, /*instr=*/false);
    // New fills evict the data entries first.
    arr.access(5, true, ~WayMask{0}, false);
    arr.access(6, true, ~WayMask{0}, false);
    EXPECT_TRUE(arr.probe(1));
    EXPECT_TRUE(arr.probe(2));
    EXPECT_FALSE(arr.probe(3));
    EXPECT_FALSE(arr.probe(4));
}

TEST(Cdp, AllInstructionFallsBackToLru)
{
    SetAssocArray arr(Geometry{1, 2, 1},
                      std::make_unique<CdpPolicy>());
    arr.access(1, true, ~WayMask{0}, true);
    arr.access(2, true, ~WayMask{0}, true);
    arr.access(1, true, ~WayMask{0}, true); // 2 becomes LRU
    arr.access(3, true, ~WayMask{0}, true);
    EXPECT_TRUE(arr.probe(1));
    EXPECT_FALSE(arr.probe(2));
}

TEST(Cdp, VictimSkipsInstructionEntries)
{
    // Four valid shared entries; ways 0-1 form the harvest region
    // and ways 0 and 3 hold instructions.
    const std::vector<Addr> tags{1, 2, 3, 4};
    const std::vector<std::uint64_t> last_use{1, 2, 3, 4};
    SetContext ctx;
    ctx.wayCount = 4;
    ctx.harvestMask = 0b0011;
    ctx.allowedMask = 0b1111;
    ctx.candidateMask = 0b1111;
    ctx.validMask = 0b1111;
    ctx.sharedMask = 0b1111;
    ctx.instrMask = 0b1001;
    ctx.tags = tags.data();
    ctx.lastUse = last_use.data();
    CdpPolicy p;
    EXPECT_EQ(p.selectVictim(ctx, true), 2u);  // non-harvest data
    EXPECT_EQ(p.selectVictim(ctx, false), 1u); // harvest data
    ctx.instrMask = 0b1111; // all instructions: plain LRU
    EXPECT_EQ(p.selectVictim(ctx, true), 0u);
    ctx.candidateMask = 0b1100; // ...among the candidates
    EXPECT_EQ(p.selectVictim(ctx, true), 2u);
}

TEST(Cdp, InstrBitStoredOnFill)
{
    SetAssocArray arr(Geometry{1, 2, 1},
                      std::make_unique<CdpPolicy>());
    arr.access(1, true, ~WayMask{0}, true);
    arr.access(2, false, ~WayMask{0}, false);
    EXPECT_TRUE(arr.wayState(0, 0).instr);
    EXPECT_FALSE(arr.wayState(0, 1).instr);
}

TEST(Extensions, EmergencyBufferReducesReclaims)
{
    auto base = tiny(SystemKind::HardHarvestBlock);
    const auto no_buffer = runServer(base, "BFS", 11);
    base.hwEmergencyBuffer = 1;
    const auto buffered = runServer(base, "BFS", 11);
    EXPECT_LT(buffered.coreReclaims, no_buffer.coreReclaims);
    // The buffer trades batch throughput for Primary headroom.
    EXPECT_LT(buffered.batchThroughput,
              no_buffer.batchThroughput * 1.05);
}

TEST(Extensions, AdaptiveWithHugeThresholdActsLikeTerm)
{
    auto block = tiny(SystemKind::HardHarvestBlock);
    auto adaptive = block;
    adaptive.adaptiveHarvest = true;
    adaptive.adaptiveBlockThreshold = hh::sim::secToCycles(1.0);
    const auto a = runServer(adaptive, "BFS", 11);
    const auto term =
        runServer(tiny(SystemKind::HardHarvestTerm), "BFS", 11);
    // With an unreachable threshold, block-harvesting never fires:
    // loan counts land at Term levels, below plain Block.
    const auto b = runServer(block, "BFS", 11);
    EXPECT_LE(a.coreLoans, b.coreLoans);
    EXPECT_NEAR(static_cast<double>(a.coreLoans),
                static_cast<double>(term.coreLoans),
                0.2 * static_cast<double>(term.coreLoans) + 50.0);
}

TEST(Extensions, AdaptiveWithZeroThresholdActsLikeBlock)
{
    auto block = tiny(SystemKind::HardHarvestBlock);
    auto adaptive = block;
    adaptive.adaptiveHarvest = true;
    adaptive.adaptiveBlockThreshold = 0;
    const auto a = runServer(adaptive, "BFS", 11);
    const auto b = runServer(block, "BFS", 11);
    EXPECT_EQ(a.coreLoans, b.coreLoans);
    EXPECT_EQ(a.coreReclaims, b.coreReclaims);
}

TEST(Extensions, CdpRunsEndToEnd)
{
    auto cfg = tiny(SystemKind::HardHarvestBlock);
    cfg.repl = ReplKind::CDP;
    const auto res = runServer(cfg, "BFS", 11);
    for (const auto &s : res.services)
        EXPECT_EQ(s.count, 54u);
}
