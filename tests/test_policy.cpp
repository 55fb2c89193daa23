/**
 * @file
 * Harvest-policy subsystem tests: pinned digests of StaticPolicy
 * runs, per-policy unit behavior (hysteresis bands, critical-aware
 * clustering, bandit seeded determinism), the conformance contract
 * (byte-identical results and telemetry JSONL across worker counts
 * and checkpoint save/load/resume for every policy), spec-level
 * validation of the policy keys, their periods and degenerate
 * harvest-way fractions, and the
 * ObservationView epoch-boundary edges the policy tick relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/telemetry_hub.h"
#include "exp/spec.h"
#include "policy/policies.h"
#include "snapshot/archive.h"
#include "stats/observation_view.h"

using namespace hh::cluster;
using namespace hh::policy;
using hh::stats::ObservationRow;
using hh::stats::ObservationView;
using hh::stats::ServerCounters;
using hh::stats::VmFeatures;

namespace {

/** Reduced-scale cluster config running the given harvest policy. */
SystemConfig
policyConfig(const std::string &policy)
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 32;
    cfg.policy = policy;
    cfg.telemetryEnabled = true;
    return cfg;
}

/** Build the hub over a run's per-server payloads. */
TelemetryHub
hubFor(const SystemConfig &cfg, ClusterResults res)
{
    TelemetryHub hub(cfg);
    for (auto &t : res.serverTelemetry)
        hub.addServer(std::move(t));
    return hub;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A PolicyConfig for direct policy-object unit tests. */
PolicyConfig
unitConfig(const std::string &kind, std::uint32_t vmCount,
           std::uint32_t harvestVm)
{
    PolicyConfig pc;
    pc.kind = kind;
    pc.vmCount = vmCount;
    pc.harvestVm = harvestVm;
    return pc;
}

/** One observation row with the given per-VM feature values. */
ObservationRow
rowWith(const std::vector<VmFeatures> &vms, std::uint64_t epoch = 1)
{
    ObservationRow row;
    row.epoch = epoch;
    row.t = epoch * 1000;
    row.vms = vms;
    return row;
}

VmFeatures
vmUtil(std::uint32_t vm, double util)
{
    VmFeatures f;
    f.vm = vm;
    f.coreUtil = util;
    return f;
}

VmFeatures
vmMpki(std::uint32_t vm, double mpki, double occupancy)
{
    VmFeatures f;
    f.vm = vm;
    f.mpki = mpki;
    f.cacheOccupancy = occupancy;
    return f;
}

} // namespace

// ----------------------------------------------------------- factory

TEST(PolicyFactory, EveryKnownNameConstructs)
{
    for (const std::string &name : harvestPolicyNames()) {
        EXPECT_TRUE(knownHarvestPolicy(name)) << name;
        std::string err;
        auto p = makeHarvestPolicy(unitConfig(name, 9, 8), &err);
        EXPECT_TRUE(err.empty()) << err;
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_FALSE(knownHarvestPolicy("legacy"));
    EXPECT_FALSE(knownHarvestPolicy("nonsense"));
    std::string err;
    EXPECT_EQ(makeHarvestPolicy(unitConfig("nonsense", 9, 8), &err),
              nullptr);
    EXPECT_NE(err.find("unknown harvest policy"), std::string::npos)
        << err;
}

TEST(PolicyFactory, StaticDecisionFreezesTheConfiguredKnobs)
{
    PolicyConfig pc = unitConfig("static", 3, 2);
    pc.harvestOnBlock = true;
    pc.adaptiveHarvest = true;
    pc.hwEmergencyBuffer = 2;
    pc.harvestWayFraction = 0.4;
    auto p = makeHarvestPolicy(pc);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(p->wantsEpochTick());
    const VmDecision &d = p->decision(0);
    EXPECT_TRUE(d.lendAllowed);
    EXPECT_EQ(d.blockMode, BlockHarvestMode::AdaptiveEwma);
    EXPECT_EQ(d.emergencyBuffer, 2u);
    EXPECT_DOUBLE_EQ(d.harvestWayFraction, 0.4);
    // Out-of-range ids (ghost VMs) fall back to the static decision.
    EXPECT_EQ(p->decision(1000).blockMode,
              BlockHarvestMode::AdaptiveEwma);

    pc.harvestOnBlock = false;
    auto never = makeHarvestPolicy(pc);
    EXPECT_EQ(never->decision(0).blockMode, BlockHarvestMode::Never);
}

// -------------------------------------------------------- hysteresis

TEST(HysteresisPolicyTest, ThresholdsAndStickyBand)
{
    PolicyConfig pc = unitConfig("hysteresis", 3, 2);
    pc.lendUtil = 0.35;
    pc.holdUtil = 0.75;
    pc.harvestWayFraction = 0.5;
    pc.ewmaAlpha = 0.5;
    HysteresisPolicy p(pc);

    // First row seeds the EWMA directly: idle VM 0, busy VM 1.
    p.observe(rowWith({vmUtil(0, 0.1), vmUtil(1, 0.95)}));
    EXPECT_DOUBLE_EQ(p.ewmaUtil(0), 0.1);
    EXPECT_TRUE(p.decision(0).lendAllowed);
    EXPECT_EQ(p.decision(0).emergencyBuffer, 0u);
    EXPECT_DOUBLE_EQ(p.decision(0).harvestWayFraction, 0.75);
    EXPECT_GE(p.decision(1).emergencyBuffer, 1u);
    EXPECT_DOUBLE_EQ(p.decision(1).harvestWayFraction, 0.25);

    // Mid-band utilization: both decisions stick (hysteresis).
    p.observe(rowWith({vmUtil(0, 0.5), vmUtil(1, 0.5)}, 2));
    EXPECT_EQ(p.decision(0).emergencyBuffer, 0u);
    EXPECT_DOUBLE_EQ(p.decision(0).harvestWayFraction, 0.75);
    EXPECT_GE(p.decision(1).emergencyBuffer, 1u);
    EXPECT_DOUBLE_EQ(p.decision(1).harvestWayFraction, 0.25);

    // Sustained reversal flips both once the EWMA crosses.
    for (std::uint64_t e = 3; e < 10; ++e)
        p.observe(rowWith({vmUtil(0, 1.0), vmUtil(1, 0.0)}, e));
    EXPECT_GE(p.decision(0).emergencyBuffer, 1u);
    EXPECT_EQ(p.decision(1).emergencyBuffer, 0u);
}

TEST(HysteresisPolicyTest, DefaultHoldUtilDisarmsTheGuard)
{
    // Bound-core utilization saturates near 1 under the paper's load,
    // so the default holdUtil=1.0 never arms the guard (the EWMA is
    // capped at 1.0 and the comparison is strict).
    PolicyConfig pc = unitConfig("hysteresis", 2, 1);
    HysteresisPolicy p(pc);
    for (std::uint64_t e = 1; e < 20; ++e)
        p.observe(rowWith({vmUtil(0, 1.0)}, e));
    EXPECT_EQ(p.decision(0).emergencyBuffer,
              pc.hwEmergencyBuffer);
}

// ---------------------------------------------------- critical-aware

TEST(CriticalAwarePolicyTest, ClustersRankAndWayDistribution)
{
    PolicyConfig pc = unitConfig("critical", 4, 3);
    pc.clusters = 2;
    pc.harvestWayFraction = 0.5;
    CriticalAwarePolicy p(pc);

    // VM 0 thrashes (high MPKI), VMs 1-2 are cache-friendly.
    for (std::uint64_t e = 1; e < 4; ++e) {
        p.observe(rowWith({vmMpki(0, 50.0, 0.9), vmMpki(1, 1.0, 0.2),
                           vmMpki(2, 2.0, 0.3)},
                          e));
    }
    EXPECT_EQ(p.clusterOf(0), 0u); // most critical rank
    EXPECT_EQ(p.clusterOf(1), 1u);
    EXPECT_EQ(p.clusterOf(2), 1u);
    // The critical cluster holds a burst guard and donates the
    // narrowest harvest region; the friendly cluster donates widest.
    EXPECT_GE(p.decision(0).emergencyBuffer, 1u);
    EXPECT_EQ(p.decision(1).emergencyBuffer, pc.hwEmergencyBuffer);
    EXPECT_LT(p.decision(0).harvestWayFraction,
              p.decision(1).harvestWayFraction);
}

// ------------------------------------------------------------ bandit

TEST(BanditPolicyTest, SameSeedSameArmSequence)
{
    PolicyConfig pc = unitConfig("bandit", 3, 2);
    pc.epsilon = 1.0; // pure exploration: the sequence is the stream
    const auto run = [&pc](std::uint64_t seed) {
        pc.seed = seed;
        BanditPolicy p(pc);
        for (std::uint64_t e = 1; e <= 64; ++e) {
            ObservationRow row = rowWith({}, e);
            row.harvestedCyclesDelta = 3'000'000 * e;
            row.batchLoanedDelta = 10 * e;
            p.observe(row);
        }
        return p.armHistory();
    };
    const auto a = run(42);
    EXPECT_EQ(a, run(42));
    EXPECT_NE(a, run(43));
    ASSERT_EQ(a.size(), 64u);
    // Pure exploration over 64 epochs visits more than one arm.
    bool varied = false;
    for (const auto arm : a)
        varied = varied || arm != a[0];
    EXPECT_TRUE(varied);
}

TEST(BanditPolicyTest, DefaultArmReproducesTheConfiguredKnobs)
{
    PolicyConfig pc = unitConfig("bandit", 3, 2);
    pc.epsilon = 0.0; // greedy: stays on the initial "default" arm
    pc.hwEmergencyBuffer = 3;
    pc.harvestWayFraction = 0.9; // outside the delta-arm clamp range
    pc.adaptiveHarvest = true;
    BanditPolicy p(pc);
    const VmDecision &d = p.decision(0);
    EXPECT_TRUE(d.lendAllowed);
    EXPECT_EQ(d.blockMode, BlockHarvestMode::AdaptiveEwma);
    EXPECT_EQ(d.emergencyBuffer, 3u);
    EXPECT_DOUBLE_EQ(d.harvestWayFraction, 0.9);
}

// --------------------------------------------- static golden digests

namespace {

/** FNV-1a 64-bit digest of a results string. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

TEST(PolicyGolden, StaticRunsArePinned)
{
    // StaticPolicy reads every harvest knob the server once inlined:
    // the adaptive-EWMA block mode and a nonzero emergency buffer
    // exercise each of those reads. The digests were captured from
    // the inlined knob path and StaticPolicy together (both produced
    // them), so any change to a static run's bytes fails here.
    SystemConfig base = makeSystem(SystemKind::HardHarvestBlock);
    base.requestsPerVm = 40;
    base.accessSampling = 16;
    base.policy = "static";

    SystemConfig adaptive = base;
    adaptive.adaptiveHarvest = true;
    SystemConfig buffered = base;
    buffered.hwEmergencyBuffer = 2;

    const struct
    {
        const char *label;
        const SystemConfig &cfg;
        std::uint64_t digest;
    } cases[] = {{"base", base, 0x3b84166d02ef6265ULL},
                 {"adaptiveHarvest", adaptive, 0x06480413bd156627ULL},
                 {"emergencyBuffer", buffered, 0xa1fa9d3046479be9ULL}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.label);
        const std::uint64_t got =
            fnv1a64(runCluster(c.cfg, 2, 5, 2).serialized());
        EXPECT_EQ(got, c.digest) << std::hex << "0x" << got;
    }
}

// ----------------------------------------------- conformance contract

class PolicyConformance
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyConformance, WorkerCountsAndResumeAreByteIdentical)
{
    const SystemConfig cfg = policyConfig(GetParam());
    const unsigned servers = 2;
    const std::uint64_t seed = 5;

    const ClusterResults ref = runCluster(cfg, servers, seed, 1);
    const std::string want = ref.serialized();
    const std::string want_jsonl = hubFor(cfg, ref).jsonl();
    for (const unsigned workers : {4u, 8u}) {
        ClusterResults res = runCluster(cfg, servers, seed, workers);
        EXPECT_EQ(res.serialized(), want) << "workers=" << workers;
        EXPECT_EQ(hubFor(cfg, std::move(res)).jsonl(), want_jsonl)
            << "workers=" << workers;
    }

    // Save mid-run (past several policy epochs), load, resume: the
    // policy state rides snapshot section 0x16, so the resumed run
    // must reproduce the uninterrupted one byte-for-byte.
    const std::string path =
        tmpPath(std::string("hh_policy_") + GetParam() + ".hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, servers, seed, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    auto resumed = resumeCluster(path, cfg, 4, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(resumed->serialized(), want);
    EXPECT_EQ(hubFor(cfg, *std::move(resumed)).jsonl(), want_jsonl);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConformance,
                         ::testing::Values("static", "hysteresis",
                                           "critical", "bandit"));

TEST(PolicyCheckpoint, MismatchedPolicyRejectsCheckpoint)
{
    // The config fingerprint covers the policy selector and its
    // parameters, so resuming under a different policy is refused up
    // front instead of desynchronizing section 0x16 mid-load.
    const SystemConfig cfg = policyConfig("hysteresis");
    const std::string path = tmpPath("hh_policy_mismatch.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, 2, 5, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    SystemConfig other = cfg;
    other.policy = "static";
    EXPECT_FALSE(resumeCluster(path, other, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
    SystemConfig tuned = cfg;
    tuned.policyLendUtil = 0.5;
    EXPECT_FALSE(resumeCluster(path, tuned, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
}

// ------------------------------------------------- spec validation

TEST(PolicySpec, PolicyKeysParseIntoTheConfig)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(hh::exp::parseSpec("name = p\n"
                                   "policy = hysteresis\n"
                                   "policyPeriodMs = 0.5\n"
                                   "policyLendUtil = 0.2\n"
                                   "policyHoldUtil = 0.8\n"
                                   "policyEwmaAlpha = 0.4\n"
                                   "policyClusters = 3\n"
                                   "policyEpsilon = 0.2\n"
                                   "policyP99TargetMs = 5\n"
                                   "policyP99Penalty = 2\n",
                                   &spec, &err))
        << err;
    const auto pts = spec.points();
    ASSERT_FALSE(pts.empty());
    const SystemConfig &cfg = pts[0].cfg;
    EXPECT_EQ(cfg.policy, "hysteresis");
    EXPECT_EQ(cfg.policyPeriod, hh::sim::msToCycles(0.5));
    EXPECT_DOUBLE_EQ(cfg.policyLendUtil, 0.2);
    EXPECT_DOUBLE_EQ(cfg.policyHoldUtil, 0.8);
    EXPECT_DOUBLE_EQ(cfg.policyEwmaAlpha, 0.4);
    EXPECT_EQ(cfg.policyClusters, 3u);
    EXPECT_DOUBLE_EQ(cfg.policyEpsilon, 0.2);
}

TEST(PolicySpec, BadPolicyValuesFailWithLineNumbers)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(
        hh::exp::parseSpec("name = p\npolicy = nonsense\n", &spec,
                           &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown harvest policy"), std::string::npos)
        << err;

    EXPECT_FALSE(hh::exp::parseSpec("policyEpsilon = 1.5\n", &spec,
                                    &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_FALSE(hh::exp::parseSpec("policyHoldUtil = -0.1\n", &spec,
                                    &err));
    EXPECT_NE(err.find("[0, 1]"), std::string::npos) << err;
    EXPECT_FALSE(hh::exp::parseSpec("policyPeriodMs = 0\n", &spec,
                                    &err));
}

TEST(PolicySpec, PeriodsMustBeAtLeastOneCycle)
{
    using hh::exp::applySpecKey;
    using hh::exp::parseSpec;
    hh::exp::ExperimentSpec spec;
    std::string err;
    // 1e-9 ms is 0.003 cycles (a tick that would re-arm at +0
    // forever); 7e12 ms is past 2^64 cycles; 0 and negatives are no
    // period at all.
    const char *bad_values[] = {"1e-9", "7e12", "0", "-1", "nan", "inf"};
    for (const char *key :
         {"policyPeriodMs", "cacheLendPeriodMs", "cacheLendTermMs"}) {
        const std::string k(key);
        for (const char *bad : bad_values) {
            SCOPED_TRACE(k + " = " + bad);
            EXPECT_FALSE(parseSpec("name = p\n" + k + " = " + bad + "\n",
                                   &spec, &err));
            EXPECT_NE(err.find("line 2"), std::string::npos) << err;
            EXPECT_NE(err.find("at least one cycle"), std::string::npos)
                << err;
            EXPECT_FALSE(parseSpec("sweep." + k + " = 1 " + bad + "\n",
                                   &spec, &err));
            EXPECT_NE(err.find("line 1"), std::string::npos) << err;
        }
        // One nanosecond is three cycles; 6e12 ms still fits Cycles.
        SystemConfig cfg;
        EXPECT_TRUE(applySpecKey(cfg, k, "1e-6", &err)) << err;
        EXPECT_TRUE(applySpecKey(cfg, k, "6e12", &err)) << err;
    }
    SystemConfig cfg;
    ASSERT_TRUE(applySpecKey(cfg, "policyPeriodMs", "1e-6", &err));
    EXPECT_EQ(cfg.policyPeriod, 3u);
}

TEST(PolicySpec, DegenerateHarvestFractionsAreRejected)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    // 0.05 rounds to zero harvest ways in every masked structure.
    EXPECT_FALSE(hh::exp::parseSpec(
        "name = p\nharvestWayFraction = 0.05\n", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("0-way"), std::string::npos) << err;

    // 0.99 rounds to all 12 L1D ways: no private region left.
    EXPECT_FALSE(hh::exp::parseSpec("harvestWayFraction = 0.99\n",
                                    &spec, &err));
    EXPECT_NE(err.find("all-way"), std::string::npos) << err;

    // 0.75 is fine at full way scaling but degenerates in the 2-way
    // scaled L1TLB once waysFraction halves the structures.
    EXPECT_TRUE(hh::exp::parseSpec("harvestWayFraction = 0.75\n",
                                   &spec, &err))
        << err;
    EXPECT_FALSE(hh::exp::parseSpec(
        "harvestWayFraction = 0.75\nwaysFraction = 0.5\n", &spec,
        &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("at this waysFraction"), std::string::npos)
        << err;

    // Sweep axes are validated point by point too.
    EXPECT_FALSE(hh::exp::parseSpec(
        "sweep.harvestWayFraction = 0.25 0.05\n", &spec, &err));
}

// ------------------------------------ ObservationView epoch edges

TEST(ObservationViewEdges, RecordAtTimeZeroBecomesTheBaseline)
{
    // A first record at t=0 (policy/telemetry start colliding with a
    // zero-length first epoch, e.g. stop-at-start or resume taken
    // exactly at a tick) must not emit a bogus zero-length row; it
    // becomes the explicit baseline instead.
    ObservationView view;
    ServerCounters cum;
    cum.t = 0;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 300;
    cum.vms[0].coresBound = 1;
    cum.batchLoaned = 4;
    view.record(cum);
    EXPECT_TRUE(view.rows().empty());
    EXPECT_EQ(view.epochs(), 0u);

    // The next tick diffs against that baseline, not against zero.
    cum.t = 1000;
    cum.vms[0].busyCycles = 800;
    cum.batchLoaned = 7;
    view.record(cum);
    ASSERT_EQ(view.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(view.rows()[0].vms[0].coreUtil, 0.5);
    EXPECT_EQ(view.rows()[0].batchLoanedDelta, 3u);
}

TEST(ObservationViewEdges, DrainTailCollidingWithTickDeduplicates)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 1000;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 500;
    cum.vms[0].coresBound = 1;
    view.record(cum);
    view.record(cum); // final-row call landing exactly on the tick
    ASSERT_EQ(view.rows().size(), 1u);
    EXPECT_EQ(view.epochs(), 1u);

    // A later record still diffs against the (unchanged) baseline.
    cum.t = 2000;
    cum.vms[0].busyCycles = 700;
    view.record(cum);
    ASSERT_EQ(view.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(view.rows()[1].vms[0].coreUtil, 0.2);
}

TEST(ObservationViewEdges, BaselineRoundTripsThroughSnapshot)
{
    // Resume-before-first-tick: a view whose only state is the t=0
    // baseline must survive a save/load and then produce the same
    // first row as the uninterrupted view.
    ObservationView view;
    ServerCounters cum;
    cum.t = 0;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 100;
    cum.vms[0].coresBound = 1;
    view.record(cum);

    auto save = hh::snap::Archive::forSave();
    view.serialize(save);
    const auto blob = save.take();
    ObservationView loaded;
    auto load = hh::snap::Archive::forLoad(blob);
    loaded.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();

    cum.t = 500;
    cum.vms[0].busyCycles = 400;
    view.record(cum);
    loaded.record(cum);
    ASSERT_EQ(view.rows().size(), 1u);
    ASSERT_EQ(loaded.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.rows()[0].vms[0].coreUtil,
                     view.rows()[0].vms[0].coreUtil);
}
