/**
 * @file
 * ExperimentSpec contract tests: the key=value text format parses
 * with line-numbered diagnostics, grids expand in the documented
 * order, and applySpecKey() covers every field type.
 */

#include <gtest/gtest.h>

#include <string>

#include "cluster/system_config.h"
#include "exp/spec.h"

using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;
using hh::exp::applySpecKey;
using hh::exp::ExperimentSpec;
using hh::exp::parseSpec;
using hh::exp::systemKindByName;

TEST(ExpSpec, ParsesAndExpandsGrid)
{
    const std::string text =
        "# fig19-style candidate sweep\n"
        "name = candidate-sweep\n"
        "systems = HardHarvestBlock NoHarvest\n"
        "apps = BFS PRank\n"
        "seeds = 1 2\n"
        "requestsPerVm = 40\n"
        "sweep.candidateFraction = 0.5 1.0\n";
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpec(text, &spec, &err)) << err;
    EXPECT_EQ(spec.name, "candidate-sweep");
    ASSERT_EQ(spec.systems.size(), 2u);
    ASSERT_EQ(spec.apps.size(), 2u);
    ASSERT_EQ(spec.seeds.size(), 2u);
    ASSERT_EQ(spec.overrides.size(), 1u);
    ASSERT_EQ(spec.sweeps.size(), 1u);
    EXPECT_EQ(spec.sweeps[0].key, "candidateFraction");

    const auto pts = spec.points();
    ASSERT_EQ(pts.size(), 2u * 2u * 2u * 2u);

    // Systems-major, then sweep combos, then apps, then seeds.
    EXPECT_EQ(pts[0].label,
              "HardHarvestBlock/BFS/seed1/candidateFraction=0.5");
    EXPECT_EQ(pts[1].label,
              "HardHarvestBlock/BFS/seed2/candidateFraction=0.5");
    EXPECT_EQ(pts[2].label,
              "HardHarvestBlock/PRank/seed1/candidateFraction=0.5");
    EXPECT_EQ(pts[4].label,
              "HardHarvestBlock/BFS/seed1/candidateFraction=1.0");
    EXPECT_EQ(pts.back().label,
              "NoHarvest/PRank/seed2/candidateFraction=1.0");

    // Overrides and sweep values land on every expanded config.
    for (const auto &p : pts)
        EXPECT_EQ(p.cfg.requestsPerVm, 40u);
    EXPECT_DOUBLE_EQ(pts[0].cfg.candidateFraction, 0.5);
    EXPECT_DOUBLE_EQ(pts[4].cfg.candidateFraction, 1.0);
    EXPECT_EQ(pts[0].seed, 1u);
    EXPECT_EQ(pts[1].seed, 2u);
    EXPECT_EQ(pts[2].batchApp, "PRank");
}

TEST(ExpSpec, EmptySpecDefaultsToOnePoint)
{
    const ExperimentSpec spec;
    const auto pts = spec.points();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].label, "HardHarvestBlock/BFS/seed1");
    EXPECT_EQ(pts[0].batchApp, "BFS");
    EXPECT_EQ(pts[0].seed, 1u);
}

TEST(ExpSpec, ErrorsCarryLineNumbers)
{
    ExperimentSpec spec;
    std::string err;

    EXPECT_FALSE(parseSpec("requestsPerVm = 40\nbogusKey = 3\n",
                           &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("bogusKey"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("requestsPerVm = abc\n", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("systems = NotASystem\n", &spec, &err));
    EXPECT_NE(err.find("unknown system"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("just some words\n", &spec, &err));
    EXPECT_NE(err.find("expected key = value"), std::string::npos)
        << err;

    EXPECT_FALSE(parseSpec("seeds = 1 two\n", &spec, &err));
    EXPECT_NE(err.find("bad seed"), std::string::npos) << err;

    // Sweep values are validated at parse time too.
    EXPECT_FALSE(
        parseSpec("sweep.candidateFraction = 0.5 oops\n", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    // candidateFraction must lie in (0, 1]; NaN compares false with
    // every bound, so it needs rejecting explicitly. Plain keys and
    // sweep axes both report the line.
    for (const char *bad : {"0", "1.5", "nan", "-0.25"}) {
        const std::string v(bad);
        EXPECT_FALSE(parseSpec("name = x\ncandidateFraction = " + v +
                                   "\n",
                               &spec, &err))
            << v;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("candidateFraction must be in (0, 1]"),
                  std::string::npos)
            << err;
        EXPECT_FALSE(parseSpec("sweep.candidateFraction = 0.5 " + v +
                                   "\n",
                               &spec, &err))
            << v;
        EXPECT_NE(err.find("line 1"), std::string::npos) << err;
        EXPECT_NE(err.find("candidateFraction must be in (0, 1]"),
                  std::string::npos)
            << err;
    }
    ASSERT_TRUE(parseSpec("candidateFraction = 1\n", &spec, &err))
        << err;

    // Scalar keys take exactly one value.
    EXPECT_FALSE(parseSpec("requestsPerVm = 40 80\n", &spec, &err));
    EXPECT_NE(err.find("one value"), std::string::npos) << err;
}

TEST(ExpSpec, CommentsAndBlankLinesIgnored)
{
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpec("\n# only a comment\n\nname = x # tail\n",
                          &spec, &err))
        << err;
    EXPECT_EQ(spec.name, "x");
}

TEST(ExpSpec, ApplySpecKeyCoversFieldTypes)
{
    SystemConfig cfg;
    std::string err;

    ASSERT_TRUE(applySpecKey(cfg, "requestsPerVm", "123", &err)) << err;
    EXPECT_EQ(cfg.requestsPerVm, 123u);

    ASSERT_TRUE(applySpecKey(cfg, "warmupFraction", "0.25", &err))
        << err;
    EXPECT_DOUBLE_EQ(cfg.warmupFraction, 0.25);

    ASSERT_TRUE(applySpecKey(cfg, "harvesting", "false", &err)) << err;
    EXPECT_FALSE(cfg.harvesting);
    ASSERT_TRUE(applySpecKey(cfg, "harvesting", "1", &err)) << err;
    EXPECT_TRUE(cfg.harvesting);

    ASSERT_TRUE(applySpecKey(cfg, "repl", "CDP", &err)) << err;
    EXPECT_EQ(cfg.repl, hh::cache::ReplKind::CDP);

    EXPECT_FALSE(applySpecKey(cfg, "repl", "FIFO", &err));
    EXPECT_NE(err.find("unknown replacement policy"),
              std::string::npos)
        << err;

    EXPECT_FALSE(applySpecKey(cfg, "noSuchField", "1", &err));
    EXPECT_NE(err.find("unknown config key"), std::string::npos) << err;

    EXPECT_FALSE(applySpecKey(cfg, "requestsPerVm", "12x", &err));
    EXPECT_NE(err.find("bad unsigned"), std::string::npos) << err;
}

TEST(ExpSpec, SystemKindNamesResolveBothForms)
{
    SystemKind k;
    ASSERT_TRUE(systemKindByName("Harvest-Term", &k));
    EXPECT_EQ(k, SystemKind::HarvestTerm);
    ASSERT_TRUE(systemKindByName("HarvestTerm", &k));
    EXPECT_EQ(k, SystemKind::HarvestTerm);
    ASSERT_TRUE(systemKindByName("NoHarvest", &k));
    EXPECT_EQ(k, SystemKind::NoHarvest);
    ASSERT_TRUE(systemKindByName("HardHarvest-Block", &k));
    EXPECT_EQ(k, SystemKind::HardHarvestBlock);
    EXPECT_FALSE(systemKindByName("hardharvestblock", &k));
    EXPECT_FALSE(systemKindByName("", &k));
}

TEST(ExpSpec, NonFiniteDoublesAreRejected)
{
    // Every double-valued key, with a value it accepts (the sweep
    // axes below pair it with the bad one).
    const struct
    {
        const char *key;
        const char *good;
    } keys[] = {{"loadScale", "1"},
                {"warmupFraction", "0.1"},
                {"candidateFraction", "1"},
                {"harvestWayFraction", "0.5"},
                {"waysFraction", "1"},
                {"llcMbPerCore", "2"},
                {"policyPeriodMs", "1"},
                {"policyEwmaAlpha", "0.3"},
                {"policyLendUtil", "0.35"},
                {"policyHoldUtil", "1"},
                {"policyEpsilon", "0.1"},
                {"policyP99TargetMs", "10"},
                {"policyP99Penalty", "1"},
                {"cacheLendL2WayFraction", "0.25"},
                {"cacheLendPeriodMs", "1"},
                {"cacheLendTermMs", "5"}};
    ExperimentSpec spec;
    std::string err;
    for (const auto &k : keys) {
        const std::string key(k.key);
        ASSERT_TRUE(parseSpec(key + " = " + k.good + "\n", &spec, &err))
            << err;
        for (const char *bad : {"nan", "inf", "-inf", "1e999"}) {
            SCOPED_TRACE(key + " = " + bad);
            EXPECT_FALSE(parseSpec("name = x\n" + key + " = " + bad +
                                       "\n",
                                   &spec, &err));
            EXPECT_NE(err.find("line 2"), std::string::npos) << err;
            EXPECT_NE(err.find(key), std::string::npos) << err;
            EXPECT_FALSE(parseSpec("sweep." + key + " = " + k.good +
                                       " " + bad + "\n",
                                   &spec, &err));
            EXPECT_NE(err.find("line 1"), std::string::npos) << err;
        }
    }
}

TEST(ExpSpec, OutOfRangeScalesAreRejected)
{
    ExperimentSpec spec;
    std::string err;
    const struct
    {
        const char *key;
        const char *bad;
    } cases[] = {{"loadScale", "-1"},     {"loadScale", "0"},
                 {"llcMbPerCore", "-2"},  {"llcMbPerCore", "0"},
                 {"warmupFraction", "1"}, {"warmupFraction", "-0.1"}};
    for (const auto &c : cases) {
        const std::string line = std::string(c.key) + " = " + c.bad;
        SCOPED_TRACE(line);
        EXPECT_FALSE(parseSpec("name = x\n" + line + "\n", &spec, &err));
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_FALSE(parseSpec("sweep." + std::string(c.key) + " = " +
                                   "0.5 " + c.bad + "\n",
                               &spec, &err));
        EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    }
    // The closed ends of each range still parse.
    SystemConfig cfg;
    EXPECT_TRUE(applySpecKey(cfg, "warmupFraction", "0", &err)) << err;
    EXPECT_TRUE(applySpecKey(cfg, "warmupFraction", "0.99", &err))
        << err;
    EXPECT_TRUE(applySpecKey(cfg, "loadScale", "0.01", &err)) << err;
    EXPECT_TRUE(applySpecKey(cfg, "llcMbPerCore", "0.5", &err)) << err;
}
