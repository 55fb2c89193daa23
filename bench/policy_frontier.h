/**
 * @file
 * Shared harvest-policy frontier sweep: one telemetry-free cluster
 * run per policy in {static, hysteresis, critical, bandit}, rendered
 * as a batch-throughput vs request-P99 frontier table plus a
 * machine-checked `policy-check` line:
 *
 *   policy-check hysteresis>=static: PASS|FAIL
 *       The first adaptive policy must not lose batch throughput
 *       against the frozen baseline at this scale.
 *
 * Used by fig_policy_frontier and `repro_all --policies` so both
 * print byte-identical tables; CI greps the PASS line.
 */

#ifndef HH_BENCH_POLICY_FRONTIER_H
#define HH_BENCH_POLICY_FRONTIER_H

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "policy/harvest_policy.h"

namespace hh::bench {

/** One policy's cluster run in the frontier sweep. */
struct PolicyPoint
{
    std::string policy;
    hh::cluster::ClusterResults results;
};

/** Mean batch throughput (tasks/sec) across the cluster's servers. */
inline double
meanBatchThroughput(const hh::cluster::ClusterResults &res)
{
    if (res.batchThroughput.empty())
        return 0.0;
    double sum = 0;
    for (const auto &[app, tput] : res.batchThroughput)
        sum += tput;
    return sum / static_cast<double>(res.batchThroughput.size());
}

/**
 * Run the frontier: every known policy over the same scale, seed,
 * and worker count.
 */
inline std::vector<PolicyPoint>
runPolicyFrontier(const hh::cluster::SystemConfig &base,
                  const BenchScale &scale, unsigned workers)
{
    std::vector<PolicyPoint> points;
    for (const std::string &name : hh::policy::harvestPolicyNames()) {
        hh::cluster::SystemConfig cfg = base;
        cfg.policy = name;
        std::printf("running policy=%s...\n", name.c_str());
        points.push_back({name,
                          hh::cluster::runCluster(cfg, scale.servers,
                                                  scale.seed, workers)});
    }
    return points;
}

/** The frontier table: throughput vs tail latency per policy. */
inline void
printPolicyFrontier(const std::vector<PolicyPoint> &points)
{
    std::printf("%-12s %12s %10s %10s %10s %10s\n", "policy",
                "batchTput", "p99[ms]", "p50[ms]", "loans",
                "reclaims");
    for (const auto &p : points) {
        std::printf("%-12s %12.2f %10.3f %10.3f %10llu %10llu\n",
                    p.policy.c_str(), meanBatchThroughput(p.results),
                    p.results.avgP99Ms(), p.results.avgP50Ms(),
                    static_cast<unsigned long long>(
                        p.results.coreLoans),
                    static_cast<unsigned long long>(
                        p.results.coreReclaims));
    }
}

/**
 * The frontier invariant; prints one grep-able line and returns the
 * number of failures.
 */
inline int
checkPolicyFrontier(const std::vector<PolicyPoint> &points)
{
    const PolicyPoint *stat = nullptr;
    const PolicyPoint *hyst = nullptr;
    for (const auto &p : points) {
        if (p.policy == "static")
            stat = &p;
        else if (p.policy == "hysteresis")
            hyst = &p;
    }
    int failures = 0;
    if (stat && hyst) {
        const double s = meanBatchThroughput(stat->results);
        const double h = meanBatchThroughput(hyst->results);
        const bool ok = h >= s;
        std::printf("policy-check hysteresis>=static: %s "
                    "(%.2f vs %.2f tasks/s)\n",
                    ok ? "PASS" : "FAIL", h, s);
        failures += ok ? 0 : 1;
    }
    return failures;
}

} // namespace hh::bench

#endif // HH_BENCH_POLICY_FRONTIER_H
