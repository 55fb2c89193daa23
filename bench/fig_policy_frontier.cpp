/**
 * @file
 * Harvest-policy frontier: batch throughput vs request P99 for every
 * harvest/reclaim policy (src/policy/) over the HardHarvest-Block
 * configuration, plus the machine-checked frontier invariant
 * (hysteresis no worse than static on batch throughput). See
 * docs/POLICIES.md.
 *
 * Not a paper figure: the paper's hardware policy is fixed, so this
 * frontier is repo-specific evidence that the pluggable policies
 * trade throughput against tail latency as designed.
 *
 * HH_SERVERS selects how many of the 8 batch applications to run;
 * each policy point is one full cluster run.
 */

#include "policy_frontier.h"

int
main(int argc, char **argv)
{
    using namespace hh::bench;
    int failures = 0;
    const int sink_rc = figureMain(
        argc, argv,
        [&failures](const BenchScale &scale, const ObsOptions &,
                    ObsSink &) {
            printHeader("fig_policy_frontier",
                        "harvest-policy throughput/latency frontier");
            std::printf("servers=%u requests/VM=%u seed=%llu\n",
                        scale.servers, scale.requests,
                        static_cast<unsigned long long>(scale.seed));
            hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
                hh::cluster::SystemKind::HardHarvestBlock);
            applyScale(cfg, scale);
            const auto points =
                runPolicyFrontier(cfg, scale, /*workers=*/0);
            std::printf("\n");
            printPolicyFrontier(points);
            std::printf("\n");
            failures = checkPolicyFrontier(points);
        });
    return failures ? 1 : sink_rc;
}
