/**
 * @file
 * One-shot paper reproduction through the experiment engine
 * (src/exp/): runs the Figure 11 / 14 / 17 harnesses through the
 * JobScheduler — deduplicated, memoized against a crash-resumable
 * result ledger, and warm-started where configs share a prefix —
 * renders each figure byte-identically to its standalone binary, and
 * finishes with the machine-checked FidelityGate over the
 * EXPERIMENTS.md verdict tables.
 *
 * Usage:
 *   repro_all [--scale quick|default|full] [--seeds N]
 *             [--ledger path | --no-ledger] [--gate off|direction|full]
 *             [--workers N] [--spec file] [--telemetry out.jsonl]
 *             [--policies] [--graphs] [--cache-harvest]
 *
 * `--scale` presets the HH_REQUESTS / HH_SERVERS / HH_SAMPLING knobs
 * (explicit environment variables still win under `default`).
 * `--seeds N` replicates every figure over N consecutive seeds and
 * reports mean / 95% CI per measurement; the gate then judges the
 * means. A second invocation with the same ledger re-simulates
 * nothing ("0 simulated" in the engine summary). `--spec` adds the
 * points of a key=value experiment spec (docs/EXPERIMENTS_ENGINE.md)
 * to the same batch. `--policies` appends the harvest-policy
 * frontier sweep; `--graphs` appends the service-graph fleet sweep
 * (src/svc/) with its per-policy depth-monotone P99 check
 * (HH_GRAPH_SERVERS overrides the fleet size); `--cache-harvest`
 * appends the cache-capacity harvesting sweep (src/lease/) with its
 * machine-checked cache-check invariants.
 *
 * Exit code: nonzero when any fidelity, policy, graph, or
 * cache-harvest check fails.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/telemetry_hub.h"
#include "exp/fidelity.h"
#include "exp/ledger.h"
#include "exp/spec.h"
#include "cache_harvest.h"
#include "figures.h"
#include "policy_frontier.h"
#include "service_graph.h"
#include "sim/log.h"
#include "stats/percentile.h"

namespace {

using namespace hh::bench;

struct Args
{
    std::string scale = "default";
    unsigned seeds = 1;
    std::string ledgerPath = "repro_ledger.jsonl";
    bool noLedger = false;
    std::string gate = "direction";
    unsigned workers = 0;
    std::string specPath;
    std::string telemetryPath;
    bool policies = false;
    bool graphs = false;
    bool cacheHarvest = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    hh::sim::fatal(
        "usage: ", argv0,
        " [--scale quick|default|full] [--seeds N]"
        " [--ledger path | --no-ledger]"
        " [--gate off|direction|full] [--workers N] [--spec file]"
        " [--telemetry out.jsonl] [--policies] [--graphs]"
        " [--cache-harvest]");
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scale" && i + 1 < argc) {
            a.scale = argv[++i];
            if (a.scale != "quick" && a.scale != "default" &&
                a.scale != "full")
                usage(argv[0]);
        } else if (arg == "--seeds" && i + 1 < argc) {
            a.seeds = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (a.seeds == 0)
                usage(argv[0]);
        } else if (arg == "--ledger" && i + 1 < argc) {
            a.ledgerPath = argv[++i];
        } else if (arg == "--no-ledger") {
            a.noLedger = true;
        } else if (arg == "--gate" && i + 1 < argc) {
            a.gate = argv[++i];
            if (a.gate != "off" && a.gate != "direction" &&
                a.gate != "full")
                usage(argv[0]);
        } else if (arg == "--workers" && i + 1 < argc) {
            a.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--spec" && i + 1 < argc) {
            a.specPath = argv[++i];
        } else if (arg == "--telemetry" && i + 1 < argc) {
            a.telemetryPath = argv[++i];
        } else if (arg == "--policies") {
            a.policies = true;
        } else if (arg == "--graphs") {
            a.graphs = true;
        } else if (arg == "--cache-harvest") {
            a.cacheHarvest = true;
        } else {
            usage(argv[0]);
        }
    }
    return a;
}

/** Preset the scale knobs; `default` keeps the env-derived values. */
void
applyScalePreset(BenchScale &scale, const std::string &preset)
{
    if (preset == "quick") {
        scale.requests = 96;
        scale.sampling = 32;
        scale.servers = 2;
    } else if (preset == "full") {
        scale.requests = 800;
        scale.sampling = 8;
        scale.servers = 8;
    }
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        hh::sim::fatal("cannot read ", path);
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** The figure harnesses of one replication seed. */
struct SeedSet
{
    Fig11Harness f11;
    Fig14Harness f14;
    Fig17Harness f17;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    BenchScale scale;
    applyScalePreset(scale, args.scale);

    std::string command;
    for (int i = 0; i < argc; ++i) {
        if (i)
            command += ' ';
        command += argv[i];
    }

    const unsigned hw = std::thread::hardware_concurrency();
    hh::exp::ResultLedger::Meta meta;
    meta.command = command;
    meta.hardwareThreads = hw;
    meta.poolWorkers = args.workers
                           ? args.workers
                           : hh::sim::ThreadPool::defaultWorkers();
    meta.singleCoreHost = hw <= 1;

    std::unique_ptr<hh::exp::ResultLedger> ledger;
    if (!args.noLedger) {
        std::string err;
        ledger =
            hh::exp::ResultLedger::open(args.ledgerPath, meta, &err);
        if (!ledger)
            hh::sim::fatal("cannot open ledger ", args.ledgerPath,
                           ": ", err);
    }

    printHeader("repro_all",
                "paper figures through the experiment engine");
    std::printf("command: %s\n", command.c_str());
    std::printf("scale: %s (requests=%u servers=%u sampling=%u "
                "seed=%llu seeds=%u)\n",
                args.scale.c_str(), scale.requests, scale.servers,
                scale.sampling,
                static_cast<unsigned long long>(scale.seed),
                args.seeds);
    std::printf("host: %u hardware threads, %u pool workers%s\n",
                meta.hardwareThreads, meta.poolWorkers,
                meta.singleCoreHost ? " (single-core host)" : "");
    if (ledger) {
        std::printf("ledger: %s (%zu rows recovered",
                    ledger->path().c_str(), ledger->recoveredRows());
        if (ledger->droppedRows())
            std::printf(", %zu partial rows dropped",
                        ledger->droppedRows());
        std::printf(")\n");
    }

    hh::exp::JobScheduler::Options opts;
    opts.workers = args.workers;
    opts.ledger = ledger.get();
    hh::exp::JobScheduler sched(opts);

    // repro_all never enables tracing/metrics: observability payloads
    // are deliberately outside the ledger codec (see exp/scheduler.h).
    const ObsOptions obs;
    std::vector<SeedSet> sets;
    for (unsigned i = 0; i < args.seeds; ++i) {
        BenchScale s = scale;
        s.seed = scale.seed + i;
        sets.push_back(
            {Fig11Harness(s, obs), Fig14Harness(s),
             Fig17Harness(s, obs)});
    }
    for (auto &set : sets) {
        set.f11.submit(sched);
        set.f14.submit(sched);
        set.f17.submit(sched);
    }

    hh::exp::ExperimentSpec spec;
    std::vector<hh::exp::JobScheduler::Handle> specHandles;
    if (!args.specPath.empty()) {
        std::string err;
        if (!hh::exp::parseSpec(readFile(args.specPath), &spec, &err))
            hh::sim::fatal(args.specPath, ": ", err);
        specHandles = sched.addSpec(spec);
    }

    sched.run();

    // The base seed's figure blocks, byte-identical to the
    // standalone binaries at the same scale.
    ObsSink sink(obs);
    std::printf("\n");
    sets[0].f11.print(sched, sink);
    std::printf("\n");
    sets[0].f14.print(sched);
    std::printf("\n");
    sets[0].f17.print(sched, sink);

    if (!specHandles.empty()) {
        std::printf("\nSpec '%s': %zu points\n", spec.name.c_str(),
                    specHandles.size());
        std::printf("%-44s %12s %12s\n", "point", "p99[ms]",
                    "batchTput");
        const auto pts = spec.points();
        for (std::size_t i = 0; i < specHandles.size(); ++i) {
            const auto &res = sched.serverResult(specHandles[i]);
            std::printf("%-44s %12.3f %12.2f\n", pts[i].label.c_str(),
                        res.avgP99Ms(), res.batchThroughput);
        }
    }

    // --telemetry: one telemetry-enabled cluster run at this scale,
    // rendered through the TelemetryHub into the economics JSONL plus
    // the one-page report. Like tracing/metrics, telemetry payloads
    // are deliberately outside the ledger codec, so this run bypasses
    // the scheduler.
    if (!args.telemetryPath.empty()) {
        hh::cluster::SystemConfig tcfg = hh::cluster::makeSystem(
            hh::cluster::SystemKind::HardHarvestBlock);
        applyScale(tcfg, scale);
        tcfg.telemetryEnabled = true;
        hh::cluster::ClusterResults tres = hh::cluster::runCluster(
            tcfg, scale.servers, scale.seed, args.workers);
        hh::cluster::TelemetryHub hub(tcfg);
        for (auto &t : tres.serverTelemetry)
            hub.addServer(std::move(t));
        if (!hh::cluster::writeTextFile(args.telemetryPath,
                                        hub.jsonl()))
            hh::sim::fatal("cannot write ", args.telemetryPath);
        std::printf("\ntelemetry: %s (%zu epochs)\n%s",
                    args.telemetryPath.c_str(), hub.timeline().size(),
                    hub.report().c_str());
    }

    // --policies: the harvest-policy frontier sweep (one cluster run
    // per policy at this scale) plus its machine-checked invariant.
    // Policy runs are plain runCluster calls outside the scheduler:
    // the frontier needs whole-run results, which the ledger codec
    // deliberately does not carry.
    int policy_failures = 0;
    if (args.policies) {
        hh::cluster::SystemConfig pcfg = hh::cluster::makeSystem(
            hh::cluster::SystemKind::HardHarvestBlock);
        applyScale(pcfg, scale);
        std::printf("\nHarvest-policy frontier (%u servers, "
                    "seed %llu):\n",
                    scale.servers,
                    static_cast<unsigned long long>(scale.seed));
        const auto points =
            runPolicyFrontier(pcfg, scale, args.workers);
        printPolicyFrontier(points);
        policy_failures = checkPolicyFrontier(points);
    }

    // --cache-harvest: the cache-capacity harvesting sweep
    // (src/lease/): core-only / cache-only / combined harvesting over
    // the same scale with the auditor on, plus the machine-checked
    // cache-check invariants. Like the policy frontier these are
    // plain runCluster calls outside the scheduler — the audited,
    // lease-carrying results are outside the ledger codec.
    int cache_failures = 0;
    if (args.cacheHarvest) {
        std::printf("\nCache-capacity harvesting (%u servers, "
                    "seed %llu):\n",
                    scale.servers,
                    static_cast<unsigned long long>(scale.seed));
        const auto cpoints =
            runCacheHarvestSweep(scale, args.workers);
        printCacheHarvest(cpoints);
        cache_failures = checkCacheHarvest(cpoints);
    }

    // --graphs: the service-graph fleet sweep (src/svc/): layered
    // RPC DAGs of depth 1..3 over every harvest policy,
    // with the fleet harvesting-economics table and the per-policy
    // depth-monotone P99 check. Fleet runs are cross-server
    // simulations outside the scheduler: the ledger codec carries
    // single-server results only.
    int graph_failures = 0;
    if (args.graphs) {
        const unsigned graph_servers = envUnsigned(
            "HH_GRAPH_SERVERS", args.scale == "full" ? 64 : 16);
        const std::vector<std::string> &policies =
            hh::policy::harvestPolicyNames();
        // Graph fleets multiply the classic cluster's work by the
        // fleet size, so they run at a quarter of the per-VM arrival
        // budget (HH_REQUESTS still wins through the usual quarter).
        BenchScale gscale = scale;
        gscale.requests = std::max(scale.requests / 4, 16u);
        std::printf("\nService-graph fleet economics (%u servers, "
                    "fanout 2, %u req/VM, seed %llu):\n",
                    graph_servers, gscale.requests,
                    static_cast<unsigned long long>(scale.seed));
        const auto gpoints = runGraphSweep(gscale, graph_servers,
                                           {1, 2, 3}, /*fanout=*/2,
                                           policies, args.workers);
        std::printf("\n");
        printGraphEconomics(gpoints);
        graph_failures = checkGraphMonotone(gpoints);
    }

    // Per-seed measurements; the gate judges the across-seed means.
    std::vector<hh::exp::MeasurementSet> per_seed(args.seeds);
    for (unsigned i = 0; i < args.seeds; ++i) {
        sets[i].f11.measure(sched, per_seed[i]);
        sets[i].f14.measure(sched, per_seed[i]);
        sets[i].f17.measure(sched, per_seed[i]);
    }
    hh::exp::MeasurementSet mean;
    if (args.seeds > 1)
        std::printf("\nReplication over %u seeds "
                    "(mean +/- 95%% CI half-width):\n",
                    args.seeds);
    for (const auto &[key, base_value] : per_seed[0].all()) {
        std::vector<double> values;
        for (const auto &m : per_seed) {
            if (m.has(key))
                values.push_back(m.get(key));
        }
        const auto rs = hh::stats::replicationStats(values);
        mean.set(key, rs.mean);
        if (args.seeds > 1)
            std::printf("  %-32s %12.6g +/- %-10.3g (n=%zu)\n",
                        key.c_str(), rs.mean, rs.ci95, rs.n);
    }

    const auto &st = sched.stats();
    std::printf("\nEngine: %zu submitted, %zu unique, %zu memoized, "
                "%zu simulated (%zu warm-started, %zu prefix "
                "groups)\n",
                st.submitted, st.unique, st.memoized, st.simulated,
                st.warmStarted, st.prefixGroups);
    if (ledger)
        std::printf("ledger: %s now holds %zu rows\n",
                    ledger->path().c_str(), ledger->rows());

    int rc =
        (policy_failures || graph_failures || cache_failures) ? 1 : 0;
    if (args.gate != "off") {
        const auto level = args.gate == "full"
                               ? hh::exp::GateLevel::Full
                               : hh::exp::GateLevel::Direction;
        const auto outcomes = hh::exp::evaluateFidelity(
            hh::exp::paperFidelityCatalogue(), mean, level);
        std::printf("\nFidelityGate (%s):\n", args.gate.c_str());
        std::size_t passed = 0, failed = 0, skipped = 0;
        for (const auto &o : outcomes) {
            using Status = hh::exp::FidelityOutcome::Status;
            if (o.status == Status::Skipped) {
                ++skipped;
                continue;
            }
            const bool ok = o.status == Status::Pass;
            (ok ? passed : failed)++;
            std::printf("  [%s] %-32s %s\n", ok ? "PASS" : "FAIL",
                        o.id.c_str(), o.detail.c_str());
        }
        std::printf("  %zu passed, %zu failed, %zu skipped\n", passed,
                    failed, skipped);
        if (failed)
            rc = 1;
    }
    return rc;
}
