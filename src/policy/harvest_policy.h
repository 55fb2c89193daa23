/**
 * @file
 * Pluggable harvest/reclaim policies (ROADMAP: "Pluggable harvest/
 * reclaim and partitioning policies").
 *
 * A `HarvestPolicy` observes the per-epoch `ObservationRow` feature
 * rows the telemetry plane materializes (src/stats/observation_view.h
 * — deliberately shaped as this input signature) and emits per-VM
 * `VmDecision`s: whether the VM's idle cores may be lent at all, how
 * eagerly blocked cores are harvested, how many idle cores are held
 * back as a reclaim guard, and how large the partitioned harvest
 * cache region is. The hypervisor/server applies decisions at epoch
 * boundaries; the lend/reclaim *mechanism* (transition costs,
 * flushes, RQ wiring) stays in src/cluster/server.cc.
 *
 * Four implementations ship:
 *  - `static`     — freezes today's SystemConfig knobs into one
 *                   immutable decision set (golden-digest tested).
 *  - `hysteresis` — per-VM EWMA core-utilization thresholds with a
 *                   reclaim guard band between them.
 *  - `critical`   — k-means clustering of VMs by MPKI/occupancy with
 *                   way distribution across the clusters (after the
 *                   CAT framework's critical-aware policy).
 *  - `bandit`     — epsilon-greedy over lend-aggressiveness arms,
 *                   reward = batch per lent core-second minus a
 *                   P99-violation penalty (the same economics the
 *                   TelemetryHub reports fleet-wide).
 *
 * Determinism contract: policies are plain deterministic state
 * machines over the observation stream (the bandit's exploration
 * draws come from a seeded, serialized Rng stream), and their full
 * state rides the 'HHCP' snapshot (section 0x16), so runs stay
 * byte-identical across worker counts and checkpoint save/load/
 * resume. See docs/POLICIES.md.
 */

#ifndef HH_POLICY_HARVEST_POLICY_H
#define HH_POLICY_HARVEST_POLICY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "stats/observation_view.h"

namespace hh::policy {

/** How eagerly a VM's blocked-on-I/O cores may be harvested. */
enum class BlockHarvestMode : std::uint32_t
{
    Never = 0,    //!< Harvest-on-termination semantics.
    Always = 1,   //!< Harvest-on-block semantics.
    /** Consult the server's blocked-time EWMA at lend time (the
     *  §4.1.5 adaptive extension). The EWMA is maintained and
     *  evaluated by the server because it updates at I/O block
     *  time, between policy epochs. */
    AdaptiveEwma = 2,
};

/**
 * Per-VM decision vector, consulted by the server at its existing
 * lend/reclaim decision sites and applied to the cache partition at
 * epoch boundaries.
 */
struct VmDecision
{
    /** Gate: may this VM's idle cores be lent at all? */
    bool lendAllowed = true;
    BlockHarvestMode blockMode = BlockHarvestMode::Always;
    /** Idle cores held back from lending (reclaim guard / burst buffer). */
    std::uint32_t emergencyBuffer = 0;
    /** Harvest-region size of the partitioned private caches. */
    double harvestWayFraction = 0.5;

    /** @name Cache-capacity leasing (src/lease/) @{ */
    /** Gate: may this VM lease cache ways to the batch VM? */
    bool cacheLendAllowed = false;
    /** Extra L2 harvest-way fraction on the lender's cores. */
    double cacheLendL2Fraction = 0.0;
    /** L3 partition ways offered to the batch VM (low ways first). */
    std::uint32_t cacheLendL3Ways = 0;
    /** @} */

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(lendAllowed);
        ar.io(blockMode);
        ar.io(emergencyBuffer);
        ar.io(harvestWayFraction);
        ar.io(cacheLendAllowed);
        ar.io(cacheLendL2Fraction);
        ar.io(cacheLendL3Ways);
    }
};

/**
 * Policy construction parameters, mirrored out of the cluster-level
 * SystemConfig by the server (src/policy does not depend on
 * src/cluster).
 */
struct PolicyConfig
{
    std::string kind = "static"; //!< Selector; see makeHarvestPolicy.
    std::uint32_t vmCount = 0;   //!< Primary VMs + the Harvest VM.
    std::uint32_t harvestVm = 0; //!< Id of the Harvest VM.
    std::uint64_t seed = 1;      //!< Experiment seed (bandit stream).

    /** @name Static knobs the extracted StaticPolicy freezes @{ */
    bool harvestOnBlock = true;
    bool adaptiveHarvest = false;
    unsigned hwEmergencyBuffer = 0;
    double harvestWayFraction = 0.5;
    /** @} */

    /** @name Cache-capacity leasing (mirrors cacheLend* knobs) @{ */
    bool cacheLendEnabled = false;
    double cacheLendL2WayFraction = 0.25;
    unsigned cacheLendL3Ways = 4;
    /** @} */

    /** @name Dynamic-policy parameters @{ */
    double lendUtil = 0.35;  //!< hysteresis: lend below this EWMA util
    /**
     * Hysteresis: arm the reclaim guard band strictly above this EWMA
     * utilization. Bound-core utilization saturates near 1 under the
     * paper's load, so the default 1.0 keeps the guard disarmed
     * (throughput-leaning); lowering it trades batch throughput for
     * fewer loan/reclaim cycles and primary tail latency.
     */
    double holdUtil = 1.0;
    double ewmaAlpha = 0.3;  //!< EWMA smoothing of epoch features
    unsigned clusters = 2;   //!< critical: k-means cluster count
    double epsilon = 0.1;    //!< bandit: exploration probability
    double p99TargetMs = 10.0; //!< bandit: epoch-P99 violation target
    double p99Penalty = 1.0;   //!< bandit: penalty weight per ms over
    /** @} */
};

/**
 * The policy interface. One instance per server; decisions index VM
 * ids in server layout order (primaries first, Harvest VM last).
 */
class HarvestPolicy
{
  public:
    virtual ~HarvestPolicy() = default;

    /** Selector name ("static", "hysteresis", ...). */
    virtual const char *name() const = 0;

    /**
     * Observe one materialized epoch row and update the decision
     * vector. Called once per policy epoch, strictly in epoch order.
     */
    virtual void observe(const hh::stats::ObservationRow &row) = 0;

    /**
     * Whether the policy consumes epoch rows at all. When false (the
     * static policy) the server schedules no policy tick.
     */
    virtual bool wantsEpochTick() const { return true; }

    /** Current decision for @p vm (falls back to the static decision
     *  for ids outside the layout, e.g. fault-injected ghost VMs). */
    const VmDecision &
    decision(std::uint32_t vm) const
    {
        return vm < decisions_.size() ? decisions_[vm] : fallback_;
    }

    std::uint32_t vmCount() const
    {
        return static_cast<std::uint32_t>(decisions_.size());
    }

    /**
     * Save/restore the decision vector plus derived state, so resumed
     * runs continue byte-identically ('HHCP' section 0x16).
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(decisions_);
        serializeState(ar);
    }

  protected:
    explicit HarvestPolicy(const PolicyConfig &cfg);

    /** Derived-state hook behind serialize(). */
    virtual void serializeState(hh::snap::Archive &ar) { (void)ar; }

    /** The decision the SystemConfig knobs describe (static seed). */
    static VmDecision staticDecision(const PolicyConfig &cfg);

    PolicyConfig cfg_;
    std::vector<VmDecision> decisions_;
    VmDecision fallback_;
};

/**
 * Build the policy selected by @p cfg.kind. On an unknown selector
 * returns nullptr with @p error set; every name harvestPolicyNames()
 * lists yields a policy and leaves @p error empty.
 */
std::unique_ptr<HarvestPolicy>
makeHarvestPolicy(const PolicyConfig &cfg, std::string *error = nullptr);

/** All valid selector strings. */
const std::vector<std::string> &harvestPolicyNames();

/** True when @p name is a valid selector. */
bool knownHarvestPolicy(const std::string &name);

} // namespace hh::policy

#endif // HH_POLICY_HARVEST_POLICY_H
