/**
 * @file
 * The four concrete HarvestPolicy implementations. Most callers go
 * through makeHarvestPolicy(); the classes are public so tests can
 * poke policy-specific state (the bandit's arm history, the
 * hysteresis EWMAs) directly.
 */

#ifndef HH_POLICY_POLICIES_H
#define HH_POLICY_POLICIES_H

#include "policy/harvest_policy.h"

namespace hh::policy {

/**
 * Freezes the SystemConfig knobs into one immutable decision set.
 * Needs no epoch tick, so a static-policy run schedules no policy
 * events; golden digests pin its results.
 */
class StaticPolicy final : public HarvestPolicy
{
  public:
    explicit StaticPolicy(const PolicyConfig &cfg);
    const char *name() const override { return "static"; }
    void observe(const hh::stats::ObservationRow &row) override;
    bool wantsEpochTick() const override { return false; }
};

/**
 * Per-VM EWMA core-utilization thresholds with a reclaim guard band.
 *
 * Below `lendUtil` the VM is idle enough to donate aggressively: no
 * emergency buffer and a widened harvest cache region. Above
 * `holdUtil` the VM is protected: one idle core is held back as a
 * reclaim guard and the harvest region narrows. Between the two
 * thresholds the previous decision sticks (the hysteresis band), so
 * a VM oscillating around one threshold does not flap its partition.
 */
class HysteresisPolicy final : public HarvestPolicy
{
  public:
    explicit HysteresisPolicy(const PolicyConfig &cfg);
    const char *name() const override { return "hysteresis"; }
    void observe(const hh::stats::ObservationRow &row) override;

    /** EWMA utilization of @p vm (tests). */
    double ewmaUtil(std::uint32_t vm) const { return ewma_[vm]; }

  protected:
    void serializeState(hh::snap::Archive &ar) override;

  private:
    std::vector<double> ewma_;
    std::vector<std::uint8_t> seeded_; //!< EWMA initialized from row 1.
};

/**
 * Critical-aware way distribution after the CAT framework's
 * clustering policy: VMs are k-means-clustered by (EWMA MPKI, cache
 * occupancy) each epoch, clusters are ranked by mean MPKI, and
 * harvest-way fractions are distributed across the ranks — the most
 * critical (highest-MPKI) cluster keeps the most private ways while
 * the least critical donates the widest harvest region. Critical VMs
 * also hold one idle core back as a burst guard.
 */
class CriticalAwarePolicy final : public HarvestPolicy
{
  public:
    explicit CriticalAwarePolicy(const PolicyConfig &cfg);
    const char *name() const override { return "critical"; }
    void observe(const hh::stats::ObservationRow &row) override;

    /** Cluster rank of @p vm, 0 = most critical (tests). */
    unsigned clusterOf(std::uint32_t vm) const { return rank_[vm]; }

  protected:
    void serializeState(hh::snap::Archive &ar) override;

  private:
    std::vector<double> mpkiEwma_;
    std::vector<std::uint8_t> seeded_;
    std::vector<std::uint32_t> rank_; //!< Per-VM cluster rank.
};

/**
 * Epsilon-greedy bandit over lend-aggressiveness arms, applied
 * uniformly to every Primary VM. Per epoch the arm active during the
 * epoch is rewarded with the run's harvesting economics, epoch-local:
 * batch tasks completed on lent cores per lent core-second, minus
 * `p99Penalty` per millisecond the epoch's request P99 exceeds
 * `p99TargetMs` (the same accounting the TelemetryHub reports
 * fleet-wide). Exploration draws come from a dedicated seeded Rng
 * stream, so the same seed yields the same arm sequence.
 */
class BanditPolicy final : public HarvestPolicy
{
  public:
    /** One lend-aggressiveness arm. */
    struct Arm
    {
        const char *label;
        bool lendAllowed;
        /** Use the configured (static) block mode instead of
         *  @ref blockMode — the "default" arm must reproduce the
         *  config exactly. */
        bool configBlockMode;
        BlockHarvestMode blockMode;
        /** Added on top of the configured emergency buffer. */
        std::uint32_t emergencyBuffer;
        /** Harvest-way-fraction delta against the configured base. */
        double fractionDelta;
    };

    explicit BanditPolicy(const PolicyConfig &cfg);
    const char *name() const override { return "bandit"; }
    void observe(const hh::stats::ObservationRow &row) override;

    /** The arm chosen for each completed epoch, in order (tests). */
    const std::vector<std::uint32_t> &armHistory() const
    {
        return history_;
    }
    /** Mean reward per arm (tests, reports). */
    const std::vector<double> &armValues() const { return values_; }

    static const std::vector<Arm> &arms();

  protected:
    void serializeState(hh::snap::Archive &ar) override;

  private:
    void applyArm(std::uint32_t arm);

    hh::sim::Rng rng_;
    std::uint32_t current_ = 0;
    std::vector<double> values_;        //!< Incremental mean reward.
    std::vector<std::uint64_t> pulls_;
    std::vector<std::uint32_t> history_;
};

} // namespace hh::policy

#endif // HH_POLICY_POLICIES_H
