/**
 * @file
 * Replacement-policy interface shared by caches and TLBs.
 *
 * A policy sees one set at a time through SetContext: the set's
 * packed per-way columns (tags, LRU timestamps, RRIP values) and
 * bitmaps (valid, Shared, instruction-side), which ways are harvest
 * ways (HarvestMask), which ways the current requester may use, and
 * — for the HardHarvest policy — the eviction-candidate subset (the
 * M least-recently-used ways, paper Section 4.2.3).
 */

#ifndef HH_CACHE_REPLACEMENT_H
#define HH_CACHE_REPLACEMENT_H

#include <bit>
#include <cstdint>
#include <memory>

#include "cache/config.h"

namespace hh::cache {

/**
 * Everything a policy may inspect when choosing a victim in one set.
 *
 * The column pointers address the set's `wayCount` contiguous
 * entries; a way's column values are meaningful only when its
 * validMask bit is set. SetAssocArray points them straight into its
 * own storage.
 */
struct SetContext
{
    unsigned wayCount = 0;          //!< Ways in the set.
    WayMask harvestMask = 0;        //!< Ways in the harvest region.
    WayMask allowedMask = 0;        //!< Ways the requester may fill.
    WayMask candidateMask = 0;      //!< Eviction candidates (valid ways).
    WayMask validMask = 0;          //!< Ways holding a valid entry.
    WayMask sharedMask = 0;         //!< Ways whose entry is Shared.
    WayMask instrMask = 0;          //!< Ways whose entry is I-side.
    std::uint64_t setIndex = 0;     //!< Which set (Belady oracle key).
    const Addr *tags = nullptr;               //!< Per-way tags.
    const std::uint64_t *lastUse = nullptr;   //!< Per-way LRU ticks.
    const std::uint8_t *rrpv = nullptr;       //!< Per-way RRIP values.
};

/**
 * Abstract victim-selection and metadata-update policy.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /**
     * Choose the way that should receive an incoming entry.
     *
     * Clips the harvest, allowed and candidate masks in @p ctx to
     * the set's ways, so phantom bits beyond the geometry can neither
     * be picked nor defeat a policy's fallbacks, then asks victim()
     * and checks that the answer is an in-range way. (Policies read
     * the valid/Shared/instr bitmaps only through those masks.)
     *
     * @param ctx             The set being filled.
     * @param incoming_shared Shared bit of the incoming entry.
     * @return Way index in [0, ctx.wayCount).
     */
    unsigned selectVictim(SetContext ctx, bool incoming_shared);

    /**
     * Policy-specific victim choice. Invalid allowed ways are always
     * preferred. @pre The harvest, allowed and candidate masks lie
     * within the set's ways and ctx.allowedMask is non-zero
     * (selectVictim() ensures both).
     */
    virtual unsigned victim(const SetContext &ctx,
                            bool incoming_shared) = 0;

    /**
     * Metadata update on a hit; the array has already stamped the
     * way's LRU tick. @param rrpv The way's RRIP value.
     */
    virtual void touch(std::uint8_t &rrpv) { (void)rrpv; }

    /** Metadata update on a fill (after victim selection). */
    virtual void fill(std::uint8_t &rrpv) { (void)rrpv; }

    /** Human-readable policy name. */
    virtual const char *name() const = 0;

    /**
     * True when victim() reads ctx.candidateMask. Lets the array
     * skip the M-least-recently-used selection entirely for
     * policies (LRU, RRIP, Belady) that never look at it.
     */
    virtual bool usesCandidates() const { return false; }
};

/**
 * Create a policy instance by kind.
 *
 * @param kind Selector; Belady instances must instead be built
 *             directly with their oracle (see repl_belady.h) and
 *             requesting it here is a usage error.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(ReplKind kind);

namespace detail {

/**
 * The least-recently-used way among the set bits of @p mask, lowest
 * index winning ties. Returns 64 when @p mask is empty.
 */
inline unsigned
lruWay(const std::uint64_t *lastUse, WayMask mask)
{
    unsigned best = 64;
    std::uint64_t best_use = ~0ULL;
    for (WayMask m = mask; m; m &= m - 1) {
        const auto w =
            static_cast<unsigned>(std::countr_zero(m));
        if (lastUse[w] < best_use) {
            best_use = lastUse[w];
            best = w;
        }
    }
    return best;
}

} // namespace detail

} // namespace hh::cache

#endif // HH_CACHE_REPLACEMENT_H
