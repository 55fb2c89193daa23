#include "cache/repl_hardharvest.h"

namespace hh::cache {

unsigned
HardHarvestPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    // Validity and sharedness come as bitmaps, so the five priority
    // classes reduce to mask algebra plus one LRU scan.
    const WayMask allowed = ctx.allowedMask;
    const WayMask non_harvest = allowed & ~ctx.harvestMask;
    const WayMask harvest = allowed & ctx.harvestMask;

    // Classes 1-2: invalid slots, preferred region first. These are
    // exempt from the eviction-candidate restriction (nothing is
    // evicted when filling an empty slot).
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv) {
        const WayMask preferred =
            inv & (incoming_shared ? non_harvest : harvest);
        return static_cast<unsigned>(
            std::countr_zero(preferred ? preferred : inv));
    }

    // Classes 3-4: private entries, region order depends on the
    // incoming entry's type; restricted to eviction candidates.
    const WayMask cand = ctx.candidateMask & allowed;
    const WayMask priv = ctx.validMask & ~ctx.sharedMask;
    const WayMask first_region = incoming_shared ? non_harvest : harvest;
    const WayMask second_region = incoming_shared ? harvest : non_harvest;

    WayMask victims = cand & first_region & priv;
    if (!victims)
        victims = cand & second_region & priv;

    // Class 5: every candidate holds a shared entry; LRU among them.
    if (!victims)
        victims = cand;

    // Safety net: a degenerate candidate mask (e.g. all candidates
    // outside the allowed region) falls back to plain LRU over
    // allowed ways.
    if (!victims)
        victims = allowed;

    return detail::lruWay(ctx.lastUse, victims);
}

} // namespace hh::cache
