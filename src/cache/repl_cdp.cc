#include "cache/repl_cdp.h"

namespace hh::cache {

unsigned
CdpPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    const WayMask allowed = ctx.allowedMask;
    const WayMask non_harvest = allowed & ~ctx.harvestMask;
    const WayMask harvest = allowed & ctx.harvestMask;

    // Invalid slots first, same region preference as HardHarvest.
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv) {
        const WayMask preferred =
            inv & (incoming_shared ? non_harvest : harvest);
        return static_cast<unsigned>(
            std::countr_zero(preferred ? preferred : inv));
    }

    // CDP's defining choice: protect instruction entries; evict data
    // entries first, regardless of their shared/private nature.
    const WayMask cand = ctx.candidateMask & allowed;
    const WayMask data = ctx.validMask & ~ctx.instrMask;
    const WayMask first_region = incoming_shared ? non_harvest : harvest;
    const WayMask second_region = incoming_shared ? harvest : non_harvest;

    WayMask victims = cand & first_region & data;
    if (!victims)
        victims = cand & second_region & data;
    if (!victims)
        victims = cand; // all candidates are instructions: plain LRU
    if (!victims)
        victims = allowed;

    return detail::lruWay(ctx.lastUse, victims);
}

} // namespace hh::cache
