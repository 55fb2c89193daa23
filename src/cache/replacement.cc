#include "cache/replacement.h"

#include "cache/repl_cdp.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "sim/log.h"

namespace hh::cache {

unsigned
ReplacementPolicy::selectVictim(SetContext ctx, bool incoming_shared)
{
    // A caller-side mask wider than the set (e.g. a HarvestMask
    // programmed for a larger structure, or a candidate mask carried
    // across a way rescale) would otherwise leave phantom ways in a
    // policy's victims mask: a class whose only bits are out of range
    // would defeat the fallbacks and yield no in-range way.
    const WayMask in_range =
        ctx.wayCount >= 64 ? ~WayMask{0}
                           : ((WayMask{1} << ctx.wayCount) - 1);
    ctx.harvestMask &= in_range;
    ctx.allowedMask &= in_range;
    ctx.candidateMask &= in_range;
    if (!ctx.allowedMask)
        hh::sim::panic(name(), ": empty allowed mask");
    const unsigned v = victim(ctx, incoming_shared);
    if (v >= ctx.wayCount)
        hh::sim::panic(name(), ": victim way ", v, " of ",
                       ctx.wayCount);
    return v;
}

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplKind kind)
{
    switch (kind) {
      case ReplKind::LRU:
        return std::make_unique<LruPolicy>();
      case ReplKind::RRIP:
        return std::make_unique<RripPolicy>();
      case ReplKind::HardHarvest:
        return std::make_unique<HardHarvestPolicy>();
      case ReplKind::CDP:
        return std::make_unique<CdpPolicy>();
      case ReplKind::Belady:
        hh::sim::fatal("Belady requires an oracle; construct "
                       "BeladyPolicy directly (see repl_belady.h)");
    }
    hh::sim::panic("makePolicy: unknown kind");
}

} // namespace hh::cache
