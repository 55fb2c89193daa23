#include "cache/repl_lru.h"

namespace hh::cache {

unsigned
LruPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    (void)incoming_shared;
    // Any invalid slot; the lowest-index one for determinism.
    const WayMask inv = ctx.allowedMask & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    return detail::lruWay(ctx.lastUse, ctx.allowedMask);
}

} // namespace hh::cache
