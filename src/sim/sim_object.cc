#include "sim/sim_object.hh"

#include <cstdarg>
#include <cstdio>

namespace cdna::sim {

SimContext::SimContext(std::uint64_t seed) : rng_(seed)
{
}

SimObject::SimObject(SimContext &ctx, std::string name)
    : ctx_(ctx),
      name_(std::move(name)),
      traceLane_(ctx.tracer().lane(name_))
{
    ctx_.registerObject(this);
}

void
SimObject::warn(const char *fmt, ...) const
{
    char msg[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, ap);
    va_end(ap);
    // One fprintf holds the stream lock for the whole line.
    std::fprintf(stderr, "[%14.3f us] WARN  %-14s %s\n",
                 toMicroseconds(now()), name_.c_str(), msg);
}

} // namespace cdna::sim
