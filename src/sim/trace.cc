#include "sim/trace.hh"

#include <cstdio>

namespace cdna::sim {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Picoseconds to the microsecond doubles Chrome's "ts"/"dur" expect. */
double
toUs(Time t)
{
    return static_cast<double>(t) / 1.0e6;
}

} // namespace

Tracer::LaneId
Tracer::lane(const std::string &name)
{
    for (LaneId i = 0; i < laneNames_.size(); ++i)
        if (laneNames_[i] == name)
            return i;
    laneNames_.push_back(name);
    laneWanted_.push_back(laneMatchesFilter(name) ? 1 : 0);
    return static_cast<LaneId>(laneNames_.size() - 1);
}

void
Tracer::enable(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    if (capacity_ != capacity) {
        capacity_ = capacity;
        buf_.clear();
        buf_.reserve(capacity_ <= kDefaultCapacity ? capacity_ : 0);
        total_ = 0;
    }
    enabled_ = true;
}

void
Tracer::setFilter(const std::string &filter)
{
    filter_.clear();
    std::size_t pos = 0;
    while (pos <= filter.size()) {
        std::size_t comma = filter.find(',', pos);
        if (comma == std::string::npos)
            comma = filter.size();
        if (comma > pos)
            filter_.push_back(filter.substr(pos, comma - pos));
        pos = comma + 1;
    }
    for (LaneId i = 0; i < laneNames_.size(); ++i)
        laneWanted_[i] = laneMatchesFilter(laneNames_[i]) ? 1 : 0;
}

bool
Tracer::laneMatchesFilter(const std::string &name) const
{
    if (filter_.empty())
        return true;
    for (const auto &f : filter_)
        if (name.find(f) != std::string::npos)
            return true;
    return false;
}

void
Tracer::push(const Event &e)
{
    if (buf_.size() < capacity_)
        buf_.push_back(e);
    else
        buf_[total_ % capacity_] = e;
    ++total_;
}

void
Tracer::span(LaneId lane, const char *name, Time start, Time dur,
             const char *arg_name, std::uint64_t arg)
{
    push(Event{start, dur, name, arg_name, static_cast<double>(arg), lane,
               Kind::kSpan});
}

void
Tracer::instant(LaneId lane, const char *name, Time at,
                const char *arg_name, std::uint64_t arg)
{
    push(Event{at, 0, name, arg_name, static_cast<double>(arg), lane,
               Kind::kInstant});
}

void
Tracer::counter(LaneId lane, const char *name, Time at, double value)
{
    push(Event{at, 0, name, nullptr, value, lane, Kind::kCounter});
}

std::size_t
Tracer::eventCount() const
{
    return buf_.size();
}

std::uint64_t
Tracer::droppedCount() const
{
    return total_ > buf_.size() ? total_ - buf_.size() : 0;
}

void
Tracer::clear()
{
    buf_.clear();
    total_ = 0;
}

void
Tracer::appendEventJson(std::string &out, const Event &e) const
{
    char buf[256];
    switch (e.kind) {
      case Kind::kSpan:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                      "\"tid\":%u,\"ts\":%.6f,\"dur\":%.6f",
                      e.name, e.lane, toUs(e.start), toUs(e.dur));
        out += buf;
        break;
      case Kind::kInstant:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                      "\"pid\":0,\"tid\":%u,\"ts\":%.6f",
                      e.name, e.lane, toUs(e.start));
        out += buf;
        break;
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,"
                      "\"tid\":%u,\"ts\":%.6f,\"args\":{\"value\":%.6g}}",
                      e.name, e.lane, toUs(e.start), e.arg);
        out += buf;
        return;
    }
    if (e.argName) {
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%.17g}",
                      e.argName, e.arg);
        out += buf;
    }
    out += "}";
}

std::string
Tracer::toChromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char buf[256];
    bool first = true;
    for (LaneId i = 0; i < laneNames_.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                      first ? "" : ",\n", i,
                      jsonEscape(laneNames_[i]).c_str());
        out += buf;
        first = false;
    }
    // Oldest surviving event first (ring may have wrapped).
    std::size_t n = buf_.size();
    std::size_t start = total_ > n ? total_ % capacity_ : 0;
    for (std::size_t k = 0; k < n; ++k) {
        out += first ? "" : ",\n";
        first = false;
        appendEventJson(out, buf_[(start + k) % n]);
    }
    out += "\n]}\n";
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toChromeJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace cdna::sim
