#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common.h"

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
Tracer::request(const std::string &name)
{
    auto [it, inserted] =
        requestIds_.emplace(name, static_cast<int>(requests_.size()));
    if (inserted)
        requests_.push_back(name);
    return it->second;
}

int
Tracer::open(const char *name, int request)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_.back().startNs = nowNs();
    return id;
}

void
Tracer::close(int span)
{
    const uint64_t end = nowNs();
    spans_[static_cast<size_t>(span)].endNs = end;
    // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by
    // unwinding to the closed span.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == span)
            break;
    }
}

void
Tracer::record(const char *name, uint64_t startNs, uint64_t endNs,
               int request, unsigned lane)
{
    Span s;
    s.name = name;
    s.startNs = startNs;
    s.endNs = endNs;
    s.request = request;
    s.lane = lane;
    spans_.push_back(s);
}

std::map<std::string, Tracer::Total>
Tracer::totals() const
{
    std::vector<uint64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, Total> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const uint64_t dur = s.endNs - s.startNs;
        Total &t = out[s.name];
        ++t.calls;
        t.totalNs += dur;
        t.selfNs += dur > childNs[i] ? dur - childNs[i] : 0;
    }
    return out;
}

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &meta) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    uint64_t origin = UINT64_MAX;
    for (const Span &s : spans_)
        origin = std::min(origin, s.startNs);
    char buf[96];
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
    bool first = true;
    for (const auto &[k, v] : meta) {
        out << (first ? "" : ",") << '"' << jsonEscape(k) << "\":\""
            << jsonEscape(v) << '"';
        first = false;
    }
    out << "},\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const uint64_t start = s.startNs - origin;
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                      static_cast<double>(start) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(s.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
            << ",\"ts\":" << buf << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent;
        if (s.request >= 0)
            out << ",\"request\":\""
                << jsonEscape(requests_[static_cast<size_t>(s.request)])
                << '"';
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
