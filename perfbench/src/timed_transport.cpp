#include "timed_transport.h"

namespace perfbench {

using gsopt::tuner::distrib::TransportEvent;
using gsopt::tuner::distrib::WireUnit;

TimedTransport::TimedTransport(unsigned workers, Tracer &tracer)
    : tracer_(tracer)
{
    const uint64_t t0 = nowNs();
    inner_ = gsopt::tuner::distrib::makeSubprocessTransport(workers);
    const uint64_t t1 = nowNs();
    spawnNs += t1 - t0;
    tracer_.record("distrib.spawn", t0, t1, -1, 0);
}

unsigned
TimedTransport::workerCount() const
{
    return inner_->workerCount();
}

bool
TimedTransport::live(unsigned w) const
{
    return inner_->live(w);
}

bool
TimedTransport::assign(unsigned w, const WireUnit &unit)
{
    const uint64_t t = nowNs();
    const bool ok = inner_->assign(w, unit);
    if (ok)
        pending_[unit.id] = {t, w, tracer_.request(unit.shader.name)};
    return ok;
}

TransportEvent
TimedTransport::poll(int timeoutMs)
{
    const uint64_t t0 = nowNs();
    TransportEvent ev = inner_->poll(timeoutMs);
    const uint64_t t1 = nowNs();
    pollNs += t1 - t0;
    if (ev.kind == TransportEvent::Kind::Heartbeat)
        ++heartbeats;
    if (ev.kind == TransportEvent::Kind::Result && !ev.stale) {
        resultBytes += ev.bytes.size();
        auto it = pending_.find(ev.unit);
        if (it != pending_.end()) {
            const Pending &p = it->second;
            unitMs.push_back(static_cast<double>(t1 - p.assignedNs) / 1e6);
            tracer_.record("distrib.unit", p.assignedNs, t1, p.request,
                           p.worker + 1);
            pending_.erase(it);
        }
    }
    return ev;
}

void
TimedTransport::reap(unsigned w)
{
    const uint64_t t0 = nowNs();
    inner_->reap(w);
    tracer_.record("distrib.reap", t0, nowNs(), -1, w + 1);
}

bool
TimedTransport::revive(unsigned w)
{
    const uint64_t t0 = nowNs();
    const bool ok = inner_->revive(w);
    const uint64_t t1 = nowNs();
    spawnNs += t1 - t0;
    tracer_.record("distrib.spawn", t0, t1, -1, w + 1);
    return ok;
}

void
TimedTransport::shutdown()
{
    const uint64_t t0 = nowNs();
    inner_->shutdown();
    tracer_.record("distrib.shutdown", t0, nowNs(), -1, 0);
}

} // namespace perfbench
