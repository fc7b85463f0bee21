/**
 * @file
 * A WorkerTransport decorator that timestamps the coordinator's calls
 * into the subprocess transport: assign, poll, reap, revive and
 * shutdown. Each unit's assign -> Result interval becomes a span on its
 * worker's lane; time blocked in poll() is the coordinator's wait.
 */
#ifndef PERFBENCH_TIMED_TRANSPORT_H
#define PERFBENCH_TIMED_TRANSPORT_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "trace.h"
#include "tuner/distrib.h"

namespace perfbench {

class TimedTransport final : public gsopt::tuner::distrib::WorkerTransport
{
  public:
    /** Spawns @p workers subprocess workers (timed as spawn). */
    TimedTransport(unsigned workers, Tracer &tracer);

    unsigned workerCount() const override;
    bool live(unsigned w) const override;
    bool assign(unsigned w,
                const gsopt::tuner::distrib::WireUnit &unit) override;
    gsopt::tuner::distrib::TransportEvent poll(int timeoutMs) override;
    void reap(unsigned w) override;
    bool revive(unsigned w) override;
    void shutdown() override;

    uint64_t spawnNs = 0;     ///< transport construction + revives
    uint64_t pollNs = 0;      ///< time blocked in poll()
    uint64_t resultBytes = 0; ///< shard bytes received in Results
    uint64_t heartbeats = 0;
    std::vector<double> unitMs; ///< assign -> Result per unit

  private:
    struct Pending
    {
        uint64_t assignedNs = 0;
        unsigned worker = 0;
        int request = -1;
    };

    Tracer &tracer_;
    std::unique_ptr<gsopt::tuner::distrib::WorkerTransport> inner_;
    std::map<uint64_t, Pending> pending_; ///< by unit id
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_TRANSPORT_H
