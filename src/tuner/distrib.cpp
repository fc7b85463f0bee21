#include "tuner/distrib.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/diag.h"
#include "support/fault.h"
#include "support/governor.h"
#include "support/ipc.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/time.h"

extern char **environ;

namespace gsopt::tuner::distrib {

namespace fs = std::filesystem;

namespace {

// ---- protocol vocabulary ------------------------------------------------

constexpr uint32_t kHello = 1;     ///< W->C: {u64 pid}
constexpr uint32_t kUnit = 2;      ///< C->W: encoded WireUnit
constexpr uint32_t kResult = 3;    ///< W->C: {u64 id, str shardBytes}
constexpr uint32_t kUnitError = 4; ///< W->C: {u64 id, str message}
constexpr uint32_t kHeartbeat = 5; ///< W->C: {u64 id}
constexpr uint32_t kShutdown = 6;  ///< C->W: {}

const char *const kWorkerFdsEnv = "GSOPT_DISTRIB_WORKER_FDS";

std::string
encodeUnit(const WireUnit &u)
{
    ipc::Pack p;
    p.u64(u.id).u64(u.key).u64(u.heartbeatMs);
    p.str(u.shader.name).str(u.shader.family).str(u.shader.source);
    p.u64(u.shader.defines.size());
    for (const auto &[k, v] : u.shader.defines)
        p.str(k).str(v);
    return p.take();
}

bool
decodeUnit(std::string_view payload, WireUnit &u)
{
    ipc::Unpack up(payload);
    uint64_t ndefs = 0;
    if (!up.u64(u.id) || !up.u64(u.key) || !up.u64(u.heartbeatMs) ||
        !up.str(u.shader.name) || !up.str(u.shader.family) ||
        !up.str(u.shader.source) || !up.u64(ndefs) ||
        ndefs > (1ull << 16))
        return false;
    for (uint64_t i = 0; i < ndefs; ++i) {
        std::string k, v;
        if (!up.str(k) || !up.str(v))
            return false;
        u.shader.defines.emplace(std::move(k), std::move(v));
    }
    return up.done();
}

// ---- knobs --------------------------------------------------------------

unsigned
defaultWorkerCount()
{
    return static_cast<unsigned>(envUint("GSOPT_DISTRIB_WORKERS", 2, 1));
}

uint64_t
defaultLeaseMs()
{
    return envUint("GSOPT_LEASE_MS", 30000, 1);
}

// ---- worker loop --------------------------------------------------------

/** The worker side of the frame protocol, the same for both hosts: say
 * hello, then execute units read from @p in until kShutdown or EOF,
 * heartbeating on @p out while each one runs. Throws on a broken
 * stream; the host then dies like a crashed worker would. */
void
workerLoop(int in, int out)
{
    std::mutex writeMutex;
    {
        ipc::Pack hello;
        hello.u64(static_cast<uint64_t>(::getpid()));
        std::lock_guard lock(writeMutex);
        ipc::writeFrame(out, kHello, hello.bytes());
    }
    ipc::Frame f;
    while (ipc::readFrame(in, f)) {
        if (f.type == kShutdown)
            return;
        if (f.type != kUnit)
            throw ipc::ProtocolError(
                "distrib worker: unexpected frame type " +
                std::to_string(f.type));
        WireUnit unit;
        if (!decodeUnit(f.payload, unit))
            throw ipc::ProtocolError(
                "distrib worker: malformed unit payload");

        // Heartbeat while the unit executes, so the coordinator can
        // tell a slow unit from a dead worker.
        std::atomic<bool> done{false};
        const uint64_t hbMs =
            unit.heartbeatMs == 0 ? 1000 : unit.heartbeatMs;
        std::thread heartbeat([&] {
            uint64_t sinceBeat = 0;
            while (!done.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                sinceBeat += 5;
                if (sinceBeat < hbMs)
                    continue;
                sinceBeat = 0;
                try {
                    ipc::Pack beat;
                    beat.u64(unit.id);
                    std::lock_guard lock(writeMutex);
                    ipc::writeFrame(out, kHeartbeat, beat.bytes());
                } catch (const std::exception &) {
                    return; // coordinator gone; result send will fail
                }
            }
        });

        std::string resultBytes, errorMsg;
        bool ok = false;
        try {
            resultBytes = executeUnit(unit.shader, unit.key);
            ok = true;
        } catch (const std::exception &e) {
            errorMsg = e.what();
        }
        done.store(true, std::memory_order_relaxed);
        heartbeat.join();

        ipc::Pack reply;
        reply.u64(unit.id);
        reply.str(ok ? resultBytes : errorMsg);
        std::lock_guard lock(writeMutex);
        ipc::writeFrame(out, ok ? kResult : kUnitError, reply.bytes());
    }
}

/** Thread-host body. The thread owns both of its pipe ends and closes
 * them itself, whether workerLoop returns or throws (see the rules on
 * PipeTransport). */
void
runWorkerThread(int in, int out)
{
    try {
        workerLoop(in, out);
    } catch (...) {
        // A dead coordinator pipe or an injected ipc fault. The failure
        // reaches the coordinator as EOF on this worker's stream
        // (WorkerDied), exactly as from a crashed subprocess.
    }
    ::close(in);
    ::close(out);
}

// ---- transport ----------------------------------------------------------

/** Read /proc/self/exe (Linux). */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error(
            "distrib: cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return std::string(buf);
}

/** Pipe writes to a dead worker must fail with EPIPE, not kill the
 * process. Installed once, first use. */
void
ignoreSigpipeOnce()
{
    static const bool done = [] {
        ::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)done;
}

/**
 * The one WorkerTransport. Every worker slot speaks the support/ipc
 * frame protocol over its own pair of pipes, and runs workerLoop in
 * one of two hosts (TransportKind):
 *
 *  - Subprocess: a re-execution of this binary with
 *    GSOPT_DISTRIB_WORKER_FDS=3,4 in its environment — commands
 *    arrive on fd 3, results leave on fd 4 (the hosting main() must
 *    divert into maybeRunWorker()). Workers inherit the parent
 *    environment as of transport construction, so ambient GSOPT_*
 *    configuration — fault plans, budgets, extra passes — governs
 *    them identically.
 *  - InProcess: a std::thread of this process over a pipe2 pair.
 *
 * The handshake, pump, heartbeats, the ipc.* fault sites and
 * WorkerDied on EOF or a corrupt stream are one code path; only
 * spawn, retire and shutdown branch on the host. Two rules keep
 * thread hosts safe:
 *  1. ignoreSigpipeOnce() runs for both hosts: a thread writing to a
 *     retired slot's pipe must get EPIPE, not raise a SIGPIPE that
 *     kills the whole process.
 *  2. The thread owns its two pipe ends and closes them itself when
 *     workerLoop returns or throws; retire() closes only the
 *     coordinator's ends. Were retire() to close the worker's ends,
 *     their fd numbers could be reused by the revived slot's new
 *     pipe, and the abandoned thread would then write frames into
 *     the new worker's stream.
 * A thread cannot be killed: a retired one runs its unit to the end,
 * meets EPIPE or EOF, and is joined at shutdown.
 */
class PipeTransport final : public WorkerTransport
{
  public:
    PipeTransport(TransportKind host, unsigned workers) : host_(host)
    {
        ignoreSigpipeOnce();
        if (host_ == TransportKind::Subprocess) {
            if (std::getenv(kWorkerFdsEnv)) {
                // A coordinator inside a worker would re-spawn this
                // binary recursively; the hosting main() forgot to
                // call maybeRunWorker(). Fail loudly before forking.
                std::fprintf(stderr,
                             "distrib: %s is set inside a coordinator "
                             "— the host binary must call "
                             "distrib::maybeRunWorker() first in "
                             "main()\n",
                             kWorkerFdsEnv);
                std::abort();
            }
            exe_ = selfExePath();
            buildChildEnv();
        }
        slots_.resize(workers);
        for (unsigned w = 0; w < workers; ++w) {
            // A thread fails its handshake only by dying (threads share
            // this process's fault plan): leave the slot dead for the
            // coordinator to revive. A subprocess that never says hello
            // is a host binary that does not divert into
            // maybeRunWorker().
            if (!spawn(w) && host_ == TransportKind::Subprocess) {
                shutdown();
                throw std::runtime_error(
                    "distrib: failed to spawn worker " +
                    std::to_string(w) + " (no handshake — does the "
                    "host binary call distrib::maybeRunWorker()?)");
            }
        }
    }

    ~PipeTransport() override { shutdown(); }

    unsigned workerCount() const override
    {
        return static_cast<unsigned>(slots_.size());
    }

    bool live(unsigned w) const override { return slots_[w].live; }

    bool assign(unsigned w, const WireUnit &unit) override
    {
        Slot &s = slots_[w];
        if (!s.live)
            return false;
        try {
            ipc::writeFrame(s.toWorker, kUnit, encodeUnit(unit));
            return true;
        } catch (const std::exception &) {
            // Failed or torn send: the stream is unusable either way.
            retire(s);
            return false;
        }
    }

    TransportEvent poll(int timeoutMs) override
    {
        if (queue_.empty())
            pump(timeoutMs);
        if (queue_.empty())
            return {};
        TransportEvent ev = std::move(queue_.front());
        queue_.pop_front();
        return ev;
    }

    void reap(unsigned w) override { retire(slots_[w]); }

    bool revive(unsigned w) override
    {
        if (slots_[w].live)
            return true;
        return spawn(w);
    }

    void shutdown() override
    {
        for (Slot &s : slots_) {
            if (!s.live)
                continue;
            try {
                ipc::writeFrame(s.toWorker, kShutdown, {});
            } catch (const std::exception &) {
            }
        }
        // Subprocesses get a grace period, then SIGKILL. A thread
        // leaves once its pipes close: idle, it reads the shutdown
        // frame; mid-unit, its result send fails with EPIPE.
        const uint64_t deadline = nowNs() + 2'000'000'000ull;
        for (Slot &s : slots_) {
            if (!s.live)
                continue;
            if (host_ == TransportKind::Subprocess &&
                exitsBy(s.pid, deadline))
                closeFds(s);
            else
                retire(s);
        }
        for (std::thread &t : retired_)
            t.join();
        retired_.clear();
    }

  private:
    struct Slot
    {
        pid_t pid = -1;       ///< subprocess host
        std::thread thread;   ///< thread host
        int toWorker = -1;    ///< coordinator's write end
        int fromWorker = -1;  ///< coordinator's read end
        bool live = false;
        ipc::FrameDecoder decoder;
    };

    void buildChildEnv()
    {
        childEnv_.clear();
        for (char **e = environ; e && *e; ++e) {
            if (std::strncmp(*e, kWorkerFdsEnv,
                             std::strlen(kWorkerFdsEnv)) == 0 &&
                (*e)[std::strlen(kWorkerFdsEnv)] == '=')
                continue;
            childEnv_.push_back(*e);
        }
        childEnv_.push_back(std::string(kWorkerFdsEnv) + "=3,4");
        childEnvPtrs_.clear();
        for (std::string &s : childEnv_)
            childEnvPtrs_.push_back(s.data());
        childEnvPtrs_.push_back(nullptr);
        childArgv_ = {exe_.data(),
                      const_cast<char *>("--gsopt-distrib-worker"),
                      nullptr};
    }

    /** Reap child @p pid if it exits before @p deadlineNs. */
    static bool exitsBy(pid_t pid, uint64_t deadlineNs)
    {
        while (nowNs() < deadlineNs) {
            const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
            if (r == pid || (r < 0 && errno == ECHILD))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    /** Close the coordinator's ends only (rule 2). */
    static void closeFds(Slot &s)
    {
        if (s.toWorker >= 0)
            ::close(s.toWorker);
        if (s.fromWorker >= 0)
            ::close(s.fromWorker);
        s.toWorker = s.fromWorker = -1;
        s.decoder = ipc::FrameDecoder();
        s.live = false;
    }

    /** Forcibly end a slot's worker: SIGKILL a subprocess; cut a
     * thread off from its pipes and keep it for joining. */
    void retire(Slot &s)
    {
        if (s.toWorker < 0)
            return;
        if (host_ == TransportKind::Subprocess) {
            ::kill(s.pid, SIGKILL);
            ::waitpid(s.pid, nullptr, 0);
        } else {
            retired_.push_back(std::move(s.thread));
        }
        closeFds(s);
    }

    /** Start @p s's worker and hand it the worker ends of @p c2w and
     * @p w2c (c2w[0] in, w2c[1] out): a thread takes ownership of
     * them; a child inherits them and the parent closes its copies. */
    bool launch(Slot &s, const int c2w[2], const int w2c[2])
    {
        if (host_ == TransportKind::InProcess) {
            const int in = c2w[0], out = w2c[1];
            try {
                s.thread = std::thread(runWorkerThread, in, out);
            } catch (const std::system_error &) {
                ::close(in);
                ::close(out);
                return false;
            }
            return true;
        }
        const pid_t pid = ::fork();
        if (pid == 0) {
            // Child: only async-signal-safe calls until execve. Park
            // the pipe ends above the target range first so dup2
            // cannot collide with fds 3/4, then pin them (dup2 clears
            // CLOEXEC on the duplicate; the originals close on exec).
            const int in = ::fcntl(c2w[0], F_DUPFD, 16);
            const int out = ::fcntl(w2c[1], F_DUPFD, 16);
            if (in < 0 || out < 0 || ::dup2(in, 3) < 0 ||
                ::dup2(out, 4) < 0)
                ::_exit(126);
            ::execve(childArgv_[0], childArgv_.data(),
                     childEnvPtrs_.data());
            ::_exit(127);
        }
        ::close(c2w[0]);
        ::close(w2c[1]);
        s.pid = pid;
        return pid > 0;
    }

    bool spawn(unsigned w)
    {
        Slot &s = slots_[w];
        int c2w[2], w2c[2];
        if (::pipe2(c2w, O_CLOEXEC) != 0)
            return false;
        if (::pipe2(w2c, O_CLOEXEC) != 0) {
            ::close(c2w[0]);
            ::close(c2w[1]);
            return false;
        }
        s.toWorker = c2w[1];
        s.fromWorker = w2c[0];
        if (!launch(s, c2w, w2c)) {
            closeFds(s);
            return false;
        }

        // Handshake: the worker announces itself with kHello before
        // anything else. A child that never says hello is a binary
        // that does not divert into maybeRunWorker() — kill it before
        // it does something expensive (like running a test suite).
        const uint64_t deadline = nowNs() + 10'000'000'000ull;
        while (nowNs() < deadline) {
            struct pollfd pfd = {s.fromWorker, POLLIN, 0};
            const int r = ::poll(&pfd, 1, 100);
            if (r < 0 && errno != EINTR)
                break;
            if (r <= 0)
                continue;
            char buf[4096];
            const ssize_t n = ::read(s.fromWorker, buf, sizeof(buf));
            if (n <= 0)
                break;
            s.decoder.feed(buf, static_cast<size_t>(n));
            ipc::Frame f;
            try {
                if (!s.decoder.next(f))
                    continue;
            } catch (const ipc::ProtocolError &) {
                break;
            }
            if (f.type != kHello)
                break;
            s.live = true;
            return true;
        }
        retire(s);
        return false;
    }

    /** Drain readable worker pipes into events (at most one read per
     * worker per call; complete frames queue up). */
    void pump(int timeoutMs)
    {
        std::vector<struct pollfd> pfds;
        std::vector<unsigned> owners;
        for (unsigned w = 0; w < workerCount(); ++w) {
            if (!slots_[w].live)
                continue;
            pfds.push_back({slots_[w].fromWorker, POLLIN, 0});
            owners.push_back(w);
        }
        if (pfds.empty()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::min(timeoutMs, 10)));
            return;
        }
        const int r = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()),
                             timeoutMs);
        if (r <= 0)
            return;
        for (size_t i = 0; i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const unsigned w = owners[i];
            Slot &s = slots_[w];
            char buf[1 << 16];
            const ssize_t n = ::read(s.fromWorker, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                streamDead(w);
                continue;
            }
            if (n == 0) {
                // EOF. Mid-frame bytes mean the worker died mid-send
                // (a short frame); either way the worker is gone.
                streamDead(w);
                continue;
            }
            s.decoder.feed(buf, static_cast<size_t>(n));
            drainFrames(w);
        }
    }

    void drainFrames(unsigned w)
    {
        Slot &s = slots_[w];
        ipc::Frame f;
        for (;;) {
            try {
                // Receiver-side fault: an injected ipc.recv failure
                // poisons this worker's stream, same as real garbage.
                fault::point("ipc.recv");
                if (!s.decoder.next(f))
                    return;
            } catch (const std::exception &) {
                streamDead(w);
                return;
            }
            TransportEvent ev;
            ev.worker = w;
            ipc::Unpack up(f.payload);
            switch (f.type) {
            case kResult:
                ev.kind = TransportEvent::Kind::Result;
                if (!up.u64(ev.unit) || !up.str(ev.bytes) ||
                    !up.done()) {
                    streamDead(w);
                    return;
                }
                break;
            case kUnitError:
                ev.kind = TransportEvent::Kind::UnitError;
                if (!up.u64(ev.unit) || !up.str(ev.bytes) ||
                    !up.done()) {
                    streamDead(w);
                    return;
                }
                break;
            case kHeartbeat:
                ev.kind = TransportEvent::Kind::Heartbeat;
                if (!up.u64(ev.unit)) {
                    streamDead(w);
                    return;
                }
                break;
            case kHello:
                continue; // benign (re-handshake noise)
            default:
                streamDead(w);
                return;
            }
            queue_.push_back(std::move(ev));
        }
    }

    void streamDead(unsigned w)
    {
        retire(slots_[w]);
        TransportEvent ev;
        ev.kind = TransportEvent::Kind::WorkerDied;
        ev.worker = w;
        queue_.push_back(std::move(ev));
    }

    TransportKind host_;
    std::string exe_;
    std::vector<std::string> childEnv_;
    std::vector<char *> childEnvPtrs_;
    std::vector<char *> childArgv_;
    std::vector<Slot> slots_;
    /** Threads of retired thread-host slots, joined at shutdown. */
    std::vector<std::thread> retired_;
    std::deque<TransportEvent> queue_;
};

} // namespace

bool
maybeRunWorker()
{
    const char *env = std::getenv(kWorkerFdsEnv);
    if (!env || !*env)
        return false;
    int in = -1, out = -1;
    if (std::sscanf(env, "%d,%d", &in, &out) != 2 || in < 0 ||
        out < 0) {
        std::fprintf(stderr, "%s: malformed value '%s'\n",
                     kWorkerFdsEnv, env);
        std::abort();
    }
    try {
        workerLoop(in, out);
    } catch (const std::exception &e) {
        // A dead coordinator pipe or an injected send fault: die like
        // a crashed worker would — the coordinator re-queues.
        std::fprintf(stderr, "distrib worker: %s\n", e.what());
        std::_Exit(1);
    }
    return true;
}

std::string
executeUnit(const corpus::CorpusShader &shader, uint64_t key)
{
    const uint64_t expected = shardKey(shader, deviceSetKey());
    if (expected != key) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "shard key mismatch for '%s': coordinator "
                      "%016llx vs worker %016llx (pass registry, "
                      "device set, or schema drift)",
                      shader.name.c_str(),
                      static_cast<unsigned long long>(key),
                      static_cast<unsigned long long>(expected));
        throw std::runtime_error(msg);
    }

    // One unit = one governed request: an ambient GSOPT_DEADLINE_MS /
    // GSOPT_BUDGET_* bounds each unit, and the engine's per-item
    // admission points defer to this outer budget.
    governor::ScopedRequestBudget admission;

    ExperimentEngine engine({shader}, 1);
    if (!engine.health().healthy()) {
        // A worker never publishes a partial shard; surface the first
        // structured reason and let the coordinator decide.
        std::string why = "unit failed";
        if (!engine.health().quarantined.empty())
            why += ": " + engine.health().quarantined.front().error;
        throw std::runtime_error(why);
    }
    return shardFileBytes(key, engine.results().front());
}

std::string
DistribHealth::summary() const
{
    std::string out =
        "distrib health: " + std::to_string(unitsTotal) + " units (" +
        std::to_string(unitsFromCache) + " cached, " +
        std::to_string(unitsCompleted) + " completed, " +
        std::to_string(quarantined.size()) + " quarantined), " +
        std::to_string(unitsRequeued) + " requeues, " +
        std::to_string(shardsRejected) + " shards rejected, " +
        std::to_string(duplicateDeliveries) + " duplicates, " +
        std::to_string(leaseExpiries) + " lease expiries, " +
        std::to_string(workersRestarted) + " worker restarts\n";
    for (const QuarantinedUnit &q : quarantined)
        out += "  quarantined " + q.shader + " after " +
               std::to_string(q.assignments) +
               " assignment(s): " + q.error + "\n";
    return out;
}

// ---- coordinator --------------------------------------------------------

struct CampaignCoordinator::Unit
{
    size_t shaderIndex = 0;
    uint64_t key = 0;
    std::string path;
    int assignments = 0;
    bool done = false;
};

CampaignCoordinator::CampaignCoordinator(
    std::vector<corpus::CorpusShader> shaders, std::string shardDir,
    Options opts)
    : shaders_(std::move(shaders)), shardDir_(std::move(shardDir)),
      opts_(opts)
{
    if (opts_.workers == 0)
        opts_.workers = defaultWorkerCount();
    if (opts_.leaseMs == 0)
        opts_.leaseMs = defaultLeaseMs();
    if (opts_.maxAssignments < 1)
        opts_.maxAssignments = 1;
}

const DistribHealth &
CampaignCoordinator::run()
{
    PipeTransport transport(opts_.transport, opts_.workers);
    return run(transport);
}

const DistribHealth &
CampaignCoordinator::run(WorkerTransport &transport)
{
    // The transport owns OS resources (children, threads); make sure
    // they are stopped on every exit path, including a strict-mode
    // throw.
    struct ShutdownGuard
    {
        WorkerTransport &t;
        ~ShutdownGuard()
        {
            try {
                t.shutdown();
            } catch (...) {
            }
        }
    } guard{transport};

    health_ = DistribHealth{};
    const bool strict = strictMode();

    std::error_code ec;
    fs::create_directories(shardDir_, ec);

    // ---- enumerate units; resume over surviving shards ------------
    const uint64_t setKey = deviceSetKey();
    std::vector<Unit> units;
    for (size_t i = 0; i < shaders_.size(); ++i) {
        health_.unitsTotal++;
        Unit u;
        u.shaderIndex = i;
        u.key = shardKey(shaders_[i], setKey);
        u.path = shardDir_ + "/" + shardFileName(shaders_[i], u.key);
        ShaderResult existing;
        if (ExperimentEngine::loadShard(u.path, u.key, existing)) {
            health_.unitsFromCache++;
            continue; // resume: this unit is already done
        }
        units.push_back(std::move(u));
    }

    // Retire shards no current unit claims (stale keys, dropped
    // shaders) so the merged directory equals a fresh campaign's.
    sweepShardDir(shardDir_, shaders_, setKey);

    // ---- schedule: family representatives first --------------------
    // Measuring one member of each übershader family before the tail
    // gets every family's prior measured early — late arrivals can be
    // seeded from it (TransferSeededSearch) instead of swept.
    std::vector<size_t> reps, tail;
    std::set<std::string> seenFamilies;
    for (size_t ui = 0; ui < units.size(); ++ui) {
        const std::string &family =
            shaders_[units[ui].shaderIndex].family;
        if (seenFamilies.insert(family).second)
            reps.push_back(ui);
        else
            tail.push_back(ui);
    }
    if (opts_.scheduleSeed != 0) {
        auto shuffle = [&](std::vector<size_t> &v, uint64_t salt) {
            Rng rng(hashCombine(opts_.scheduleSeed, salt));
            for (size_t i = v.size(); i > 1; --i)
                std::swap(v[i - 1], v[rng.below(i)]);
        };
        shuffle(reps, 0x5265u);
        shuffle(tail, 0x7461u);
    }
    std::deque<size_t> pending(reps.begin(), reps.end());
    pending.insert(pending.end(), tail.begin(), tail.end());

    // ---- merge helpers ---------------------------------------------
    enum class Merge { Published, Duplicate, Invalid };
    auto merge_shard = [&](Unit &u,
                           const std::string &bytes) -> Merge {
        if (fs::exists(u.path))
            return Merge::Duplicate; // copy only if the key is absent
        // Verification gate: key, checksum and structure through the
        // loader's own parser, before anything touches the directory.
        // Nothing a worker sent is trusted until it parses.
        ShaderResult parsed;
        if (!parseShardFile(bytes, u.key, parsed, u.path))
            return Merge::Invalid;
        // Injected shard.write tears are local write failures: retry
        // the publish, and leave no abandoned .tmp behind.
        for (int attempt = 0; attempt < 3; ++attempt) {
            if (publishShardFile(u.path, bytes).empty())
                return Merge::Published;
        }
        fs::remove(u.path + ".tmp", ec);
        return Merge::Invalid;
    };

    auto requeue_or_quarantine = [&](size_t ui,
                                     const std::string &err) {
        Unit &u = units[ui];
        if (u.assignments < opts_.maxAssignments) {
            pending.push_back(ui);
            health_.unitsRequeued++;
            return;
        }
        QuarantinedUnit q;
        q.shader = shaders_[u.shaderIndex].name;
        q.error = err;
        q.assignments = u.assignments;
        u.done = true; // retired; a late valid delivery still merges
        warn("distrib: quarantined unit " + q.shader + " after " +
             std::to_string(q.assignments) + " assignment(s): " + err);
        health_.quarantined.push_back(std::move(q));
        if (strict)
            throw std::runtime_error(
                "distrib: unit '" +
                shaders_[u.shaderIndex].name +
                "' quarantined under GSOPT_STRICT=1: " + err);
    };

    // ---- main loop --------------------------------------------------
    struct Outstanding
    {
        size_t unit;
        uint64_t deadlineNs;
    };
    std::map<unsigned, Outstanding> outstanding;
    const uint64_t leaseNs = opts_.leaseMs * 1'000'000ull;
    const uint64_t heartbeatMs =
        std::max<uint64_t>(10, opts_.leaseMs / 4);
    int stuckRounds = 0;

    while (!pending.empty() || !outstanding.empty()) {
        // Assign pending units to idle workers, reviving dead slots
        // on demand while work remains.
        for (unsigned w = 0;
             w < transport.workerCount() && !pending.empty(); ++w) {
            if (outstanding.count(w))
                continue;
            if (!transport.live(w)) {
                if (!transport.revive(w))
                    continue;
                health_.workersRestarted++;
            }
            size_t ui = pending.front();
            // A re-queued unit can complete in the meantime via a
            // late (stale) delivery from its first worker; drop it.
            while (units[ui].done) {
                pending.pop_front();
                if (pending.empty())
                    break;
                ui = pending.front();
            }
            if (pending.empty() || units[ui].done)
                break;
            WireUnit wire;
            wire.id = ui;
            wire.key = units[ui].key;
            wire.heartbeatMs = heartbeatMs;
            wire.shader = shaders_[units[ui].shaderIndex];
            if (!transport.assign(w, wire))
                continue; // send failed; unit stays queued
            pending.pop_front();
            units[ui].assignments++;
            outstanding[w] = Outstanding{ui, nowNs() + leaseNs};
        }

        if (outstanding.empty()) {
            if (pending.empty())
                break;
            // Nothing assignable: every slot is dead and revival
            // failed. Give it a few rounds, then give up loudly.
            if (++stuckRounds >= 3) {
                while (!pending.empty()) {
                    const size_t ui = pending.front();
                    pending.pop_front();
                    units[ui].assignments = opts_.maxAssignments;
                    requeue_or_quarantine(
                        ui, "no live workers (spawn/revive failed)");
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }
        stuckRounds = 0;

        // Wait for the next event, but never past the nearest lease.
        uint64_t nearest = UINT64_MAX;
        for (const auto &[w, o] : outstanding)
            nearest = std::min(nearest, o.deadlineNs);
        const uint64_t now = nowNs();
        int timeoutMs = 50;
        if (nearest != UINT64_MAX) {
            const uint64_t untilMs =
                nearest > now ? (nearest - now) / 1'000'000ull : 0;
            timeoutMs = static_cast<int>(
                std::min<uint64_t>(untilMs + 1, 50));
        }

        TransportEvent ev = transport.poll(timeoutMs);
        switch (ev.kind) {
        case TransportEvent::Kind::Result: {
            if (ev.unit >= units.size())
                break; // nonsense id from a hostile stream
            Unit &u = units[ev.unit];
            auto it = outstanding.find(ev.worker);
            const bool current = !ev.stale &&
                                 it != outstanding.end() &&
                                 it->second.unit == ev.unit;
            if (u.done) {
                // A unit completed twice (lease reassignment raced a
                // slow worker): merge-if-absent discards the copy.
                health_.duplicateDeliveries++;
            } else {
                switch (merge_shard(u, ev.bytes)) {
                case Merge::Published:
                    u.done = true;
                    health_.unitsCompleted++;
                    break;
                case Merge::Duplicate:
                    u.done = true;
                    health_.duplicateDeliveries++;
                    break;
                case Merge::Invalid:
                    health_.shardsRejected++;
                    warn("distrib: rejected shard for '" +
                         shaders_[u.shaderIndex].name +
                         "' (checksum/structural validation failed)");
                    requeue_or_quarantine(
                        ev.unit, "delivered shard failed validation");
                    break;
                }
            }
            if (current)
                outstanding.erase(it);
            break;
        }
        case TransportEvent::Kind::UnitError: {
            if (ev.unit >= units.size())
                break;
            auto it = outstanding.find(ev.worker);
            const bool current = !ev.stale &&
                                 it != outstanding.end() &&
                                 it->second.unit == ev.unit;
            if (!units[ev.unit].done)
                requeue_or_quarantine(ev.unit, ev.bytes);
            if (current)
                outstanding.erase(it);
            break;
        }
        case TransportEvent::Kind::Heartbeat: {
            auto it = outstanding.find(ev.worker);
            if (it != outstanding.end())
                it->second.deadlineNs = nowNs() + leaseNs;
            break;
        }
        case TransportEvent::Kind::WorkerDied: {
            auto it = outstanding.find(ev.worker);
            if (it != outstanding.end()) {
                const size_t ui = it->second.unit;
                outstanding.erase(it);
                if (!units[ui].done)
                    requeue_or_quarantine(ui,
                                          "worker died mid-unit");
            }
            break;
        }
        case TransportEvent::Kind::None:
            break;
        }

        // Lease sweep: a worker that neither delivered nor beat its
        // heart inside the lease is presumed stuck — reap it and give
        // the unit to someone else (bounded by maxAssignments).
        const uint64_t sweepNow = nowNs();
        for (auto it = outstanding.begin();
             it != outstanding.end();) {
            if (it->second.deadlineNs > sweepNow) {
                ++it;
                continue;
            }
            const unsigned w = it->first;
            const size_t ui = it->second.unit;
            health_.leaseExpiries++;
            warn("distrib: lease expired for unit '" +
                 shaders_[units[ui].shaderIndex].name + "' on worker " +
                 std::to_string(w) + "; reaping");
            transport.reap(w);
            it = outstanding.erase(it);
            if (!units[ui].done)
                requeue_or_quarantine(ui,
                                      "lease expired (worker stalled)");
        }
    }

    if (!health_.healthy())
        std::fprintf(stderr, "%s", health_.summary().c_str());
    return health_;
}

std::unique_ptr<WorkerTransport>
makeInProcessTransport(unsigned workers)
{
    return std::make_unique<PipeTransport>(
        TransportKind::InProcess,
        workers == 0 ? defaultWorkerCount() : workers);
}

std::unique_ptr<WorkerTransport>
makeSubprocessTransport(unsigned workers)
{
    return std::make_unique<PipeTransport>(
        TransportKind::Subprocess,
        workers == 0 ? defaultWorkerCount() : workers);
}

} // namespace gsopt::tuner::distrib
