/**
 * @file
 * The traced run: a serial replay of the campaign from the benchmark's
 * own code (replay.h), the distributed fan-out through the timing
 * transport decorator, and one verification pass with a span around
 * every engine call. Every per-layer metric comes from here; the
 * end-to-end metrics come from the untraced runs in workloads.cpp.
 *
 * Untraced reference points measured in the same process:
 *  - a 1-thread ExperimentEngine on the same shaders: the denominator
 *    of trace.coverage and trace.overhead_pct, and the serial shard
 *    digest the replay must match byte for byte;
 *  - a T-thread cold campaign: the denominator of
 *    campaign.parallel_efficiency.
 */
#include <cstdio>
#include <filesystem>

#include "gpu/driver.h"
#include "replay.h"
#include "timed_transport.h"
#include "tuner/distrib.h"
#include "tuner/flags.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace gsopt;

namespace {

double
ms(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

Outcome
runTraced(const RunConfig &cfg)
{
    Outcome out;
    Tracer tracer;
    const std::vector<corpus::CorpusShader> shaders = permutedCorpus(cfg.seed);

    // ---- campaign layers: serial replay with replica guards ----------
    gpu::clearDriverCache();
    const std::string replayDir = freshScratchDir("replay");
    const ReplayResult replay = replayCampaign(shaders, tracer, replayDir);
    out.attempted += shaders.size();
    if (!replay.guardError.empty()) {
        // A split that does not reproduce the library is refused, not
        // reported.
        out.fail("replica guard: " + replay.guardError);
        return out;
    }

    // Untraced 1-thread engine on the same shaders.
    gpu::clearDriverCache();
    const std::string serialDir = freshScratchDir("serial");
    uint64_t t0 = nowNs();
    uint64_t serialNs = 0;
    {
        tuner::ExperimentEngine serial(shaders, 1, serialDir);
        serialNs = nowNs() - t0;
        out.failed += serial.health().itemsQuarantined;
        for (const corpus::CorpusShader &s : shaders)
            if (tuner::serializeShardBody(serial.result(s.name)) !=
                replay.bodies.at(s.name))
                out.fail("replayed shard of " + s.name +
                         " differs from the serial engine's");
        if (const std::string d = checkGoldens(serial); !d.empty())
            out.fail(d);
    }
    const std::map<std::string, std::string> serialFiles =
        dirBytes(serialDir);
    if (const std::string d = firstDifference(serialFiles, dirBytes(replayDir));
        !d.empty())
        out.fail("replayed shard files differ from the serial engine's: " + d);

    // Warm reload of the replayed shards, then the analyses.
    {
        tuner::ExperimentEngine warm(shaders, cfg.threads, replayDir);
        ScopedSpan span(&tracer, "report.analyses");
        runAnalyses(warm);
    }

    // Untraced T-thread cold campaign.
    gpu::clearDriverCache();
    const std::string parallelDir = freshScratchDir("parallel");
    t0 = nowNs();
    {
        tuner::ExperimentEngine parallel(shaders, cfg.threads, parallelDir);
        out.failed += parallel.health().itemsQuarantined;
    }
    const uint64_t parallelNs = nowNs() - t0;
    fs::remove_all(parallelDir);

    // ---- distrib layers: timing decorator around the transport -------
    const std::string distribDir = freshScratchDir("distrib");
    tuner::distrib::Options opts;
    opts.workers = cfg.threads;
    opts.transport = tuner::distrib::TransportKind::Subprocess;
    tuner::distrib::CampaignCoordinator coord(shaders, distribDir, opts);
    uint64_t distribNs = 0;
    uint64_t spawnNs = 0, pollNs = 0, heartbeats = 0, resultBytes = 0;
    std::vector<double> unitMs;
    {
        TimedTransport transport(cfg.threads, tracer);
        t0 = nowNs();
        const tuner::distrib::DistribHealth &h = coord.run(transport);
        distribNs = nowNs() - t0;
        out.attempted += h.unitsTotal;
        out.failed += h.quarantined.size();
        spawnNs = transport.spawnNs;
        pollNs = transport.pollNs;
        heartbeats = transport.heartbeats;
        resultBytes = transport.resultBytes;
        unitMs = transport.unitMs;
    }
    if (const std::string d = firstDifference(dirBytes(distribDir), serialFiles);
        !d.empty())
        out.fail("traced merged directory differs from the campaign's: " + d);
    const tuner::distrib::DistribHealth &dh = coord.health();

    // ---- interp layers: spans around each engine call -----------------
    const VerifySet set = buildVerifySet(cfg.seed);
    const VerifyPass pass = verifyPass(set, &tracer, out);
    referenceCheck(set, &tracer, out);

    // ---- per-layer metrics ---------------------------------------------
    const std::map<std::string, Tracer::Total> t = tracer.totals();
    auto self = [&](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? uint64_t{0} : it->second.selfNs;
    };
    auto total = [&](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? uint64_t{0} : it->second.totalNs;
    };
    auto calls = [&](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    uint64_t layerNs = 0;
    for (const std::string &name : campaignLayerSpans())
        layerNs += self(name.c_str());

    auto d = [](uint64_t v) { return static_cast<double>(v); };
    auto timeMs = [&](const char *name, uint64_t ns) {
        out.metric(name, ms(ns), "ms");
    };
    auto count = [&](const char *name, double v) {
        out.metric(name, v, "count");
    };
    auto share = [&](const char *name, double v) {
        out.metric(name, v, "ratio");
    };

    timeMs("glsl.compile_ms", self("glsl.compile"));
    count("glsl.calls", calls("glsl.compile"));
    out.metric("glsl.kb_per_s",
               ratio(d(replay.glslBytes) / 1024.0,
                     d(self("glsl.compile")) / 1e9),
               "kB/s");
    timeMs("lower.ms", self("lower"));
    count("lower.calls", calls("lower"));
    timeMs("passes.tree_ms", self("passes.tree") - replay.fingerprintNs);
    count("passes.runs", d(replay.passRuns));
    count("passes.memo_hits", d(replay.passMemoHits));
    share("passes.memo_hit_ratio",
          ratio(d(replay.passMemoHits),
                d(replay.passMemoHits + replay.passRuns)));
    out.metric("passes.arena_mb", d(replay.arenaBytes) / (1024.0 * 1024.0),
               "MB");
    timeMs("ir.fingerprint_ms", replay.fingerprintNs);
    timeMs("emit.print_ms", self("emit.print"));
    count("emit.prints", calls("emit.print"));
    count("explore.variants", d(replay.variants));

    timeMs("driver.compile_ms", total("driver.compile"));
    count("driver.requests", d(replay.driverRequests));
    count("driver.misses", d(replay.driverMisses));
    share("driver.hit_ratio",
          1.0 - ratio(d(replay.driverMisses), d(replay.driverRequests)));
    timeMs("driver.front_end_ms", total("driver.front_end"));
    timeMs("driver.jit_ms", total("driver.jit"));
    count("driver.jit_ir_instrs_in", d(replay.jitInstrsIn));
    count("driver.jit_ir_instrs_out", d(replay.jitInstrsOut));
    timeMs("driver.schedule_ms", total("driver.schedule"));
    timeMs("driver.cost_ms", total("driver.cost"));
    timeMs("runtime.measure_ms", total("runtime.measure"));
    count("runtime.measurements", calls("runtime.measure"));

    timeMs("shard.serialize_ms", total("shard.serialize"));
    out.metric("shard.bytes", d(replay.shardBytes), "bytes");
    timeMs("shard.save_ms", total("shard.save"));
    timeMs("shard.load_ms", total("shard.load"));
    timeMs("report.analyses_ms", total("report.analyses"));
    share("campaign.parallel_efficiency",
          ratio(d(layerNs), cfg.threads * d(parallelNs)));

    double unitSum = 0;
    for (double u : unitMs)
        unitSum += u;
    timeMs("distrib.spawn_ms", spawnNs);
    out.metric("distrib.unit_p50_ms", quantile(unitMs, 0.5), "ms");
    out.metric("distrib.unit_p90_ms", quantile(unitMs, 0.9), "ms");
    timeMs("distrib.poll_wait_ms", pollNs);
    timeMs("distrib.coord_busy_ms", distribNs - pollNs);
    share("distrib.worker_busy_ratio",
          ratio(unitSum, cfg.threads * ms(distribNs)));
    out.metric("ipc.result_bytes", d(resultBytes), "bytes");
    count("distrib.heartbeats", d(heartbeats));
    count("distrib.requeued", d(dh.unitsRequeued));
    count("distrib.rejected", d(dh.shardsRejected));
    count("distrib.lease_expiries", d(dh.leaseExpiries));

    const double batchS = d(total("interp.batch")) / 1e9;
    const double scalarS = d(total("interp.scalar")) / 1e9;
    const double instrs = d(pass.instructions);
    timeMs("interp.batch_ms", total("interp.batch"));
    out.metric("interp.batch_minv_per_s", ratio(instrs / 1e6, batchS),
               "Minv/s");
    timeMs("interp.scalar_ms", total("interp.scalar"));
    out.metric("interp.scalar_minv_per_s", ratio(instrs / 1e6, scalarS),
               "Minv/s");
    count("interp.instructions", instrs);
    timeMs("interp.reference_ms", total("interp.reference"));

    share("trace.coverage", ratio(d(layerNs), d(serialNs)));
    out.metric("trace.overhead_pct",
               100.0 * ratio(d(replay.layerWallNs) - d(serialNs), d(serialNs)),
               "%");

    std::printf("traced: %zu spans; serial engine %.3f s, replay layers "
                "%.3f s, T=%u cold campaign %.3f s, distrib %.3f s\n",
                tracer.spans().size(), d(serialNs) / 1e9, d(layerNs) / 1e9,
                cfg.threads, d(parallelNs) / 1e9, d(distribNs) / 1e9);
    if (!cfg.traceFile.empty()) {
        std::map<std::string, std::string> meta = {
            {"workload", cfg.workload},
            {"seed", std::to_string(cfg.seed)},
            {"threads", std::to_string(cfg.threads)},
            {"registered_passes", std::to_string(tuner::flagCount())}};
        if (!tracer.writeChromeTrace(cfg.traceFile, meta))
            std::fprintf(stderr, "perfbench: could not write %s\n",
                         cfg.traceFile.c_str());
        else
            std::printf("trace written to %s\n", cfg.traceFile.c_str());
    }
    return out;
}

} // namespace perfbench
