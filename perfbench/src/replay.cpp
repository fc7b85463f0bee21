#include "replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "emit/emit.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "gpu/codegen.h"
#include "gpu/driver.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"
#include "support/rng.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"

namespace perfbench {

namespace {

using namespace gsopt;

/** The vendor JIT pass sequence of a DeviceModel, as the driver runs
 * it before scheduling. */
void
vendorPasses(ir::Module &module, const gpu::DeviceModel &device)
{
    passes::canonicalize(module);
    if (device.jitFlags.unroll && device.jitUnrollTrips > 0) {
        passes::unroll(module, device.jitUnrollTrips,
                       device.jitUnrollInstrs);
        passes::canonicalize(module);
    }
    if (device.jitFlags.hoist && device.jitHoistArmInstrs > 0) {
        passes::hoist(module, device.jitHoistArmInstrs);
        passes::canonicalize(module);
    }
    if (device.jitFlags.coalesce) {
        passes::coalesce(module);
        passes::canonicalize(module);
    }
    if (device.jitFlags.reassociate) {
        passes::reassociate(module);
        passes::canonicalize(module);
    }
    if (device.jitFlags.gvn) {
        passes::gvn(module);
        passes::canonicalize(module);
    }
}

/** Cost analysis plus the register/occupancy/latency accounting the
 * driver derives from it. */
gpu::ShaderBinary
costOut(const ir::Module &module, const gpu::DeviceModel &device)
{
    gpu::ShaderBinary bin;
    bin.cost = gpu::analyzeModule(module, device);
    bin.spilledRegs =
        std::max(0.0, bin.cost.maxLiveRegs - device.spillThreshold);
    const double spill_cycles = bin.spilledRegs * device.spillCost;
    const double resident =
        std::min(bin.cost.maxLiveRegs, device.spillThreshold);
    const double capacity = device.regBudget * device.maxWaves;
    bin.occupancyWaves = std::clamp(
        capacity / std::max(1.0, resident), 1.0, device.maxWaves);
    const double hide =
        std::min(1.0, bin.occupancyWaves / device.wavesToHideTex);
    bin.texStallCycles =
        bin.cost.textureCount * device.texLatency * (1.0 - hide);
    const double excess =
        std::max(0.0, static_cast<double>(bin.cost.instructionCount) -
                          device.icacheInstrs);
    bin.icacheStallCycles = excess * device.icachePenalty;
    bin.cyclesPerFragment = device.baseOverheadCycles +
                            bin.cost.issueCycles() + spill_cycles +
                            bin.texStallCycles + bin.icacheStallCycles;
    return bin;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBinary(const gpu::ShaderBinary &a, const gpu::ShaderBinary &b)
{
    const gpu::CostSummary &x = a.cost, &y = b.cost;
    return sameBits(x.aluCycles, y.aluCycles) &&
           sameBits(x.movCycles, y.movCycles) &&
           sameBits(x.loadStoreCycles, y.loadStoreCycles) &&
           sameBits(x.branchCycles, y.branchCycles) &&
           sameBits(x.texIssueCycles, y.texIssueCycles) &&
           x.textureCount == y.textureCount &&
           x.instructionCount == y.instructionCount &&
           sameBits(x.maxLiveRegs, y.maxLiveRegs) &&
           sameBits(a.spilledRegs, b.spilledRegs) &&
           sameBits(a.occupancyWaves, b.occupancyWaves) &&
           sameBits(a.texStallCycles, b.texStallCycles) &&
           sameBits(a.icacheStallCycles, b.icacheStallCycles) &&
           sameBits(a.cyclesPerFragment, b.cyclesPerFragment);
}

class Replayer
{
  public:
    Replayer(Tracer &tracer, ReplayResult &out)
        : tr_(tracer), out_(out)
    {
    }

    tuner::Exploration explore(const corpus::CorpusShader &shader, int req);
    double measure(const std::string &text, const gpu::DeviceModel &device,
                   const std::string &label, int req);

  private:
    void guardFail(const std::string &why)
    {
        if (out_.guardError.empty())
            out_.guardError = why;
    }

    Tracer &tr_;
    ReplayResult &out_;
    /** Driver front end shared across devices, as the driver's own IR
     * cache does: one parse per unique text. */
    std::unordered_map<uint64_t, std::unique_ptr<ir::Module>> frontEnd_;
    /** (text, device) pairs already compiled: later requests hit. */
    std::unordered_set<uint64_t> compiled_;
};

tuner::Exploration
Replayer::explore(const corpus::CorpusShader &shader, int req)
{
    tuner::Exploration ex;
    ex.shaderName = shader.name;
    ex.family = shader.family;
    ex.originalSource = shader.source;
    ex.exploredFlagCount = tuner::flagCount();

    glsl::CompiledShader cs;
    {
        ScopedSpan span(&tr_, "glsl.compile", req);
        cs = glsl::compileShader(shader.source, shader.defines);
    }
    out_.glslBytes += shader.source.size();
    ex.preprocessedOriginal = cs.preprocessedText;

    std::unique_ptr<ir::Module> base;
    {
        ScopedSpan span(&tr_, "lower", req);
        base = lower::lowerShader(cs);
    }

    std::vector<uint64_t> comboFp(tuner::comboCount(), 0);
    std::unordered_map<uint64_t, std::string> textOfFp;
    passes::FlagTreeStats stats;
    {
        ScopedSpan span(&tr_, "passes.tree", req);
        passes::forEachFlagCombination(
            *base,
            [&](const passes::OptFlags &flags, const ir::Module &module,
                uint64_t fp) {
                comboFp[tuner::FlagSet::fromOptFlags(flags).bits] = fp;
                if (textOfFp.count(fp))
                    return;
                ScopedSpan print(&tr_, "emit.print", req);
                textOfFp.emplace(fp, emit::emitGlsl(module));
            },
            &stats);
    }
    out_.passRuns += stats.passRuns;
    out_.passMemoHits += stats.passMemoHits;
    out_.arenaBytes += stats.arenaBytes;
    out_.fingerprintNs += stats.fingerprintNs;

    {
        // Variant indices in numeric combination order, deduped by
        // text hash: exploreShader's assignment rule.
        ScopedSpan span(&tr_, "explore.assign", req);
        std::unordered_map<uint64_t, int> byTextHash;
        for (const tuner::FlagSet &flags : tuner::allFlagSets()) {
            const std::string &text = textOfFp.at(comboFp[flags.bits]);
            const uint64_t hash = fnv1a(text);
            auto [it, inserted] = byTextHash.emplace(
                hash, static_cast<int>(ex.variants.size()));
            if (inserted) {
                tuner::Variant v;
                v.source = text;
                v.sourceHash = hash;
                ex.variants.push_back(std::move(v));
            }
            ex.variants[static_cast<size_t>(it->second)]
                .producers.push_back(flags);
            ex.variantOfCombo.emplace(flags.bits, it->second);
        }
        ex.passthroughVariant = ex.variantOf(tuner::FlagSet::none());
    }
    out_.variants += ex.variants.size();

    tuner::Exploration ref;
    {
        ScopedSpan span(&tr_, "guard.explore", req);
        ref = tuner::exploreShader(shader);
    }
    bool same = ref.variants.size() == ex.variants.size() &&
                ref.passthroughVariant == ex.passthroughVariant;
    for (size_t i = 0; same && i < ex.variants.size(); ++i)
        same = ref.variants[i].sourceHash == ex.variants[i].sourceHash &&
               ref.variants[i].producers.size() ==
                   ex.variants[i].producers.size();
    if (!same)
        guardFail("decomposed exploration of " + shader.name +
                  " differs from tuner::exploreShader");
    return ex;
}

double
Replayer::measure(const std::string &text, const gpu::DeviceModel &device,
                  const std::string &label, int req)
{
    ++out_.driverRequests;
    const uint64_t textHash = fnv1a(text);
    const uint64_t key =
        hashCombine(textHash, static_cast<uint64_t>(device.id));
    if (compiled_.insert(key).second) {
        ++out_.driverMisses;
        gpu::ShaderBinary bin;
        {
            ScopedSpan compile(&tr_, "driver.compile", req);
            std::unique_ptr<ir::Module> module;
            {
                ScopedSpan span(&tr_, "driver.front_end", req);
                std::unique_ptr<ir::Module> &parsed = frontEnd_[textHash];
                if (!parsed)
                    parsed = emit::compileToIr(text);
                module = parsed->clone();
            }
            out_.jitInstrsIn += module->instructionCount();
            {
                ScopedSpan span(&tr_, "driver.jit", req);
                vendorPasses(*module, device);
            }
            out_.jitInstrsOut += module->instructionCount();
            {
                ScopedSpan span(&tr_, "driver.schedule", req);
                passes::scheduleForPressure(*module,
                                            device.schedulerWindow);
            }
            ScopedSpan span(&tr_, "driver.cost", req);
            bin = costOut(*module, device);
        }
        gpu::ShaderBinary ref;
        {
            ScopedSpan span(&tr_, "guard.driver", req);
            ref = gpu::driverCompileUncached(text, device);
        }
        if (!sameBinary(bin, ref))
            guardFail("decomposed driver compile of " + label + " on " +
                      device.name +
                      " differs from gpu::driverCompileUncached");
        // Fill the real driver cache so the measurement below times
        // only the timing protocol.
        ScopedSpan span(&tr_, "warmup.driver", req);
        gpu::driverCompile(text, device);
    }
    ScopedSpan span(&tr_, "runtime.measure", req);
    return runtime::measureShader(text, device, label).meanNs;
}

} // namespace

const std::vector<std::string> &
campaignLayerSpans()
{
    static const std::vector<std::string> names = {
        "glsl.compile",     "lower",           "passes.tree",
        "emit.print",       "explore.assign",  "driver.compile",
        "driver.front_end", "driver.jit",      "driver.schedule",
        "driver.cost",      "runtime.measure", "shard.serialize",
        "shard.save"};
    return names;
}

ReplayResult
replayCampaign(const std::vector<corpus::CorpusShader> &shaders,
               Tracer &tracer, const std::string &shardDir)
{
    ReplayResult out;
    Replayer replayer(tracer, out);
    const uint64_t t0 = nowNs();
    const size_t firstSpan = tracer.spans().size();
    const uint64_t setKey = tuner::deviceSetKey();
    std::vector<std::pair<std::string, uint64_t>> saved;

    for (const corpus::CorpusShader &shader : shaders) {
        const int req = tracer.request(shader.name);
        tuner::ShaderResult r;
        r.exploration = replayer.explore(shader, req);
        for (gpu::DeviceId dev : gpu::allDevices()) {
            const gpu::DeviceModel &device = gpu::deviceModel(dev);
            tuner::DeviceMeasurement m;
            m.originalMeanNs = replayer.measure(
                r.exploration.preprocessedOriginal, device,
                shader.name + "/original", req);
            for (size_t v = 0; v < r.exploration.variants.size(); ++v)
                m.variantMeanNs.push_back(replayer.measure(
                    r.exploration.variants[v].source, device,
                    shader.name + "/v" + std::to_string(v), req));
            r.byDevice.emplace(dev, std::move(m));
        }
        std::string body;
        {
            ScopedSpan span(&tracer, "shard.serialize", req);
            body = tuner::serializeShardBody(r);
        }
        const uint64_t key = tuner::shardKey(shader, setKey);
        const std::string path =
            shardDir + "/" + tuner::shardFileName(shader, key);
        {
            ScopedSpan span(&tracer, "shard.save", req);
            tuner::ExperimentEngine::saveShard(path, key, r);
        }
        out.shardBytes += 16 + body.size();
        out.bodies.emplace(shader.name, std::move(body));
        saved.emplace_back(path, key);
    }
    const uint64_t campaignEnd = nowNs();

    for (size_t i = 0; i < saved.size(); ++i) {
        const int req = tracer.request(shaders[i].name);
        tuner::ShaderResult loaded;
        bool ok;
        {
            ScopedSpan span(&tracer, "shard.load", req);
            ok = tuner::ExperimentEngine::loadShard(saved[i].first,
                                                    saved[i].second, loaded);
        }
        if (!ok || tuner::serializeShardBody(loaded) !=
                       out.bodies.at(shaders[i].name)) {
            if (out.guardError.empty())
                out.guardError =
                    "shard of " + shaders[i].name + " did not reload";
        }
    }

    uint64_t excluded = 0;
    const std::vector<Tracer::Span> &spans = tracer.spans();
    for (size_t i = firstSpan; i < spans.size(); ++i) {
        if (spans[i].startNs >= campaignEnd)
            break;
        const std::string name = spans[i].name;
        if (name.rfind("guard.", 0) == 0 || name.rfind("warmup.", 0) == 0)
            excluded += spans[i].endNs - spans[i].startNs;
    }
    out.layerWallNs = campaignEnd - t0 - excluded;
    return out;
}

} // namespace perfbench
