#include "workloads.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "glsl/frontend.h"
#include "gpu/device.h"
#include "gpu/driver.h"
#include "ir/interp.h"
#include "lower/lower.h"
#include "runtime/framework.h"
#include "support/rng.h"
#include "tuner/distrib.h"
#include "tuner/explore.h"
#include "tuner/flags.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace gsopt;

namespace {

/** The fixed tile every variant is shaded on. */
constexpr size_t kTileW = 8;
constexpr size_t kTileH = 8;
/** Batched-engine width for verify (the engine's default). */
constexpr size_t kBatchWidth = 16;
/** Fragments per variant also checked against ir::interpretReference. */
constexpr size_t kReferenceFragments = 8;

double
seconds(uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Run @p body at least @p minIters times and until @p secs elapsed. */
template <class Body>
void
timedLoop(int secs, int minIters, Body body)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(secs) * 1'000'000'000ull;
    for (int i = 0; i < minIters || nowNs() < deadline; ++i)
        body();
}

/** Set-up of campaign and distrib: the seeded shader order, with every
 * input checked through the front end so no operation can fail on it. */
std::vector<corpus::CorpusShader>
campaignInputs(uint64_t seed)
{
    std::vector<corpus::CorpusShader> shaders = permutedCorpus(seed);
    for (const corpus::CorpusShader &s : shaders)
        glsl::compileShader(s.source, s.defines);
    return shaders;
}

/** Shard body per file name (the 16-byte key/hash header stripped). */
std::map<std::string, std::string>
bodiesOf(const tuner::ExperimentEngine &engine,
         const std::vector<corpus::CorpusShader> &shaders)
{
    std::map<std::string, std::string> out;
    const uint64_t setKey = tuner::deviceSetKey();
    for (const corpus::CorpusShader &s : shaders)
        out[tuner::shardFileName(s, tuner::shardKey(s, setKey))] =
            tuner::serializeShardBody(engine.result(s.name));
    return out;
}

/** "" when every shard file in @p files carries the body in @p bodies. */
std::string
checkBodies(const std::map<std::string, std::string> &files,
            const std::map<std::string, std::string> &bodies)
{
    if (files.size() != bodies.size())
        return "shard count " + std::to_string(files.size()) + " vs " +
               std::to_string(bodies.size());
    for (const auto &[name, bytes] : files) {
        auto it = bodies.find(name);
        if (it == bodies.end())
            return "unexpected shard " + name;
        if (bytes.size() < 16 || bytes.compare(16, std::string::npos,
                                               it->second) != 0)
            return "body of " + name;
    }
    return "";
}

void
addEndToEnd(Outcome &out, double setup, double wall, double report,
            double rss)
{
    out.metric("setup_s", setup, "s");
    out.metric("wall_s", wall, "s");
    out.metric("report_s", report, "s");
    out.metric("peak_rss_mb", rss, "MB");
}

/**
 * The estimate for deterministic single-threaded work (the warm reload
 * and analyses, verify's per-variant tiles): the fastest sample. Other
 * load on the host only ever adds time. On the shared 4-core host this
 * benchmark was tuned on, a fixed spin loop's speed drifted by up to
 * 1.8x between 5-second windows, and medians of such work moved by
 * 15-18 % across runs while minima held steady. Work whose cost depends
 * on the shader order (the cold campaign, the fan-out) keeps the
 * median: a minimum would report the luckiest order.
 */
double
fastest(const std::vector<double> &v)
{
    return quantile(v, 0);
}

/** Human-readable spread of one run's samples. */
void
printSpread(const char *what, const std::vector<double> &v,
            const char *unit = "s")
{
    std::printf("%s: n=%zu min/q1/median/q3 %.4f/%.4f/%.4f/%.4f %s\n", what,
                v.size(), quantile(v, 0), quantile(v, 0.25), median(v),
                quantile(v, 0.75), unit);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** "" when two output maps agree bit for bit. */
std::string
compareOutputs(const std::map<std::string, ir::LaneVector> &a,
               const std::map<std::string, ir::LaneVector> &b)
{
    if (a.size() != b.size())
        return "output sets";
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first || ia->second.size() != ib->second.size())
            return "output " + ia->first;
        for (size_t c = 0; c < ia->second.size(); ++c)
            if (!sameBits(ia->second[c], ib->second[c]))
                return "output " + ia->first + "[" + std::to_string(c) +
                       "]";
    }
    return "";
}

/** "" when two tiles agree bit for bit. */
std::string
compareTiles(const runtime::TileResult &a, const runtime::TileResult &b)
{
    if (a.fragments != b.fragments ||
        a.discardedFragments != b.discardedFragments)
        return "fragment/discard counts";
    if (a.executedInstructions != b.executedInstructions)
        return "executed instruction counts";
    if (a.allFinite != b.allFinite)
        return "finiteness";
    return compareOutputs(a.outputSums, b.outputSums);
}

/** "" when two fragments agree bit for bit. */
std::string
compareFragments(const ir::InterpResult &a, const ir::InterpResult &b)
{
    if (a.discarded != b.discarded)
        return "discard";
    if (a.executedInstructions != b.executedInstructions)
        return "executed instruction count";
    return compareOutputs(a.outputs, b.outputs);
}

} // namespace

// ---- shared pieces --------------------------------------------------------

Analyses
runAnalyses(const tuner::ExperimentEngine &engine)
{
    Analyses a;
    const size_t flags = tuner::flagCount();
    const tuner::FlagSet overall = engine.bestStaticFlagsOverall();
    a.bestFlags.push_back(overall.bits);
    for (gpu::DeviceId dev : gpu::allDevices()) {
        const tuner::FlagSet best = engine.bestStaticFlags(dev);
        a.bestFlags.push_back(best.bits);
        a.values.push_back(engine.meanSpeedup(dev, best));
        a.values.push_back(engine.meanSpeedup(dev, overall));
        a.values.push_back(engine.meanBestSpeedup(dev));
        a.values.push_back(
            engine.meanSpeedup(dev, tuner::FlagSet::lunarGlassDefaults()));
        a.values.push_back(engine.meanSpeedup(dev, tuner::FlagSet::none()));
        double fig7 = 0;
        for (double v : engine.perShaderSpeedups(dev, best))
            fig7 += v;
        for (double v : engine.perShaderBestSpeedups(dev))
            fig7 += v;
        a.values.push_back(fig7);
        for (size_t bit = 0; bit < flags; ++bit) {
            double fig9 = 0;
            for (const tuner::ShaderResult &r : engine.results())
                fig9 += r.isolatedFlagSpeedup(dev, static_cast<int>(bit));
            a.values.push_back(fig9 /
                               static_cast<double>(engine.results().size()));
        }
    }
    return a;
}

std::string
compareAnalyses(const Analyses &a, const Analyses &b)
{
    if (a.bestFlags != b.bestFlags)
        return "Table I best static flags differ";
    if (a.values.size() != b.values.size())
        return "analysis series lengths differ";
    for (size_t i = 0; i < a.values.size(); ++i) {
        const double tol =
            1e-9 * std::max({1.0, std::fabs(a.values[i]),
                             std::fabs(b.values[i])});
        if (!(std::fabs(a.values[i] - b.values[i]) <= tol))
            return "analysis value " + std::to_string(i) + " differs";
    }
    return "";
}

std::string
checkGoldens(const tuner::ExperimentEngine &engine)
{
    // The pins of tests/shard_golden_test.cpp, which cover the paper's
    // 8-pass campaign only.
    struct Golden
    {
        const char *shader;
        size_t bodyBytes;
        const char *md5;
    };
    static const Golden kGoldens[] = {
        {"blur/weighted9", 19413, "9fa1bcff99cc1aa4f9a65bf8e72aa063"},
        {"tonemap/aces", 9374, "6c424f2e6d95d3dfab163937fabc3406"},
        {"uber/car_chase", 140942, "488aadc9b1001669f2cc597613f0ccbd"},
    };
    if (tuner::flagCount() != 8)
        return "";
    for (const Golden &g : kGoldens) {
        const std::string body =
            tuner::serializeShardBody(engine.result(g.shader));
        if (body.size() != g.bodyBytes || md5Hex(body) != g.md5)
            return std::string("golden md5 of ") + g.shader;
    }
    return "";
}

VerifySet
buildVerifySet(uint64_t seed)
{
    // Every corpus shader, in the seed's order: a draw of some members
    // per family would make the pass cost depend on which members were
    // drawn. The seed also picks the fragments of each variant that the
    // reference interpreter checks.
    Rng rng(hashCombine(seed, 0x7e21f1edull));
    VerifySet set;
    std::unordered_set<uint64_t> seen;
    for (const corpus::CorpusShader &shader : permutedCorpus(seed)) {
        ++set.shaders;
        const tuner::Exploration ex = tuner::exploreShader(shader);
        for (size_t v = 0; v < ex.variants.size(); ++v) {
            if (!seen.insert(ex.variants[v].sourceHash).second)
                continue;
            glsl::CompiledShader cs =
                glsl::compileShader(ex.variants[v].source);
            VerifyVariant vv;
            vv.name = shader.name + "/v" + std::to_string(v);
            vv.module = lower::lowerShader(cs);
            vv.iface = std::move(cs.interface);
            // A seeded choice of distinct fragments (partial shuffle).
            std::vector<size_t> frags(kTileW * kTileH);
            for (size_t f = 0; f < frags.size(); ++f)
                frags[f] = f;
            for (size_t k = 0; k < kReferenceFragments; ++k)
                std::swap(frags[k], frags[k + rng.below(frags.size() - k)]);
            vv.referenceFragments.assign(frags.begin(),
                                         frags.begin() + kReferenceFragments);
            set.variants.push_back(std::move(vv));
        }
    }
    return set;
}

VerifyPass
verifyPass(const VerifySet &set, Tracer *tracer, Outcome &out)
{
    VerifyPass pass;
    runtime::TileOptions batched;
    batched.width = kTileW;
    batched.height = kTileH;
    batched.batchWidth = kBatchWidth;
    runtime::TileOptions scalar = batched;
    scalar.batchWidth = 0;

    pass.variantNs.reserve(set.variants.size());
    for (const VerifyVariant &v : set.variants) {
        const int req = tracer ? tracer->request(v.name) : -1;
        const uint64_t t0 = nowNs();
        runtime::TileResult b, s;
        {
            ScopedSpan span(tracer, "interp.batch", req);
            b = runtime::interpretTile(*v.module, v.iface, batched);
        }
        {
            ScopedSpan span(tracer, "interp.scalar", req);
            s = runtime::interpretTile(*v.module, v.iface, scalar);
        }
        pass.variantNs.push_back(nowNs() - t0);
        pass.instructions += b.executedInstructions;
        ++out.attempted;
        const std::string diff = compareTiles(b, s);
        if (!diff.empty())
            out.fail(v.name + ": batched and scalar tiles differ in " + diff);
    }
    return pass;
}

std::vector<uint64_t>
referenceCheck(const VerifySet &set, Tracer *tracer, Outcome &out)
{
    std::vector<uint64_t> times;
    times.reserve(set.variants.size());
    for (const VerifyVariant &v : set.variants) {
        const int req = tracer ? tracer->request(v.name) : -1;
        // The tile sweep of runtime::interpretTile, restated: float
        // inputs take u in component 0 and v in component 1, all else
        // keeps the framework's auto-initialised value.
        ir::InterpEnv env = runtime::defaultEnvironmentCached(v.iface);
        std::vector<std::pair<std::string, size_t>> varyings;
        for (const auto &in : v.iface.inputs)
            if (!in.type.isInt() && !in.type.isArray() &&
                in.type.componentCount() > 0)
                varyings.emplace_back(
                    in.name, static_cast<size_t>(in.type.componentCount()));
        uint64_t oracleNs = 0;
        for (size_t f : v.referenceFragments) {
            const double u =
                (static_cast<double>(f % kTileW) + 0.5) / kTileW;
            const double w =
                (static_cast<double>(f / kTileW) + 0.5) / kTileH;
            for (const auto &[name, comps] : varyings) {
                ir::LaneVector &val = env.inputs[name];
                if (val.size() < comps)
                    throw std::runtime_error(v.name +
                                             ": no default value for input " +
                                             name);
                val[0] = u;
                if (comps > 1)
                    val[1] = w;
            }
            const ir::InterpResult got = ir::interpret(*v.module, env);
            const uint64_t t0 = nowNs();
            ir::InterpResult want;
            {
                ScopedSpan span(tracer, "interp.reference", req);
                want = ir::interpretReference(*v.module, env);
            }
            oracleNs += nowNs() - t0;
            ++out.attempted;
            const std::string diff = compareFragments(got, want);
            if (!diff.empty())
                out.fail(v.name + " fragment " + std::to_string(f) +
                         ": differs from ir::interpretReference in " + diff);
        }
        times.push_back(oracleNs);
    }
    return times;
}

// ---- workloads ------------------------------------------------------------

namespace {

/**
 * The measured loop shared by campaign and distrib. Each iteration
 * draws its own shader order from the seed's stream (set-up, timed),
 * then @p produce writes a cold shard directory (timed as wall); a new
 * engine reloads it warm and runs the analyses, six times (timed as
 * report, see fastest()). A fresh order per iteration makes the median
 * of wall cover many orders, so it does not hinge on where one order
 * puts the slowest shader. Every directory must match the first one,
 * and after the loop the first one must match a serial 1-thread engine
 * in corpus order: shard bytes may depend neither on the thread or
 * worker count nor on the order.
 */
Outcome
shardWorkload(const RunConfig &cfg, const char *what,
              const std::function<void(const std::vector<corpus::CorpusShader> &,
                                       const std::string &, Outcome &)>
                  &produce)
{
    Outcome out;
    Rng orders(cfg.seed);
    std::vector<double> setup, wall, report, rss;
    std::map<std::string, std::string> firstDir;
    Analyses firstAnalyses;
    timedLoop(cfg.seconds, 3, [&] {
        const uint64_t s0 = nowNs();
        const std::vector<corpus::CorpusShader> shaders =
            campaignInputs(orders.next());
        setup.push_back(seconds(nowNs() - s0));

        const std::string dir = freshScratchDir(what);
        gpu::clearDriverCache(); // cold: nothing compiled in this process
        resetPeakRss();
        const uint64_t t0 = nowNs();
        produce(shaders, dir, out);
        wall.push_back(seconds(nowNs() - t0));

        std::map<std::string, std::string> files = dirBytes(dir);
        if (firstDir.empty())
            firstDir = std::move(files);
        else if (const std::string d = firstDifference(firstDir, files);
                 !d.empty())
            out.fail(std::string(what) +
                     " shard directories differ between iterations: " + d);

        for (int rep = 0; rep < 6; ++rep) {
            const uint64_t w0 = nowNs();
            tuner::ExperimentEngine warm(shaders, cfg.threads, dir);
            Analyses a = runAnalyses(warm);
            report.push_back(seconds(nowNs() - w0));
            if (firstAnalyses.bestFlags.empty())
                firstAnalyses = a;
            else if (const std::string d = compareAnalyses(firstAnalyses, a);
                     !d.empty())
                out.fail("warm analyses differ between iterations: " + d);
            if (rep == 0) {
                if (!warm.health().healthy())
                    out.fail("warm reload was not healthy");
                if (const std::string d =
                        checkBodies(firstDir, bodiesOf(warm, shaders));
                    !d.empty())
                    out.fail("warm reload does not match the shards: " + d);
            }
        }
        rss.push_back(std::max(selfPeakRssMb(), childPeakRssMb()));
        fs::remove_all(dir);
    });

    const std::string refDir = freshScratchDir("serial-ref");
    tuner::ExperimentEngine ref(corpus::corpus(), 1, refDir);
    if (const std::string d = firstDifference(dirBytes(refDir), firstDir);
        !d.empty())
        out.fail(std::string(what) +
                 " shards differ from the serial reference: " + d);
    if (const std::string d = checkGoldens(ref); !d.empty())
        out.fail(d);
    if (const std::string d = compareAnalyses(runAnalyses(ref), firstAnalyses);
        !d.empty())
        out.fail("analyses differ from the serial reference: " + d);
    fs::remove_all(refDir);

    printSpread("setup", setup);
    printSpread("wall", wall);
    printSpread("report", report);
    printSpread("peak rss", rss, "MB");
    addEndToEnd(out, median(setup), median(wall), fastest(report),
                median(rss));
    return out;
}

} // namespace

Outcome
runCampaign(const RunConfig &cfg)
{
    return shardWorkload(
        cfg, "campaign",
        [&](const std::vector<corpus::CorpusShader> &shaders,
            const std::string &dir, Outcome &out) {
            tuner::ExperimentEngine cold(shaders, cfg.threads, dir);
            out.attempted += shaders.size() * gpu::allDevices().size();
            out.failed += cold.health().itemsQuarantined;
        });
}

Outcome
runDistrib(const RunConfig &cfg)
{
    tuner::distrib::Options opts;
    opts.workers = cfg.threads;
    opts.transport = tuner::distrib::TransportKind::Subprocess;
    return shardWorkload(
        cfg, "distrib",
        [&](const std::vector<corpus::CorpusShader> &shaders,
            const std::string &dir, Outcome &out) {
            tuner::distrib::CampaignCoordinator coord(shaders, dir, opts);
            const tuner::distrib::DistribHealth &h = coord.run();
            out.attempted += h.unitsTotal;
            out.failed += h.quarantined.size();
        });
}

Outcome
runVerify(const RunConfig &cfg)
{
    Outcome out;
    // A pass's time is the sum over variants of each variant's fastest
    // sample (see fastest()). The set-up is repeated every iteration
    // (the same seed builds the same set) so its median samples the
    // whole run.
    std::vector<std::vector<double>> passSamples, refSamples;
    std::vector<double> setup, passTotals, rss;
    uint64_t instructions = 0;
    timedLoop(cfg.seconds, 3, [&] {
        const uint64_t s0 = nowNs();
        const VerifySet set = buildVerifySet(cfg.seed);
        setup.push_back(seconds(nowNs() - s0));
        if (passSamples.empty()) {
            std::printf("verify: %zu shaders, %zu distinct variants, %zu "
                        "fragments each checked against the reference, "
                        "%zux%zu tile\n",
                        set.shaders, set.variants.size(),
                        kReferenceFragments, kTileW, kTileH);
            passSamples.resize(set.variants.size());
            refSamples.resize(set.variants.size());
        }

        resetPeakRss();
        const VerifyPass pass = verifyPass(set, nullptr, out);
        const std::vector<uint64_t> ref = referenceCheck(set, nullptr, out);
        if (pass.variantNs.size() != passSamples.size()) {
            out.fail("the verify set changed between iterations");
            return;
        }
        double total = 0;
        for (size_t v = 0; v < pass.variantNs.size(); ++v) {
            passSamples[v].push_back(seconds(pass.variantNs[v]));
            total += seconds(pass.variantNs[v]);
        }
        passTotals.push_back(total);
        for (size_t v = 0; v < ref.size(); ++v)
            refSamples[v].push_back(seconds(ref[v]));
        if (instructions != 0 && pass.instructions != instructions)
            out.fail("executed instruction count changed between passes");
        instructions = pass.instructions;
        rss.push_back(selfPeakRssMb());
    });

    double wall = 0, report = 0;
    for (const std::vector<double> &s : passSamples)
        wall += fastest(s);
    for (const std::vector<double> &s : refSamples)
        report += fastest(s);
    printSpread("setup", setup);
    printSpread("whole pass", passTotals);
    printSpread("peak rss", rss, "MB");
    addEndToEnd(out, median(setup), wall, report, median(rss));
    return out;
}

} // namespace perfbench
