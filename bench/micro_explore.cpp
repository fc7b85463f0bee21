/**
 * @file
 * Perf trajectory for the compile-once exploration pipeline. Runs the
 * same campaign two ways over a probe set of corpus shaders:
 *
 *   legacy — the pre-refactor path: a full front end (preprocess, lex,
 *            parse, sema, lower) for every one of the 256 flag
 *            combinations, every variant printed, and the driver
 *            compile cache defeated so every measurement pays a cold
 *            vendor compile (exactly what the seed code did);
 *   new    — tuner::exploreShader (front end once, passes on clones,
 *            fingerprint dedup before the printer) plus the
 *            content-addressed driver cache.
 *
 * It prints per-phase wall-clock (front end / lower / passes /
 * fingerprint / print / driver compile / measurement), the campaign
 * totals, the interpreter microbenchmark (ir::interpret, a one-lane
 * batched run, vs the map-based reference), the measurement/verify
 * phase (per-probe ir::interpret calls vs one batched 16-lane run per
 * distinct variant — see bench/micro_interp.cpp for the full width
 * sweep), and
 * the registry-growth section: exploration
 * cost at N=8 vs N=11 (the full extra-pass catalog registered), where
 * the memoized flag tree must keep *executed* pass runs under 2x the
 * N=8 figure despite walking an 8x larger combination space. Future
 * perf PRs report against these numbers. Pass --full to run the
 * entire corpus instead of the probe set.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <unordered_set>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "gpu/driver.h"
#include "ir/interp.h"
#include "ir/interp_batch.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "runtime/framework.h"
#include "support/rng.h"
#include "tuner/explore.h"

using namespace gsopt;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The seed's exploreShader: full front end per combo, dedup on text. */
tuner::Exploration
exploreShaderLegacy(const corpus::CorpusShader &shader)
{
    tuner::Exploration ex;
    ex.shaderName = shader.name;
    ex.originalSource = shader.source;
    {
        glsl::CompiledShader cs =
            glsl::compileShader(shader.source, shader.defines);
        ex.preprocessedOriginal = cs.preprocessedText;
    }
    std::unordered_map<uint64_t, int> by_hash;
    for (const tuner::FlagSet &flags : tuner::allFlagSets()) {
        std::string text = emit::optimizeShaderSource(
            shader.source, flags.toOptFlags(), shader.defines);
        const uint64_t hash = fnv1a(text);
        auto it = by_hash.find(hash);
        int index;
        if (it == by_hash.end()) {
            index = static_cast<int>(ex.variants.size());
            by_hash.emplace(hash, index);
            tuner::Variant v;
            v.source = std::move(text);
            v.sourceHash = hash;
            ex.variants.push_back(std::move(v));
        } else {
            index = it->second;
        }
        ex.variants[static_cast<size_t>(index)].producers.push_back(
            flags);
        ex.variantOfCombo.emplace(flags.bits, index);
    }
    ex.exploredFlagCount = tuner::flagCount();
    ex.passthroughVariant = ex.variantOf(tuner::FlagSet::none());
    return ex;
}

struct CampaignTiming
{
    double exploreMs = 0;
    double measureMs = 0;
    double totalMs() const { return exploreMs + measureMs; }
    size_t variants = 0;
    size_t measurements = 0;
};

/** Measure one explored shader on every device (the engine's inner
 * loop). @p defeatCache reproduces the pre-refactor cost model: every
 * measurement recompiles its text from scratch. */
double
measureAll(const tuner::Exploration &ex, bool defeatCache,
           size_t &measurements)
{
    const double t0 = nowMs();
    for (gpu::DeviceId id : gpu::allDevices()) {
        const gpu::DeviceModel &device = gpu::deviceModel(id);
        if (defeatCache)
            gpu::clearDriverCache();
        runtime::measureShader(ex.preprocessedOriginal, device,
                               ex.shaderName + "/original");
        ++measurements;
        for (size_t v = 0; v < ex.variants.size(); ++v) {
            if (defeatCache)
                gpu::clearDriverCache();
            runtime::measureShader(ex.variants[v].source, device,
                                   ex.shaderName + "/v" +
                                       std::to_string(v));
            ++measurements;
        }
    }
    return nowMs() - t0;
}

void
interpreterMicrobench()
{
    const corpus::CorpusShader &s =
        *corpus::findShader("uber/car_chase");
    glsl::CompiledShader cs = glsl::compileShader(s.source, s.defines);
    auto module = lower::lowerShader(cs);
    passes::canonicalize(*module);
    ir::InterpEnv env = runtime::defaultEnvironment(cs.interface);

    // Warm up + pick a rep count that keeps the bench quick.
    const int reps = 200;
    auto time_engine = [&](auto &&run) {
        double best = 1e300;
        for (int trial = 0; trial < 3; ++trial) {
            const double t0 = nowMs();
            for (int r = 0; r < reps; ++r)
                run();
            best = std::min(best, nowMs() - t0);
        }
        return best;
    };

    double one_lane_ms = time_engine(
        [&] { ir::interpret(*module, env); });
    double map_ms = time_engine(
        [&] { ir::interpretReference(*module, env); });

    std::printf("Interpreter microbenchmark (uber/car_chase, %d runs, "
                "best of 3):\n",
                reps);
    std::printf("  map-based reference              : %8.2f ms  "
                "(%.1f us/run)\n",
                map_ms, map_ms * 1000.0 / reps);
    std::printf("  ir::interpret (one-lane batched) : %8.2f ms  "
                "(%.1f us/run)\n",
                one_lane_ms, one_lane_ms * 1000.0 / reps);
    std::printf("  speedup                          : %8.2fx  "
                "(target >= 5x)\n\n",
                map_ms / one_lane_ms);
}

/**
 * The measurement/verify phase: functionally probing every distinct
 * optimised variant of every probe shader against 16 environments —
 * what the fuzz walk and the campaign's functional checks do in bulk.
 * Times the one-fragment way (16 ir::interpret calls per variant)
 * against one 16-lane batched run per variant over the same memoized
 * flag-tree walk.
 */
void
verifyPhase(const std::vector<corpus::CorpusShader> &probe)
{
    constexpr size_t kProbes = 16;
    double scalarMs = 0, batchMs = 0;
    size_t variants = 0;
    for (const auto &s : probe) {
        glsl::CompiledShader cs =
            glsl::compileShader(s.source, s.defines);
        auto base = lower::lowerShader(cs);

        ir::BatchEnv benv = ir::BatchEnv::broadcast(
            runtime::defaultEnvironmentCached(cs.interface), kProbes);
        for (size_t l = 1; l < kProbes; ++l) {
            const double p =
                static_cast<double>(l) / (kProbes - 1);
            for (auto &[name, in] : benv.inputs) {
                ir::LaneVector v(in.comps);
                for (size_t c = 0; c < in.comps; ++c)
                    v[c] = 0.1 + 0.8 * p +
                           0.05 * static_cast<double>(c);
                benv.setLaneInput(name, l, v);
            }
        }
        std::vector<ir::InterpEnv> envs;
        for (size_t l = 0; l < kProbes; ++l)
            envs.push_back(benv.laneEnv(l));

        std::unordered_set<uint64_t> seen;
        passes::forEachFlagCombination(
            *base, [&](const passes::OptFlags &, const ir::Module &m,
                       uint64_t fp) {
                if (!seen.insert(fp).second)
                    return;
                ++variants;
                double t0 = nowMs();
                for (const ir::InterpEnv &env : envs)
                    ir::interpret(m, env);
                scalarMs += nowMs() - t0;
                t0 = nowMs();
                ir::interpretBatch(m, benv);
                batchMs += nowMs() - t0;
            });
    }
    std::printf("Measurement/verify phase (%zu distinct variants x %zu "
                "probe envs):\n",
                variants, kProbes);
    std::printf("  scalar (16 interprets/variant) : %9.1f ms\n",
                scalarMs);
    std::printf("  batched (one 16-lane run)      : %9.1f ms\n",
                batchMs);
    std::printf("  speedup                        : %9.2fx\n\n",
                batchMs > 0 ? scalarMs / batchMs : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full =
        argc > 1 && std::strcmp(argv[1], "--full") == 0;

    bench::banner("micro_explore",
                  "Campaign per-phase timing: compile-once exploration "
                  "+ driver cache vs the legacy pipeline");

    interpreterMicrobench();

    std::vector<corpus::CorpusShader> probe;
    if (full) {
        probe = corpus::corpus();
    } else {
        for (const char *name :
             {"blur/weighted9", "simple/grayscale", "tonemap/aces",
              "toon/bands3", "deferred/lights4", "pbr/full",
              "fxaa/high", "godrays/march32", "ssao/kernel16",
              "uber/car_chase"}) {
            probe.push_back(*corpus::findShader(name));
        }
    }
    std::printf("Probe set: %zu shaders x %llu combos x %zu devices%s\n\n",
                probe.size(),
                static_cast<unsigned long long>(tuner::comboCount()),
                gpu::allDevices().size(),
                full ? " (full corpus)" : "");

    // ---- legacy path ---------------------------------------------------
    CampaignTiming legacy;
    for (const auto &s : probe) {
        const double t0 = nowMs();
        tuner::Exploration ex = exploreShaderLegacy(s);
        legacy.exploreMs += nowMs() - t0;
        legacy.variants += ex.uniqueCount();
        legacy.measureMs +=
            measureAll(ex, /*defeatCache=*/true, legacy.measurements);
    }

    // ---- new path ------------------------------------------------------
    gpu::clearDriverCache();
    tuner::exploreCounters().reset();
    CampaignTiming fresh;
    for (const auto &s : probe) {
        const double t0 = nowMs();
        tuner::Exploration ex = tuner::exploreShader(s);
        fresh.exploreMs += nowMs() - t0;
        fresh.variants += ex.uniqueCount();
        fresh.measureMs +=
            measureAll(ex, /*defeatCache=*/false, fresh.measurements);
    }
    const tuner::ExploreCounters &c = tuner::exploreCounters();
    const gpu::DriverCacheStats cache = gpu::driverCacheStats();

    auto ms = [](uint64_t ns) {
        return static_cast<double>(ns) / 1e6;
    };
    std::printf("New-path exploration phases (%zu shaders):\n",
                probe.size());
    std::printf("  front end   : %9.1f ms  (%llu runs)\n",
                ms(c.frontEndNs),
                static_cast<unsigned long long>(c.frontEndRuns.load()));
    std::printf("  lowering    : %9.1f ms  (%llu runs)\n", ms(c.lowerNs),
                static_cast<unsigned long long>(c.lowerRuns.load()));
    std::printf("  pass runs   : %9.1f ms  (%llu combos; %llu passes "
                "executed, %llu memo-shared)\n",
                ms(c.pipelineNs),
                static_cast<unsigned long long>(c.pipelineRuns.load()),
                static_cast<unsigned long long>(c.passRuns.load()),
                static_cast<unsigned long long>(c.passMemoHits.load()));
    std::printf("  fingerprint : %9.1f ms  (%llu computed, %llu dedup "
                "hits)\n",
                ms(c.fingerprintNs),
                static_cast<unsigned long long>(
                    c.fingerprintRuns.load()),
                static_cast<unsigned long long>(
                    c.fingerprintHits.load()));
    std::printf("  print       : %9.1f ms  (%llu runs)\n", ms(c.printNs),
                static_cast<unsigned long long>(c.printRuns.load()));
    std::printf("  arena       : %9.1f MB of IR across all tree "
                "modules\n",
                static_cast<double>(c.arenaBytes.load()) / 1e6);
    std::printf("Driver cache: %llu hits / %llu misses, %9.1f ms "
                "compiling\n\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                ms(cache.compileNs));

    verifyPhase(probe);

    std::printf("Campaign wall-clock summary:\n");
    std::printf("  %-28s %12s %12s %12s\n", "", "explore", "measure",
                "total");
    std::printf("  %-28s %9.1f ms %9.1f ms %9.1f ms\n",
                "legacy (recompile always)", legacy.exploreMs,
                legacy.measureMs, legacy.totalMs());
    std::printf("  %-28s %9.1f ms %9.1f ms %9.1f ms\n",
                "compile-once + cache", fresh.exploreMs, fresh.measureMs,
                fresh.totalMs());
    std::printf("  %-28s %9.2fx %11.2fx %11.2fx  (target >= 3x total)\n",
                "speedup", legacy.exploreMs / fresh.exploreMs,
                legacy.measureMs / fresh.measureMs,
                legacy.totalMs() / fresh.totalMs());
    if (legacy.variants != fresh.variants) {
        std::printf("  WARNING: variant partitions differ (legacy %zu, "
                    "new %zu)\n",
                    legacy.variants, fresh.variants);
    }

    // ---- registry growth: walked vs executed at N=8 and N=11 -----------
    // Each registered pass doubles the walked space; the memoized tree
    // executes one run per *distinct* (incoming-IR, pass) edge, so a
    // pass that fires on little IR must cost little regardless of N.
    struct GrowthRow
    {
        size_t flags = 0;
        uint64_t walked = 0;
        uint64_t executed = 0;
        uint64_t memoHits = 0;
        size_t variants = 0;
        double exploreMs = 0;
    };
    auto explore_probe = [&probe](GrowthRow &row) {
        tuner::ExploreCounters &c = tuner::exploreCounters();
        const uint64_t pass0 = c.passRuns.load();
        const uint64_t combos0 = c.pipelineRuns.load();
        const uint64_t memo0 = c.passMemoHits.load();
        const double t0 = nowMs();
        for (const auto &s : probe)
            row.variants += tuner::exploreShader(s).uniqueCount();
        row.exploreMs = nowMs() - t0;
        row.flags = tuner::flagCount();
        row.walked = c.pipelineRuns.load() - combos0;
        row.executed = c.passRuns.load() - pass0;
        row.memoHits = c.passMemoHits.load() - memo0;
    };

    // The baseline must really be the paper's 8-pass space: with
    // GSOPT_EXTRA_PASSES set the registry is already wide and the two
    // rows would compare identical runs, vacuously "meeting" the
    // target.
    if (tuner::flagCount() > 8) {
        std::printf("\nRegistry growth section skipped: %zu passes "
                    "already registered (unset GSOPT_EXTRA_PASSES "
                    "for the N=8 vs N=11 comparison)\n",
                    tuner::flagCount());
        return 0;
    }
    GrowthRow base;
    explore_probe(base);
    GrowthRow wide;
    {
        passes::ScopedExtraPasses extras;
        explore_probe(wide);
    }

    std::printf("\nRegistry growth (%zu shaders; catalog passes: "
                "licm, strength_reduce, tex_batch):\n",
                probe.size());
    std::printf("  %-10s %10s %12s %12s %10s %12s\n", "space",
                "walked", "executed", "memo-shared", "variants",
                "explore");
    auto print_row = [](const char *label, const GrowthRow &r) {
        std::printf("  N=%-8zu %10llu %12llu %12llu %10zu %9.1f ms\n",
                    r.flags,
                    static_cast<unsigned long long>(r.walked),
                    static_cast<unsigned long long>(r.executed),
                    static_cast<unsigned long long>(r.memoHits),
                    r.variants, r.exploreMs);
        (void)label;
    };
    print_row("base", base);
    print_row("wide", wide);
    const double executed_ratio =
        base.executed
            ? static_cast<double>(wide.executed) /
                  static_cast<double>(base.executed)
            : 0.0;
    std::printf("  executed-pass-run growth: %.2fx for a %.0fx walked "
                "space  (target < 2x)\n",
                executed_ratio,
                base.walked
                    ? static_cast<double>(wide.walked) /
                          static_cast<double>(base.walked)
                    : 0.0);
    return 0;
}
