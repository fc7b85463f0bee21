/**
 * @file
 * The benchmark's workloads and the checks that their outputs are
 * correct. Each run* function measures for RunConfig::seconds and
 * returns the end-to-end metrics; runTraced() is the separate traced
 * run that yields the per-layer metrics.
 *
 * End-to-end metrics, reported by every workload (medians over the
 * run's iterations, except that deterministic single-threaded work
 * reports its fastest sample; see workloads.cpp):
 *  - setup_s: making the iteration's inputs (shader order and front-end
 *    validation; for verify the exploration of every shader and the
 *    lowering of every distinct variant).
 *  - wall_s: the workload's operation — the cold campaign (campaign),
 *    the subprocess fan-out (distrib), or one batched + scalar tile
 *    pass over every variant (verify).
 *  - report_s: turning that output into the user's answer — warm shard
 *    reload plus the paper's analyses (campaign, distrib), or the check
 *    of sampled variants against the independent reference interpreter
 *    (verify).
 *  - peak_rss_mb: resident high-water mark of an iteration.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "glsl/sema.h"
#include "ir/ir.h"
#include "trace.h"
#include "tuner/experiment.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 10;
    std::string traceFile; ///< traced run only; "" = do not write
    unsigned threads = 1;  ///< T = W = min(4, nproc)
};

Outcome runCampaign(const RunConfig &cfg);
Outcome runDistrib(const RunConfig &cfg);
Outcome runVerify(const RunConfig &cfg);
/** The traced run: every layer, for the workload's seed. */
Outcome runTraced(const RunConfig &cfg);

// ---- shared pieces --------------------------------------------------------

/** The paper's derived analyses over one engine: Table I best static
 * flags (per device and overall), the Fig 5 means, Fig 7 series sums
 * and Fig 9 per-flag means. */
struct Analyses
{
    std::vector<uint64_t> bestFlags; ///< per device
    std::vector<double> values;
};
Analyses runAnalyses(const gsopt::tuner::ExperimentEngine &engine);

/** "" when @p a and @p b agree (flags exactly, values to 1e-9 relative:
 * summation order follows the shader order a seed draws). */
std::string compareAnalyses(const Analyses &a, const Analyses &b);

/** Re-check the shard-golden md5 pins against @p engine when the
 * paper's 8 passes are registered; "" when they hold or do not apply. */
std::string checkGoldens(const gsopt::tuner::ExperimentEngine &engine);

/** One distinct variant text, lowered and ready to shade. */
struct VerifyVariant
{
    std::string name;
    std::unique_ptr<gsopt::ir::Module> module;
    gsopt::glsl::ShaderInterface iface;
    /** Tile fragments (row-major indices) also run through the oracle. */
    std::vector<size_t> referenceFragments;
};

/** The verify workload's input: every corpus shader in the seed's
 * order (so every übershader family is represented), explored, every
 * distinct variant lowered, with seeded tile fragments sampled for the
 * reference check. */
struct VerifySet
{
    std::vector<VerifyVariant> variants;
    size_t shaders = 0;
};
VerifySet buildVerifySet(uint64_t seed);

/** One verification pass. */
struct VerifyPass
{
    /** Batched + scalar tile time per variant. */
    std::vector<uint64_t> variantNs;
    uint64_t instructions = 0;
};

/** Shade every variant with the batched (width 16) and the scalar tile
 * engine; any difference is a correctness failure on @p out. */
VerifyPass verifyPass(const VerifySet &set, Tracer *tracer, Outcome &out);

/** Run each variant's sampled fragments through ir::interpret (the
 * scalar tile path, which the batched tiles equal bit for bit) and
 * through the independent ir::interpretReference, and compare. Returns
 * the oracle's time per variant. */
std::vector<uint64_t> referenceCheck(const VerifySet &set, Tracer *tracer,
                                     Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
