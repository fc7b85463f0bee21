/**
 * @file
 * The traced serial replay of the campaign: for each shader, the
 * benchmark itself calls the layer functions the experiment engine
 * runs, in pipeline order, with a span around each call —
 *
 *   glsl::compileShader -> lower::lowerShader ->
 *   passes::forEachFlagCombination (emit::emitGlsl per new fingerprint)
 *   -> variant assignment -> per (text, device) driver miss:
 *   emit::compileToIr -> vendor JIT passes -> passes::scheduleForPressure
 *   -> gpu::analyzeModule -> runtime::measureShader (driver cache warm)
 *   -> tuner::serializeShardBody / saveShard / loadShard.
 *
 * Two replica guards make the split trustworthy: the decomposed
 * exploration must reproduce tuner::exploreShader's variants, and the
 * decomposed driver must reproduce gpu::driverCompileUncached's
 * ShaderBinary for every (text, device) it compiles. Guard and cache
 * warm-up calls get spans of their own ("guard.*", "warmup.*") so they
 * are visible in the trace but never counted as layer time.
 */
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "trace.h"

namespace perfbench {

struct ReplayResult
{
    /** Empty when both guards held; else the first guard failure. */
    std::string guardError;
    /** Shard body per shader name, as the replay serialised it. */
    std::map<std::string, std::string> bodies;

    uint64_t glslBytes = 0;     ///< source bytes through the front end
    uint64_t variants = 0;      ///< unique variants over all shaders
    uint64_t passRuns = 0;      ///< FlagTreeStats::passRuns
    uint64_t passMemoHits = 0;  ///< FlagTreeStats::passMemoHits
    uint64_t arenaBytes = 0;    ///< FlagTreeStats::arenaBytes
    uint64_t fingerprintNs = 0; ///< FlagTreeStats::fingerprintNs
    uint64_t driverRequests = 0;
    uint64_t driverMisses = 0;
    uint64_t jitInstrsIn = 0;  ///< IR instructions entering vendor passes
    uint64_t jitInstrsOut = 0; ///< and leaving them
    uint64_t shardBytes = 0;   ///< shard file bytes written
    /** Wall-clock of the replay minus its guard and warm-up spans. */
    uint64_t layerWallNs = 0;
};

/**
 * Replay the campaign over @p shaders serially, recording spans into
 * @p tracer and writing shards into @p shardDir. Assumes the driver
 * cache starts empty (the caller clears it).
 */
ReplayResult replayCampaign(
    const std::vector<gsopt::corpus::CorpusShader> &shaders,
    Tracer &tracer, const std::string &shardDir);

/** Span names whose self times make up the campaign's layer work (the
 * numerator of trace.coverage). */
const std::vector<std::string> &campaignLayerSpans();

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
