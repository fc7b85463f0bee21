/**
 * @file
 * Campaign-shard byte-identity golden. The arena/memoization refactor
 * must not change a single byte of campaign output: this runs the real
 * engine (simulated devices, deterministic measurement protocol) over
 * three corpus shaders spanning the families and md5s each shard body
 * against values captured from the pre-refactor build (schema 14).
 *
 * If a change legitimately alters campaign output, it must bump the
 * engine schema version — and then recapture these constants from a
 * build whose correctness was established some other way.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "gpu/driver.h"
#include "test_md5.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"

namespace gsopt {
namespace {

using testutil::md5Hex;

TEST(Md5Self, Rfc1321Vectors)
{
    EXPECT_EQ(md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(md5Hex("message digest"),
              "f96b697d7cb7938d525a2f31aaf161d0");
}

// ----------------------------------------------- campaign goldens

struct Golden
{
    const char *shader;
    size_t bodyBytes;
    const char *md5;
};

/** Captured from the pre-arena seed build (commit 6f21584, schema 14),
 * single-threaded campaign over exactly these three shaders. */
const Golden kGoldens[] = {
    {"blur/weighted9", 19413, "9fa1bcff99cc1aa4f9a65bf8e72aa063"},
    {"tonemap/aces", 9374, "6c424f2e6d95d3dfab163937fabc3406"},
    {"uber/car_chase", 140942, "488aadc9b1001669f2cc597613f0ccbd"},
};

/** Every corpus shader's shard body, concatenated in corpus order. */
const size_t kCorpusBodyBytes = 2723919;
const char *const kCorpusMd5 = "93b1caa9b4a73f965496d719bd71bc0f";

TEST(ShardGolden, ThreeShaderCampaignBytesMatchSeed)
{
    if (tuner::flagCount() != 8)
        GTEST_SKIP() << "md5 pins cover the paper's 8-pass campaign; "
                        "GSOPT_EXTRA_PASSES changes the bytes";
    std::vector<corpus::CorpusShader> shaders;
    for (const Golden &g : kGoldens)
        shaders.push_back(*corpus::findShader(g.shader));
    struct RestoreCap
    {
        ~RestoreCap() { gpu::setDriverCacheCap(0); }
    } restore;

    // The driver cache cap and the thread count are more inputs: the
    // bytes must match at the start-up cap (0 restores it) and at cap
    // 1, where a serial engine, measuring device-major within a
    // shader, evicts every text before the next device reaches it; and
    // with one worker and with four, where the shaders' tasks run at
    // once. Each engine explores every shader exactly once.
    for (unsigned threads : {1u, 4u}) {
        for (size_t cap : {size_t{0}, size_t{1}}) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         ", driver cache cap " + std::to_string(cap));
            gpu::setDriverCacheCap(cap);
            gpu::clearDriverCache();
            const uint64_t explored_before =
                tuner::exploreCounters().frontEndRuns.load();
            tuner::ExperimentEngine engine(shaders, threads);
            EXPECT_EQ(tuner::exploreCounters().frontEndRuns.load() -
                          explored_before,
                      shaders.size());
            ASSERT_EQ(engine.results().size(), std::size(kGoldens));

            for (const Golden &g : kGoldens) {
                const tuner::ShaderResult &r = engine.result(g.shader);
                const std::string body = tuner::serializeShardBody(r);
                EXPECT_EQ(body.size(), g.bodyBytes) << g.shader;
                EXPECT_EQ(md5Hex(body), g.md5) << g.shader;
            }
            if (cap == 1) {
                EXPECT_GT(gpu::driverCacheStats().evictions, 0u);
            }
        }
    }
}

/** Whole-corpus pin, captured before the passes' value numbering moved
 * from string keys to a structural table: an equivalence slip in any
 * corpus shader, not only the three above, moves these bytes. */
TEST(ShardGolden, WholeCorpusCampaignBytesMatchSeed)
{
    if (tuner::flagCount() != 8)
        GTEST_SKIP() << "md5 pins cover the paper's 8-pass campaign; "
                        "GSOPT_EXTRA_PASSES changes the bytes";
    const std::vector<corpus::CorpusShader> &shaders = corpus::corpus();
    tuner::ExperimentEngine engine(shaders, 4);
    ASSERT_EQ(engine.results().size(), 98u);
    std::string bodies;
    for (const corpus::CorpusShader &s : shaders)
        bodies += tuner::serializeShardBody(engine.result(s.name));
    EXPECT_EQ(bodies.size(), kCorpusBodyBytes);
    EXPECT_EQ(md5Hex(bodies), kCorpusMd5);
}

} // namespace
} // namespace gsopt
