/**
 * @file
 * The experiment engine: runs the paper's full measurement campaign —
 * every corpus shader x 2^N flag combinations (deduped) x 5 devices x
 * the 100-frame/5-repetition timing protocol — and exposes the derived
 * quantities every figure and table needs.
 *
 * The campaign is scheduled as a work queue of shaders over a
 * std::thread pool (GSOPT_THREADS workers, default
 * hardware_concurrency). One task explores its shader and measures it
 * on every device in device order, so no worker waits on another's
 * exploration; results are written to per-shader slots, so the output
 * is bit-identical for any thread count. Within a task each
 * (shader x device) pair is still one item: the unit of admission,
 * retry and quarantine.
 *
 * Because all the benches share this campaign, the engine caches its
 * results under ./experiment_cache/ as one shard file per shader,
 * keyed by (shader hash, device-set hash, pass-registry signature,
 * schema). Editing one corpus shader re-runs only that shard. Delete
 * the directory (or set GSOPT_NO_CACHE=1) to force a full re-run.
 *
 * Fault tolerance: per-item transient failures (support/fault sites on
 * the driver, the timing harness, and the work items themselves) are
 * retried with bounded backoff; items that still fail are quarantined
 * into the CampaignHealth report and the campaign completes with
 * partial results. GSOPT_STRICT=1 restores fail-fast (first error
 * aborts the run). Shards are checkpointed *incrementally* — each one
 * is written as its shader's task ends — so a killed campaign resumes
 * from completed shards.
 */
#ifndef GSOPT_TUNER_EXPERIMENT_H
#define GSOPT_TUNER_EXPERIMENT_H

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/device.h"
#include "tuner/explore.h"
#include "tuner/predict.h"

namespace gsopt::tuner {

/** Timing of every variant of one shader on one device. */
struct DeviceMeasurement
{
    double originalMeanNs = 0;  ///< unmodified shader via the driver
    std::vector<double> variantMeanNs; ///< per unique variant

    /** Percent speed-up of a variant against the original shader.
     * Degenerate baselines (zero/negative mean) report 0, matching
     * runtime::speedupPercent. Throws std::out_of_range for an
     * invalid variant index. */
    double speedupOf(int variant_index) const;

    bool operator==(const DeviceMeasurement &o) const
    {
        return originalMeanNs == o.originalMeanNs &&
               variantMeanNs == o.variantMeanNs;
    }
};

/** Everything measured for one shader. */
struct ShaderResult
{
    Exploration exploration;
    std::map<gpu::DeviceId, DeviceMeasurement> byDevice;

    /** Devices whose (shader, device) item was quarantined by the
     * fault-tolerant campaign (no measurement available). The campaign
     * itself only checkpoints clean shards — a quarantined shader
     * re-runs on resume — but saveShard/loadShard round-trip the set
     * (with reasons) faithfully via the schema-16 'Q' section, for the
     * coordinator/worker split. */
    std::set<gpu::DeviceId> quarantined;

    /** Structured reason each device was quarantined: what() of the
     * final failure — for a budget-exhausted item this is the
     * governor::ResourceExhausted message naming the dimension and
     * stage (e.g. "resource exhausted: deadline ..."). Keyed subset of
     * `quarantined`; items quarantined before this field existed (or
     * through older shards) simply have no entry. */
    std::map<gpu::DeviceId, std::string> quarantineReason;

    /** Measurement for @p dev. Throws std::out_of_range with a
     * quarantine-aware message when the device item was quarantined or
     * never measured. */
    const DeviceMeasurement &measurement(gpu::DeviceId dev) const;

    double speedupFor(gpu::DeviceId dev, FlagSet flags) const
    {
        const auto &m = measurement(dev);
        return m.speedupOf(exploration.variantOf(flags));
    }

    /** Best speed-up over all combinations (green line, Fig 7). */
    double bestSpeedup(gpu::DeviceId dev) const;
    /** Combination achieving bestSpeedup. */
    FlagSet bestFlags(gpu::DeviceId dev) const;
    /** Speed-up of a single-flag variant vs the all-off passthrough
     * variant (Fig 9's baseline convention). */
    double isolatedFlagSpeedup(gpu::DeviceId dev, int bit) const;
};

// ---- campaign cache keys -------------------------------------------------

/** Combined key of all configured devices (gpu::deviceModelKey) plus
 * the pass-registry signature and the engine schema version. */
uint64_t deviceSetKey();

/** Shard cache key for one shader under @p setKey (from
 * deviceSetKey()). */
uint64_t shardKey(const corpus::CorpusShader &shader, uint64_t setKey);

/**
 * Canonical file name of @p shader's shard under @p key:
 * "<name with '/' replaced by '_'>-<016x key>.bin". The engine's cache
 * loader and the distributed-campaign coordinator (tuner/distrib) must
 * agree on this spelling — a directory a coordinator merged is a valid
 * engine cache and vice versa.
 */
std::string shardFileName(const corpus::CorpusShader &shader,
                          uint64_t key);

// ---- the shard-directory protocol --------------------------------------
//
// One shard file per shader: [shard key u64][fnv1a(body) u64][body].
// The file is both the engine's checkpoint and the distributed
// campaign's wire format — a worker ships exactly these bytes, and the
// coordinator (tuner/distrib.h) runs them through the same parser
// before publishing them with the same routine. Its rules:
//
//  - Framing: shardFileBytes is the only writer of the header.
//  - Publish: publishShardFile writes `<path>.tmp`, then renames it
//    onto `<path>`, so readers never see a half-written shard; a crash
//    mid-write leaves at worst a `.tmp` and the previous shard intact.
//  - Validation: parseShardFile checks the key, the body content hash
//    and the structure, so corruption is a miss (re-run), never bad
//    data. A key mismatch — the key covers schema, pass registry,
//    device set and shader source, so this is an outdated shard — is
//    a clean miss with a support/diag warning.
//  - Sweep: sweepShardDir removes only `*.bin` and `*.bin.tmp` names
//    that no live key claims. Anything else in the directory (notes,
//    subdirectories) is left alone, and a live key's `.tmp` survives.

/**
 * The canonical byte serialisation of one shader's campaign result —
 * the body of a shard file. Deterministic for a deterministic
 * campaign; the golden regression tests md5 these bytes against the
 * values captured before the arena/memoization refactor.
 *
 * Schema 16 (tagged trailing sections): the body may end with optional
 * sections, each introduced by a one-byte tag, in this order, each at
 * most once and only when non-empty:
 *
 *  - 'P' ordered-plan annotations: `[u64 count]` then `count` x
 *    `[string plan][i64 variant]`, mapping each explored non-canonical
 *    plan to its variant. Plan strings are PassPlan::str spellings:
 *    registered pass ids joined by '>' in application order, e.g.
 *    "licm>unroll>gvn". Plan-only variants (zero producers) are valid
 *    exactly when a plan annotation references them.
 *  - 'Q' quarantine: `[u64 count]` then `count` x
 *    `[i32 device][string reason]` — the devices the fault-tolerant
 *    campaign quarantined, with the structured failure reason (a
 *    governor::ResourceExhausted message for budget/deadline kills).
 *    A quarantined device must not also carry a measurement.
 *
 * A healthy pure flag-lattice campaign body — the paper's canonical
 * 2^N sweep — has neither section and stays byte-identical to schema
 * 14/15, so the golden md5 pins hold. The schema version is part of
 * every shard key, so older shards miss cleanly and re-run.
 */
std::string serializeShardBody(const ShaderResult &r);

/** Complete shard file bytes of @p r under @p key. */
std::string shardFileBytes(uint64_t key, const ShaderResult &r);

/** Validate and decode shard file @p bytes expected under @p key.
 * Returns false — never throws, @p out untouched — on any mismatch or
 * corruption; @p where names the file in the key-mismatch warning. */
bool parseShardFile(std::string_view bytes, uint64_t key,
                    ShaderResult &out, const std::string &where);

/** Publish @p bytes at @p path through its `.tmp` sibling (the
 * `shard.write` tear point sits on the write). Returns "" on success,
 * else why the shard was not published; an injected tear leaves the
 * `.tmp` behind like a crash would. */
std::string publishShardFile(const std::string &path,
                             const std::string &bytes);

/** Remove the stale shards of @p dir: every `*.bin` / `*.bin.tmp`
 * whose name no shader of @p shaders claims under @p setKey. */
void sweepShardDir(const std::string &dir,
                   const std::vector<corpus::CorpusShader> &shaders,
                   uint64_t setKey);

/** GSOPT_STRICT=1 (any non-empty value but "0"): fail fast instead of
 * quarantining, in the engine and the coordinator alike. */
bool strictMode();

/** One quarantined (shader, device) campaign item. */
struct QuarantinedItem
{
    std::string shader;
    gpu::DeviceId device;
    std::string error; ///< what() of the final failure
    int attempts = 0;  ///< item-level attempts consumed
};

/**
 * Fault report of one campaign run: what was retried away, what had to
 * be quarantined. A healthy campaign has an empty quarantine list and
 * every derived figure sees complete data; an unhealthy one still
 * completes, with quarantined items surfaced here and on the affected
 * ShaderResult::quarantined sets.
 */
struct CampaignHealth
{
    std::vector<QuarantinedItem> quarantined;
    uint64_t itemsCompleted = 0;   ///< items measured successfully
    uint64_t itemsQuarantined = 0; ///< == quarantined.size()
    uint64_t itemRetries = 0;      ///< extra item-level attempts used

    bool healthy() const { return quarantined.empty(); }
    /** One line per quarantined item, for logs. */
    std::string summary() const;
};

/** The full campaign. */
class ExperimentEngine
{
  public:
    /** Run (or load from the shard cache) the complete campaign. */
    static const ExperimentEngine &instance();

    /**
     * Run fresh with explicit options (no caching). Used by tests and
     * benches with a reduced corpus. @p threads sizes the worker pool
     * (0 = GSOPT_THREADS / hardware_concurrency).
     */
    explicit ExperimentEngine(
        const std::vector<corpus::CorpusShader> &shaders,
        unsigned threads = 0);

    /**
     * Run with shard caching under @p cacheDir: existing valid shards
     * are loaded, missing ones run and are checkpointed the moment
     * their last device item completes — a campaign killed mid-run
     * resumes from every shard it finished. instance() uses this with
     * ./experiment_cache; tests use it for kill-resume coverage.
     */
    ExperimentEngine(const std::vector<corpus::CorpusShader> &shaders,
                     unsigned threads, const std::string &cacheDir);

    const std::vector<ShaderResult> &results() const { return results_; }
    /** Result by shader name. Throws std::out_of_range listing the
     * known shader names on a miss. The returned result surfaces any
     * quarantined devices via ShaderResult::quarantined. */
    const ShaderResult &result(const std::string &shaderName) const;

    /** Fault report of the run that built this engine (empty quarantine
     * list when everything — including cache loads — succeeded). */
    const CampaignHealth &health() const { return health_; }

    // ---- derived analyses ------------------------------------------------
    /** Static flag set maximising mean speed-up on a device (Table I). */
    FlagSet bestStaticFlags(gpu::DeviceId dev) const;
    /** Static flag set maximising the mean across *all* devices. */
    FlagSet bestStaticFlagsOverall() const;
    /** Mean speed-up across shaders for a fixed flag set. */
    double meanSpeedup(gpu::DeviceId dev, FlagSet flags) const;
    /** Mean of per-shader best speed-ups ("iterative" line, Fig 5). */
    double meanBestSpeedup(gpu::DeviceId dev) const;
    /** Per-shader speed-ups for a fixed flag set (Fig 7 series). */
    std::vector<double> perShaderSpeedups(gpu::DeviceId dev,
                                          FlagSet flags) const;
    /** Per-shader best speed-ups (Fig 7 green series). */
    std::vector<double> perShaderBestSpeedups(gpu::DeviceId dev) const;

    /**
     * Build the cross-shader transfer table: every shader's
     * campaign-best flags, grouped by übershader family and device.
     * TransferSeededSearch seeds new searches from it (leave-one-out
     * happens at query time, in FamilyPrior::seedFor).
     */
    FamilyPrior familyPrior() const;

    // ---- shard IO (public for the torture tests and the coordinator/
    // worker split: a shard file is the campaign's checkpoint and
    // transfer unit) ------------------------------------------------------

    /** Read one shard file and parseShardFile it. Returns false — never
     * throws — on any mismatch or corruption (missing file, wrong key,
     * bad content hash, truncated or garbled body, an injected
     * `shard.read` fault): the caller re-runs the shard. */
    static bool loadShard(const std::string &path, uint64_t key,
                          ShaderResult &out);

    /** Crash-safe checkpoint of one shard: publishShardFile of
     * shardFileBytes. Failures (unopenable file, failed write,
     * injected torn write) emit a support/diag warning and leave any
     * previous shard at @p path untouched. */
    static void saveShard(const std::string &path, uint64_t key,
                          const ShaderResult &r);

  private:
    ExperimentEngine() = default;

    /**
     * Work-queue campaign over the listed shader indices, one task per
     * shader: the task runs the shader's (shader x device) items in
     * device order on its own thread, exploring the shader inside the
     * first item (an exploration that throws is retried by the next
     * attempt or item, so it succeeds at most once per shader).
     * Transient per-item failures retry with backoff; exhausted or
     * non-transient ones are quarantined (or rethrown under
     * GSOPT_STRICT=1). @p checkpoint, when set, is invoked with the
     * shader index as the task ends if none of its items was
     * quarantined.
     */
    void runShaders(const std::vector<corpus::CorpusShader> &shaders,
                    const std::vector<size_t> &indices, unsigned threads,
                    const std::function<void(size_t)> &checkpoint = {});

    std::vector<ShaderResult> results_;
    CampaignHealth health_;
};

} // namespace gsopt::tuner

#endif // GSOPT_TUNER_EXPERIMENT_H
