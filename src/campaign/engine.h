/**
 * @file
 * The campaign engine: executes every point of a CampaignSpec as an
 * isolated child process (`supersim --json`), under the TaskGraph
 * executor's timeout/retry/backoff policy, with results stored in a
 * content-addressed cache and every state transition journaled to the
 * JSONL manifest.
 *
 * Guarantees:
 *  - isolation: a crashing or hanging point never takes down the
 *    campaign; a hang is SIGKILLed at its deadline and retried with
 *    exponential backoff, then quarantined after max_attempts;
 *  - bad-spec detection: a child exiting with kExitBadConfig (2) is a
 *    permanent configuration error and is quarantined immediately,
 *    without retries;
 *  - resumability: re-running a campaign (same spec, same build) serves
 *    every previously-completed point from the cache — after a crash,
 *    Ctrl-C, or SIGKILL the next invocation resumes exactly where the
 *    last one stopped;
 *  - aggregation: the surviving points produce the same metrics table
 *    Sweeper::toCsv emits for in-process sweeps.
 */
#ifndef SS_CAMPAIGN_ENGINE_H_
#define SS_CAMPAIGN_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/cache.h"
#include "campaign/manifest.h"
#include "campaign/spec.h"
#include "json/json.h"
#include "tools/task_runner.h"

namespace ss::campaign {

/** Terminal state of one campaign point. */
struct PointOutcome {
    SweepPoint point;
    /** Content-addressed cache key of the point's resolved config. */
    std::string hash;
    /** "completed", "cached", "quarantined", "bad_spec", "interrupted",
     *  or "planned" (dry run). */
    std::string state;
    std::uint32_t attempts = 0;
    /** Total child wall-clock across attempts (0 for cache hits). */
    double wallSeconds = 0.0;
    int exitCode = 0;
    /** Flattened numeric results (throughput, latency.total.mean,
     *  engine.wall_seconds, ...); empty for failed points. */
    std::map<std::string, double> metrics;
};

/** Everything a campaign run produced. */
struct CampaignReport {
    std::vector<PointOutcome> outcomes;  // in sweep order
    std::size_t completed = 0;
    std::size_t cached = 0;
    std::size_t quarantined = 0;
    std::size_t badSpec = 0;
    std::size_t interrupted = 0;
    std::string manifestPath;
    std::string tablePath;

    bool allOk() const
    {
        return quarantined == 0 && badSpec == 0 && interrupted == 0;
    }
    /** Human-readable multi-line summary. */
    std::string summary() const;
    /** The metrics table (Sweeper::toCsv format). */
    std::string toCsv() const;
};

/** Driver-side knobs (everything else comes from the spec). */
struct EngineOptions {
    /** Path of the supersim binary to fork/exec. */
    std::string supersimBinary = "supersim";
    /** Overrides the spec's execution.workers when > 0. */
    std::uint32_t workers = 0;
    /** Ignores cache hits and recomputes every point. */
    bool forceRerun = false;
    /** Plans only: expands points, computes hashes, probes the cache —
     *  no child processes, no manifest writes. */
    bool dryRun = false;
};

/** Executes a campaign spec. */
class CampaignEngine {
  public:
    CampaignEngine(CampaignSpec spec, EngineOptions options);

    /** Runs (or resumes) the campaign to completion and writes the
     *  manifest and metrics table. fatal() on campaign-level errors
     *  (unloadable base config, unwritable output dir). */
    CampaignReport run();

    /** Async-signal-safe interrupt request: in-flight points finish,
     *  no new points start; call from a SIGINT/SIGTERM handler. */
    static void notifyInterrupt();
    static bool interrupted();

  private:
    json::Value pointRecord(const PointOutcome& outcome) const;
    bool runPoint(std::size_t index, TaskContext& ctx,
                  ManifestWriter* manifest);
    CampaignReport buildReport(bool write_table) const;

    CampaignSpec spec_;
    EngineOptions options_;
    std::unique_ptr<ResultCache> cache_;
    std::vector<PointOutcome> outcomes_;
};

}  // namespace ss::campaign

#endif  // SS_CAMPAIGN_ENGINE_H_
