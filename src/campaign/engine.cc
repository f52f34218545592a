#include "campaign/engine.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/process.h"
#include "core/logging.h"
#include "core/version.h"
#include "json/settings.h"

namespace ss::campaign {

namespace {

std::atomic<bool> g_interrupted{false};

std::uint64_t
nowUnix()
{
    return static_cast<std::uint64_t>(std::time(nullptr));
}

json::Value
metricsToJson(const std::map<std::string, double>& metrics)
{
    json::Value obj = json::Value::object();
    for (const auto& [name, value] : metrics) {
        obj[name] = value;
    }
    return obj;
}

}  // namespace

std::string
CampaignReport::summary() const
{
    std::ostringstream out;
    out << "campaign points:   " << outcomes.size() << '\n';
    out << "  completed:       " << completed << '\n';
    out << "  cached:          " << cached << '\n';
    out << "  quarantined:     " << quarantined << '\n';
    out << "  bad spec:        " << badSpec << '\n';
    out << "  interrupted:     " << interrupted << '\n';
    if (!manifestPath.empty()) {
        out << "manifest:          " << manifestPath << '\n';
    }
    if (!tablePath.empty()) {
        out << "table:             " << tablePath << '\n';
    }
    return out.str();
}

std::string
CampaignReport::toCsv() const
{
    std::vector<std::pair<SweepPoint, std::map<std::string, double>>> rows;
    rows.reserve(outcomes.size());
    for (const auto& outcome : outcomes) {
        rows.emplace_back(outcome.point, outcome.metrics);
    }
    return Sweeper::toCsv(rows);
}

void
CampaignEngine::notifyInterrupt()
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

bool
CampaignEngine::interrupted()
{
    return g_interrupted.load(std::memory_order_relaxed);
}

CampaignEngine::CampaignEngine(CampaignSpec spec, EngineOptions options)
    : spec_(std::move(spec)), options_(std::move(options))
{
}

json::Value
CampaignEngine::pointRecord(const PointOutcome& outcome) const
{
    json::Value record = json::Value::object();
    record["event"] = "point";
    record["campaign"] = spec_.name;
    record["ts"] = nowUnix();
    record["id"] = outcome.point.id;
    record["hash"] = outcome.hash;
    record["state"] = outcome.state;
    record["attempts"] = std::uint64_t{outcome.attempts};
    record["wall_seconds"] = outcome.wallSeconds;
    record["exit_code"] = std::int64_t{outcome.exitCode};
    record["metrics"] = metricsToJson(outcome.metrics);
    return record;
}

bool
CampaignEngine::runPoint(std::size_t index, TaskContext& ctx,
                         ManifestWriter* manifest)
{
    PointOutcome& outcome = outcomes_[index];
    if (interrupted()) {
        ctx.cancelRetries();
        outcome.state = "interrupted";
        manifest->append(pointRecord(outcome));
        return false;
    }

    // Resume path: a previous invocation (or a sibling spec resolving to
    // the same effective config) already computed this point.
    if (!options_.forceRerun && ctx.attempt() == 1) {
        auto artifact = cache_->load(outcome.hash);
        if (artifact.has_value() && artifact->isObject() &&
            artifact->has("result")) {
            outcome.state = "cached";
            outcome.attempts = 0;
            outcome.exitCode = 0;
            json::flattenNumbers(artifact->at("result"), "", &outcome.metrics);
            manifest->append(pointRecord(outcome));
            return true;
        }
    }

    const std::string logs_dir =
        (std::filesystem::path(spec_.outputDir) / "logs").string();
    std::string tag =
        outcome.point.id + ".attempt" + std::to_string(ctx.attempt());
    std::string log_path =
        (std::filesystem::path(logs_dir) / (tag + ".log")).string();
    std::string result_path =
        (std::filesystem::path(logs_dir) / (tag + ".result.json"))
            .string();

    std::vector<std::string> argv;
    argv.push_back(options_.supersimBinary);
    argv.push_back(spec_.configPath);
    // Children default to one simulation thread: the campaign's worker
    // fleet is the parallelism knob. Inserted before the spec/point
    // overrides so either can still opt a run into more threads.
    argv.push_back("simulator.threads=uint=1");
    argv.insert(argv.end(), spec_.overrides.begin(),
                spec_.overrides.end());
    argv.insert(argv.end(), outcome.point.overrides.begin(),
                outcome.point.overrides.end());
    argv.push_back("--json=" + result_path);

    ProcessResult proc = runProcess(argv, spec_.execution.timeoutSeconds,
                                    log_path);
    outcome.attempts = ctx.attempt();
    outcome.wallSeconds += proc.wallSeconds;
    outcome.exitCode = proc.exitCode;

    bool have_result = false;
    json::Value result;
    if (proc.succeeded()) {
        std::ifstream file(result_path);
        if (file.good()) {
            std::string text((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
            try {
                result = json::parse(text);
                have_result = true;
            } catch (const FatalError&) {
                warn("point ", outcome.point.id,
                     ": child succeeded but wrote an unparseable result");
            }
        } else {
            warn("point ", outcome.point.id,
                 ": child succeeded but wrote no result file");
        }
    }

    if (have_result) {
        json::Value artifact = json::Value::object();
        artifact["key"] = outcome.hash;
        artifact["point_id"] = outcome.point.id;
        artifact["version"] = std::string(buildVersion());
        artifact["result"] = std::move(result);
        cache_->store(outcome.hash, artifact);
        std::error_code ec;
        std::filesystem::remove(result_path, ec);

        outcome.state = "completed";
        outcome.metrics.clear();
        json::flattenNumbers(artifact.at("result"), "", &outcome.metrics);
        manifest->append(pointRecord(outcome));
        return true;
    }

    // Failure classification.
    if (proc.startFailed) {
        warn("point ", outcome.point.id, ": cannot execute ",
             options_.supersimBinary);
        ctx.cancelRetries();
        outcome.state = "quarantined";
        manifest->append(pointRecord(outcome));
        return false;
    }
    if (proc.exitCode == kExitBadConfig) {
        // The child diagnosed its own configuration as invalid; retrying
        // the same spec can never succeed.
        ctx.cancelRetries();
        outcome.state = "bad_spec";
        manifest->append(pointRecord(outcome));
        return false;
    }

    bool final_attempt = ctx.attempt() >= spec_.execution.maxAttempts;
    json::Value attempt = json::Value::object();
    attempt["event"] = "attempt";
    attempt["campaign"] = spec_.name;
    attempt["ts"] = nowUnix();
    attempt["id"] = outcome.point.id;
    attempt["hash"] = outcome.hash;
    attempt["attempt"] = std::uint64_t{ctx.attempt()};
    attempt["exit_code"] = std::int64_t{proc.exitCode};
    attempt["timed_out"] = proc.timedOut;
    attempt["signal"] = std::int64_t{proc.termSignal};
    attempt["wall_seconds"] = proc.wallSeconds;
    manifest->append(attempt);

    if (final_attempt) {
        outcome.state = "quarantined";
        manifest->append(pointRecord(outcome));
    }
    return false;
}

CampaignReport
CampaignEngine::buildReport(bool write_table) const
{
    CampaignReport report;
    report.outcomes = outcomes_;
    for (const auto& outcome : outcomes_) {
        if (outcome.state == "completed") {
            ++report.completed;
        } else if (outcome.state == "cached") {
            ++report.cached;
        } else if (outcome.state == "quarantined") {
            ++report.quarantined;
        } else if (outcome.state == "bad_spec") {
            ++report.badSpec;
        } else if (outcome.state == "interrupted") {
            ++report.interrupted;
        }
    }
    if (write_table) {
        report.manifestPath =
            (std::filesystem::path(spec_.outputDir) / "manifest.jsonl")
                .string();
        report.tablePath =
            (std::filesystem::path(spec_.outputDir) / "table.csv")
                .string();
        std::ofstream table(report.tablePath);
        checkUser(table.good(), "cannot write metrics table ",
                  report.tablePath);
        table << report.toCsv();
    }
    return report;
}

CampaignReport
CampaignEngine::run()
{
    // Campaign-level validation: an unloadable base config or a bad
    // global override is the campaign author's error and aborts before
    // any point runs (fatal() propagates to the caller).
    json::Value base = json::loadSettings(spec_.configPath);
    // Mirror the child argv: the threads=1 default participates in the
    // effective config (and therefore the cache key) exactly where it
    // sits on the child command line — before any overrides.
    json::applyOverrides(&base, {"simulator.threads=uint=1"});
    json::applyOverrides(&base, spec_.overrides);

    std::uint64_t child_threads = 1;
    if (base.has("simulator")) {
        child_threads = std::max<std::uint64_t>(
            json::getUint(base.at("simulator"), "threads", 1), 1);
    }
    std::uint32_t hardware = std::thread::hardware_concurrency();
    if (hardware > 0 &&
        spec_.execution.workers * child_threads > hardware) {
        warn("campaign oversubscription: ", spec_.execution.workers,
             " concurrent children x ", child_threads,
             " simulation threads each exceeds the ", hardware,
             " hardware threads available; consider lowering "
             "execution.workers or simulator.threads");
    }

    std::vector<SweepPoint> points = spec_.points();
    outcomes_.assign(points.size(), PointOutcome{});
    std::vector<bool> runnable(points.size(), true);
    for (std::size_t i = 0; i < points.size(); ++i) {
        outcomes_[i].point = points[i];
        json::Value resolved = base;
        try {
            json::applyOverrides(&resolved, points[i].overrides);
            outcomes_[i].hash = cacheKey(resolved);
        } catch (const FatalError&) {
            outcomes_[i].state = "bad_spec";
            outcomes_[i].exitCode = kExitBadConfig;
            runnable[i] = false;
        }
    }

    cache_ = std::make_unique<ResultCache>(spec_.cacheDir);

    if (options_.dryRun) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (runnable[i]) {
                outcomes_[i].state =
                    cache_->load(outcomes_[i].hash).has_value()
                        ? "cached"
                        : "planned";
            }
        }
        return buildReport(/*write_table=*/false);
    }

    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(spec_.outputDir) / "logs", ec);
    checkUser(!ec, "cannot create campaign output directory ",
              spec_.outputDir, ": ", ec.message());

    std::string manifest_path =
        (std::filesystem::path(spec_.outputDir) / "manifest.jsonl")
            .string();
    bool resumed = std::filesystem::exists(manifest_path);
    ManifestWriter manifest(manifest_path);

    json::Value start = json::Value::object();
    start["event"] = "start";
    start["campaign"] = spec_.name;
    start["ts"] = nowUnix();
    start["version"] = std::string(buildVersion());
    start["total_points"] = std::uint64_t{points.size()};
    start["resumed"] = resumed;
    manifest.append(start);

    TaskGraph graph;
    TaskOptions task_options;
    task_options.maxAttempts = spec_.execution.maxAttempts;
    task_options.backoffSeconds = spec_.execution.backoffSeconds;
    // The hard per-attempt kill happens inside runProcess at the spec'd
    // timeout; the TaskGraph deadline is a padded backstop so driver-side
    // overhead (result parse, cache store) never flips a completed point
    // back to failed.
    double timeout = spec_.execution.timeoutSeconds;
    task_options.timeoutSeconds =
        timeout > 0.0 ? timeout + std::max(5.0, 0.25 * timeout) : 0.0;

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!runnable[i]) {
            manifest.append(pointRecord(outcomes_[i]));
            continue;
        }
        graph.addTask(
            points[i].id,
            [this, i, &manifest](TaskContext& ctx) {
                return runPoint(i, ctx, &manifest);
            },
            task_options);
    }
    std::uint32_t workers = options_.workers > 0
                                ? options_.workers
                                : spec_.execution.workers;
    graph.run(workers);

    CampaignReport report = buildReport(/*write_table=*/true);

    json::Value end = json::Value::object();
    end["event"] = "end";
    end["campaign"] = spec_.name;
    end["ts"] = nowUnix();
    end["completed"] = std::uint64_t{report.completed};
    end["cached"] = std::uint64_t{report.cached};
    end["quarantined"] = std::uint64_t{report.quarantined};
    end["bad_spec"] = std::uint64_t{report.badSpec};
    end["interrupted"] = std::uint64_t{report.interrupted};
    manifest.append(end);
    return report;
}

}  // namespace ss::campaign
