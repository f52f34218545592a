/** @file Campaign engine tests: spec, cache, manifest, process, engine. */
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "campaign/cache.h"
#include "campaign/engine.h"
#include "campaign/manifest.h"
#include "campaign/process.h"
#include "campaign/spec.h"
#include "core/logging.h"
#include "core/version.h"
#include "json/json.h"

namespace ss::campaign {
namespace {

namespace fs = std::filesystem;

/** A per-test scratch directory, removed on teardown. */
class CampaignTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        static int counter = 0;
        dir_ = fs::path(::testing::TempDir()) /
               ("ss_campaign_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** Writes a file into the scratch dir; returns its path. */
    std::string
    write(const std::string& name, const std::string& text,
          bool executable = false)
    {
        fs::path path = dir_ / name;
        {
            std::ofstream out(path);
            out << text;
        }
        if (executable) {
            fs::permissions(path, fs::perms::owner_all |
                                      fs::perms::group_read |
                                      fs::perms::others_read);
        }
        return path.string();
    }

    /** A minimal spec over a stub binary: one variable "M" with the
     *  given values, feeding the override mode=string={}. */
    CampaignSpec
    stubSpec(const std::vector<std::string>& values,
             double timeout_seconds = 30.0,
             std::uint32_t max_attempts = 2)
    {
        write("base.json", R"({"simulator": {"seed": 1}})");
        json::Value root = json::Value::object();
        root["name"] = "stub";
        root["config"] = "base.json";
        json::Value var = json::Value::object();
        var["name"] = "Mode";
        var["short_name"] = "M";
        json::Value vals = json::Value::array();
        for (const auto& v : values) {
            vals.append(v);
        }
        var["values"] = std::move(vals);
        json::Value ovr = json::Value::array();
        ovr.append("mode=string={}");
        var["overrides"] = std::move(ovr);
        json::Value vars = json::Value::array();
        vars.append(std::move(var));
        root["variables"] = std::move(vars);
        json::Value exec = json::Value::object();
        exec["workers"] = std::uint64_t{2};
        exec["timeout_seconds"] = timeout_seconds;
        exec["max_attempts"] = std::uint64_t{max_attempts};
        exec["backoff_seconds"] = 0.01;
        root["execution"] = std::move(exec);
        json::Value output = json::Value::object();
        output["dir"] = "out";
        root["output"] = std::move(output);
        return CampaignSpec::fromJson(root, dir_.string());
    }

    EngineOptions
    stubOptions(const std::string& binary)
    {
        EngineOptions options;
        options.supersimBinary = binary;
        return options;
    }

    fs::path dir_;
};

// ----- hashing and cache -----

TEST(CampaignHash, Fnv1a64KnownVectors)
{
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(CampaignHash, EquivalentConfigsShareAKey)
{
    json::Value a = json::parse(R"({"seed": 1, "net": {"vcs": 4}})");
    json::Value b = json::parse(R"({"net": {"vcs": 4.0}, "seed": 1.0})");
    EXPECT_EQ(cacheKey(a), cacheKey(b));
    EXPECT_EQ(cacheKey(a).size(), 16u);
    json::Value c = json::parse(R"({"seed": 2, "net": {"vcs": 4}})");
    EXPECT_NE(cacheKey(a), cacheKey(c));
}

TEST_F(CampaignTest, ResultCacheRoundTripsAndTreatsCorruptAsMiss)
{
    ResultCache cache((dir_ / "cache").string());
    EXPECT_FALSE(cache.load("0123456789abcdef").has_value());

    json::Value artifact = json::Value::object();
    artifact["result"] = json::parse(R"({"throughput": 0.5})");
    cache.store("0123456789abcdef", artifact);
    auto loaded = cache.load("0123456789abcdef");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(
        loaded->at("result").at("throughput").asFloat(), 0.5);

    // A torn/corrupt artifact is a miss, not an error.
    std::ofstream(cache.pathFor("0123456789abcdef")) << "{\"trunc";
    EXPECT_FALSE(cache.load("0123456789abcdef").has_value());
}

// ----- manifest -----

TEST_F(CampaignTest, ManifestAppendsAndSurvivesTornTrailingLine)
{
    std::string path = (dir_ / "sub" / "manifest.jsonl").string();
    {
        ManifestWriter writer(path);
        json::Value rec = json::Value::object();
        rec["event"] = "start";
        writer.append(rec);
        rec["event"] = "end";
        writer.append(rec);
    }
    // Simulate a hard kill mid-append: a torn trailing line.
    std::ofstream(path, std::ios::app) << "{\"event\":\"poi";
    auto records = readManifest(path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].at("event").asString(), "start");
    EXPECT_EQ(records[1].at("event").asString(), "end");
    // Appending after a read keeps earlier records.
    ManifestWriter again(path);
    json::Value rec = json::Value::object();
    rec["event"] = "resume";
    again.append(rec);
    EXPECT_EQ(readManifest(path).size(), 3u);
    EXPECT_TRUE(readManifest("/nonexistent/manifest.jsonl").empty());
}

// ----- spec -----

TEST_F(CampaignTest, SpecParsesWithDefaultsAndExpandsSeeds)
{
    write("base.json", R"({"simulator": {"seed": 1}})");
    json::Value root = json::parse(R"({
        "name": "sweep",
        "config": "base.json",
        "variables": [
            {"name": "Rate", "short_name": "R", "values": [0.1, "0.2"],
             "overrides": ["workload.rate=float={}"]}
        ],
        "seeds": [7, 8, 9]
    })");
    CampaignSpec spec = CampaignSpec::fromJson(root, dir_.string());
    EXPECT_EQ(spec.configPath, (dir_ / "base.json").string());
    EXPECT_EQ(spec.seedPath, "simulator.seed");
    EXPECT_EQ(spec.execution.workers, 1u);
    EXPECT_EQ(spec.cacheDir,
              (fs::path(spec.outputDir) / "cache").string());

    auto points = spec.points();
    ASSERT_EQ(points.size(), 6u);  // 2 rates x 3 seeds
    EXPECT_EQ(points[0].id, "R-0.1_s-7");
    EXPECT_EQ(points[0].overrides,
              (std::vector<std::string>{"workload.rate=float=0.1",
                                        "simulator.seed=uint=7"}));
    EXPECT_EQ(points[5].id, "R-0.2_s-9");
}

TEST_F(CampaignTest, SpecRejectsMalformedInput)
{
    write("base.json", "{}");
    auto from = [&](const std::string& text) {
        return CampaignSpec::fromJson(json::parse(text), dir_.string());
    };
    // No variables.
    EXPECT_THROW(from(R"({"name": "x", "config": "base.json"})"),
                 FatalError);
    // Override template without a {} placeholder.
    EXPECT_THROW(
        from(R"({"name": "x", "config": "base.json", "variables": [
            {"name": "V", "short_name": "v", "values": ["1"],
             "overrides": ["a=uint=1"]}]})"),
        FatalError);
    // Invalid execution policy.
    EXPECT_THROW(
        from(R"({"name": "x", "config": "base.json", "variables": [
            {"name": "V", "short_name": "v", "values": ["1"],
             "overrides": ["a=uint={}"]}],
            "execution": {"max_attempts": 0}})"),
        FatalError);
}

// ----- process isolation -----

TEST_F(CampaignTest, ProcessCapturesExitCodesAndOutput)
{
    std::string out_path = (dir_ / "out.txt").string();
    ProcessResult ok =
        runProcess({"/bin/sh", "-c", "echo hello; exit 0"}, 0.0, out_path);
    EXPECT_TRUE(ok.succeeded());
    EXPECT_EQ(ok.exitCode, 0);
    std::ifstream file(out_path);
    std::string line;
    std::getline(file, line);
    EXPECT_EQ(line, "hello");

    ProcessResult bad = runProcess({"/bin/sh", "-c", "exit 3"}, 0.0, "");
    EXPECT_FALSE(bad.succeeded());
    EXPECT_EQ(bad.exitCode, 3);
    EXPECT_FALSE(bad.timedOut);
}

TEST_F(CampaignTest, ProcessReportsCrashSignal)
{
    ProcessResult r =
        runProcess({"/bin/sh", "-c", "kill -ABRT $$"}, 0.0, "");
    EXPECT_FALSE(r.succeeded());
    EXPECT_TRUE(r.signaled);
    EXPECT_EQ(r.termSignal, SIGABRT);
    EXPECT_FALSE(r.timedOut);
}

TEST_F(CampaignTest, ProcessKillsHangingChildAtDeadline)
{
    ProcessResult r = runProcess({"/bin/sh", "-c", "sleep 30"}, 0.1, "");
    EXPECT_FALSE(r.succeeded());
    EXPECT_TRUE(r.timedOut);
    EXPECT_TRUE(r.signaled);
    EXPECT_EQ(r.termSignal, SIGKILL);
    EXPECT_LT(r.wallSeconds, 5.0);
}

TEST_F(CampaignTest, ProcessReportsUnexecutableBinary)
{
    ProcessResult r =
        runProcess({(dir_ / "no_such_binary").string()}, 0.0, "");
    EXPECT_FALSE(r.succeeded());
    EXPECT_TRUE(r.startFailed);
}

// ----- metric flattening -----

TEST(CampaignMetrics, FlattensNumericLeaves)
{
    json::Value v = json::parse(R"({
        "throughput": 0.5, "saturated": false, "version": "skip-me",
        "latency": {"total": {"mean": 12.5}}, "arr": [1, 2]
    })");
    std::map<std::string, double> out;
    json::flattenNumbers(v, "", &out);
    EXPECT_DOUBLE_EQ(out.at("throughput"), 0.5);
    EXPECT_DOUBLE_EQ(out.at("saturated"), 0.0);
    EXPECT_DOUBLE_EQ(out.at("latency.total.mean"), 12.5);
    EXPECT_DOUBLE_EQ(out.at("arr.0"), 1.0);
    EXPECT_EQ(out.count("version"), 0u);
}

// ----- engine end-to-end (stub child binaries) -----

/** A stub "supersim" that honors --json=path and exits 0. */
constexpr const char* kOkStub = R"(#!/bin/sh
out=""
for a in "$@"; do case "$a" in --json=*) out="${a#--json=}";; esac; done
echo '{"throughput": 0.5, "engine": {"wall_seconds": 0.01}}' > "$out"
exit 0
)";

TEST_F(CampaignTest, EngineCompletesPointsThenServesThemFromCache)
{
    std::string stub = write("stub.sh", kOkStub, /*executable=*/true);
    CampaignSpec spec = stubSpec({"a", "b", "c"});

    CampaignReport cold =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_EQ(cold.completed, 3u);
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_TRUE(cold.allOk());
    for (const auto& outcome : cold.outcomes) {
        EXPECT_EQ(outcome.state, "completed");
        EXPECT_EQ(outcome.attempts, 1u);
        EXPECT_DOUBLE_EQ(outcome.metrics.at("throughput"), 0.5);
    }

    // Second run: every point is a cache hit; no child executes (the
    // stub is replaced by one that would fail the run).
    write("stub.sh", "#!/bin/sh\nexit 1\n", /*executable=*/true);
    CampaignReport warm =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_EQ(warm.completed, 0u);
    EXPECT_EQ(warm.cached, 3u);
    EXPECT_TRUE(warm.allOk());
    EXPECT_DOUBLE_EQ(warm.outcomes[0].metrics.at("throughput"), 0.5);

    // --force recomputes (and now observes the failing stub).
    EngineOptions force = stubOptions(stub);
    force.forceRerun = true;
    CampaignReport forced = CampaignEngine(spec, force).run();
    EXPECT_EQ(forced.cached, 0u);
    EXPECT_EQ(forced.quarantined, 3u);

    // The manifest journaled every invocation.
    auto records = readManifest(cold.manifestPath);
    std::size_t starts = 0;
    std::size_t cached_records = 0;
    for (const auto& rec : records) {
        if (rec.at("event").asString() == "start") {
            ++starts;
        }
        if (rec.at("event").asString() == "point" &&
            rec.at("state").asString() == "cached") {
            ++cached_records;
        }
    }
    EXPECT_EQ(starts, 3u);
    EXPECT_EQ(cached_records, 3u);
}

TEST_F(CampaignTest, EngineQuarantinesHangingPointAndFinishesTheRest)
{
    // mode=hang sleeps forever; the other points complete. The hanging
    // point must be killed at its deadline, retried, and quarantined.
    std::string stub = write("stub.sh", R"(#!/bin/sh
out=""
hang=0
for a in "$@"; do
  case "$a" in
    --json=*) out="${a#--json=}" ;;
    mode=string=hang) hang=1 ;;
  esac
done
[ "$hang" = 1 ] && sleep 30
echo '{"throughput": 1}' > "$out"
exit 0
)",
                             /*executable=*/true);
    CampaignSpec spec = stubSpec({"ok1", "hang", "ok2"},
                                 /*timeout_seconds=*/0.2,
                                 /*max_attempts=*/2);
    CampaignReport report =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.quarantined, 1u);
    const PointOutcome& hung = report.outcomes[1];
    EXPECT_EQ(hung.point.id, "M-hang");
    EXPECT_EQ(hung.state, "quarantined");
    EXPECT_EQ(hung.attempts, 2u);

    // The manifest records both timed-out attempts.
    std::size_t timed_out_attempts = 0;
    for (const auto& rec : readManifest(report.manifestPath)) {
        if (rec.at("event").asString() == "attempt" &&
            rec.at("timed_out").asBool()) {
            ++timed_out_attempts;
        }
    }
    EXPECT_EQ(timed_out_attempts, 2u);
}

TEST_F(CampaignTest, EngineRetriesCrashingPointWithBackoff)
{
    // The stub crashes on its first invocation (marker file absent) and
    // succeeds on the second: one retry, then completed.
    std::string marker = (dir_ / "crashed_once").string();
    std::string stub = write("stub.sh", std::string(R"(#!/bin/sh
out=""
for a in "$@"; do case "$a" in --json=*) out="${a#--json=}";; esac; done
if [ ! -e ")") + marker + R"(" ]; then
  touch ")" + marker + R"("
  kill -SEGV $$
fi
echo '{"throughput": 1}' > "$out"
exit 0
)",
                             /*executable=*/true);
    CampaignSpec spec = stubSpec({"only"}, 30.0, /*max_attempts=*/3);
    CampaignReport report =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
}

TEST_F(CampaignTest, EngineTreatsChildExit2AsPermanentBadSpec)
{
    std::string stub = write("stub.sh", R"(#!/bin/sh
for a in "$@"; do
  case "$a" in mode=string=bad) exit 2 ;; --json=*) out="${a#--json=}" ;; esac
done
echo '{"throughput": 1}' > "$out"
exit 0
)",
                             /*executable=*/true);
    CampaignSpec spec = stubSpec({"ok", "bad"}, 30.0, /*max_attempts=*/5);
    CampaignReport report =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.badSpec, 1u);
    const PointOutcome& bad = report.outcomes[1];
    EXPECT_EQ(bad.state, "bad_spec");
    EXPECT_EQ(bad.attempts, 1u);  // never retried
    EXPECT_EQ(bad.exitCode, kExitBadConfig);
}

TEST_F(CampaignTest, EngineDryRunExecutesNothing)
{
    std::string marker = (dir_ / "executed").string();
    std::string stub =
        write("stub.sh",
              "#!/bin/sh\ntouch " + marker + "\nexit 0\n",
              /*executable=*/true);
    CampaignSpec spec = stubSpec({"a", "b"});
    EngineOptions options = stubOptions(stub);
    options.dryRun = true;
    CampaignReport report = CampaignEngine(spec, options).run();
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].state, "planned");
    EXPECT_EQ(report.outcomes[1].state, "planned");
    EXPECT_FALSE(fs::exists(marker));
    EXPECT_FALSE(fs::exists(fs::path(spec.outputDir) / "manifest.jsonl"));
}

TEST_F(CampaignTest, EngineAggregatesMetricsTable)
{
    std::string stub = write("stub.sh", kOkStub, /*executable=*/true);
    CampaignSpec spec = stubSpec({"a", "b"});
    CampaignReport report =
        CampaignEngine(spec, stubOptions(stub)).run();
    EXPECT_TRUE(report.allOk());
    std::ifstream table(report.tablePath);
    ASSERT_TRUE(table.good());
    std::string header;
    std::string row;
    std::getline(table, header);
    std::getline(table, row);
    EXPECT_NE(header.find("Mode"), std::string::npos);
    EXPECT_NE(header.find("throughput"), std::string::npos);
    EXPECT_NE(row.find("a,"), std::string::npos);
    EXPECT_NE(row.find("0.5"), std::string::npos);
}

}  // namespace
}  // namespace ss::campaign
