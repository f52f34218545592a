/** @file Tooling tests: the SSParse/TaskRun/SSSweep equivalents. */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/logging.h"
#include "json/settings.h"
#include "stats/transaction_log.h"
#include "tools/collective_parser.h"
#include "tools/log_parser.h"
#include "tools/series_writer.h"
#include "tools/sweeper.h"
#include "tools/task_runner.h"

namespace ss {
namespace {

std::string
sampleLogText()
{
    std::ostringstream out;
    out << TransactionLog::header() << '\n';
    // id,app,src,dst,create,inject,deliver,flits,packets,hops,minhops,nm
    out << "1,0,0,5,100,101,150,1,1,3,3,0\n";
    out << "2,0,1,6,200,210,300,4,1,5,3,1\n";
    out << "3,1,2,7,500,500,560,1,1,3,3,0\n";
    out << "4,1,3,0,900,950,1200,8,2,4,4,0\n";
    return out.str();
}

TEST(LogParser, ParsesRowsAndFields)
{
    auto samples = LogParser::parseText(sampleLogText());
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[1].id, 2u);
    EXPECT_EQ(samples[1].flits, 4u);
    EXPECT_TRUE(samples[1].nonminimal);
    EXPECT_EQ(samples[3].packets, 2u);
    EXPECT_EQ(samples[0].totalLatency(), 50u);
    EXPECT_EQ(samples[0].networkLatency(), 49u);
}

TEST(LogParser, RejectsBadInput)
{
    EXPECT_THROW(LogParser::parseText("not,a,header\n1,2\n"), FatalError);
    EXPECT_THROW(LogParser::parseText(""), FatalError);
    EXPECT_THROW(LogParser::parseText(
                     std::string(TransactionLog::header()) + "\n1,2,3\n"),
                 FatalError);
}

TEST(LogFilter, AppFilter)
{
    auto samples = LogParser::parseText(sampleLogText());
    auto filtered = LogParser::apply(samples, std::vector<std::string>{"+app=0"});
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_EQ(filtered[0].id, 1u);
    EXPECT_EQ(filtered[1].id, 2u);
}

TEST(LogFilter, SendRangeFilterMatchesPaperSyntax)
{
    // The paper's example: "+send=500-1000" keeps traffic sent in
    // [500, 1000].
    auto samples = LogParser::parseText(sampleLogText());
    auto filtered = LogParser::apply(samples, std::vector<std::string>{"+send=500-1000"});
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_EQ(filtered[0].id, 3u);
    EXPECT_EQ(filtered[1].id, 4u);
}

TEST(LogFilter, FiltersCompose)
{
    auto samples = LogParser::parseText(sampleLogText());
    auto filtered =
        LogParser::apply(samples, std::vector<std::string>{"+app=1", "+send=500-1000"});
    ASSERT_EQ(filtered.size(), 2u);
    filtered = LogParser::apply(samples, std::vector<std::string>{"+app=0", "+nonminimal=1"});
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].id, 2u);
}

TEST(LogFilter, SizeHopsSrcDst)
{
    auto samples = LogParser::parseText(sampleLogText());
    EXPECT_EQ(LogParser::apply(samples, std::vector<std::string>{"+size=4-8"}).size(), 2u);
    EXPECT_EQ(LogParser::apply(samples, std::vector<std::string>{"+hops=5"}).size(), 1u);
    EXPECT_EQ(LogParser::apply(samples, std::vector<std::string>{"+src=1"}).size(), 1u);
    EXPECT_EQ(LogParser::apply(samples, std::vector<std::string>{"+dst=0"}).size(), 1u);
    EXPECT_EQ(LogParser::apply(samples, std::vector<std::string>{"+recv=0-400"}).size(), 2u);
}

TEST(LogFilter, MalformedSpecsAreFatal)
{
    auto samples = LogParser::parseText(sampleLogText());
    EXPECT_THROW(LogParser::apply(samples, {"app=0"}), FatalError);  // +
    EXPECT_THROW(LogParser::apply(samples, {"+app"}), FatalError);   // =
    EXPECT_THROW(LogParser::apply(samples, {"+nope=1"}), FatalError);
    EXPECT_THROW(LogParser::apply(samples, {"+send=9-5"}), FatalError);
    EXPECT_THROW(LogParser::apply(samples, {"+app=x"}), FatalError);
    // Every reader shares the grammar, so an inverted range is fatal in
    // series and collective filters too.
    std::vector<SeriesPoint> points = {{7, "engine.events", 1.0}};
    EXPECT_THROW(SeriesParser::apply(points, {"+tick=9-5"}), FatalError);
    EXPECT_THROW(CollectiveParser::apply({}, {"+iter=9-5"}), FatalError);
}

TEST(SeriesWriter, WritesRowsAndSeries)
{
    std::ostringstream out;
    SeriesWriter writer(&out);
    writer.header({"a", "b"});
    writer.row({1.5, 2.0});
    writer.row("label", {3.0});
    EXPECT_EQ(out.str(), "a,b\n1.5,2\nlabel,3\n");
}

TEST(SeriesWriter, LoadLatencyTable)
{
    std::ostringstream out;
    SeriesWriter writer(&out);
    writer.loadLatencyHeader();
    writer.loadLatencyRow(0.5, Distribution({10.0, 20.0, 30.0}));
    std::string text = out.str();
    EXPECT_NE(text.find("load,mean,p50"), std::string::npos);
    EXPECT_NE(text.find("0.5,20,20"), std::string::npos);
}

TEST(TaskGraph, RunsDependenciesInOrder)
{
    TaskGraph graph;
    std::vector<int> order;
    std::mutex m;
    auto record = [&](int id) {
        return [&order, &m, id]() {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(id);
            return true;
        };
    };
    graph.addTask("sim", record(1));
    graph.addTask("parse", record(2), {"sim"});
    graph.addTask("plot", record(3), {"parse"});
    EXPECT_TRUE(graph.run(2));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(graph.state("plot"), TaskState::kSucceeded);
}

TEST(TaskGraph, FailureSkipsDependentsOnly)
{
    TaskGraph graph;
    std::atomic<int> ran{0};
    graph.addTask("ok", [&]() { ++ran; return true; });
    graph.addTask("bad", []() { return false; });
    graph.addTask("child_of_bad", [&]() { ++ran; return true; },
                  {"bad"});
    graph.addTask("grandchild", [&]() { ++ran; return true; },
                  {"child_of_bad"});
    graph.addTask("child_of_ok", [&]() { ++ran; return true; }, {"ok"});
    EXPECT_FALSE(graph.run(2));
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(graph.state("bad"), TaskState::kFailed);
    EXPECT_EQ(graph.state("child_of_bad"), TaskState::kSkipped);
    EXPECT_EQ(graph.state("grandchild"), TaskState::kSkipped);
    EXPECT_EQ(graph.state("child_of_ok"), TaskState::kSucceeded);
    EXPECT_EQ(graph.tasksInState(TaskState::kSkipped).size(), 2u);
}

TEST(TaskGraph, ThrowingTaskCountsAsFailed)
{
    TaskGraph graph;
    graph.addTask("boom", []() -> bool {
        throw std::runtime_error("kapow");
    });
    EXPECT_FALSE(graph.run(1));
    EXPECT_EQ(graph.state("boom"), TaskState::kFailed);
}

TEST(TaskGraph, ResourceCapacityLimitsConcurrency)
{
    TaskGraph graph;
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    for (int i = 0; i < 6; ++i) {
        graph.addTask(strf("task_", i), [&]() {
            int now = ++concurrent;
            int old = peak.load();
            while (now > old && !peak.compare_exchange_weak(old, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            --concurrent;
            return true;
        }, {}, 2);
    }
    // Capacity 2 with cost-2 tasks: strictly serial despite 4 threads.
    EXPECT_TRUE(graph.run(4, 2));
    EXPECT_EQ(peak.load(), 1);
}

TEST(TaskGraph, SharedTransitiveDependentsSkipExactlyOnce)
{
    // Diamond with a shared dependent: root fails, both branches and the
    // join (reachable twice) must end up skipped, counted once each.
    TaskGraph graph;
    std::atomic<int> ran{0};
    graph.addTask("root", []() { return false; });
    graph.addTask("left", [&]() { ++ran; return true; }, {"root"});
    graph.addTask("right", [&]() { ++ran; return true; }, {"root"});
    graph.addTask("join", [&]() { ++ran; return true; },
                  {"left", "right"});
    graph.addTask("tail", [&]() { ++ran; return true; }, {"join"});
    EXPECT_FALSE(graph.run(4));
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(graph.state("root"), TaskState::kFailed);
    EXPECT_EQ(graph.tasksInState(TaskState::kSkipped).size(), 4u);
    // A second run must behave identically (dependency counters reset).
    EXPECT_FALSE(graph.run(2));
    EXPECT_EQ(graph.tasksInState(TaskState::kSkipped).size(), 4u);
}

TEST(TaskGraph, OversizedTaskIsClampedToCapacity)
{
    // A task demanding more resources than the total capacity must still
    // run (clamped), not deadlock the executor.
    TaskGraph graph;
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    auto body = [&]() {
        int now = ++concurrent;
        int old = peak.load();
        while (now > old && !peak.compare_exchange_weak(old, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        --concurrent;
        return true;
    };
    graph.addTask("huge", body, {}, 100);
    graph.addTask("small_1", body, {}, 1);
    graph.addTask("small_2", body, {}, 1);
    EXPECT_TRUE(graph.run(4, 3));
    EXPECT_EQ(graph.state("huge"), TaskState::kSucceeded);
    // The clamped task occupies the full capacity while running.
    EXPECT_LE(peak.load(), 3);
}

TEST(TaskGraph, RetriesWithBackoffUntilSuccess)
{
    TaskGraph graph;
    std::atomic<int> calls{0};
    TaskOptions options;
    options.maxAttempts = 5;
    options.backoffSeconds = 0.005;
    graph.addTask(
        "flaky",
        [&](TaskContext& ctx) {
            EXPECT_EQ(ctx.attempt(), static_cast<std::uint32_t>(calls + 1));
            return ++calls >= 3;
        },
        options);
    EXPECT_TRUE(graph.run(2));
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(graph.state("flaky"), TaskState::kSucceeded);
    EXPECT_EQ(graph.attempts("flaky"), 3u);
}

TEST(TaskGraph, ExhaustedRetriesFailAndSkipDependents)
{
    TaskGraph graph;
    std::atomic<int> calls{0};
    TaskOptions options;
    options.maxAttempts = 3;
    graph.addTask(
        "doomed", [&](TaskContext&) { ++calls; return false; }, options);
    graph.addTask("dependent", []() { return true; }, {"doomed"});
    EXPECT_FALSE(graph.run(2));
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(graph.state("doomed"), TaskState::kFailed);
    EXPECT_EQ(graph.attempts("doomed"), 3u);
    EXPECT_EQ(graph.state("dependent"), TaskState::kSkipped);
}

TEST(TaskGraph, TimeoutFailsOverrunningAttempts)
{
    // The executor cannot preempt a std::function, but an attempt that
    // returns success after its deadline still counts as timed out, and
    // is retried like any other failure.
    TaskGraph graph;
    std::atomic<int> calls{0};
    TaskOptions options;
    options.maxAttempts = 2;
    options.timeoutSeconds = 0.02;
    graph.addTask(
        "slow",
        [&](TaskContext& ctx) {
            EXPECT_DOUBLE_EQ(ctx.timeoutSeconds(), 0.02);
            ++calls;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return true;
        },
        options);
    graph.addTask(
        "fast", [](TaskContext&) { return true; }, TaskOptions{});
    EXPECT_FALSE(graph.run(2));
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(graph.state("slow"), TaskState::kFailed);
    EXPECT_TRUE(graph.timedOut("slow"));
    EXPECT_EQ(graph.state("fast"), TaskState::kSucceeded);
    EXPECT_FALSE(graph.timedOut("fast"));
}

TEST(TaskGraph, CancelRetriesMakesFailurePermanent)
{
    TaskGraph graph;
    std::atomic<int> calls{0};
    TaskOptions options;
    options.maxAttempts = 5;
    graph.addTask(
        "permanent",
        [&](TaskContext& ctx) {
            ++calls;
            ctx.cancelRetries();  // e.g. a config error: retry is futile
            return false;
        },
        options);
    EXPECT_FALSE(graph.run(1));
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(graph.attempts("permanent"), 1u);
    EXPECT_EQ(graph.state("permanent"), TaskState::kFailed);
}

TEST(TaskGraph, UnknownDependencyIsFatal)
{
    TaskGraph graph;
    EXPECT_THROW(graph.addTask("x", []() { return true; }, {"ghost"}),
                 FatalError);
    graph.addTask("a", []() { return true; });
    EXPECT_THROW(graph.addTask("a", []() { return true; }), FatalError);
}

TEST(Sweeper, GeneratesCrossProduct)
{
    Sweeper sweeper;
    sweeper.addVariable("Latency", "CL", {"1", "8"},
                        [](const std::string& v) {
                            return std::vector<std::string>{
                                "network.channel_latency=uint=" + v};
                        });
    sweeper.addVariable("Size", "MS", {"1", "4", "16"},
                        [](const std::string& v) {
                            return std::vector<std::string>{
                                "workload.applications.0.message_size="
                                "uint=" + v};
                        });
    auto points = sweeper.generate();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].id, "CL-1_MS-1");
    EXPECT_EQ(points[5].id, "CL-8_MS-16");
    EXPECT_EQ(points[3].values.at("Latency"), "8");
    EXPECT_EQ(points[3].overrides.size(), 2u);
}

TEST(Sweeper, EmptySweepIsFatal)
{
    Sweeper sweeper;
    EXPECT_THROW(sweeper.generate(), FatalError);
}

TEST(Sweeper, RunAllCollectsMetrics)
{
    Sweeper sweeper;
    sweeper.addVariable("X", "X", {"2", "5"},
                        [](const std::string& v) {
                            return std::vector<std::string>{
                                "x=uint=" + v};
                        });
    json::Value base = json::parse(R"({"x": 0, "y": 7})");
    auto rows = sweeper.runAll(
        base,
        [](const json::Value& config, const SweepPoint& point) {
            EXPECT_FALSE(point.id.empty());
            std::map<std::string, double> metrics;
            metrics["x_plus_y"] =
                static_cast<double>(config.at("x").asUint() +
                                    config.at("y").asUint());
            return metrics;
        },
        2);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].second.at("x_plus_y"), 9.0);
    EXPECT_DOUBLE_EQ(rows[1].second.at("x_plus_y"), 12.0);

    std::string csv = Sweeper::toCsv(rows);
    EXPECT_NE(csv.find("X,x_plus_y"), std::string::npos);
    EXPECT_NE(csv.find("2,9"), std::string::npos);
    EXPECT_NE(csv.find("5,12"), std::string::npos);
}

}  // namespace
}  // namespace ss
