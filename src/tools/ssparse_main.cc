/**
 * @file
 * The ssparse command line (paper §V): parses a transaction log, applies
 * "+field=value" filters, and prints latency/hop aggregates.
 *
 *   ssparse run.log +app=0 +send=500-1000
 *
 * Observability time-series files (CSV "tick,name,value" or JSONL) are
 * detected automatically and summarized per instrument instead:
 *
 *   ssparse series.csv +name=router_0 +tick=1000-5000
 *
 * Collective stats files written by the Collective application
 * ("iter,op,name,..." header) are detected automatically too and
 * aggregated per collective:
 *
 *   ssparse collectives.csv +name=grads +iter=1-3
 *
 * Run-result JSON files written by `supersim --json` are detected by
 * their pretty-printed "{" first line; result mode takes no filters and
 * prints one "name value" line per numeric leaf of the result, dotted
 * names sorted, integral values exactly (e.g. "events_executed 316779",
 * "energy.joules_per_bit 5.417022705078126e-13"):
 *
 *   ssparse result.json
 */
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/version.h"
#include "json/json.h"
#include "stats/distribution.h"
#include "tools/collective_parser.h"
#include "tools/log_parser.h"

namespace {

int
collectiveMode(const std::string& path,
               const std::vector<std::string>& filters)
{
    auto records = ss::CollectiveParser::parseFile(path);
    auto filtered = ss::CollectiveParser::apply(records, filters);
    std::printf("collectives: %zu of %zu\n", filtered.size(),
                records.size());
    // Group durations per collective name, names sorted.
    std::map<std::string, std::vector<double>> byName;
    std::map<std::string, std::uint64_t> payload;
    std::map<std::string, std::string> algorithm;
    for (const auto& r : filtered) {
        byName[r.name].push_back(static_cast<double>(r.duration()));
        payload[r.name] = r.payloadBytes;
        algorithm[r.name] = r.algorithm;
    }
    for (const auto& [name, durations] : byName) {
        ss::Distribution dist(durations);
        std::printf("%-24s %-18s bytes %-8llu n %zu mean %.1f min %.0f "
                    "p50 %.0f p99 %.0f max %.0f\n",
                    name.c_str(), algorithm[name].c_str(),
                    static_cast<unsigned long long>(payload[name]),
                    dist.count(), dist.mean(), dist.min(),
                    dist.percentile(50), dist.percentile(99),
                    dist.max());
    }
    return 0;
}

int
seriesMode(const std::string& path, const std::vector<std::string>& filters)
{
    auto points = ss::SeriesParser::parseFile(path);
    auto filtered = ss::SeriesParser::apply(points, filters);
    std::printf("samples: %zu of %zu\n", filtered.size(), points.size());
    // Per-instrument aggregates, instrument names sorted.
    std::map<std::string, std::vector<double>> byName;
    std::map<std::string, double> lastValue;
    for (const auto& p : filtered) {
        byName[p.name].push_back(p.value);
        lastValue[p.name] = p.value;
    }
    std::printf("instruments: %zu\n", byName.size());
    for (const auto& [name, values] : byName) {
        ss::Distribution dist(values);
        std::printf("%-48s n %zu last %.6g mean %.6g min %.6g max %.6g\n",
                    name.c_str(), dist.count(), lastValue[name],
                    dist.mean(), dist.min(), dist.max());
    }
    return 0;
}

int
resultMode(const std::string& path)
{
    ss::json::Value root = ss::json::parseFile(path);
    ss::checkUser(root.isObject(), "malformed run-result JSON in ", path);
    std::map<std::string, double> leaves;
    ss::json::flattenNumbers(root, "", &leaves);
    for (const auto& [name, value] : leaves) {
        // Canonical number spelling: integral values as integers, others
        // in their shortest round-trip form.
        std::printf("%s %s\n", name.c_str(),
                    ss::json::Value(value).toCanonicalString().c_str());
    }
    return ss::kExitOk;
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <log.csv|series.csv|result.json> "
                 "[--version] [+field=value ...]\n",
                 argv0);
    return ss::kExitBadConfig;
}

}  // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--version") {
            std::printf("ssparse %s\n", ss::buildVersion());
            return ss::kExitOk;
        }
    }
    if (argc < 2) {
        return usage(argv[0]);
    }
    try {
        std::vector<std::string> filters;
        for (int i = 2; i < argc; ++i) {
            filters.emplace_back(argv[i]);
        }

        std::ifstream probe(argv[1]);
        ss::checkUser(probe.good(), "cannot open file: ", argv[1]);
        std::string first_line;
        std::getline(probe, first_line);
        probe.close();
        if (ss::CollectiveParser::looksLikeCollectiveLog(first_line)) {
            return collectiveMode(argv[1], filters);
        }
        // Pretty-printed RunResult JSON opens with a bare "{" line; JSONL
        // series lines open with "{\"tick\"...", so check this *before*
        // the series probe (which accepts any '{'-initial line).
        std::string trimmed = first_line;
        while (!trimmed.empty() &&
               (trimmed.back() == '\r' || trimmed.back() == ' ')) {
            trimmed.pop_back();
        }
        if (trimmed == "{") {
            if (!filters.empty()) {
                std::fprintf(stderr,
                             "ssparse: a run result takes no filters "
                             "(got %s)\n",
                             filters[0].c_str());
                return usage(argv[0]);
            }
            return resultMode(argv[1]);
        }
        if (ss::SeriesParser::looksLikeSeries(first_line)) {
            return seriesMode(argv[1], filters);
        }

        auto samples = ss::LogParser::parseFile(argv[1]);
        auto filtered = ss::LogParser::apply(samples, filters);
        std::printf("messages: %zu of %zu\n", filtered.size(),
                    samples.size());
        if (filtered.empty()) {
            return 0;
        }
        ss::LatencySampler sampler;
        for (const auto& s : filtered) {
            sampler.record(s);
        }
        ss::Distribution total = sampler.totalLatencyDistribution();
        ss::Distribution network = sampler.networkLatencyDistribution();
        ss::Distribution hops = sampler.hopDistribution();
        std::printf("total latency:   mean %.2f min %.0f p50 %.0f p90 "
                    "%.0f p99 %.0f p99.9 %.0f max %.0f\n",
                    total.mean(), total.min(), total.percentile(50),
                    total.percentile(90), total.percentile(99),
                    total.percentile(99.9), total.max());
        std::printf("network latency: mean %.2f p50 %.0f p99 %.0f\n",
                    network.mean(), network.percentile(50),
                    network.percentile(99));
        std::printf("hops:            mean %.2f max %.0f\n", hops.mean(),
                    hops.max());
        std::printf("nonminimal:      %.4f\n",
                    sampler.nonminimalFraction());
        return ss::kExitOk;
    } catch (const ss::FatalError&) {
        // fatal() already printed the diagnostic.
        std::fprintf(stderr,
                     "ssparse: invalid input or usage (exit %d)\n",
                     ss::kExitBadConfig);
        return ss::kExitBadConfig;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ssparse: error: %s\n", e.what());
        return ss::kExitRuntimeError;
    }
}
