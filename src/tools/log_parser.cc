#include "tools/log_parser.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/logging.h"
#include "json/json.h"
#include "stats/transaction_log.h"
#include "tools/filter.h"

namespace ss {

namespace {

using LogField = FilterField<MessageSample>;
const LogField kLogFields[] = {
    {"app", [](const MessageSample& s) -> std::uint64_t { return s.app; }},
    {"src",
     [](const MessageSample& s) -> std::uint64_t { return s.source; }},
    {"dst",
     [](const MessageSample& s) -> std::uint64_t { return s.destination; }},
    {"send",
     [](const MessageSample& s) -> std::uint64_t { return s.injectTick; }},
    {"recv",
     [](const MessageSample& s) -> std::uint64_t { return s.deliverTick; }},
    {"create",
     [](const MessageSample& s) -> std::uint64_t { return s.createTick; }},
    {"size", [](const MessageSample& s) -> std::uint64_t { return s.flits; }},
    {"hops", [](const MessageSample& s) -> std::uint64_t { return s.hops; }},
    {"nonminimal",
     [](const MessageSample& s) -> std::uint64_t { return s.nonminimal; }},
};

const FilterField<SeriesPoint> kSeriesFields[] = {
    {"name", nullptr, &SeriesPoint::name},
    {"tick", [](const SeriesPoint& p) { return p.tick; }},
};

}  // namespace

std::vector<MessageSample>
LogParser::parseFile(const std::string& path)
{
    std::ifstream file(path);
    checkUser(file.good(), "cannot open log file: ", path);
    std::ostringstream oss;
    oss << file.rdbuf();
    return parseText(oss.str());
}

std::vector<MessageSample>
LogParser::parseText(const std::string& text)
{
    auto field = [](const std::string& f) { return parseU64(f, "log"); };
    std::vector<MessageSample> samples;
    std::istringstream stream(text);
    std::string line;
    bool first = true;
    while (std::getline(stream, line)) {
        if (line.empty()) {
            continue;
        }
        if (first) {
            checkUser(line == TransactionLog::header(),
                      "unexpected log header: ", line);
            first = false;
            continue;
        }
        auto fields = splitCsv(line);
        checkUser(fields.size() == 12, "bad log row (", fields.size(),
                  " fields): ", line);
        MessageSample s;
        s.id = field(fields[0]);
        s.app = static_cast<std::uint32_t>(field(fields[1]));
        s.source = static_cast<std::uint32_t>(field(fields[2]));
        s.destination = static_cast<std::uint32_t>(field(fields[3]));
        s.createTick = field(fields[4]);
        s.injectTick = field(fields[5]);
        s.deliverTick = field(fields[6]);
        s.flits = static_cast<std::uint32_t>(field(fields[7]));
        s.packets = static_cast<std::uint32_t>(field(fields[8]));
        s.hops = static_cast<std::uint32_t>(field(fields[9]));
        s.minHops = static_cast<std::uint32_t>(field(fields[10]));
        s.nonminimal = field(fields[11]) != 0;
        samples.push_back(s);
    }
    checkUser(!first, "log has no header");
    return samples;
}

std::vector<MessageSample>
LogParser::apply(const std::vector<MessageSample>& samples,
                 const std::vector<std::string>& filter_specs)
{
    return applyFilters<MessageSample>(samples, filter_specs, kLogFields);
}

std::vector<SeriesPoint>
SeriesParser::parseFile(const std::string& path)
{
    std::ifstream file(path);
    checkUser(file.good(), "cannot open series file: ", path);
    std::ostringstream oss;
    oss << file.rdbuf();
    return parseText(oss.str());
}

bool
SeriesParser::looksLikeSeries(const std::string& first_line)
{
    return first_line == "tick,name,value" ||
           (!first_line.empty() && first_line[0] == '{');
}

std::vector<SeriesPoint>
SeriesParser::parseText(const std::string& text)
{
    std::vector<SeriesPoint> points;
    std::istringstream stream(text);
    std::string line;
    bool first = true;
    bool jsonl = false;
    while (std::getline(stream, line)) {
        if (line.empty()) {
            continue;
        }
        if (first) {
            first = false;
            jsonl = line[0] == '{';
            if (!jsonl) {
                checkUser(line == "tick,name,value",
                          "unexpected series header: ", line);
                continue;
            }
        }
        if (jsonl) {
            json::Value row = json::parse(line);
            checkUser(row.isObject() && row.has("tick") &&
                          row.has("metrics"),
                      "bad series JSONL row: ", line);
            std::uint64_t tick = row.at("tick").asUint();
            const json::Value& metrics = row.at("metrics");
            for (const std::string& key : metrics.keys()) {
                points.push_back(
                    {tick, key, metrics.at(key).asFloat()});
            }
        } else {
            auto fields = splitCsv(line);
            checkUser(fields.size() == 3, "bad series row (",
                      fields.size(), " fields): ", line);
            char* end = nullptr;
            double value = std::strtod(fields[2].c_str(), &end);
            checkUser(end == fields[2].c_str() + fields[2].size() &&
                          !fields[2].empty(),
                      "invalid value '", fields[2], "' in series");
            points.push_back(
                {parseU64(fields[0], "series"), fields[1], value});
        }
    }
    return points;
}

std::vector<SeriesPoint>
SeriesParser::apply(const std::vector<SeriesPoint>& points,
                    const std::vector<std::string>& filter_specs)
{
    return applyFilters<SeriesPoint>(points, filter_specs, kSeriesFields);
}

}  // namespace ss
